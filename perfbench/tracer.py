"""Outside-in tracing of pargal's public functions.

The library is not edited.  ``Tracer.install`` rebinds every traced
function in every loaded ``pargal.*`` module namespace where it appears
(many callers import by name, ``from .scalars import solve``) and, for
methods, on the defining class; ``uninstall`` restores the original
bindings.  Each call becomes a span with name, start, end, parent span and
op id, kept in compact in-memory arrays and written out once at the end.

Self time of a span is its duration minus the time covered by its child
spans.  Work the tracer does for derived counters (matrix sizes, canonical
class keys) runs with tracing suspended and is cut out of every open span's
interval, so it never lands in a layer's self time.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from math import factorial

from canon import class_key, prime_powers

# layer -> traced functions; "Class.method" names a method on a class that
# the layer module defines.
LAYERS = {
    "scalars": ["solve", "kernel", "canonical_row_form", "intersect_modules", "invertible", "invert",
                "Matrix.mul", "Matrix.matvec"],
    "algebra": ["Algebra.mul_coords", "Algebra.mult_matrix", "SubAlgebra.express", "subalgebra_from_constraints",
                "algebra_on_module", "find_split_presentation", "tensor", "product_over_ideals"],
    "groups": ["make_product", "quotient", "subgroup_closure"],
    "paction": ["verify_partial_action", "invariants", "galois_coordinates", "PartialAction.idem_matrix",
                "iso_check", "transport"],
    "envelope": ["globalize", "certify_globalization", "psi_h", "psi_report"],
    "quotient": ["quotient_action", "QuotientAction.certify", "quotient_via_globalization", "induced_map_apply",
                 "quotient_idempotent"],
    "harrison": ["harrison_product", "tensor_action", "ExtensionClass.certify", "idempotent_class", "hat_action",
                 "star_product_suite"],
    "actionfile": ["load_action", "save_action"],
    "cli": ["run"],
}

SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]

# derived counters: name -> (unit, better)
DERIVED = {
    "scalars.solve.cells": ("count", "lower"),
    "paction.iso_check.candidate_space": ("count", "lower"),
    "paction.iso_check.survivors": ("count", "lower"),
    "paction.iso_check.iso_ratio": ("ratio", "higher"),
    "paction.iso_check.undecided": ("count", "lower"),
    "harrison.verify_per_product": ("ratio", "lower"),
    "harrison.harrison_product.distinct_ratio": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in SPAN_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out.extend((name, unit, better) for name, (unit, better) in DERIVED.items())
    return out


def _unit_count(ring) -> int:
    """Number of CRT factors of the base ring (1 for Q and fields)."""
    if ring.kind == "rationals" or ring.is_field:
        return 1
    return len(prime_powers(ring.n))


class Tracer:
    """Spans and counters for one traced pass; install/uninstall around it."""

    OP_SPAN = "bench.op"

    def __init__(self):
        self.names = [self.OP_SPAN] + SPAN_NAMES
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.open = {}  # span name -> nesting depth
        self.stack = []  # [span index, start, child time]
        self.op_id = -1
        self.paused = 0.0
        self.suspended = 0
        self.cells = 0
        self.candidate_space = 0
        self.survivors = 0
        self.iso_answers = {"iso": 0, "none": 0, "undecided": 0}
        self.verify_in_products = 0
        self.product_keys = set()
        self._saved = []

    # -- clock and suspension -------------------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def untimed(self, fn, *args):
        """Run bookkeeping with tracing off and its time cut from all spans."""
        t0 = time.perf_counter()
        self.suspended += 1
        try:
            return fn(*args)
        finally:
            self.suspended -= 1
            self.paused += time.perf_counter() - t0

    # -- spans ---------------------------------------------------------------

    def _enter(self, name_id: int):
        parent = self.stack[-1][0] if self.stack else -1
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_op.append(self.op_id)
        start = self.now()
        self.span_start.append(start)
        self.span_end.append(start)
        self.stack.append([idx, start, 0.0])
        name = self.names[name_id]
        self.open[name] = self.open.get(name, 0) + 1

    def _exit(self, name_id: int):
        end = self.now()
        idx, start, child = self.stack.pop()
        self.span_end[idx] = end
        dur = end - start
        self.calls[name_id] += 1
        self.self_s[name_id] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        self.open[self.names[name_id]] -= 1

    def op(self, op_id: int, fn, *args):
        """Run one benchmark op under a root span."""
        self.op_id = op_id
        self._enter(0)
        try:
            return fn(*args)
        finally:
            self._exit(0)

    def _wrap(self, name: str, fn, before, after):
        name_id = self._name_id[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.suspended:
                return fn(*args, **kwargs)
            if before is not None:
                self.untimed(before, args)
            self._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name_id)
            if after is not None:
                after(result)
            return result

        return traced

    # -- derived counters ----------------------------------------------------

    def _before_hooks(self):
        def solve(args):
            self.cells += args[0].nrows * args[0].ncols

        def iso_check(args):
            a, b = args[0], args[1]
            if a.algebra.rank == b.algebra.rank:
                self.candidate_space += factorial(a.algebra.rank) ** _unit_count(a.algebra.ring)

        def invertible(args):
            if self.open.get("paction.iso_check"):
                self.survivors += 1

        def verify(args):
            if self.open.get("harrison.harrison_product"):
                self.verify_in_products += 1

        def product(args):
            self.product_keys.add((class_key(args[0]), class_key(args[1])))

        return {
            "scalars.solve": solve,
            "paction.iso_check": iso_check,
            "scalars.invertible": invertible,
            "paction.verify_partial_action": verify,
            "harrison.harrison_product": product,
        }

    def _after_hooks(self):
        def iso_check(result):
            self.iso_answers[result.status] += 1

        return {"paction.iso_check": iso_check}

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        """Rebind every traced function in pargal's namespaces and classes."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        before, after = self._before_hooks(), self._after_hooks()
        modules = [m for n, m in sorted(sys.modules.items()) if m is not None and (n == "pargal" or n.startswith("pargal."))]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"pargal.{layer}"]
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(name, raw.__func__, before.get(name), after.get(name)))
                    else:
                        new = self._wrap(name, raw, before.get(name), after.get(name))
                    self._saved.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                original = getattr(home, fn)
                wrapper = self._wrap(name, original, before.get(name), after.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict:
        out = {}
        for i, name in enumerate(self.names[1:], start=1):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
        iso_calls = self.calls[self._name_id["paction.iso_check"]]
        products = self.calls[self._name_id["harrison.harrison_product"]]
        out["scalars.solve.cells"] = self.cells
        out["paction.iso_check.candidate_space"] = self.candidate_space
        out["paction.iso_check.survivors"] = self.survivors
        out["paction.iso_check.iso_ratio"] = self.iso_answers["iso"] / iso_calls if iso_calls else 0.0
        out["paction.iso_check.undecided"] = self.iso_answers["undecided"]
        out["harrison.verify_per_product"] = self.verify_in_products / products if products else 0.0
        out["harrison.harrison_product.distinct_ratio"] = len(self.product_keys) / products if products else 0.0
        out["trace.overhead_s"] = overhead_s
        return out

    def bases(self) -> dict:
        """The denominators of the ratio metrics, so each ratio has its base."""
        return {
            "paction.iso_check.iso_ratio": {"base": "iso_check calls",
                                            "value": self.calls[self._name_id["paction.iso_check"]],
                                            "answers": dict(self.iso_answers)},
            "harrison.verify_per_product": {"base": "harrison_product calls",
                                            "value": self.calls[self._name_id["harrison.harrison_product"]]},
            "harrison.harrison_product.distinct_ratio": {"base": "harrison_product calls",
                                                         "value": self.calls[self._name_id["harrison.harrison_product"]],
                                                         "distinct_pairs": len(self.product_keys)},
        }

    def write_spans(self, path: str, header: dict):
        """One JSON header line, then the raw span arrays (native byte order)."""
        head = dict(header)
        head.update({
            "names": self.names,
            "spans": len(self.span_name),
            "fields": [["name", "i"], ["parent", "i"], ["op", "i"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        })
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(head).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_op, self.span_start, self.span_end):
                arr.tofile(fh)


def read_spans(path: str):
    """Inverse of ``Tracer.write_spans``: (header, list of span tuples)."""
    with gzip.open(path, "rb") as fh:
        head = json.loads(fh.readline())
        n = head["spans"]
        cols = []
        for _, code in head["fields"]:
            arr = array(code)
            arr.frombytes(fh.read(n * arr.itemsize))
            cols.append(arr)
    return head, list(zip(*cols))
