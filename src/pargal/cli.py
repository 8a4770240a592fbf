"""The pargal command line: verification, quotients and Harrison arithmetic.

Exit codes: 0 success, 1 check failure, 2 usage/parse/validation error,
3 undecided.  Reports print as text (with timing) or, behind --json, as a
timing-free machine-readable document so identical inputs give identical
bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .scalars import Matrix, parse_ring
from .algebra import Algebra, AlgebraError
from .actionfile import ActionFileError, _scalar, load_action, save_action
from .groups import GroupError, subgroup_closure
from .paction import (
    PartialAction,
    _on_points,
    _point_set,
    galois_coordinates,
    invariants,
    inverse_action,
    iso_check,
    restrict,
    trace,
    transport,
    verify_partial_action,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3


class Report:
    def __init__(self, command: str, args):
        self.command = command
        self.args = list(args)
        self.checks = []
        self.data = {}
        self.elapsed = 0.0

    def check(self, name: str, status, witness=None):
        if status is True:
            status = "pass"
        elif status is False:
            status = "fail"
        self.checks.append({"name": name, "status": status, "witness": witness})

    def from_action_report(self, rep):
        for c in rep.checks:
            self.check(c.name, c.passed, c.witness)

    @property
    def exit_code(self) -> int:
        if any(c["status"] == "fail" for c in self.checks):
            return EXIT_CHECK_FAILED
        if any(c["status"] == "undecided" for c in self.checks):
            return EXIT_UNDECIDED
        return EXIT_OK

    def document(self) -> dict:
        return {
            "command": self.command,
            "args": self.args,
            "checks": self.checks,
            "data": self.data,
        }

    def text(self) -> str:
        lines = [f"pargal {self.command} {' '.join(self.args)}".rstrip()]
        for c in self.checks:
            mark = {"pass": "pass", "fail": "FAIL", "undecided": "undecided"}[c["status"]]
            suffix = f"  [{c['witness']}]" if c["witness"] else ""
            lines.append(f"  {mark:9s} {c['name']}{suffix}")
        for key, value in self.data.items():
            lines.append(f"{key}:")
            if isinstance(value, list):
                for item in value:
                    lines.append(f"  {item}")
            elif isinstance(value, dict):
                for k, v in value.items():
                    lines.append(f"  {k}: {v}")
            else:
                lines.append(f"  {value}")
        lines.append(f"elapsed: {self.elapsed:.3f} s")
        return "\n".join(lines)


def _load(path: str, base=None, verify=True) -> PartialAction:
    act = load_action(path, verify=verify)
    if base and base != repr(act.algebra.ring):
        act = _change_base(act, base)
        if verify:
            rep = verify_partial_action(act)
            if not rep.passed:
                bad = rep.failures()[0]
                raise ActionFileError(path, f"axioms fail over {base}: {bad.name} [{bad.witness}]")
    return act


def _change_base(act: PartialAction, base: str) -> PartialAction:
    """``act`` over the ring ``base``.  A certified point set stays on its
    points: its 0/1 maps are those of R^n over any ring."""
    ring = parse_ring(base)
    points = _point_set(act)
    if points is not None:
        return _on_points(act.group, Algebra.split(ring, act.algebra.labels), points)
    algebra = act.algebra.over(ring)
    algebra.validate()  # the file's constants may degenerate over the new ring
    idems = [algebra.element(e.coords) for e in act.idems]
    maps = [Matrix(ring, [[ring.coerce(v) for v in row] for row in m.rows], algebra.rank) for m in act.maps]
    return PartialAction(act.group, algebra, idems, maps)


def _subgroup(act: PartialAction, spec: str):
    if spec is None:
        raise AlgebraError("this command needs --subgroup")
    labels = [s for s in spec.replace(",", " ").split() if s]
    seeds = [act.group.index_of(lab) for lab in labels]
    return subgroup_closure(act.group, seeds)


def _fmt(algebra, coords) -> str:
    return algebra.format_coords(list(coords))


def _matrix_rows(m: Matrix):
    ring = m.ring
    return [[ring.scalar_to_str(v) for v in row] for row in m.rows]


def _galois_pairs(witness):
    alg = witness.action.algebra
    return [[_fmt(alg, x.coords), _fmt(alg, y.coords)] for x, y in witness.pairs]


def _save(args, report, act: PartialAction):
    """Write ``act`` to the path of ``--out``, when one is given."""
    if args.out:
        save_action(act, args.out)
        report.data["written"] = args.out


def _certified_class(act: PartialAction):
    from .harrison import ExtensionClass

    return ExtensionClass.certify(act)


# -- command bodies ---------------------------------------------------------

def cmd_verify(args, report):
    act = _load(args.files[0], args.base, verify=False)
    report.from_action_report(verify_partial_action(act))
    report.data["carrier rank"] = act.algebra.rank
    report.data["group"] = " ".join(act.group.labels)


def cmd_galois(args, report):
    act = _load(args.files[0], args.base)
    witness = galois_coordinates(act)
    report.check("partial Galois coordinates exist", witness is not None)
    if witness is not None:
        report.data["coordinates"] = _galois_pairs(witness)


def cmd_trace(args, report):
    act = _load(args.files[0], args.base)
    ring = act.algebra.ring
    if not args.element:
        raise AlgebraError("trace needs --element with comma-separated coordinates")
    coords = [_scalar(ring, s, f"--element coordinate {i}") for i, s in enumerate(args.element.split(","), 1)]
    out = trace(act, act.algebra.element(coords))
    report.check("trace lies in the invariant subalgebra", True)
    report.data["trace"] = _fmt(act.algebra, out.coords)


def cmd_invariants(args, report):
    act = _load(args.files[0], args.base)
    if args.subgroup is not None:
        sub = _subgroup(act, args.subgroup)
        act = restrict(act, sub)
        report.data["subgroup"] = " ".join(act.group.labels)
    inv = invariants(act)
    report.check("invariants form a unital subalgebra", True)
    report.data["rank"] = inv.algebra.rank
    report.data["basis"] = [_fmt(inv.parent, row) for row in inv.basis.rows]


def cmd_restrict(args, report):
    act = _load(args.files[0], args.base)
    sub = _subgroup(act, args.subgroup)
    out = restrict(act, sub)
    report.from_action_report(verify_partial_action(out))
    report.data["subgroup"] = " ".join(out.group.labels)
    _save(args, report, out)


def cmd_globalize(args, report):
    # globalize raises unless certify_globalization passes every check
    from .envelope import _GLOBALIZATION_CHECKS, globalize

    act = _load(args.files[0], args.base)
    gd = globalize(act)
    for name in _GLOBALIZATION_CHECKS:
        report.check(name, True)
    report.data["enveloping rank"] = gd.algebra.rank


def cmd_psi(args, report):
    from .envelope import globalize, psi_report

    act = _load(args.files[0], args.base)
    sub = _subgroup(act, args.subgroup)
    gd = globalize(act)
    report.from_action_report(psi_report(gd, sub))
    report.data["subgroup"] = " ".join(act.group.labels[m] for m in sub.members)


def cmd_quotient(args, report):
    from .quotient import quotient_action, quotient_via_globalization

    act = _load(args.files[0], args.base)
    sub = _subgroup(act, args.subgroup)
    qa = quotient_action(act, sub)
    report.from_action_report(qa.certify())
    qb = quotient_via_globalization(act, sub)
    report.check("intrinsic route equals the psi_H route", qa.action == qb.action)
    report.data["invariants basis"] = [_fmt(act.algebra, row) for row in qa.carrier.basis.rows]
    report.data["coset idempotents"] = {
        qa.qdata.quotient.labels[q]: _fmt(act.algebra, t.coords) for q, t in enumerate(qa.tilde_idems)
    }
    report.data["maps"] = {
        qa.qdata.quotient.labels[q]: _matrix_rows(qa.action.maps[q])
        for q in qa.qdata.quotient.elements()
    }


def cmd_quotient_check(args, report):
    from .quotient import quotient_galois_check

    act = _load(args.files[0], args.base)
    sub = _subgroup(act, args.subgroup)
    qa, witness = quotient_galois_check(act, sub)
    report.check("quotient extension has Galois coordinates", witness is not None)
    report.data["coordinates"] = _galois_pairs(witness)


def cmd_tensor(args, report):
    from .harrison import tensor_action

    a = _load(args.files[0], args.base)
    b = _load(args.files[1], args.base)
    t = tensor_action(a, b)
    report.from_action_report(verify_partial_action(t))
    report.data["rank"] = t.algebra.rank
    report.data["group order"] = t.group.order
    _save(args, report, t)


def cmd_product(args, report):
    from .harrison import harrison_product

    a = _certified_class(_load(args.files[0], args.base))
    b = _certified_class(_load(args.files[1], args.base))
    report.check("left operand certified partial Galois", True)
    report.check("right operand certified partial Galois", True)
    prod = harrison_product(a, b)
    report.check("product certified partial Galois", True)
    alg = prod.action.algebra
    report.data["carrier rank"] = alg.rank
    report.data["carrier basis"] = list(alg.labels)
    report.data["coset idempotents"] = {
        prod.group.labels[g]: _fmt(alg, prod.action.idems[g].coords) for g in prod.group.elements()
    }
    report.data["domain ranks"] = prod.action.ideal_ranks()
    report.data["maps"] = {
        prod.group.labels[g]: _matrix_rows(prod.action.maps[g]) for g in prod.group.elements()
    }
    _save(args, report, prod.action)


def cmd_inverse(args, report):
    act = _load(args.files[0], args.base)
    out = inverse_action(act)
    report.from_action_report(verify_partial_action(out))
    _save(args, report, out)


def cmd_idempotent(args, report):
    from .harrison import harrison_product, idempotent_class

    act = _load(args.files[0], args.base)
    e = idempotent_class(act)
    report.check("E(S,alpha) certified partial Galois", True)
    c = _certified_class(act)
    res = iso_check(e.action, harrison_product(c, c.star()).action)
    report.check("E(S,alpha) iso to [alpha]*[alpha*]", res.status == "iso")
    alg = e.action.algebra
    report.data["rank"] = alg.rank
    report.data["ideal ranks"] = e.action.ideal_ranks()
    _save(args, report, e.action)


def cmd_iso(args, report):
    a = _load(args.files[0], args.base)
    b = _load(args.files[1], args.base)
    res = iso_check(a, b)
    status = {"iso": "pass", "none": "fail", "undecided": "undecided"}[res.status]
    report.check("partially G-isomorphic", status)
    if res.morphism is not None:
        report.data["witness"] = _matrix_rows(res.morphism.matrix)


def cmd_suite(args, report):
    from .harrison import CertificationError, star_product_suite

    actions = [_load(path, args.base) for path in args.files]
    groups = {a.group for a in actions}
    if len(groups) != 1:
        raise AlgebraError("suite needs classes over one group")
    classes = []
    for i, act in enumerate(actions):
        try:
            classes.append(_certified_class(act))
            report.check(f"class {i} certified", True)
        except CertificationError as exc:
            report.check(f"class {i} certified", False, str(exc))
    if not all(c["status"] == "pass" for c in report.checks):
        return
    suite = star_product_suite(classes)
    for name, status, note in suite.checks:
        report.check(name, status, note)
    report.data["iso witnesses"] = suite.witnesses


def cmd_decompose(args, report):
    from .harrison import cyclic_compose, cyclic_decompose

    act = _load(args.files[0], args.base)
    if not args.factors:
        raise AlgebraError("decompose needs --factors, e.g. --factors 2,2")
    orders = [_factor_order(s, i) for i, s in enumerate(args.factors.split(","), 1)]
    c = _certified_class(act)
    parts = cyclic_decompose(c, orders)
    for i, part in enumerate(parts):
        report.check(f"factor {i} certified partial Galois", True)
        report.data[f"factor {i} rank"] = part.action.algebra.rank
    recomposed = cyclic_compose(parts)
    # the input's group has the product's Cayley table, not always its labels
    res = iso_check(recomposed.action, transport(c.action, recomposed.group, list(c.group.elements())))
    report.check("compose of the factors is iso to the input", res.status == "iso")


def _factor_order(text: str, i: int) -> int:
    """Entry i (from 1) of --factors as an integer, or a located error."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--factors entry {i}: {text!r} is not an integer") from None


def cmd_compose(args, report):
    from .harrison import cyclic_compose

    classes = [_certified_class(_load(path, args.base)) for path in args.files]
    composed = cyclic_compose(classes)
    report.check("composite certified partial Galois", True)
    report.data["rank"] = composed.action.algebra.rank
    report.data["group order"] = composed.group.order
    _save(args, report, composed.action)


HANDLERS = {
    "verify": (cmd_verify, 1),
    "galois": (cmd_galois, 1),
    "trace": (cmd_trace, 1),
    "invariants": (cmd_invariants, 1),
    "restrict": (cmd_restrict, 1),
    "globalize": (cmd_globalize, 1),
    "psi": (cmd_psi, 1),
    "quotient": (cmd_quotient, 1),
    "quotient-check": (cmd_quotient_check, 1),
    "tensor": (cmd_tensor, 2),
    "product": (cmd_product, 2),
    "inverse": (cmd_inverse, 1),
    "idempotent": (cmd_idempotent, 1),
    "iso": (cmd_iso, 2),
    "suite": (cmd_suite, None),
    "decompose": (cmd_decompose, 1),
    "compose": (cmd_compose, None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pargal",
        description="Exact computations with unital partial Galois actions.",
    )
    parser.add_argument("command", choices=HANDLERS)
    parser.add_argument("files", nargs="*", help="action files (JSON)")
    parser.add_argument("--subgroup", help="generator labels, e.g. 'g2' or 'g,g2'")
    parser.add_argument("--base", help="override base ring: Q or Z/<n>")
    parser.add_argument("--element", help="element coordinates for trace, e.g. '1,0,2'")
    parser.add_argument("--factors", help="cyclic factor orders for decompose, e.g. '2,2'")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--out", help="write a resulting action file here")
    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, arity = HANDLERS[args.command]
    if arity is not None and len(args.files) != arity:
        print(f"pargal {args.command}: expected {arity} file argument(s)", file=sys.stderr)
        return EXIT_USAGE
    if arity is None and not args.files:
        print(f"pargal {args.command}: expected at least one file argument", file=sys.stderr)
        return EXIT_USAGE
    report = Report(args.command, args.files)
    start = time.perf_counter()
    try:
        handler(args, report)
    except (ActionFileError, AlgebraError, GroupError, ValueError) as exc:
        print(f"pargal {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report.elapsed = time.perf_counter() - start
    if args.json:
        print(json.dumps(report.document(), indent=1))
    else:
        print(report.text())
    return report.exit_code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
