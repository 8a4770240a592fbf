#!/usr/bin/env python3
"""A scale ladder: time a few ops as n grows and print one JSON line.

    python3 scripts/scale_probe.py [N ...] [--cli N ...]
        # default: 64 128 --cli 24 32 36 48 96

Rungs, each on the regular Z_n-set over Q as `perfbench/gen.py` builds it
(`regular_restriction`):

- for each positional n, `ExtensionClass.certify` on a fresh copy of the
  set on all n points, `harrison_product(c, c)` on the certified class,
  `globalize` on a fresh copy of the set on n/2 points,
  `canonical_key` of a fresh certified copy of the set on all n points and
  `iso_check` of one against a copy translated by 1,
  `quotient_action(act, H).certify()` on such a copy with H = <g_(n/2)>,
  so |G/H| = n/2, and `quotient_via_globalization(act, <g2>)` on a fresh
  copy of the set on n/2 points, so |H| = n/2;
- for each n after ``--cli``, `cli.run` of `psi` and of `quotient` with
  ``--subgroup g2`` (so |H| = n/2) on the set on n/2 points, read from an
  action file in a temporary directory; the report is discarded;
- at n = 64 (`POINT_RUNG`), `cli.run` of `product --json` of the set on all
  n points with itself, and of `idempotent --json` on it, read the same way;
- at n = 256 and 512 (`SUBSET_RUNGS`), `harrison_product(c, c)` of the
  certified class c of the set on the 8 points 0 .. 7, and `idempotent_class`
  of a fresh copy of that set: rank 8 at every n, so these rungs grow with
  |G| alone;
- at n = 12 and 16 (`DENSE_RUNGS`), the routes that read no point set:
  `verify_partial_action` plus `canonical_key` of a fresh copy of the set
  on all n points rebased onto the basis e_0, e_0 + e_1, ..., e_(n-2) +
  e_(n-1) by `tests/test_paction.py::rebased`, and over Z/6 `iso_check`
  of a fresh set glued by `tests/test_paction.py::crt_glue` (3 x + 4 y, x
  the set and y the set on the reversed basis, so no point set) against
  its copy on the reversed basis;
- at n = 6 and 8 (`GLUED_RUNGS`), `harrison_product(c, c)` of the
  certified class c of a fresh copy of that glued set: the matrix route of
  the product, through the tensor carrier of rank n^2;
- at n = 32, 48 and 64 (`LOAD_RUNGS`), `load_action` of the file that
  `save_action` wrote for the set on all n points: a standard carrier,
  read onto its point set;
- at n = 8, 16 and 32 (`SUITE_RUNGS`), `star_product_suite` over fresh
  copies of the five classes `tests/test_harrison.py::subset_class(n, U)`,
  U = {0}, {0, 1}, {0, 1, 3}, {0, 2, 3} and Z_n: the inverse-semigroup
  laws, with the products, the iso searches and the idempotent classes
  they ask for.

Each rung reports the raw seconds, the least of three runs, and the growth
exponent log(t2 / t1) / log(n2 / n1) from the op's previous rung (null on
its first).  These are raw wall-clock seconds: unlike the reference clock of
`perfbench/run.py`, they do not cancel the load of a shared host, so compare
runs made side by side.  Nothing in the library imports this.
"""

import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile
import time

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "tests")]

from pargal import QQ, ExtensionClass, cli, globalize, harrison_product, idempotent_class, star_product_suite  # noqa: E402
from pargal.actionfile import load_action, save_action  # noqa: E402
from pargal.groups import subgroup_closure  # noqa: E402
from pargal.paction import canonical_key, iso_check, verify_partial_action  # noqa: E402
from pargal.quotient import quotient_action, quotient_via_globalization  # noqa: E402
from pargal.scalars import Matrix, Modular  # noqa: E402
from gen import regular_restriction, relabel  # noqa: E402
from test_harrison import subset_class  # noqa: E402
from test_paction import crt_glue, rebased  # noqa: E402

Z6 = Modular(6)

RUNS = 3


def least_seconds(make, run) -> float:
    """The least wall time of ``run(make())`` over RUNS runs, ``make`` untimed."""
    best = math.inf
    for _ in range(RUNS):
        arg = make()
        start = time.perf_counter()
        run(arg)
        best = min(best, time.perf_counter() - start)
    return best


def certified(n, shift=0):
    """The regular Z_n-set on all n points translated by ``shift``, certified
    (so that its point set is read) but with no key or split data yet."""
    act = regular_restriction(QQ, n, range(n), shift)
    ExtensionClass.certify(act)
    return act


def class_rungs(n):
    """(op, seconds) of certify and square on the regular Z_n class, of
    globalize on Z_n on n/2 points, of the key of the class and its iso
    with a translated copy, of its certified quotient by <g_(n/2)>, and of
    the globalized quotient of Z_n on n/2 points by <g2>."""
    cls = ExtensionClass.certify(regular_restriction(QQ, n, range(n)))
    yield "certify", least_seconds(lambda: regular_restriction(QQ, n, range(n)), ExtensionClass.certify)
    yield "square", least_seconds(lambda: cls, lambda c: harrison_product(c, c))
    yield "globalize", least_seconds(lambda: regular_restriction(QQ, n, range(n // 2)), globalize)
    yield "key", least_seconds(lambda: certified(n), canonical_key)
    yield "iso", least_seconds(lambda: (certified(n), certified(n, 1)), lambda pair: iso_check(*pair))

    def quotient(act):
        quotient_action(act, subgroup_closure(act.group, [n // 2])).certify()

    yield "quotient", least_seconds(lambda: certified(n), quotient)

    def globalized(act):
        quotient_via_globalization(act, subgroup_closure(act.group, [2]))

    yield "globalized quotient", least_seconds(lambda: regular_restriction(QQ, n, range(n // 2)), globalized)


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(argv)


def cli_rungs(n, workdir):
    """(op, seconds) of `pargal psi` and `pargal quotient` at H = <g2> on
    Z_n on n/2 points."""
    path = os.path.join(workdir, f"z{n}.json")
    save_action(regular_restriction(QQ, n, range(n // 2)), path)
    for command in ("psi", "quotient"):
        yield f"cli {command}", least_seconds(lambda: [command, path, "--subgroup", "g2"], run_cli)


POINT_RUNG = 64


def point_rungs(n, workdir):
    """(op, seconds) of `pargal product` of Z_n on n points with itself and
    of `pargal idempotent` on it, each with ``--json``."""
    path = os.path.join(workdir, f"z{n}-all.json")
    save_action(regular_restriction(QQ, n, range(n)), path)
    yield "cli product", least_seconds(lambda: ["product", path, path, "--json"], run_cli)
    yield "cli idempotent", least_seconds(lambda: ["idempotent", path, "--json"], run_cli)


SUBSET_RUNGS = (256, 512)


def subset_rungs(n):
    """(op, seconds) of the square of the class of Z_n on the points
    0 .. 7 and of `idempotent_class` of that set."""
    cls = ExtensionClass.certify(regular_restriction(QQ, n, range(8)))
    yield "subset square", least_seconds(lambda: cls, lambda c: harrison_product(c, c))
    yield "subset idempotent", least_seconds(lambda: regular_restriction(QQ, n, range(8)), idempotent_class)


DENSE_RUNGS = (12, 16)


def dense_rungs(n):
    """(op, seconds) of verify plus key of the rebased Z_n-set and of the
    iso of the CRT-glued set with its copy on the reversed basis."""
    cols = Matrix(QQ, [[int(j in (i, i + 1)) for j in range(n)] for i in range(n)], n)

    def verified_key(act):
        verify_partial_action(act)
        canonical_key(act)

    yield "rebased verify+key", least_seconds(lambda: rebased(regular_restriction(QQ, n, range(n)), cols), verified_key)

    def glued_pair():
        return glued(n), relabel(glued(n), list(reversed(range(n))))

    yield "glued iso", least_seconds(glued_pair, lambda pair: iso_check(*pair))


def glued(n):
    """The regular Z_n-set x over Z/6 glued as 3 x + 4 y with y, the set on
    the reversed basis (`tests/test_paction.py::crt_glue`): no point set."""
    x = regular_restriction(Z6, n, range(n))
    return crt_glue(x, regular_restriction(Z6, n, range(n), order=range(n - 1, -1, -1)))


GLUED_RUNGS = (6, 8)


def glued_rungs(n):
    """(op, seconds) of the square of the class of the glued Z_n-set."""
    yield "glued product", least_seconds(lambda: ExtensionClass.certify(glued(n)), lambda c: harrison_product(c, c))


LOAD_RUNGS = (32, 48, 64)


def load_rungs(n, workdir):
    """(op, seconds) of `load_action` of the set on all n points."""
    path = os.path.join(workdir, f"z{n}-load.json")
    save_action(regular_restriction(QQ, n, range(n)), path)
    yield "load", least_seconds(lambda: path, load_action)


SUITE_RUNGS = (8, 16, 32)


def suite_rungs(n):
    """(op, seconds) of the suite over the five subset classes of Z_n."""
    subsets = ([0], [0, 1], [0, 1, 3], [0, 2, 3], range(n))
    yield "suite", least_seconds(lambda: [subset_class(n, sub) for sub in subsets], star_product_suite)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, nargs="*", default=[64, 128], help="sizes of the certify, square, globalize, key, iso and quotient rungs")
    parser.add_argument("--cli", type=int, nargs="*", default=[24, 32, 36, 48, 96], help="sizes of the psi and quotient rungs")
    args = parser.parse_args(argv)
    timed = []
    for n in args.n:
        timed += [(op, n, s) for op, s in class_rungs(n)]
    with tempfile.TemporaryDirectory() as workdir:
        for n in args.cli:
            timed += [(op, n, s) for op, s in cli_rungs(n, workdir)]
        timed += [(op, POINT_RUNG, s) for op, s in point_rungs(POINT_RUNG, workdir)]
        for n in LOAD_RUNGS:
            timed += [(op, n, s) for op, s in load_rungs(n, workdir)]
    for n in SUBSET_RUNGS:
        timed += [(op, n, s) for op, s in subset_rungs(n)]
    for n in DENSE_RUNGS:
        timed += [(op, n, s) for op, s in dense_rungs(n)]
    for n in GLUED_RUNGS:
        timed += [(op, n, s) for op, s in glued_rungs(n)]
    for n in SUITE_RUNGS:
        timed += [(op, n, s) for op, s in suite_rungs(n)]
    rungs, last = [], {}
    for op, n, seconds in timed:
        exponent = None
        if op in last:
            n0, s0 = last[op]
            exponent = round(math.log(seconds / s0) / math.log(n / n0), 2)
        last[op] = (n, seconds)
        rungs.append({"op": op, "n": n, "seconds": round(seconds, 5), "exponent": exponent})
    print(json.dumps({"runs": RUNS, "rungs": rungs}))


if __name__ == "__main__":
    main()
