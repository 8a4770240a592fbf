#!/usr/bin/env python3
"""Time certify and square of the regular Z_n class as n grows.

    python3 scripts/scale_probe.py [N ...]        # default: 32 64 128

For each n, builds the regular Z_n-set over Q as `perfbench/gen.py` builds
it (`regular_restriction` on all n points), and prints the raw seconds of
`ExtensionClass.certify` on a fresh copy of that action and of
`harrison_product(c, c)` on the certified class, each the least of three
runs.  Between consecutive values of n it prints the growth exponent
log(t2 / t1) / log(n2 / n1) of each.  Nothing in the library imports this.
"""

import argparse
import math
import os
import sys
import time

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from pargal import QQ, ExtensionClass, harrison_product  # noqa: E402
from gen import regular_restriction  # noqa: E402

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


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, nargs="*", default=[32, 64, 128])
    sizes = parser.parse_args(argv).n
    rows = []
    for n in sizes:
        cls = ExtensionClass.certify(regular_restriction(QQ, n, range(n)))
        certify = least_seconds(lambda: regular_restriction(QQ, n, range(n)), ExtensionClass.certify)
        square = least_seconds(lambda: cls, lambda c: harrison_product(c, c))
        rows.append((n, certify, square))
        print(f"n={n:4d}  certify {certify:.4f} s  square {square:.4f} s")
    for (n1, c1, s1), (n2, c2, s2) in zip(rows, rows[1:]):
        grow = math.log(n2 / n1)
        print(f"n={n1}->{n2}  exponent certify {math.log(c2 / c1) / grow:.2f}  square {math.log(s2 / s1) / grow:.2f}")


if __name__ == "__main__":
    main()
