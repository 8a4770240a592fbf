#!/usr/bin/env python3
"""Run the tier-1 tests against named source edits (mutants), one at a time.

    python3 scripts/mutants.py

Each mutant replaces one snippet of one file of ``src/pargal`` by another.
The edits are made in a temporary copy of the repository, never in the
working tree.  Tier-1 runs once on the unmutated copy; the tests that fail
there are deselected, so a kill is always a test that passed before the
edit.  Then tier-1 runs with ``-x`` once per mutant.  Prints one line per
mutant: ``killed`` with the first failing test, ``SURVIVED``, ``timeout``
(a tier-1 run is stopped after TIMEOUT_S seconds, as an edit can make a
loop endless), or ``STALE`` when its snippet is not in the source exactly
once.  Exits 1 when a mutant survives or is stale.  Needs the standard
library and pytest only; the 18 mutants take about 5 minutes on a 2-core host.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
TIER1 = [sys.executable, "-m", "pytest", "-q", "-rfE", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "_out", "_work")
TIMEOUT_S = 300

# (name, file under src/pargal, snippet, replacement)
MUTANTS = [
    ("field-roots-accept-remainder", "algebra.py",
     "if rem == 0:  # the remainder is the value at r",
     "if rem == 0 or rem == 1:"),
    ("crt-factors-unsorted", "algebra.py",
     "per_prime.append(sorted(list(i.coords) for i in idems))",
     "per_prime.append([list(i.coords) for i in idems])"),
    ("from-components-drops-block", "algebra.py",
     "coords = [c for idx, x in enumerate(parent_coord_list) for c in self.embed_component(idx, x)]",
     "coords = [c for idx, x in enumerate(parent_coord_list) if idx for c in self.embed_component(idx, x)]"),
    ("min-poly-unnegated", "algebra.py",
     "coeffs = [ring.neg(c) for c in sol.particular] + [1]",
     "coeffs = list(sol.particular) + [1]"),
    ("multiplicative-failure-skips-squares", "algebra.py",
     "            for j in range(i, src.rank):\n                if m.matvec(",
     "            for j in range(i + 1, src.rank):\n                if m.matvec("),
    ("unit-check-dropped", "algebra.py",
     "if not sub.mult_matrix(sub.unit).is_identity():",
     "if False:"),
    ("kernel-rows-reversed", "scalars.py",
     "self.kernel = Matrix.from_rows(ring, kernel_rows, k)",
     "self.kernel = Matrix.from_rows(ring, kernel_rows[::-1], k)"),
    ("intersect-drops-row", "scalars.py",
     "return Matrix.from_rows(u.ring, inter, n)",
     "return Matrix.from_rows(u.ring, inter[1:], n)"),
    ("matrix-add-subtracts", "scalars.py",
     'return self._entrywise(other, self.ring.add, "addition")',
     'return self._entrywise(other, self.ring.sub, "addition")'),
    ("coerce-non-unit-denominator", "scalars.py",
     "if gcd(x.denominator, self.n) != 1:",
     "if False:"),
    ("p1-ideal-of-g", "paction.py",
     "rows = canonical_row_form(E(gi).transpose()).rows",
     "rows = canonical_row_form(E(g).transpose()).rows"),
    ("g2-lhs-unreduced", "envelope.py",
     "return canonical_row_form(lhs) != intersect_modules(emb_module, translates(g))",
     "return lhs != intersect_modules(emb_module, translates(g))"),
    ("hat-action-block-column", "harrison.py",
     "mat.rows[comp_out.offset + i][comp_in.offset + j] = c",
     "mat.rows[comp_out.offset + i][comp_in.offset] = c"),
    # the two mutations of the suite's union-find
    ("suite-joins-on-none", "harrison.py",
     "        if res.status == \"iso\":\n            parent[root_x] = root_y",
     "        parent[root_x] = root_y\n        if res.status == \"iso\":"),
    ("suite-refuted-memo-dropped", "harrison.py",
     "res = refuted.get(pair)",
     "res = None"),
    # the checks of the partial G-set certificate
    ("gset-identity-check-dropped", "gset.py",
     "if any(j != i for i, j in enumerate(maps[group.identity])):",
     "if False:"),
    ("gset-domain-check-dropped", "gset.py",
     "    if domains is not None and any(",
     "    if False and any("),
    ("gset-orbit-check-dropped", "gset.py",
     "if any([a[y] for y in points] != [phi[hg[g]] for g in dom] for a, hg in zip(maps, group.table)):",
     "if False:"),
]


def pytest_run(cwd: str, extra: list):
    """(exit code, output) of tier-1 in ``cwd``; code None on a timeout."""
    try:
        done = subprocess.run(TIER1 + extra, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, ""
    return done.returncode, done.stdout + done.stderr


def failed_tests(output: str) -> list:
    """The ids of the FAILED and ERROR lines of pytest's short summary."""
    out = []
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                out.append(line[len(tag):].split(" - ", 1)[0])
    return out


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as work:
        copy = os.path.join(work, "repo")
        shutil.copytree(ROOT, copy, ignore=SKIP)
        code, output = pytest_run(copy, [])
        if code is None or code not in (0, 1):
            print(f"tier-1 did not run on the unmutated copy (exit {code})")
            print(output[-2000:])
            return 2
        baseline = failed_tests(output)
        print(f"unmutated: {len(baseline)} failing test(s) deselected: {', '.join(baseline) or 'none'}")
        deselect = [arg for test in baseline for arg in ("--deselect", test)]
        for name, path, old, new in MUTANTS:
            target = os.path.join(copy, "src", "pargal", path)
            with open(target, encoding="utf-8") as fh:
                source = fh.read()
            if source.count(old) != 1:
                print(f"{name:40s} STALE: the snippet occurs {source.count(old)} times in {path}")
                bad += 1
                continue
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(source.replace(old, new))
            start = time.perf_counter()
            try:
                code, output = pytest_run(copy, ["-x"] + deselect)
            finally:
                with open(target, "w", encoding="utf-8") as fh:
                    fh.write(source)
            elapsed = time.perf_counter() - start
            if code is None:
                verdict = "timeout"
            elif code == 0:
                verdict, bad = "SURVIVED", bad + 1
            else:
                first = failed_tests(output)
                verdict = f"killed by {first[0]}" if first else f"killed (pytest exit {code})"
            print(f"{name:40s} {verdict}  ({elapsed:.0f} s)", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
