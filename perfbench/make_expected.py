"""Regenerate perfbench/expected.json from one pass of every workload.

    python3 perfbench/make_expected.py

Fingerprints are iso-invariant, so one seed fixes them for all seeds; the
benchmark's tests check that on further seeds.  Run this only when the
workload definitions change, and review the diff: a changed fingerprint is
a changed answer of the library.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run

SEED = 0


def main():
    run.import_library()
    import workloads

    os.makedirs(run.WORK_DIR, exist_ok=True)
    out = {}
    for name in workloads.WORKLOADS:
        workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=run.WORK_DIR)
        try:
            ops = workloads.build(name, SEED, workdir)
            out[name] = {op.name: op.fingerprint(op.fn(op.inputs)) for op in ops}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name}: {len(out[name])} ops", file=sys.stderr)
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
