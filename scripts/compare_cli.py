#!/usr/bin/env python3
"""Compare the CLI output of two source checkouts on the benchmark's `cli` ops.

    python3 scripts/compare_cli.py OTHER_CHECKOUT [--seed 31337]
    python3 scripts/compare_cli.py --rev REV [--seed 31337]

Builds the argument lists of the `cli` workload of `perfbench` (the corpus
and its seeded relabelled copies) in each checkout, runs every one through
`pargal.cli.run` in-process, and compares the exit code, standard output
and standard error, with the checkout and work-directory paths masked.
Each list of a command that writes an action (`product`, `idempotent`,
`inverse`, `restrict`, `tensor`, `compose`) runs once more with `--out`,
and the file it writes is compared byte for byte as well.  `pargal suite`
runs too (no `cli` op does), on the corpus classes of each copy, over their
own ring and over Z/2, and on the shipped regularity witness.
Prints the number of argument lists and the differing ones; exits 1 when
any differs.  Each checkout runs in its own interpreter, with its own
`src` and `perfbench`.  With `--rev`, the other checkout is that git
revision of this repository, extracted with `git archive` into a temporary
directory that is removed afterwards.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
OUT_COMMANDS = ("product", "idempotent", "inverse", "restrict", "tensor", "compose")
SUITE_CLASSES = ("ex1", "ex2", "ex2-star", "trivial-Z4")


def written_text(path: str):
    """The bytes of the file at ``path`` as UTF-8 text, or None when there is
    no file; equal texts are equal bytes."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read().decode()


def dump(root: str, seed: int) -> list:
    """[name, exit code, stdout, stderr] of each `cli` op built in ``root``;
    a run with `--out` also holds the bytes written (None for no file)."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import pargal.cli
    import workloads

    out = []
    with tempfile.TemporaryDirectory() as work:

        def run(name, argv, written=None):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = pargal.cli.run(argv)
            texts = [t.getvalue().replace(work, "<work>").replace(root, "<root>") for t in (stdout, stderr)]
            if written is not None:
                texts.append(written_text(written))
            out.append([name, code, *texts])

        for k, op in enumerate(workloads.build("cli", seed, work)):
            run(op.name, list(op.inputs))
            if op.inputs[0] in OUT_COMMANDS:
                written = os.path.join(work, f"out-{k}.json")
                run(f"{op.name} --out", list(op.inputs) + ["--out", written], written)
        # the shipped corpus files (k = 0) and the copies the `cli` workload wrote
        corpus = workloads.corpus_dir()
        for k in range(workloads.CLI_COPIES):
            files = [os.path.join(corpus, f"{name}.json") if k == 0 else os.path.join(work, f"{name}.r{k}.json")
                     for name in SUITE_CLASSES]
            for extra in ([], ["--base", "Z/2"]):
                run(f"suite {' '.join(SUITE_CLASSES + tuple(extra))}#{k}", ["suite", *files, *extra, "--json"])
        run("suite z3-regularity-witness", ["suite", os.path.join(corpus, "z3-regularity-witness.json"), "--json"])
    return out


def run_dump(root: str, seed: int) -> list:
    cmd = [sys.executable, os.path.abspath(__file__), "--dump", root, "--seed", str(seed)]
    return json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", nargs="?", help="the checkout to compare this one with")
    parser.add_argument("--rev", help="a git revision to compare with instead of a checkout")
    parser.add_argument("--seed", type=int, default=31337)
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        print(json.dumps(dump(os.path.abspath(args.dump), args.seed)))
        return 0
    if (args.other is None) == (args.rev is None):
        parser.error("name either the checkout or the revision to compare with")
    if args.rev is None:
        theirs = run_dump(os.path.abspath(args.other), args.seed)
    else:
        archive = subprocess.run(["git", "-C", ROOT, "archive", args.rev], capture_output=True)
        if archive.returncode:
            parser.error(archive.stderr.decode().strip())
        with tempfile.TemporaryDirectory() as other:
            subprocess.run(["tar", "-x", "-C", other], input=archive.stdout, check=True)
            theirs = run_dump(other, args.seed)
    mine = run_dump(ROOT, args.seed)
    if [op[0] for op in mine] != [op[0] for op in theirs]:
        print("the two checkouts build different argument lists")
        return 1
    differ = [a[0] for a, b in zip(mine, theirs) if a != b]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(mine)} argument lists, {len(mine) - len(differ)} identical, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
