#!/usr/bin/env python3
"""Regenerate the shipped corpus action files and their golden CLI reports.

Run from the repository root:  python3 scripts/make_corpus.py
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pargal.actionfile import save_action
from pargal.corpus import corrupted_p4, standard_corpus
from pargal.algebra import Algebra
from pargal.groups import FiniteGroup, make_cyclic
from pargal.paction import PartialAction
from pargal.scalars import QQ, Matrix

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
CORPUS = os.path.join(ROOT, "corpus")
GOLDEN = os.path.join(CORPUS, "golden")

GOLDEN_COMMANDS = {
    "ex1.verify": ["verify", "corpus/ex1.json"],
    "ex2.verify": ["verify", "corpus/ex2.json"],
    "ex2-star.verify": ["verify", "corpus/ex2-star.json"],
    "trivial-Z2.verify": ["verify", "corpus/trivial-Z2.json"],
    "trivial-Z4.verify": ["verify", "corpus/trivial-Z4.json"],
    "global-Z2-swap.verify": ["verify", "corpus/global-Z2-swap.json"],
    "klein-product.verify": ["verify", "corpus/klein-product.json"],
    "corrupted-p4.verify": ["verify", "corpus/corrupted-p4.json"],
    "ex1.quotient-g2": ["quotient", "corpus/ex1.json", "--subgroup", "g2"],
    "ex1.invariants-g2": ["invariants", "corpus/ex1.json", "--subgroup", "g2"],
    "ex1.psi-g2": ["psi", "corpus/ex1.json", "--subgroup", "g2"],
    "ex1.globalize": ["globalize", "corpus/ex1.json"],
    "s3-regular.globalize": ["globalize", "corpus/s3-regular.json"],
    "ex2.galois": ["galois", "corpus/ex2.json"],
    "ex2-star-times-ex2.product": ["product", "corpus/ex2-star.json", "corpus/ex2.json"],
    "trivial-vs-swap.iso": ["iso", "corpus/trivial-Z2.json", "corpus/global-Z2-swap.json"],
    "ex2.idempotent": ["idempotent", "corpus/ex2.json"],
    "ex2-printed-product.verify": ["verify", "corpus/ex2-printed-product.json"],
    "z3-regularity-witness.verify": ["verify", "corpus/z3-regularity-witness.json"],
    "z3-regularity-witness-squared.product": [
        "product", "corpus/z3-regularity-witness.json", "corpus/z3-regularity-witness.json"
    ],
}

# action files written by --out, kept next to the reports as NAME.action.json
GOLDEN_ACTIONS = {
    "ex1.idempotent": ["idempotent", "corpus/ex1.json"],
    "ex2.idempotent": ["idempotent", "corpus/ex2.json"],
}


def s3_regular():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    labels = ["e", "r", "r2", "s", "rs", "r2s"]
    compose = lambda p, q: tuple(p[q[i]] for i in range(3))
    table = [[perms.index(compose(p, q)) for q in perms] for p in perms]
    group = FiniteGroup(labels, table)
    from pargal.corpus import trivial_action

    return trivial_action(group, QQ)


def ex2_printed_product():
    """Criterion 2's printed product table read as an action of Z4 on split
    Q^3 = <u, v, w> with 1_g = u+v, 1_g2 = v+w, 1_g3 = u+w and alpha_g:
    u -> u, w -> v; alpha_g2: v <-> w; alpha_g3: u -> u, v -> w.  It is not
    a partial action: (P3) and (P4) fail, a negative control."""
    z4 = make_cyclic(4)
    a = Algebra.split(QQ, ["u", "v", "w"])
    u, v, w = a.basis()
    maps = [
        Matrix.identity(QQ, 3),
        Matrix(QQ, [[1, 0, 0], [0, 0, 1], [0, 0, 0]]),
        Matrix(QQ, [[0, 0, 0], [0, 0, 1], [0, 1, 0]]),
        Matrix(QQ, [[1, 0, 0], [0, 0, 0], [0, 1, 0]]),
    ]
    return PartialAction(z4, a, [a.one(), u + v, v + w, u + w], maps)


def z3_regularity_witness():
    """Z3 on Q^2 with 1_g = e1, 1_g2 = e2 and alpha_g(e2) = e1: the least
    class whose signature {1, g} is not a coset, so x x* x != x."""
    z3 = make_cyclic(3)
    a = Algebra.split(QQ, ["e1", "e2"])
    e1, e2 = a.basis()
    maps = [Matrix.identity(QQ, 2), Matrix(QQ, [[0, 1], [0, 0]]), Matrix(QQ, [[0, 0], [1, 0]])]
    return PartialAction(z3, a, [a.one(), e1, e2], maps)


def main():
    os.makedirs(CORPUS, exist_ok=True)
    os.makedirs(GOLDEN, exist_ok=True)
    for name, act in standard_corpus().items():
        save_action(act, os.path.join(CORPUS, f"{name}.json"))
    save_action(corrupted_p4(), os.path.join(CORPUS, "corrupted-p4.json"))
    save_action(s3_regular(), os.path.join(CORPUS, "s3-regular.json"))
    save_action(ex2_printed_product(), os.path.join(CORPUS, "ex2-printed-product.json"))
    save_action(z3_regularity_witness(), os.path.join(CORPUS, "z3-regularity-witness.json"))
    # a fixture requesting the excluded base ring Z
    with open(os.path.join(CORPUS, "bad-base-Z.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "format": 1,
                "base": "Z",
                "algebra": {"labels": ["1"], "constants": [[0, 0, 0, "1"]], "unit": ["1"]},
                "group": {"cyclic": [1]},
                "action": {"1": {"idempotent": ["1"], "matrix": [["1"]]}},
            },
            fh,
            indent=1,
        )
        fh.write("\n")

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for name, argv in GOLDEN_COMMANDS.items():
        proc = subprocess.run(
            [sys.executable, "-m", "pargal.cli", *argv, "--json"],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
        )
        if proc.returncode not in (0, 1):
            raise SystemExit(f"golden command {name} failed: {proc.stderr}")
        with open(os.path.join(GOLDEN, f"{name}.json"), "w", encoding="utf-8") as fh:
            fh.write(proc.stdout)
    for name, argv in GOLDEN_ACTIONS.items():
        out = os.path.join(GOLDEN, f"{name}.action.json")
        proc = subprocess.run(
            [sys.executable, "-m", "pargal.cli", *argv, "--out", out],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
        )
        if proc.returncode != 0:
            raise SystemExit(f"golden action {name} failed: {proc.stderr}")
    print(f"wrote {len(GOLDEN_COMMANDS)} golden reports, {len(GOLDEN_ACTIONS)} golden actions and the corpus files")


if __name__ == "__main__":
    main()
