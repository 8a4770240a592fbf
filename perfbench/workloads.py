"""The four workloads: seeded inputs, op definitions and fingerprints.

An op is one call into the library on prepared inputs.  ``build(name,
seed, workdir)`` makes the inputs from the seed, validates every generated
action (``verify_partial_action``) and class (``ExtensionClass.certify``),
and returns the ops of one pass.  Ops call the library through module
attributes at call time, so the outside-in tracer sees them.

A fingerprint is iso-invariant: check names and statuses, exit codes,
carrier rank, per-element domain ranks, fixed-ring rank, iso answer.  It
holds no bases or bytes, so every seed must give the stored fingerprint.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from itertools import permutations, product as iproduct
from math import factorial
from typing import Any, Callable

import pargal
import pargal.cli
from pargal import QQ, Modular, make_cyclic
from pargal.corpus import example1, example2, trivial_action

from gen import perm_at, gset_action, lex_rank, orbit_points, regular_restriction, relabel, shuffled

WORKLOADS = ("suite", "products", "iso", "cli")
F2 = Modular(2)
Z6 = Modular(6)


@dataclass
class Op:
    name: str
    fn: Callable[[Any], Any]
    inputs: Any  # deep-copied before every pass, so no pass sees another's caches
    fingerprint: Callable[[Any], Any]


# -- fingerprints ---------------------------------------------------------------

def action_fp(act) -> dict:
    return {
        "rank": act.algebra.rank,
        "domain_ranks": [act.ideal(g).rank for g in act.group.elements()],
        "fixed_rank": pargal.invariants(act).algebra.rank,
    }


def suite_fp(result) -> dict:
    classes, rep = result
    return {
        "classes": [action_fp(c.action) for c in classes],
        "checks": [[name, status] for name, status, _ in rep.checks],
        "witnesses": rep.witnesses,
    }


def product_fp(result) -> dict:
    return action_fp(result.action)


def iso_fp(result) -> dict:
    return {"answer": result.status}


def cli_fp(result) -> dict:
    code, text = result
    doc = json.loads(text)
    data = {
        key: value
        for key, value in doc["data"].items()
        if isinstance(value, int) or (isinstance(value, list) and all(isinstance(v, int) for v in value))
    }
    return {"exit": code, "checks": [[c["name"], c["status"]] for c in doc["checks"]], "data": data}


# -- op bodies ------------------------------------------------------------------

def run_suite(actions):
    classes = [pargal.ExtensionClass.certify(a) for a in actions]
    return classes, pargal.star_product_suite(classes)


def run_product(pair):
    return pargal.harrison_product(*pair)


def run_iso(pair):
    return pargal.iso_check(*pair)


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pargal.cli.run(argv)
    return code, out.getvalue()


# -- validation -------------------------------------------------------------------

def checked(act):
    rep = pargal.verify_partial_action(act)
    if not rep.passed:
        bad = rep.failures()[0]
        raise AssertionError(f"generated action fails {bad.name} [{bad.witness}]")
    return act


def certified(act):
    return pargal.ExtensionClass.certify(checked(act))


# -- suite ------------------------------------------------------------------------

SUITE_RINGS = (("Q", QQ), ("F2", F2), ("Z6", Z6))


def build_suite(seed: int, workdir=None):
    """Acceptance criterion 6's five Z4 classes, relabelled, over three rings."""
    rng = random.Random(f"suite:{seed}")
    ops = []
    for tag, ring in SUITE_RINGS:
        ex1 = relabel(example1(ring), shuffled(rng, 3))
        ex2 = relabel(example2(ring), shuffled(rng, 2))
        triv = relabel(trivial_action(make_cyclic(4), ring), shuffled(rng, 4))
        actions = [ex1, pargal.inverse_action(ex1), ex2, pargal.inverse_action(ex2), triv]
        for act in actions:
            certified(act)
        ops.append(Op(f"suite/{tag}", run_suite, actions, suite_fp))
    return ops


# -- products ---------------------------------------------------------------------

PRODUCT_RINGS = (("Q", QQ), ("F2", F2))
REGULAR_ORDERS = range(2, 9)
# point sets of the regular Z_n-set, restricted to k < n points (ranks 3..7)
PARTIAL_SHAPES = ((5, (0, 1, 3)), (6, (0, 1, 2, 4)), (7, (0, 1, 2, 4, 5)), (8, (0, 1, 2, 4, 5, 7)),
                  (8, (0, 1, 2, 3, 4, 5, 6)))


def _regular_copy(rng, ring, n):
    return gset_action(ring, n, [n], [orbit_points([n])[i] for i in shuffled(rng, n)])


def _partial_copy(rng, ring, n, subset):
    return regular_restriction(ring, n, subset, shift=rng.randrange(n), order=shuffled(rng, len(subset)))


def build_products(seed: int, workdir=None):
    """Regular Z_n classes squared, and partial classes x.x and x.x*.

    Each operand is an independently translated and relabelled copy, so the
    two factors of a square are equal classes on different bases.
    """
    rng = random.Random(f"products:{seed}")
    ops = []
    for tag, ring in PRODUCT_RINGS:
        for n in REGULAR_ORDERS:
            pair = (certified(_regular_copy(rng, ring, n)), certified(_regular_copy(rng, ring, n)))
            ops.append(Op(f"products/{tag}/regular-Z{n}^2", run_product, pair, product_fp))
    for tag, ring in PRODUCT_RINGS:
        for n, subset in PARTIAL_SHAPES:
            shape = f"Z{n}{{{','.join(map(str, subset))}}}"
            x = certified(_partial_copy(rng, ring, n, subset))
            y = certified(_partial_copy(rng, ring, n, subset))
            y_star = certified(pargal.inverse_action(_partial_copy(rng, ring, n, subset)))
            ops.append(Op(f"products/{tag}/{shape}.x.x", run_product, (x, y), product_fp))
            ops.append(Op(f"products/{tag}/{shape}.x.x*", run_product, (x, y_star), product_fp))
    return ops


# -- iso ----------------------------------------------------------------------------

# (name, ring, n, orbit sizes of a, orbit sizes of b): global Z_n-sets with
# different orbit structures, so the answer is "none" after all r! candidates
# ((r!)^2 over Z/6, whose two CRT factors are permuted independently).
ISO_NONE = (
    ("r6", QQ, 6, [6], [3, 3]),
    ("r6-F2", F2, 6, [6], [2, 2, 2]),
    ("r7", QQ, 7, [7], [1] * 7),
    ("r8", QQ, 8, [8], [4, 4]),
    ("r5-Z6", Z6, 6, [3, 2], [2, 2, 1]),
)
# (name, n, orbit sizes, window): a against a relabelling of itself whose first
# witness sits at a seeded position inside the window, so the early exit moves
# with the seed but the work hardly does.  The window is a share of (r-1)!:
# the regular Z_n-set has one rotation that brings a witness below it.
ISO_RELABEL = (
    ("r6", 6, [6], (0.60, 0.65)),
    ("r7", 7, [7], (0.60, 0.65)),
    ("r8", 8, [8], (0.72, 0.76)),
)
# (name, ring, n, subset a, subset b or None for a translate of a): partial
# pairs whose domain signatures prune the search.
ISO_PARTIAL = (
    ("p6-none", QQ, 8, (0, 1, 2, 3, 5, 6), (0, 1, 2, 4, 5, 6)),
    ("p6-iso", QQ, 8, (0, 1, 2, 3, 5, 6), None),
    ("p7-iso", QQ, 8, (0, 1, 2, 3, 4, 5, 6), None),
    ("p5-none-Z6", Z6, 8, (0, 1, 2, 3, 5), (0, 1, 2, 4, 5)),
    ("p5-iso-Z6", Z6, 8, (0, 1, 2, 3, 5), None),
)


def gset_automorphisms(orbits):
    """Every automorphism of the global Z_n-set with these orbit sizes.

    An automorphism permutes orbits of equal size and rotates each orbit.
    """
    by_size = {}
    for o, d in enumerate(orbits):
        by_size.setdefault(d, []).append(o)
    classes = list(by_size.values())
    out = []
    for moves in iproduct(*[list(permutations(c)) for c in classes]):
        rho = {}
        for c, image in zip(classes, moves):
            rho.update(zip(c, image))
        for shifts in iproduct(*[range(d) for d in orbits]):
            out.append({(o, i): (rho[o], (i + shifts[o]) % d) for o, d in enumerate(orbits) for i in range(d)})
    return out


def first_witness_position(pts_a, pts_b, auts) -> int:
    """Index of the first witness that ``iso_check`` meets for a global pair.

    ``iso_check`` walks the permutations sigma of the split idempotents in
    itertools order; a split algebra's idempotents sort as e_{r-1}, ..., e_0,
    and the witnesses are the G-maps pts_a[i] -> tau(pts_a[i]) for tau in Aut.
    """
    r = len(pts_a)
    pos_b = {p: j for j, p in enumerate(pts_b)}
    return min(lex_rank([r - 1 - pos_b[tau[pts_a[r - 1 - i]]] for i in range(r)]) for tau in auts)


def relabel_at(rng, pts_a, auts, window):
    """Points of b and the first-witness position t, t drawn from the window."""
    r = len(pts_a)
    lo, hi = (int(f * factorial(r - 1)) for f in window)
    for _ in range(100000):
        t = rng.randrange(lo, hi)
        sigma = perm_at(r, t)
        pts_b = [None] * r
        for i in range(r):
            pts_b[r - 1 - sigma[i]] = pts_a[r - 1 - i]
        if first_witness_position(pts_a, pts_b, auts) == t:
            return pts_b, t
    raise AssertionError(f"no relabelling puts the first witness inside {window}")


def build_iso(seed: int, workdir=None):
    rng = random.Random(f"iso:{seed}")
    ops = []
    for name, ring, n, oa, ob in ISO_NONE:
        a = gset_action(ring, n, oa, [orbit_points(oa)[i] for i in shuffled(rng, sum(oa))])
        b = gset_action(ring, n, ob, [orbit_points(ob)[i] for i in shuffled(rng, sum(ob))])
        ops.append(Op(f"iso/none-{name}", run_iso, (checked(a), checked(b)), iso_fp))
    for name, n, orbits, window in ISO_RELABEL:
        pts_a = [orbit_points(orbits)[i] for i in shuffled(rng, sum(orbits))]
        pts_b, _ = relabel_at(rng, pts_a, gset_automorphisms(orbits), window)
        pair = (checked(gset_action(QQ, n, orbits, pts_a)), checked(gset_action(QQ, n, orbits, pts_b)))
        ops.append(Op(f"iso/relabel-{name}", run_iso, pair, iso_fp))
    for name, ring, n, sa, sb in ISO_PARTIAL:
        a = _partial_copy(rng, ring, n, sa)
        b = _partial_copy(rng, ring, n, sb if sb is not None else sa)
        ops.append(Op(f"iso/{name}", run_iso, (checked(a), checked(b)), iso_fp))
    return ops


# -- cli ----------------------------------------------------------------------------

CLI_COPIES = 3  # the shipped file plus two seeded relabellings
SUBGROUP_COMMANDS = ("invariants", "restrict", "psi", "quotient", "quotient-check")
Z4_COMMANDS = [["verify"], ["galois"], ["invariants"], ["globalize"], ["inverse"], ["idempotent"],
               ["verify", "--base", "Z/2"]] + [[c, "--subgroup", "g2"] for c in SUBGROUP_COMMANDS]
CLI_SINGLE = {
    "ex1": Z4_COMMANDS,
    "ex2": Z4_COMMANDS,
    "ex2-star": Z4_COMMANDS,
    "trivial-Z4": Z4_COMMANDS,
    "klein-product": [["verify"], ["galois"], ["invariants"], ["globalize"], ["inverse"], ["idempotent"],
                      ["verify", "--base", "Z/2"], ["decompose", "--factors", "2,2"]],
    "s3-regular": [["verify"], ["galois"], ["invariants"], ["globalize"], ["verify", "--base", "Z/6"]]
    + [[c, "--subgroup", "r"] for c in ("invariants", "restrict", "quotient", "quotient-check")],
    "global-Z2-swap": [["verify"], ["galois"], ["globalize"], ["idempotent"]],
    "trivial-Z2": [["verify"], ["galois"], ["globalize"], ["idempotent"]],
    "corrupted-p4": [["verify"]],
}
# (command, first file, second file): the second file is the next copy, so
# no argument list repeats within a pass
CLI_PAIRS = (
    ("product", "ex2-star", "ex2"),
    ("product", "ex1", "ex1"),
    ("product", "global-Z2-swap", "trivial-Z2"),
    ("tensor", "ex2", "ex2-star"),
    ("tensor", "global-Z2-swap", "global-Z2-swap"),
    ("iso", "ex1", "ex1"),
    ("iso", "trivial-Z4", "ex1"),
    ("iso", "ex2", "ex2-star"),
    ("compose", "global-Z2-swap", "trivial-Z2"),
)


def corpus_dir() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(os.path.dirname(here), "corpus")


def build_cli(seed: int, workdir: str):
    """In-process ``pargal.cli.run([..., "--json"])`` over the corpus and copies.

    Relabelled copies are written to ``workdir`` during setup and loaded
    back (with axiom verification, except the deliberately corrupted file).
    """
    rng = random.Random(f"cli:{seed}")
    src = corpus_dir()
    files = {}
    for name in CLI_SINGLE:
        path = os.path.join(src, f"{name}.json")
        act = pargal.load_action(path, verify=name != "corrupted-p4")
        copies = [path]
        for k in range(1, CLI_COPIES):
            out = os.path.join(workdir, f"{name}.r{k}.json")
            pargal.save_action(relabel(act, shuffled(rng, act.algebra.rank)), out)
            pargal.load_action(out, verify=name != "corrupted-p4")
            copies.append(out)
        files[name] = copies
    ops = []
    for k in range(CLI_COPIES):
        for name, commands in CLI_SINGLE.items():
            for cmd in commands:
                argv = [cmd[0], files[name][k]] + cmd[1:] + ["--json"]
                ops.append(Op(f"cli/{' '.join([cmd[0], name] + cmd[1:])}#{k}", run_cli, argv, cli_fp))
        for cmd, a, b in CLI_PAIRS:
            argv = [cmd, files[a][k], files[b][(k + 1) % CLI_COPIES], "--json"]
            ops.append(Op(f"cli/{cmd} {a} {b}#{k}", run_cli, argv, cli_fp))
    return ops


BUILDERS = {"suite": build_suite, "products": build_products, "iso": build_iso, "cli": build_cli}


def build(name: str, seed: int, workdir: str):
    return BUILDERS[name](seed, workdir)
