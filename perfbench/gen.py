"""Seeded inputs: partial actions of Z_n from finite Z_n-sets, and relabelings.

A global Z_n-set is a disjoint union of cyclic orbits Z_n / Z_d, one per
orbit size d (d divides n).  Restricting it to a subset Y of its points gives
a partial action on the set Y, and so a unital partial action on the split
algebra R^Y: S_g is spanned by the points of Y whose g^-1-translate is in Y,
and alpha_g sends e_x to e_{gx}.  The regular Z_n-set restricted to any
nonempty subset is a partial Galois extension of R (its orbit graph is
connected and the action is free), which is what ``ExtensionClass.certify``
checks.

Only the generated actions reach the library; the seed picks translates of
fixed point-set shapes and basis orders, so every seed poses a problem of the
same partial-G-isomorphism type and therefore of the same expected answer.
"""

from __future__ import annotations

import random

from pargal import Algebra, Matrix, PartialAction, make_cyclic


def orbit_points(orbits):
    """Points (o, i) of the Z_n-set with orbit sizes ``orbits``."""
    return [(o, i) for o, d in enumerate(orbits) for i in range(d)]


def gset_action(ring, n, orbits, points) -> PartialAction:
    """The partial action of Z_n on R^points, points listed in basis order.

    ``points`` is a list of distinct (orbit, residue) pairs of the global
    Z_n-set with orbit sizes ``orbits``; a point's position in the list is
    its basis index.
    """
    for d in orbits:
        if n % d:
            raise ValueError(f"orbit size {d} does not divide {n}")
    group = make_cyclic(n)
    pos = {p: k for k, p in enumerate(points)}
    if len(pos) != len(points):
        raise ValueError("repeated point")
    r = len(points)
    algebra = Algebra.split(ring, [f"x{o}_{i}" for o, i in points])
    idems = []
    maps = []
    for g in group.elements():
        coords = [0] * r
        rows = [[0] * r for _ in range(r)]
        for (o, i), k in pos.items():
            image = pos.get((o, (i + g) % orbits[o]))
            if image is not None:
                rows[image][k] = 1
                coords[image] = 1
        idems.append(algebra.element(coords))
        maps.append(Matrix(ring, rows, r))
    return PartialAction(group, algebra, idems, maps)


def regular_restriction(ring, n, subset, shift=0, order=None) -> PartialAction:
    """The regular Z_n-set restricted to ``subset + shift``, in basis ``order``.

    ``order`` permutes the subset's points into basis positions (identity
    when omitted); translating by ``shift`` gives a partially G-isomorphic
    action.
    """
    pts = [(0, (x + shift) % n) for x in subset]
    if order is not None:
        pts = [pts[i] for i in order]
    return gset_action(ring, n, [n], pts)


def relabel(act: PartialAction, perm) -> PartialAction:
    """The same action on a relabelled basis: basis vector i becomes perm[i].

    Works for any structure-constant algebra, not only split ones; the
    result is partially G-isomorphic to ``act`` through the permutation.
    """
    alg = act.algebra
    r = alg.rank
    if sorted(perm) != list(range(r)):
        raise ValueError("relabel needs a permutation of the basis")
    inv = [0] * r
    for i, p in enumerate(perm):
        inv[p] = i

    def move(coords):
        return [coords[inv[j]] for j in range(r)]

    table = {}
    for i in range(r):
        for j in range(r):
            if alg.table[i][j]:
                table[(perm[i], perm[j])] = tuple((perm[k], c) for k, c in alg.table[i][j])
    algebra = Algebra(alg.ring, [alg.labels[inv[j]] for j in range(r)], table, move(alg.unit), validate=False)
    idems = [algebra.element(move(e.coords)) for e in act.idems]
    maps = []
    for m in act.maps:
        rows = [[m.rows[inv[a]][inv[b]] for b in range(r)] for a in range(r)]
        maps.append(Matrix(alg.ring, rows, r))
    return PartialAction(act.group, algebra, idems, maps)


def shuffled(rng: random.Random, r: int):
    perm = list(range(r))
    rng.shuffle(perm)
    return perm


def lex_rank(seq) -> int:
    """Position of a permutation of range(len(seq)) in itertools order."""
    rank = 0
    rest = sorted(seq)
    for v in seq:
        k = rest.index(v)
        rank = rank * len(rest) + k
        rest.pop(k)
    return rank


def perm_at(r: int, rank: int):
    """The permutation of range(r) at position ``rank`` in itertools order."""
    rest = list(range(r))
    radix = [1] * r
    for k in range(r - 2, -1, -1):
        radix[k] = radix[k + 1] * (r - 1 - k)
    out = []
    for k in range(r):
        q, rank = divmod(rank, radix[k])
        out.append(rest.pop(q))
    return out
