"""Canonical keys of classes up to partial G-isomorphism.

Over a connected base ring (Q, F_p, Z/p^k) a unital partial action on a
split carrier is a partial action of G on the set of primitive idempotents
(Dokuchaev-Ferrero-Paques, "Partial actions and Galois theory", JPAA 2007),
and two actions are partially G-isomorphic exactly when those partial
G-sets are.  The key of a partial G-set is the sorted list of its connected
components, each written in its least breadth-first labelling over all
roots.  Composite Z/n is split by CRT into its prime-power factors first.
A carrier without a split presentation falls back to its exact data.

The key is a measuring device: it tells how many Harrison products in a
workload repeat an input pair up to isomorphism, which is what a
hash-consed product could skip.
"""

from __future__ import annotations

from pargal import Algebra, Matrix, Modular, PartialAction, find_split_presentation


def prime_powers(n: int):
    """The prime-power CRT factors of n."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append(q)
        p += 1
    if n > 1:
        out.append(n)
    return out


def _reduce(act: PartialAction, q: int) -> PartialAction:
    ring = Modular(q)
    old = act.algebra
    table = {}
    for i in range(old.rank):
        for j in range(old.rank):
            entries = tuple((k, c % q) for k, c in old.table[i][j] if c % q)
            if entries:
                table[(i, j)] = entries
    alg = Algebra(ring, old.labels, table, [u % q for u in old.unit], validate=False)
    idems = [alg.element([c % q for c in e.coords]) for e in act.idems]
    maps = [Matrix(ring, [[v % q for v in row] for row in m.rows], old.rank) for m in act.maps]
    return PartialAction(act.group, alg, idems, maps)


def _data_key(act: PartialAction):
    alg = act.algebra
    return ("data", tuple(map(tuple, alg.table)), alg.unit,
            tuple(e.coords for e in act.idems), tuple(tuple(map(tuple, m.rows)) for m in act.maps))


def _component_code(maps, root):
    label = {root: 0}
    order = [root]
    k = 0
    while k < len(order):
        x = order[k]
        for f in maps:
            y = f[x]
            if y is not None and y not in label:
                label[y] = len(order)
                order.append(y)
        k += 1
    return tuple(tuple(-1 if f[x] is None else label[f[x]] for f in maps) for x in order)


def gset_key(maps, npoints: int):
    """Canonical form of a partial G-set given as one partial map per g."""
    parent = list(range(npoints))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f in maps:
        for x, y in enumerate(f):
            if y is not None:
                parent[find(x)] = find(y)
    comps = {}
    for x in range(npoints):
        comps.setdefault(find(x), []).append(x)
    codes = [min(_component_code(maps, root) for root in members) for members in comps.values()]
    return tuple(sorted(codes))


def _connected_key(act: PartialAction):
    pres = find_split_presentation(act.algebra)
    if pres is None:
        return _data_key(act)
    points = [tuple(e.coords) for e in pres.idempotents]
    index = {p: i for i, p in enumerate(points)}
    maps = []
    for m in act.maps:
        f = []
        for p in points:
            image = tuple(m.matvec(list(p)))
            if not any(image):
                f.append(None)
            elif image in index:
                f.append(index[image])
            else:
                return _data_key(act)
        maps.append(f)
    return ("gset", gset_key(maps, len(points)))


def action_key(act: PartialAction):
    """Key equal for two actions of one group iff they are partially
    G-isomorphic (on split carriers over the supported rings)."""
    ring = act.algebra.ring
    group = (tuple(act.group.labels), act.group.table)
    if ring.kind != "rationals" and not ring.is_field:
        parts = prime_powers(ring.n)
        if len(parts) > 1:
            return (group, repr(ring), tuple(_connected_key(_reduce(act, q)) for q in parts))
    return (group, repr(ring), (_connected_key(act),))


def class_key(ext):
    return action_key(ext.action)
