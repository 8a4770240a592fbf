"""Finite groups by Cayley table: cyclic groups, products, subgroups, quotients."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from operator import itemgetter


class GroupError(ValueError):
    """Invalid group data or an unsupported group-theoretic request."""


class FiniteGroup:
    """Group on indices 0..order-1 with label strings and a Cayley table."""

    __slots__ = ("labels", "table", "identity", "inverse", "_hash", "_square", "_abelian")

    def __init__(self, labels, table, validate: bool = True):
        self.labels = list(labels)
        self.table = tuple(tuple(row) for row in table)
        n = len(self.labels)
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise GroupError("Cayley table shape does not match the label count")
        identity = None
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise GroupError("no identity element in Cayley table")
        self.identity = identity
        inverse = [None] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == identity and self.table[b][a] == identity:
                    inverse[a] = b
                    break
            if inverse[a] is None:
                raise GroupError(f"element {self.labels[a]} has no two-sided inverse")
        self.inverse = tuple(inverse)
        self._hash = self._square = self._abelian = None
        if validate:
            # row by row: (ab)c is row ab of the table, a(bc) row a read
            # through row b (itemgetter of one index returns no tuple, and
            # the one table of order 1 is associative)
            table = self.table
            through = [itemgetter(*row) for row in table] if n > 1 else [tuple]
            for a, row in enumerate(table):
                for b, ab in enumerate(row):
                    if table[ab] != through[b](row):
                        c = next(c for c in range(n) if table[ab][c] != row[table[b][c]])
                        raise GroupError(
                            f"table is not associative at ({self.labels[a]}, {self.labels[b]}, {self.labels[c]})"
                        )

    @property
    def order(self) -> int:
        return len(self.labels)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def is_abelian(self) -> bool:
        if self._abelian is None:
            n = self.order
            self._abelian = all(self.table[a][b] == self.table[b][a] for a in range(n) for b in range(a + 1, n))
        return self._abelian

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise GroupError(f"no group element labelled {label!r}") from None

    def elements(self):
        return range(self.order)

    def __eq__(self, other):
        return (
            self is other
            or isinstance(other, FiniteGroup)
            and self.labels == other.labels
            and self.table == other.table
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((tuple(self.labels), self.table))
        return self._hash

    def __repr__(self):
        return f"FiniteGroup({self.labels})"


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n with elements ordered by powers of the
    generator; abelian by construction, which it records."""
    if n < 1:
        raise GroupError(f"cyclic group order must be >= 1, got {n}")
    labels = ["1"] + ["g" if k == 1 else f"g{k}" for k in range(1, n)]
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    out = FiniteGroup(labels, table, validate=False)
    out._abelian = True
    return out


def multiply_to(orders, order: int) -> bool:
    """Whether the integers ``orders`` multiply to ``order`` >= 0, stopping
    once the product, whose size never shrinks, passes ``order``."""
    size = 1
    for n in orders:
        size *= n
        if abs(size) > order:
            return False
    return size == order


def make_product(groups) -> FiniteGroup:
    """Direct product with lexicographic tuple ordering of elements.  It is
    abelian exactly when every factor is, as each factor is a subgroup and
    products commute componentwise; it records that, deciding the factors
    (sum |G_i|^2 table pairs at most, against |G|^2 for the product)."""
    groups = list(groups)
    if not groups:
        raise GroupError("product of an empty family of groups")
    if len(groups) == 1:
        return groups[0]
    orders = [g.order for g in groups]
    tuples = list(iproduct(*[range(o) for o in orders]))
    index = {t: i for i, t in enumerate(tuples)}
    labels = ["(" + ",".join(g.labels[x] for g, x in zip(groups, t)) + ")" for t in tuples]
    table = [
        [index[tuple(g.mul(a, b) for g, a, b in zip(groups, ta, tb))] for tb in tuples]
        for ta in tuples
    ]
    out = FiniteGroup(labels, table, validate=False)
    out._abelian = all(g.is_abelian() for g in groups)
    return out


def product_index(groups, component_indices) -> int:
    """Index of a tuple element inside make_product(groups)."""
    idx = 0
    for g, x in zip(groups, component_indices):
        idx = idx * g.order + x
    return idx


@dataclass
class Subgroup:
    parent: FiniteGroup
    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        if not members or members[0] != self.parent.identity:
            raise GroupError("subgroup members must start with the identity")
        mset = set(members)
        if len(mset) != len(members):
            raise GroupError("subgroup members repeat")
        # row a of the table at the members; the identity first, so that
        # itemgetter returns a tuple even for the trivial subgroup
        products = itemgetter(members[0], *members)
        for a in members:
            if self.parent.inv(a) not in mset:
                raise GroupError("subgroup not closed under inverses")
            if not mset.issuperset(products(self.parent.table[a])):
                raise GroupError("subgroup not closed under products")
        object.__setattr__(self, "members", members)

    @property
    def order(self) -> int:
        return len(self.members)

    def as_group(self) -> FiniteGroup:
        """The subgroup as a group of its own, elements in member order,
        built once and kept off the fields that ``==`` and ``repr`` read."""
        group = self.__dict__.get("_group")
        if group is None:
            pos = {m: i for i, m in enumerate(self.members)}
            labels = [self.parent.labels[m] for m in self.members]
            table = [[pos[self.parent.mul(a, b)] for b in self.members] for a in self.members]
            group = self._group = FiniteGroup(labels, table, validate=False)
        return group


def subgroup_closure(group: FiniteGroup, seeds) -> Subgroup:
    seeds = list(seeds)
    for s in seeds:
        if not 0 <= s < group.order:
            raise GroupError(f"seed index {s} out of range")
    members = {group.identity}
    frontier = [group.identity]
    seeds = seeds + [group.inv(s) for s in seeds]
    while frontier:
        new = []
        for a in frontier:
            for s in seeds:
                c = group.mul(a, s)
                if c not in members:
                    members.add(c)
                    new.append(c)
        frontier = new
    ordered = [group.identity] + sorted(m for m in members if m != group.identity)
    return Subgroup(group, tuple(ordered))


def is_normal(group: FiniteGroup, sub: Subgroup) -> bool:
    """Whether g h g^-1 lies in ``sub`` for every g and every member h,
    read off the Cayley table in O(|G| |H|)."""
    mset = set(sub.members)
    table = group.table
    return all(table[table[g][h]][gi] in mset for g, gi in enumerate(group.inverse) for h in sub.members)


@dataclass
class QuotientData:
    parent: FiniteGroup
    sub: Subgroup
    transversal: tuple
    quotient: FiniteGroup
    coset_index: tuple  # parent element index -> quotient element index

    def coset_of(self, a: int) -> int:
        return self.coset_index[a]


def quotient(group: FiniteGroup, sub: Subgroup, transversal=None) -> QuotientData:
    """Quotient by a normal subgroup, with a deterministic transversal.

    The default transversal is greedy in element order with the identity
    first; an explicit transversal (identity first, one representative per
    coset) may be supplied instead.
    """
    if not is_normal(group, sub):
        raise GroupError("quotient by a non-normal subgroup is undefined")
    table = group.table
    coset_index = [None] * group.order
    if transversal is None:
        reps = []
        for a, row in enumerate(table):
            if coset_index[a] is None:
                reps.append(a)
                q = len(reps) - 1
                for h in sub.members:
                    coset_index[row[h]] = q
        transversal = tuple(reps)
    else:
        transversal = tuple(transversal)
        if not transversal or transversal[0] != group.identity:
            raise GroupError("transversal must start with the identity")
        for q, r in enumerate(transversal):
            row = table[r]
            for h in sub.members:
                x = row[h]
                if coset_index[x] is not None:
                    raise GroupError("transversal hits a coset twice")
                coset_index[x] = q
        if any(c is None for c in coset_index):
            raise GroupError("transversal misses a coset")
    if len(transversal) * sub.order != group.order:
        raise GroupError("transversal size is inconsistent")
    labels = [group.labels[r] for r in transversal]
    rows = [[coset_index[row[b]] for b in transversal] for row in (table[a] for a in transversal)]
    q = FiniteGroup(labels, rows, validate=False)
    return QuotientData(group, sub, transversal, q, tuple(coset_index))


def direct_square(group: FiniteGroup) -> FiniteGroup:
    """G x G, built once per group and kept on it."""
    return _square_data(group)[0]


def _square_data(group: FiniteGroup):
    """(G x G, delta G, the transversal {(g, 1)}) of ``group``, built once per
    group; delta G is None when G is not abelian."""
    if group._square is None:
        pair = [group, group]
        gxg = make_product(pair)
        delta = None
        if group.is_abelian():
            members = [product_index(pair, (g, group.inv(g))) for g in group.elements()]
            delta = Subgroup(gxg, tuple([members[0]] + sorted(members[1:])))
        transversal = tuple(product_index(pair, (g, group.identity)) for g in group.elements())
        group._square = (gxg, delta, transversal)
    return group._square


def delta_subgroup(group: FiniteGroup) -> Subgroup:
    """The anti-diagonal {(g, g^-1)} inside G x G, for abelian G."""
    if not group.is_abelian():
        raise GroupError("delta subgroup requires an abelian group")
    return _square_data(group)[1]


def delta_transversal(group: FiniteGroup) -> tuple:
    """Coset representatives {(g, 1)} of delta G in G x G, identity first."""
    return _square_data(group)[2]


def all_subgroups(group: FiniteGroup):
    """Every subgroup, ordered by (order, members).  A subgroup is the join
    of its cyclic subgroups, so joining each subgroup found with each cyclic
    one, until no new subgroup appears, finds them all; each join is closed
    from the generators it was found with."""
    found = {}
    for x in group.elements():
        sub = subgroup_closure(group, [x])
        found.setdefault(sub.members, (sub, (x,)))
    cyclic = [gens[0] for _, gens in found.values()]
    frontier = list(found.values())
    while frontier:
        new = []
        for sub, gens in frontier:
            for x in cyclic:
                if x not in sub.members:
                    join = subgroup_closure(group, gens + (x,))
                    if join.members not in found:
                        found[join.members] = (join, gens + (x,))
                        new.append(found[join.members])
        frontier = new
    return [found[m][0] for m in sorted(found, key=lambda m: (len(m), m))]
