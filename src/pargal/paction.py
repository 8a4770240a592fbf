"""Unital partial actions: axioms, restriction, invariants, Galois machinery.

A :class:`PartialAction` stores, per group element g, the central idempotent
1_g generating the ideal S_g and the total matrix M_g of x |-> alpha_g(x 1_{g^-1})
on all of S.  Every formula below composes alpha_g with multiplication by
1_{g^-1} anyway, so the total form evaluates them verbatim; in particular
axiom (P4) becomes the matrix identity M_g M_h = E_g M_{gh} with E_g the
multiplication-by-1_g matrix.  On a standard carrier the action is read
as a partial G-set on the basis points, and every point route asks the
core :mod:`pargal.gset`; an action built on certified point maps holds only
their record there and writes its 1_g and M_g on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .scalars import Matrix, Modular, canonical_row_form, invert, kernel, modules_equal, solve
from .algebra import (
    Algebra,
    AlgebraError,
    AlgebraMorphism,
    Element,
    SubAlgebra,
    ProductAlgebra,
    TensorProduct,
    deferred_labels,
    find_split_presentation,
    format_coords,
    product_over_ideals,
    subalgebra_from_constraints,
    tensor,
    unital_ideal,
)
from .groups import FiniteGroup, Subgroup
from . import gset


class PartialAction:
    """Unital partial action of a finite group on a finite-rank algebra.

    An action built on its certified point maps (:func:`_on_points`) holds
    only their record (:class:`~pargal.gset.PartialGSet`): its idempotents
    :attr:`idems` and matrices :attr:`maps` are written on first read, and
    the readers of a point set read D_g and a_g off the maps instead.
    ``_points`` is None until the point set is read, then its record
    (:attr:`points`), or False when there is none."""

    __slots__ = ("group", "algebra", "_idems", "_maps", "_idem_mats", "_split", "_points")

    def __init__(self, group: FiniteGroup, algebra: Algebra, idems, maps):
        self.group = group
        self.algebra = algebra
        self._idems = tuple(idems)
        self._maps = tuple(maps)
        if len(self._idems) != group.order or len(self._maps) != group.order:
            raise AlgebraError("need one idempotent and one matrix per group element")
        for e in self._idems:
            if e.algebra != algebra:
                raise AlgebraError("idempotent from a different algebra")
            if len(e.coords) != algebra.rank:
                raise AlgebraError("idempotent coordinate length mismatch")
        for m in self._maps:
            if m.nrows != algebra.rank or m.ncols != algebra.rank:
                raise AlgebraError("action matrix shape mismatch")
        self._idem_mats = [None] * group.order
        self._split = None
        self._points = None

    @property
    def idems(self) -> tuple:
        """The idempotents 1_g, written here on first read when the action
        was built on its certified point maps (:func:`_on_points`): 1_g is
        the indicator of D_g, the domain of a_(g^-1)."""
        if self._idems is None:
            points = self._points.maps
            self._idems = tuple(
                Element(self.algebra, tuple(int(j is not None) for j in points[gi])) for gi in self.group.inverse
            )
        return self._idems

    @property
    def maps(self) -> tuple:
        """The matrices M_g, written here on first read when the action was
        built on its certified point maps (:func:`_on_points`)."""
        if self._maps is None:
            self._maps = tuple(_point_matrix(self.algebra.ring, a) for a in self._points.maps)
        return self._maps

    @property
    def points(self) -> gset.PartialGSet | None:
        """The partial G-set of the action on its basis points, certified:
        the record (:class:`~pargal.gset.PartialGSet`) of the maps a_g,
        maps[g][i] = j when M_g e_i = e_j and None when column i is 0.  None
        unless the carrier is R^n on its standard basis
        (:meth:`Algebra.split`), every stored entry of each 1_g and M_g is 0
        or 1, no column of an M_g holds two 1s, and the maps with the
        domains D_g = supp 1_g form a partial G-set
        (:func:`~pargal.gset.certify`, which checks that D_g is the domain
        of a_(g^-1); every reader of a point set takes it from there).  Read
        (:func:`~pargal.gset.read`) in O(|G| r^2) and certified in O(|G| r)
        when free, once per action, and kept on it."""
        if self._points is None:
            read = self.algebra.is_split() and gset.read(
                self.group, [e.coords for e in self.idems], [zip(*m.rows) for m in self.maps]
            )
            self._points = read or False
        return self._points or None

    def idem_matrix(self, g: int) -> Matrix:
        if self._idem_mats[g] is None:
            self._idem_mats[g] = self.algebra.mult_matrix(self.idems[g].coords)
        return self._idem_mats[g]

    def apply(self, g: int, x: Element) -> Element:
        """alpha_g(x * 1_{g^-1})."""
        return Element(self.algebra, self.maps[g].matvec(list(x.coords)))

    def ideal(self, g: int):
        return unital_ideal(self.algebra, self.idems[g])

    def ideal_ranks(self) -> list:
        """The rank of each ideal S_g: on a certified point set
        (:attr:`points`) the number of points of D_g, the support of 1_g,
        read as the domain of a_(g^-1); else the rank of :meth:`ideal`, r
        products and a row reduction."""
        if self.points is not None:
            maps = self.points.maps
            return [len(maps[gi]) - maps[gi].count(None) for gi in self.group.inverse]
        return [self.ideal(g).rank for g in self.group.elements()]

    def __eq__(self, other):
        return (
            isinstance(other, PartialAction)
            and self.group == other.group
            and self.algebra == other.algebra
            and self.idems == other.idems
            and self.maps == other.maps
        )

    def __hash__(self):
        return hash((self.group, self.algebra, self.idems))

    def __repr__(self):
        return f"PartialAction({self.group!r} on {self.algebra!r})"


def global_action(group: FiniteGroup, algebra: Algebra, maps) -> PartialAction:
    one = algebra.one()
    return PartialAction(group, algebra, [one] * group.order, maps)


@dataclass
class Check:
    name: str
    passed: bool
    witness: str | None = None


@dataclass
class ActionReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def add(self, name: str, passed: bool, witness: str | None = None):
        self.checks.append(Check(name, passed, witness))

    def lines(self):
        out = []
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            w = f"  [{c.witness}]" if c.witness else ""
            out.append(f"{mark}  {c.name}{w}")
        return out


# the checks of verify_partial_action, in the order it reports them
_UNITAL = "unital: each 1_g is idempotent"
_P2 = "(P2) S_1 = S and alpha_1 = id"
_P1 = "(P1) alpha_g: S_(g^-1) -> S_g is an algebra isomorphism"
_P3 = "(P3) alpha_g(S_(g^-1) /\\ S_h) = S_g /\\ S_gh"
_P4 = "(P4) alpha_g alpha_h extends to alpha_gh"


def verify_partial_action(act: PartialAction) -> ActionReport:
    """Check the unital partial-action axioms; failures carry witnesses.

    A standard carrier whose partial G-set passes the point-set certificate
    (:attr:`PartialAction.points`) passes every check.  Any other action,
    and one that fails there, runs the checks on its matrices
    (:func:`_verify_on_matrices`), which name the witness of each failure.
    """
    if act.points is not None:
        rep = ActionReport()
        for name in (_UNITAL, _P2, _P1, _P3, _P4):
            rep.add(name, True)
        return rep
    return _verify_on_matrices(act)


def _verify_on_matrices(act: PartialAction) -> ActionReport:
    """The checks of :func:`verify_partial_action` on the matrices M_g and
    E_g (:meth:`PartialAction.idem_matrix`).  Products reduce like the
    ring's own, so a stored entry outside [0, n) over Z/n equals no
    product."""
    group = act.group
    g_labels = group.labels
    A = act.algebra
    maps, idems, E = act.maps, act.idems, act.idem_matrix
    rep = ActionReport()

    idempotent = [e.is_idempotent() for e in idems]
    bad = [g_labels[g] for g in group.elements() if not idempotent[g]]
    rep.add(_UNITAL, not bad, None if not bad else f"1_{bad[0]} not idempotent")

    p2 = idems[group.identity] == A.one() and maps[group.identity].is_identity()
    rep.add(_P2, p2, None if p2 else "identity component is not the identity")

    # (P1): M_g kills (1 - 1_{g^-1}), lands in S_g, is multiplicative and
    # unital on S_{g^-1}, and M_g M_{g^-1} is multiplication by 1_g.
    # Multiplicativity is checked on the pairs of basis rows b_i, b_j of
    # S_{g^-1} against the images M_g b_i, computed once per g; without an
    # idempotent 1_{g^-1}, S_{g^-1} is no unital ideal and (P1) fails.
    witness = None
    for g in group.elements():
        gi, mg = group.inv(g), maps[g]
        if mg.mul(E(gi)) != mg:
            witness = f"g={g_labels[g]}: M_g != M_g E_(g^-1)"
        elif E(g).mul(mg) != mg:
            witness = f"g={g_labels[g]}: image of alpha_g escapes S_g"
        elif act.apply(g, idems[gi]) != idems[g]:
            witness = f"g={g_labels[g]}: alpha_g(1_(g^-1)) != 1_g"
        elif mg.mul(maps[gi]) != E(g):
            witness = f"g={g_labels[g]}: alpha_g alpha_(g^-1) is not multiplication by 1_g"
        elif not idempotent[gi]:
            witness = f"g={g_labels[g]}: 1_(g^-1) is not idempotent"
        else:
            rows = canonical_row_form(E(gi).transpose()).rows
            images = [mg.matvec(b) for b in rows]
            pair = next(
                (
                    (i, j)
                    for i in range(len(rows))
                    for j in range(i, len(rows))
                    if mg.matvec(A.mul_coords(rows[i], rows[j])) != A.mul_coords(images[i], images[j])
                ),
                None,
            )
            if pair is not None:
                witness = f"g={g_labels[g]}: alpha_g not multiplicative on S_(g^-1) basis pair ({pair[0]},{pair[1]})"
        if witness:
            break
    rep.add(_P1, witness is None, witness)

    witness = next(
        (
            f"g={g_labels[g]}, h={g_labels[h]}"
            for g in group.elements()
            for h in group.elements()
            if act.apply(g, idems[group.inv(g)] * idems[h]) != idems[g] * idems[group.mul(g, h)]
        ),
        None,
    )
    rep.add(_P3, witness is None, witness)

    # (P4): M_g M_h = E_g M_gh; the first column that differs names the
    # witness basis vector
    witness = None
    for g, h in ((g, h) for g in group.elements() for h in group.elements()):
        lhs, rhs = maps[g].mul(maps[h]), E(g).mul(maps[group.mul(g, h)])
        if lhs != rhs:
            col = next(j for j, (x, y) in enumerate(zip(zip(*lhs.rows), zip(*rhs.rows))) if x != y)
            witness = f"g={g_labels[g]}, h={g_labels[h]}, basis={A.labels[col]}"
            break
    rep.add(_P4, witness is None, witness)
    return rep


def _residues(ring, u, rows) -> list:
    """Each coefficient x of ``rows`` read in the CRT unit u: 1 where u x =
    u, 0 where u x = 0, and None, which :func:`~pargal.gset.read` refuses,
    elsewhere.  So u p_i lies under 1_g exactly where the residue of its
    coefficient in 1_g is 1."""
    return [[1 if (v := ring.mul(u, x)) == u else 0 if v == 0 else None for x in row] for row in rows]


def _action_on_points(group: FiniteGroup, algebra: Algebra, maps, what: str) -> PartialAction:
    """The partial action of ``group`` on the split ``algebra`` R^X
    (:meth:`Algebra.split`) by the partial maps a_g = ``maps[g]`` of the
    points X (maps[g][i] = j, None off the domain of a_g): 1_g is the
    indicator of the domain of a_(g^-1) and M_g the 0/1 matrix with M_g e_i
    = e_(a_g(i)), both written on first read (:func:`_on_points`).

    The maps must form a partial G-set (:func:`~pargal.gset.certify`, with
    the domains read off the maps), and the record of the certificate is
    kept.  Every builder hands over the maps of a partial G-set, so maps
    that fail, ``what`` by name, are a bug trap."""
    points = gset.certify(group, maps)
    if points is None:
        raise AssertionError(f"{what} fails the point-set certificate (bug trap)")
    return _on_points(group, algebra, points)


def _orbit_action(group: FiniteGroup, ring, orbits, images, point_labels, what: str) -> PartialAction:
    """The action of ``group`` by the orbit maps ``images`` of an orbit read
    of the core (:mod:`pargal.gset`) on R^(orbits), basis vector k labelled
    on first read by the sum of the ``point_labels`` (an algebra or
    :func:`~pargal.algebra.deferred_labels`) of ``orbits[k]``, through the
    bug trap of :func:`_action_on_points`, ``what`` by name."""

    def write(names):
        return [format_coords([names[p] for p in points], [1] * len(points)) for points in orbits]

    algebra = Algebra.split(ring, deferred_labels(write, point_labels), len(orbits))
    return _action_on_points(group, algebra, images, what)


def _on_points(group: FiniteGroup, algebra: Algebra, points: gset.PartialGSet) -> PartialAction:
    """The action of the certified partial G-set ``points`` on a split
    ``algebra``, holding its record and nothing else: the idempotents, the
    matrices and the table of ``algebra`` are written on first read."""
    act = PartialAction.__new__(PartialAction)
    act.group, act.algebra, act._idems, act._maps, act._split = group, algebra, None, None, None
    act._idem_mats, act._points = [None] * group.order, points
    return act


def _point_matrix(ring, image) -> Matrix:
    """The square 0/1 matrix sending e_i to e_(image[i]), and e_i to 0 where
    image[i] is None."""
    k = len(image)
    rows = [[0] * k for _ in range(k)]
    for i, j in enumerate(image):
        if j is not None:
            rows[j][i] = 1
    return Matrix(ring, rows, k)


def restrict(act: PartialAction, sub: Subgroup) -> PartialAction:
    """The partial action of a subgroup on the same carrier.

    A certified point set (:attr:`PartialAction.points`) of ``act`` hands
    the maps of the members to the restriction (:func:`_action_on_points`):
    the maps and domains of the members of H in a partial G-set form a
    partial H-set (:func:`~pargal.gset.certify`), as a_1 = id and (P4) at
    pairs of H is (P4) of the parent there.  Its components are the
    H-orbits, not the parent's, so their walk is its own.  Any other
    restriction is read when it is asked for: only its own maps, and it
    may pass the certificate where its parent fails it."""
    if sub.parent != act.group:
        raise AlgebraError("subgroup of a different group")
    if act.points is not None:
        maps = act.points.maps
        return _action_on_points(sub.as_group(), act.algebra, [maps[m] for m in sub.members], "a restriction")
    return _relabel(act, sub.as_group(), sub.members, False)


def _relabel(act: PartialAction, group: FiniteGroup, members, same: bool) -> PartialAction:
    """The action of ``group`` with the idempotent and map of element
    members[g] of ``act`` at g.  Where ``same``, the result has the
    certificate and the components of ``act``, so a certified point set of
    ``act`` (:attr:`PartialAction.points`) is handed over: its maps, with
    no idempotent or matrix written and D_g read off the maps.  Any other
    result is built on the matrices and read when it is asked for."""
    points = act.points if same else None
    if points is not None:
        maps = [points.maps[m] for m in members]
        return _on_points(group, act.algebra, gset.PartialGSet(maps, points.roots, points.comp))
    return PartialAction(group, act.algebra, [act.idems[m] for m in members], [act.maps[m] for m in members])


def trace(act: PartialAction, x: Element) -> Element:
    """tr(x) = sum_g alpha_g(x 1_{g^-1}); always lands in the invariants."""
    out = sum((act.apply(g, x) for g in act.group.elements()), act.algebra.zero())
    for g in act.group.elements():
        if act.apply(g, out) != out * act.idems[g]:
            raise AssertionError("trace left the invariant subalgebra (bug trap)")
    return out


def invariants(act: PartialAction) -> SubAlgebra:
    """S^alpha = {x : alpha_g(x 1_{g^-1}) = x 1_g for all g} as an algebra.

    On a certified point set (:attr:`PartialAction.points`) these are the
    functions constant on the components of the partial G-set.  Their
    indicators, ordered by least point, are the canonical row form of the
    kernel of the constraints that any other carrier solves, and they multiply
    as orthogonal idempotents summing to the unit.  So the invariants are
    :meth:`Algebra.split` on the labels that
    :func:`~pargal.algebra.algebra_on_module` gives these rows, written on
    first read, with no row reduction or solve, and their linear system is
    factored on first use."""
    points = act.points
    if points is not None:
        return _invariants_on_points(act.algebra, points.comp, len(points.roots))
    rows = []
    for g in act.group.elements():
        diff = act.maps[g].sub(act.idem_matrix(g))
        rows.extend(diff.rows)
    constraints = Matrix.from_rows(act.algebra.ring, rows, act.algebra.rank)
    return subalgebra_from_constraints(act.algebra, constraints)


def _invariants_on_points(A: Algebra, comp, count: int) -> SubAlgebra:
    """:func:`invariants` on the split carrier ``A`` of a point set with
    ``count`` components, comp[y] that of y."""
    rows = [[int(k == j) for k in comp] for j in range(count)]
    basis = Matrix(A.ring, rows, A.rank)
    fixed = Algebra.split(A.ring, deferred_labels(lambda names: [format_coords(names, row) for row in rows], A), len(rows))
    return SubAlgebra(fixed, A, basis, AlgebraMorphism(fixed, A, basis.transpose()))


@dataclass
class GaloisCoordinates:
    action: PartialAction
    pairs: list  # of (Element, Element)

    def verify(self) -> bool:
        """Whether sum_i x_i alpha_g(y_i 1_{g^-1}) = delta_{1,g} 1_S for
        every g.  On a certified point set (:attr:`PartialAction.points`)
        coordinate k of x alpha_g(y 1_{g^-1}) is x_k y_(a_(g^-1)(k)), summed
        on coordinate lists over the nonzero x_k through the point maps:
        a_(g^-1) inverts a_g and is defined exactly on its image.  Any other
        action sums the products x * alpha_g(y 1_{g^-1}) as elements."""
        act = self.action
        A, group = act.algebra, act.group

        def expected(g):
            return A.one() if g == group.identity else A.zero()

        held = act.points
        if held is None:
            return all(
                sum((x * act.apply(g, y) for x, y in self.pairs), A.zero()) == expected(g) for g in group.elements()
            )
        n = A.ring.n if isinstance(A.ring, Modular) else None
        pairs = [([(k, v) for k, v in enumerate(x.coords) if v != 0], y.coords) for x, y in self.pairs]
        for g in group.elements():
            source = held.maps[group.inv(g)]
            acc = [0] * A.rank
            for xs, y in pairs:
                for k, v in xs:
                    if source[k] is not None:
                        acc[k] += v * y[source[k]]
            if n:
                acc = [v % n for v in acc]
            if tuple(acc) != expected(g).coords:
                return False
        return True


def galois_coordinates(act: PartialAction):
    """Partial Galois coordinates, or None when the extension is not Galois.

    Finds an element of S (x) S with sum_i x_i alpha_g(y_i 1_{g^-1}) =
    delta_{1,g} 1_S by one linear solve in rank^2 unknowns.  A certified
    point set (:attr:`PartialAction.points`) needs no solve.  Where some a_g
    with g != 1 fixes a point k, coordinate k of the g-equation is sum_i
    x_i(k) y_i(k), which the equation at g = 1 makes 1, not 0: not Galois.
    Elsewhere the solver's particular solution is the pairs (e_i, e_i).
    Such a point exists exactly when some a_g with g != 1 fixes the root of
    a component (:func:`~pargal.gset.fixes_a_root`), which the certificate
    found, so only the roots are read.
    """
    A = act.algebra
    r = A.rank
    points = act.points
    if points is not None:
        if gset.fixes_a_root(act.group, points):
            return None
        pairs = [(e, e) for e in A.basis()]
    else:
        rhs = []
        for g in act.group.elements():
            rhs.extend(A.unit if g == act.group.identity else (0,) * r)
        sol = solve(_galois_matrix(act), list(rhs))
        if sol is None:
            return None
        pairs = []
        for i in range(r):
            ycoords = sol.particular[i * r : (i + 1) * r]
            if any(c != 0 for c in ycoords):
                pairs.append((A.basis_element(i), A.element(ycoords)))
    coords = GaloisCoordinates(act, pairs)
    if not coords.verify():
        raise AssertionError("galois_coordinates: the coordinates found are no witness (bug trap)")
    return coords


def _galois_matrix(act: PartialAction) -> Matrix:
    """The system of :func:`galois_coordinates`: row (g, k), column (i, j)
    holds coordinate k of e_i alpha_g(e_j) = sum_l c_{ilk} M_g[l][j], read off
    the sparse table and summed in the order of ``Algebra.mul_coords``."""
    A = act.algebra
    r, table = A.rank, A.table
    rows = [[0] * (r * r) for _ in range(act.group.order * r)]
    for g in act.group.elements():
        m = act.maps[g].rows
        out = rows[g * r : (g + 1) * r]
        for i in range(r):
            for l, entries in enumerate(table[i]):
                if not entries:
                    continue
                for j, y in enumerate(m[l]):
                    if y == 0:
                        continue
                    for k, c in entries:
                        out[k][i * r + j] += y if c == 1 else y * c
    if isinstance(A.ring, Modular):
        n = A.ring.n
        rows = [[v % n for v in row] for row in rows]
    return Matrix(A.ring, rows, r * r)


@dataclass
class PhiMap:
    """phi: S (x) S -> prod_g S_g, phi(x(x)y) = (x alpha_g(y 1_{g^-1}))_g.

    The tensor is over the base ring; ``bijective`` reports whether the map
    induced on the tensor over the invariant subalgebra is a bijection (the
    two coincide when S^alpha is the base ring, as for every Galois class).
    """

    action: PartialAction
    tensor: TensorProduct
    product: ProductAlgebra
    morphism: AlgebraMorphism
    bijective: bool


def phi_map(act: PartialAction) -> PhiMap:
    A = act.algebra
    r = A.rank
    t = tensor(A, A)
    prod = product_over_ideals([act.ideal(g) for g in act.group.elements()], labels=act.group.labels)
    basis = [[1 if t0 == i else 0 for t0 in range(r)] for i in range(r)]
    # column (i, j) of the Galois system stacks the components e_i alpha_g(e_j)
    system = _galois_matrix(act).rows
    cols = []
    for c in range(r * r):
        comps = [[system[g * r + k][c] for k in range(r)] for g in act.group.elements()]
        cols.append(prod.from_components(comps).coords)
    mat = Matrix(A.ring, [list(row) for row in zip(*cols)], r * r)
    morphism = AlgebraMorphism(t.algebra, prod.algebra, mat)
    # S^alpha-bilinearity relations (a x) (x) y - x (x) (a y) span the kernel
    # of the projection onto the relative tensor
    inv = invariants(act)
    relations = []
    for arow in inv.basis.rows:
        amat = A.mult_matrix(arow)
        moved = [amat.matvec(basis[i]) for i in range(r)]
        for i in range(r):
            for j in range(r):
                v1 = t.pair_coords(moved[i], basis[j])
                v2 = t.pair_coords(basis[i], moved[j])
                diff = [A.ring.sub(a, b) for a, b in zip(v1, v2)]
                if any(x != 0 for x in diff):
                    relations.append(diff)
    rel_module = canonical_row_form(Matrix.from_rows(A.ring, relations, r * r))
    ker = kernel(mat)
    image_rows = canonical_row_form(Matrix.from_rows(A.ring, [list(c) for c in cols], prod.algebra.rank))
    bijective = modules_equal(ker, rel_module) and image_rows.is_identity()
    return PhiMap(act, t, prod, morphism, bijective)


def inverse_action(act: PartialAction) -> PartialAction:
    """The star action: S*_g = S_{g^-1} with alpha*_g = alpha_{g^-1}.

    On an abelian G a certified point set (:attr:`PartialAction.points`) is
    handed over as a*_g = a_(g^-1) (:func:`_relabel`): a*_1 = a_1, D*_g =
    D_(g^-1), and (P4) of the star maps at (g, h) is (P4) of the original at
    (g^-1, h^-1), because (gh)^-1 = g^-1 h^-1; so they form a partial G-set
    (:func:`~pargal.gset.certify`) exactly when the original maps do.  The
    component of x, {a_g(x)}, is {a*_g(x)}, so the roots and components are
    handed over too.  Any other star action is read when it is asked for."""
    group = act.group
    return _relabel(act, group, group.inverse, group.is_abelian())


def transport(act: PartialAction, new_group: FiniteGroup, index_map) -> PartialAction:
    """Relabel the acting group along an isomorphism.

    ``index_map[new_index] = old_index`` must be a group isomorphism from
    new_group onto act.group (checked).  A certified point set
    (:attr:`PartialAction.points`) is handed over (:func:`_relabel`): along
    the isomorphism a partial G-set is a partial G'-set
    (:func:`~pargal.gset.certify`) with a'_a = a_(index_map[a]) and D'_a =
    D_(index_map[a]), with the same components and so the same roots.
    """
    if len(index_map) != new_group.order or new_group.order != act.group.order:
        raise AlgebraError("group relabeling size mismatch")
    if sorted(index_map) != list(range(act.group.order)):
        raise AlgebraError("group relabeling is not a bijection")
    for a in new_group.elements():
        for b in new_group.elements():
            if act.group.mul(index_map[a], index_map[b]) != index_map[new_group.mul(a, b)]:
                raise AlgebraError("group relabeling is not a homomorphism")
    return _relabel(act, new_group, index_map, True)


@dataclass
class IsoResult:
    status: str  # "iso" | "none" | "undecided"
    morphism: AlgebraMorphism | None = None
    obstruction: str | None = None  # why the answer is "none"


def iso_check(a: PartialAction, b: PartialAction) -> IsoResult:
    """Decide whether two actions are partially G-isomorphic, with a witness.

    Requires split carriers (returns "undecided" otherwise).  A witness sends
    the split idempotent p_i of a to sum_t u_t q_{sigma_t(i)}: one bijection
    sigma_t of b's split idempotents per CRT unit u_t of the base ring, an
    isomorphism of the partial G-sets of that unit (:func:`_split_data`),
    so that f(S_g) = S'_g and f alpha_g = alpha'_g f.  Each sigma_t matches
    components by the rooted codes that :func:`canonical_key` compares, each
    read in O(|G|) from one point (:func:`~pargal.gset.match_components`),
    so the two agree by construction; each sigma_t is the greatest in lexicographic
    order of (sigma_t(r-1), ..., sigma_t(0)).  On a standard carrier the partial
    G-sets are read on the points in place, and units that share their maps
    share one match.  When both sides are point sets
    (:attr:`PartialAction.points`) and all units get one sigma, the witness is
    that permutation pi of the points, checked on the point maps
    (:func:`_certified_witness`) with no matrix product, and its matrix is
    written on first read.  A "none" answer names its obstruction: the two
    ranks, or the CRT unit and the size of the first component of ``a`` with no
    partner in ``b``.
    """
    return _match_iso(a, b)


def _match_iso(a: PartialAction, b: PartialAction, marked=None) -> IsoResult:
    """:func:`iso_check`; with ``marked`` = (e, e'), idempotents of the two
    carriers, only witnesses with f(e) = e' count.  A point i of the partial
    G-set of unit u is then coloured by whether u p_i lies under e, and the
    colours enter each rooted code as one bit per point
    (:func:`~pargal.gset.match_components`).

    Each sigma_t maps the indices of a's partial G-set to those of b's:
    points on a standard carrier, where p_i = e_i, and split indices
    elsewhere.  So with Pi_t the matrix sending e_i to e_(sigma_t(i)) and B
    the change of basis of each side (:class:`_SplitData`; the identity on
    a standard carrier) the witness is f = B_b (sum_t u_t Pi_t) B_a^-1."""
    if a.group != b.group:
        raise AlgebraError("iso_check: actions of different groups")
    if a.algebra.ring != b.algebra.ring:
        raise AlgebraError("iso_check: actions over different base rings")
    sa, sb = _split_data(a), _split_data(b)
    if sa is None or sb is None:
        return IsoResult("undecided")
    if a.algebra.rank != b.algebra.rank:
        return IsoResult("none", obstruction=f"rank {a.algebra.rank} != rank {b.algebra.rank}")
    r = a.algebra.rank
    ring = a.algebra.ring
    units = sa.units
    if marked is None:
        kept_a, kept_b = sa.kept, sb.kept
        colours_a = colours_b = [None] * len(units)
    else:
        kept_a, kept_b = [[None] * r for _ in units], [[None] * r for _ in units]
        colours_a = [_colour(ring, u, sa, marked[0]) for u in units]
        colours_b = [_colour(ring, u, sb, marked[1]) for u in units]
    sigmas, last = [], None
    for u, ga, gb, ka, kb, ca, cb in zip(units, sa.gsets, sb.gsets, kept_a, kept_b, colours_a, colours_b):
        if last is not None and ga is last[0] and gb is last[1] and (ca, cb) == last[2:]:
            sigmas.append(sigmas[-1])
            continue
        sigma, unmatched = gset.match_components(ga.maps, gb.maps, ka, kb, ca, cb)
        if sigma is None:
            return IsoResult("none", obstruction=f"CRT unit {u}: a component of size {unmatched} has no partner")
        sigmas.append(sigma)
        last = (ga, gb, ca, cb)
    if sigmas.count(sigmas[0]) == len(sigmas) and a.points is not None and b.points is not None:
        return IsoResult("iso", _certified_witness(a, b, None, marked, sigmas[0]))
    rows = [[0] * r for _ in range(r)]
    for u, sigma in zip(units, sigmas):
        for x, y in enumerate(sigma):
            rows[y][x] = ring.add(rows[y][x], u)
    fmat = Matrix(ring, rows, r)
    if sb.basis is not None:
        fmat = sb.basis.mul(fmat)
    if sa.to_coords is not None:
        fmat = fmat.mul(sa.to_coords)
    return IsoResult("iso", _certified_witness(a, b, fmat, marked))


def _colour(ring, u, data, e):
    """Whether u p lies under the idempotent e, for each point p of the
    partial G-sets of ``data``: the basis points of a standard carrier, in
    place, else the split idempotents."""
    coeffs = e.coords if data.to_coords is None else data.to_coords.matvec(list(e.coords))
    return [ring.mul(u, x) == u for x in coeffs]


class _SplitData(NamedTuple):
    """An action read off the split presentation of its carrier: for each
    CRT unit u, the partial G-set induced on the u p_i (:func:`_split_data`).
    On a standard carrier ``basis`` and ``to_coords`` are None, and the
    maps are on the points, p_i = e_i."""

    basis: Matrix | None  # B, with the split idempotents p_i as columns
    to_coords: Matrix | None  # B^-1: coordinates -> coefficients over the p_i
    units: tuple  # the CRT units u of the base ring, ascending (BaseRing.crt_units)
    gsets: list  # per unit, the record of its partial G-set (gset.read)
    # per unit, the rooted code of each point (gset.canonical_form), filled on
    # demand so that canonical_key and iso_check read each once; units
    # that share their maps share the list
    kept: list


def _split_data(act: PartialAction) -> _SplitData | None:
    """The split data of ``act``, or None when its carrier has no split
    presentation; built once per action and kept on it.  The coefficients
    are the coordinates on a standard carrier (:meth:`Algebra.is_split`),
    else read through B^-1.  A point set (:attr:`PartialAction.points`) serves
    every CRT unit with its record, as on 0/1 data u p_i reads alike for every
    u; any other action is read per unit (:func:`_residues`), and
    :func:`_refuse` says why a unit that fails does not permute the split
    idempotents."""
    if act._split is not None:
        return act._split[0]
    A, group = act.algebra, act.group
    ring, r = A.ring, A.rank
    units = ring.crt_units
    points = act.points
    if points is not None:
        t = len(units)
        act._split = (_SplitData(None, None, units, [points] * t, [[None] * r] * t),)
        return act._split[0]
    basis = to_coords = None
    if A.is_split():
        domains, columns = [e.coords for e in act.idems], [list(zip(*m.rows)) for m in act.maps]
    else:
        pres = find_split_presentation(A)
        if pres is None:
            act._split = (None,)
            return None
        basis = Matrix(ring, [list(col) for col in zip(*(e.coords for e in pres.idempotents))], r)
        to_coords = invert(basis)
        domains = [to_coords.matvec(list(e.coords)) for e in act.idems]
        columns = [list(zip(*to_coords.mul(m).mul(basis).rows)) for m in act.maps]
    gsets = []
    for u in units:
        dom, cols = _residues(ring, u, domains), [_residues(ring, u, c) for c in columns]
        gsets.append(gset.read(group, dom, cols) or _refuse(group, u, dom, cols))
    act._split = (_SplitData(basis, to_coords, units, gsets, [[None] * r for _ in units]),)
    return act._split[0]


def _refuse(group: FiniteGroup, u, domains, columns):
    """Raise why :func:`~pargal.gset.read` refuses the residues ``domains`` and
    ``columns`` of the CRT unit u: the first 1_g with a coefficient neither
    0 nor u, else the first alpha_g that does not send each u p_i under
    1_(g^-1) to one u p_j and each other to 0, else the certificate; the
    index is the first such i."""
    label = group.labels
    for g, d in enumerate(domains):
        if None in d:
            raise AlgebraError(f"iso_check: 1_{label[g]} is not a sum of split idempotents (index {d.index(None)})")
    for g, c in enumerate(columns):
        on = domains[group.inv(g)]
        bad = next((i for i, col in enumerate(c) if col.count(0) != len(col) - on[i] or on[i] and 1 not in col), None)
        if bad is not None:
            raise AlgebraError(f"iso_check: alpha_{label[g]} does not permute the split idempotents (index {bad})")
    raise AlgebraError(f"iso_check: the split idempotents of CRT unit {u} carry no partial G-set")


def canonical_key(act: PartialAction):
    """A key equal for two actions of one group over one base ring exactly
    when ``iso_check`` finds them isomorphic; None when the carrier has no
    split presentation (``iso_check`` is then "undecided").

    For each CRT unit the key holds the sorted codes of the connected
    components of the partial G-set; a component's code is the least of
    the rooted codes of its points (:func:`~pargal.gset.canonical_form`),
    each read in O(|G|) off the orbit map g -> a_g(x), so a key costs
    O(|G| r).  Each
    unit's components are read from the roots that its certificate found
    (:class:`_SplitData`).  The codes hold group indices only, so the key
    does not depend on the labels of the points.  Isomorphic components
    have the same rooted codes, and equal codes at two roots give an
    isomorphism, so components are isomorphic exactly when their least
    codes are equal.  ``iso_check`` matches components by the same rooted
    codes, so the two agree by construction.
    """
    data = _split_data(act)
    if data is None:
        return None
    return tuple(gset.canonical_form(*unit) for unit in zip(data.gsets, data.kept))


def _certified_witness(a: PartialAction, b: PartialAction, fmat, marked=None, pi=None) -> AlgebraMorphism:
    """The morphism of a matched candidate, after checking that it is a
    partial G-isomorphism (carrying marked[0] to marked[1] when given); a
    failure is a bug in the match.

    ``pi``, when given, is a bijection of the points of two certified point
    sets (:attr:`PartialAction.points`) with f e_x = e_pi(x), and the trap
    runs on the point maps (:func:`~pargal.gset.trap_on_points`) in O(|G|
    r).  There E'_g f = f E_g says pi(D_g) = D'_g, and f M_g = M'_g f
    E_(g^-1) says a'_g(pi(x)) = pi(a_g(x)) for x in D_(g^-1), both sides 0
    elsewhere: a certified a_g is defined exactly on D_(g^-1).  The other
    checks hold for any bijection pi between split algebras: f is invertible
    with inverse e_y -> e_(pi^-1(y)), f(e_x e_y) = delta_xy e_pi(x) =
    e_pi(x) e_pi(y) because pi is injective, and f(1) = sum_x e_pi(x) = 1
    because it is onto.  So the point route passes or fails exactly as the
    matrix route.  The morphism then writes the permutation matrix of pi on
    first read, and ``fmat`` is not read.

    Without ``pi`` the trap runs on the matrices (:func:`_trap_on_matrices`)."""
    if pi is None:
        morphism = AlgebraMorphism(a.algebra, b.algebra, fmat)
        _trap_on_matrices(a, b, morphism)
    else:
        morphism = AlgebraMorphism.deferred(a.algebra, b.algebra, lambda: _point_matrix(a.algebra.ring, pi))
        gset.trap_on_points(a.group, a.points.maps, b.points.maps, pi)
    if marked is not None and morphism(marked[0]) != marked[1]:
        raise AssertionError("iso_check: f does not carry the marked idempotent (bug trap)")
    return morphism


def _trap_on_matrices(a: PartialAction, b: PartialAction, morphism: AlgebraMorphism) -> None:
    """The checks of :func:`_certified_witness` but the marked idempotent,
    on the matrix f of ``morphism``: E'_g f = f E_g and f M_g = M'_g f
    E_(g^-1) for each g, then that f is a unital algebra isomorphism."""
    fmat, group = morphism.matrix, a.group
    for g in group.elements():
        if b.idem_matrix(g).mul(fmat) != fmat.mul(a.idem_matrix(g)):
            raise AssertionError(f"iso_check: f(S_g) != S'_g at g={group.labels[g]} (bug trap)")
        if fmat.mul(a.maps[g]) != b.maps[g].mul(fmat).mul(a.idem_matrix(group.inv(g))):
            raise AssertionError(f"iso_check: f alpha_g != alpha'_g f at g={group.labels[g]} (bug trap)")
    if not morphism.is_bijective() or morphism.multiplicative_failure() is not None or not morphism.is_unital():
        raise AssertionError("iso_check: f is not a unital algebra isomorphism (bug trap)")
