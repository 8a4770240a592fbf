"""Harrison arithmetic: tensor actions, the product over delta G, inverse and
idempotent classes, the trivial extension, and the inverse-semigroup suite.

Classes of partial Galois extensions of the base ring with one abelian group
multiply by [S, a] * [S', a'] = [(S (x) S')^{delta G}, (a (x) a')_{(GxG)/delta G}],
with coset representatives fixed as {(g, 1)} so the identification of
(G x G)/delta G with G is definitional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .scalars import Matrix
from .algebra import (
    Algebra,
    AlgebraError,
    ProductAlgebra,
    SubAlgebra,
    deferred_labels,
    format_coords,
    product_over_ideals,
    tensor_labels,
)
from .groups import FiniteGroup, GroupError, direct_square, make_cyclic, make_product, multiply_to, delta_subgroup, delta_transversal
from . import gset
from .paction import (
    ActionReport,
    GaloisCoordinates,
    PartialAction,
    _action_on_points,
    _point_set,
    canonical_key,
    galois_coordinates,
    invariants,
    inverse_action,
    iso_check,
    phi_map,
    restrict,
    transport,
    verify_partial_action,
)
from .quotient import QuotientAction, quotient_action


class CertificationError(ValueError):
    """An extension failed its partial-Galois certificate."""


def _kron(ring, a: Matrix, b: Matrix) -> Matrix:
    rb, cb = b.nrows, b.ncols
    out = [[0] * (a.ncols * cb) for _ in range(a.nrows * rb)]
    mul = ring.mul
    for i, arow in enumerate(a.rows):
        for j, av in enumerate(arow):
            if av == 0:
                continue
            for s, brow in enumerate(b.rows):
                base_r = i * rb + s
                base_c = j * cb
                for t, bv in enumerate(brow):
                    if bv != 0:
                        out[base_r][base_c + t] = mul(av, bv)
    return Matrix(ring, out, a.ncols * cb)


def tensor_action(a: PartialAction, b: PartialAction) -> PartialAction:
    """The partial action of G_a x G_b on S (x) S' with ideals S_l (x) S'_t."""
    from .algebra import tensor

    if a.algebra.ring != b.algebra.ring:
        raise AlgebraError("tensor_action: base ring mismatch")
    grp = direct_square(a.group) if a.group == b.group else make_product([a.group, b.group])
    t = tensor(a.algebra, b.algebra)
    idems = []
    maps = []
    for l in a.group.elements():
        for s in b.group.elements():
            idems.append(t.pair(a.idems[l], b.idems[s]))
            maps.append(_kron(t.algebra.ring, a.maps[l], b.maps[s]))
    return PartialAction(grp, t.algebra, idems, maps)


def delta_fixed_ring(tensor_act: PartialAction, base_group: FiniteGroup) -> SubAlgebra:
    """Invariants of the restriction of a G x G action to delta G."""
    dsub = delta_subgroup(base_group)
    if dsub.parent != tensor_act.group:
        raise AlgebraError("delta_fixed_ring: the action is not one of G x G")
    return invariants(restrict(tensor_act, dsub))


@dataclass
class ExtensionClass:
    """A partial Galois extension of the base ring, with its certificates."""

    action: PartialAction

    @staticmethod
    def certify(action: PartialAction) -> "ExtensionClass":
        """The class of a partial action with invariants R and partial
        Galois coordinates.  On a certified point set (:func:`_point_set`)
        the invariants are the component indicators: rank 1 means connected.
        Coordinate k of the g-equation of :func:`galois_coordinates` for the
        pairs (e_i, e_i) is 1 exactly when a_(g^-1) fixes k, so coordinates
        exist exactly when no a_g with g != 1 fixes a point (that function
        argues "only if").  Both are read at the roots of the components,
        which the certificate of the point set found and kept
        (:class:`~pargal.gset.PartialGSet`), with no second walk of the
        points: the invariants have one indicator per root, and a fixed
        point exists exactly when one fixes a root
        (:func:`~pargal.gset.fixes_a_root`).
        ``witness`` and ``fixed`` are built on first read; any other
        carrier builds both here."""
        rep = verify_partial_action(action)
        if not rep.passed:
            bad = rep.failures()[0]
            raise CertificationError(f"not a partial action: {bad.name} [{bad.witness}]")
        out = ExtensionClass(action)
        points = _point_set(action)
        rank = out.fixed.algebra.rank if points is None else len(points.roots)
        if rank != 1:
            raise CertificationError(f"fixed ring has rank {rank}, expected the base ring")
        if (out.witness is None) if points is None else gset.fixes_a_root(action.group, points):
            raise CertificationError("no partial Galois coordinates exist")
        return out

    @cached_property
    def witness(self) -> GaloisCoordinates | None:
        """The coordinates of :func:`galois_coordinates`."""
        return galois_coordinates(self.action)

    @cached_property
    def fixed(self) -> SubAlgebra:
        """The fixed ring, :func:`invariants`."""
        return invariants(self.action)

    @cached_property
    def key(self):
        """The class up to isomorphism, as :func:`canonical_key` of its
        action; computed on first use, never by :meth:`certify`."""
        return canonical_key(self.action)

    def star(self) -> "ExtensionClass":
        return ExtensionClass.certify(inverse_action(self.action))

    @property
    def group(self) -> FiniteGroup:
        return self.action.group

    def __repr__(self):
        return f"ExtensionClass(rank {self.action.algebra.rank} over {self.action.algebra.ring}, group {self.group.labels})"


def _quotient_by_delta(act: PartialAction, base_group: FiniteGroup) -> QuotientAction:
    dsub = delta_subgroup(base_group)
    if dsub.parent != act.group:
        raise AlgebraError("quotient by delta G needs an action of G x G")
    return quotient_action(act, dsub, transversal=delta_transversal(base_group))


def _identify_with_group(qa: QuotientAction, base_group: FiniteGroup) -> PartialAction:
    # transversal {(g,1)} is ordered by g, so coset q corresponds to group
    # element q; transport validates the isomorphism
    return transport(qa.action, base_group, list(base_group.elements()))


def _gset_product(a: PartialAction, b: PartialAction) -> PartialAction | None:
    """The delta-G quotient of the tensor action of ``a`` and ``b``, computed on
    the point set X x Y when both operands are certified point sets
    (:func:`~pargal.paction._point_set`); None otherwise.

    Point (x, y) is the tensor basis index x |Y| + y, and (l, t) sends it to
    (a_l x, a'_t y): a partial G x G-set, the restriction of a product of
    G-sets; see :func:`_delta_quotient`.
    """
    set_a, set_b = _point_set(a), _point_set(b)
    if set_a is None or set_b is None:
        return None
    map_a, map_b = set_a.maps, set_b.maps
    ny = b.algebra.rank
    table, inverse = a.group.table, a.group.inverse

    def move(g, s, p):
        u, v = map_a[table[g][s]][p // ny], map_b[inverse[s]][p % ny]
        return None if u is None or v is None else u * ny + v

    point_labels = deferred_labels(tensor_labels, a.algebra, b.algebra)
    return _delta_quotient(a.group, a.algebra.ring, a.algebra.rank * ny, move, point_labels)


def _hat_gset_quotient(act: PartialAction) -> PartialAction | None:
    """E(S, alpha) computed on the point set of prod_g S_g when ``act`` is a
    certified point set (:func:`~pargal.paction._point_set`); None
    otherwise.

    prod_g S_g is then R^P for the points P = {(g, i) : i in D_g}, ordered
    by g and then i and labelled [g]<label of e_i>, as
    :func:`~pargal.algebra.product_over_ideals` presents it.  The hat action
    of (l, t) sends (g, i) to (ltg, a_l(i)) when i lies in D_tg and D_(l^-1)
    and a_l(i) lies in D_ltg, which is what E_h M_l E_tg does in
    :func:`hat_action`: with X the restriction of a G-set Y, P is that of
    the G x G-set G x Y, (l, t)(g, y) = (ltg, ly) (G is abelian), as i lies
    in D_g when i and g^-1 i lie in X.  So a_l(i) in D_ltg already puts i
    in D_tg.  See :func:`_delta_quotient`.  D_g is read off the maps as the
    domain of a_(g^-1), so no 1_g is written.
    """
    held = _point_set(act)
    if held is None:
        return None
    G, A, maps = act.group, act.algebra, held.maps
    index, points = {}, []
    for g in G.elements():
        for i, j in enumerate(maps[G.inverse[g]]):
            if j is not None:
                index[g, i] = len(points)
                points.append((g, i))

    group_labels = G.labels

    def write(names):
        return [f"[{group_labels[g]}]{names[i]}" for g, i in points]

    table = G.table

    def move(g, s, p):
        # (gs, s^-1) sends (h, i) to (gh, a_gs(i))
        h, i = points[p]
        j = maps[table[g][s]][i]
        return None if j is None else index.get((table[g][h], j))

    return _delta_quotient(G, A.ring, len(points), move, deferred_labels(write, A))


def _delta_quotient(G: FiniteGroup, ring, npoints: int, move, point_labels) -> PartialAction:
    """The delta-G quotient of a partial G x G-set on the points
    0 .. npoints - 1, as a partial action of G on R^(components): the
    route of the matrix quotient (:func:`_quotient_by_delta` and
    :func:`_identify_with_group`) read off the points by the orbit read of
    the partial G-set core (:func:`~pargal.gset.orbit_quotient`), the coset
    of (g, 1) at g.
    ``move(g, s, p)`` is the image of p under (gs, s^-1), or None.  The
    components, labelled by their indicator vectors in the point labels
    ``point_labels`` (:func:`~pargal.algebra.deferred_labels`) on first
    read, and the point set are kept (:func:`~pargal.paction._action_on_points`).
    """
    if not G.is_abelian():
        raise GroupError("delta subgroup requires an abelian group")
    points, images, _ = gset.orbit_quotient(npoints, G.identity, G.elements(), G.elements(), move)

    def write(names):
        return [format_coords([names[p] for p in pts], [1] * len(pts)) for pts in points]

    algebra = Algebra.split(ring, deferred_labels(write, point_labels), len(points))
    return _action_on_points(G, algebra, images, "the delta-G quotient")


def harrison_product(c1: ExtensionClass, c2: ExtensionClass) -> ExtensionClass:
    """[S,a] * [S',a'] via the delta-G quotient of the tensor action.

    Operands on standard bases multiply on their point sets
    (:func:`_gset_product`); any other carrier takes the matrix route through
    the tensor carrier.  Both routes give the same presentation, and the
    result is certified once either way.
    """
    g = c1.group
    if g != c2.group:
        raise AlgebraError("harrison_product: classes over different groups")
    if not g.is_abelian():
        raise AlgebraError("harrison_product: the group must be abelian")
    if c1.action.algebra.ring != c2.action.algebra.ring:
        raise AlgebraError("harrison_product: classes over different base rings")
    act = _gset_product(c1.action, c2.action)
    if act is None:
        act = _identify_with_group(_quotient_by_delta(tensor_action(c1.action, c2.action), g), g)
    return ExtensionClass.certify(act)


def trivial_extension(group: FiniteGroup, ring=None) -> ExtensionClass:
    """E_G(R) with the regular translation action; the global identity class."""
    from .corpus import trivial_action
    from .scalars import QQ

    return ExtensionClass.certify(trivial_action(group, ring if ring is not None else QQ))


# ---------------------------------------------------------------------------
# the hat action on prod_g S_g and idempotent classes
# ---------------------------------------------------------------------------

@dataclass
class HatAction:
    base: PartialAction
    product: ProductAlgebra
    action: PartialAction  # of G x G on the product algebra


def hat_action(act: PartialAction) -> HatAction:
    """The action of G x G on prod_g S_g:
    component ltg of the image is alpha_l(x_g 1_{l^-1}) 1_{ltg}."""
    G = act.group
    A = act.algebra
    ring = A.ring
    prod = product_over_ideals([act.ideal(g) for g in G.elements()], labels=G.labels)
    P = prod.algebra
    gxg = direct_square(G)
    idems = []
    maps = []
    idem_mats = {g: act.idem_matrix(g) for g in G.elements()}
    for l in G.elements():
        for t in G.elements():
            comps = []
            for g in G.elements():
                gi = G.mul(G.inv(t), g)
                comps.append(list((act.idems[g] * act.idems[l] * act.idems[gi]).coords))
            idems.append(prod.from_components(comps))
            lt = G.mul(l, t)
            mat = Matrix.zero(ring, P.rank, P.rank)
            for g in G.elements():
                comp_in = prod.components[g]
                if comp_in.rank == 0:
                    continue
                h = G.mul(lt, g)
                comp_out = prod.components[h]
                if comp_out.rank == 0:
                    continue
                # E_h M_l E_{tg} restricted to the blocks
                tg = G.mul(t, g)
                op = idem_mats[h].mul(act.maps[l]).mul(idem_mats[tg])
                for j, row in enumerate(comp_in.ideal.basis.rows):
                    target = prod.embed_component(h, op.matvec(list(row)))
                    for i in range(comp_out.rank):
                        mat.rows[comp_out.offset + i][comp_in.offset + j] = target[comp_out.offset + i]
            maps.append(mat)
    return HatAction(act, prod, PartialAction(gxg, P, idems, maps))


def hat_iso(act: PartialAction):
    """phi as a partial (G x G)-isomorphism from a (x) a* onto the hat action.

    Returns (morphism, report); the report certifies conditions (i) and (ii).
    """
    G = act.group
    hat = hat_action(act)
    ta = tensor_action(act, inverse_action(act))
    phi = phi_map(act)
    mat = phi.morphism.matrix
    rep = ActionReport()
    rep.add("phi is bijective", phi.bijective, None)
    ok, witness = True, None
    for q in ta.group.elements():
        e_t = ta.idem_matrix(q)
        e_h = hat.action.idem_matrix(q)
        if e_h.mul(mat).mul(e_t) != mat.mul(e_t):
            ok, witness = False, f"(l,t)={ta.group.labels[q]}"
            break
    rep.add("(i) phi(S_l (x) S*_t) <= hat ideal", ok, witness)
    ok, witness = True, None
    for q in ta.group.elements():
        qi = ta.group.inv(q)
        lhs = mat.mul(ta.maps[q])
        rhs = hat.action.maps[q].mul(mat).mul(ta.idem_matrix(qi))
        if lhs != rhs:
            ok, witness = False, f"(l,t)={ta.group.labels[q]}"
            break
    rep.add("(ii) phi intertwines the actions", ok, witness)
    return phi.morphism, rep


def idempotent_class(act: PartialAction) -> ExtensionClass:
    """E(S, alpha) = (prod_g S_g)^{delta G} with the induced G-action.

    A carrier on its standard basis takes the point set of prod_g S_g
    (:func:`_hat_gset_quotient`); any other carrier takes the matrix route
    through :func:`hat_action` and the delta-G quotient.  Both routes give
    the same presentation, and the result is certified once either way.
    On a point set the Galois test is read at the roots of the components
    (:func:`~pargal.gset.fixes_a_root`), exactly as
    :func:`galois_coordinates` decides it.
    """
    points = _point_set(act)
    if (galois_coordinates(act) is None) if points is None else gset.fixes_a_root(act.group, points):
        raise CertificationError("idempotent_class needs a partial Galois action")
    G = act.group
    quotient = _hat_gset_quotient(act)
    if quotient is None:
        quotient = _identify_with_group(_quotient_by_delta(hat_action(act).action, G), G)
    return ExtensionClass.certify(quotient)


# ---------------------------------------------------------------------------
# suite and cyclic decomposition
# ---------------------------------------------------------------------------

@dataclass
class SuiteReport:
    """Check list with three-valued outcomes; undecided aborts the suite."""

    checks: list = field(default_factory=list)
    witnesses: int = 0

    @property
    def passed(self) -> bool:
        return all(status == "pass" for _, status, _ in self.checks)

    @property
    def undecided(self) -> bool:
        return any(status == "undecided" for _, status, _ in self.checks)

    def add(self, name, status, note=None):
        if status is True:
            status = "pass"
        elif status is False:
            status = "fail"
        self.checks.append((name, status, note))

    def failures(self):
        return [(n, note) for n, status, note in self.checks if status != "pass"]


def star_product_suite(classes) -> SuiteReport:
    """Inverse-semigroup law checks over a corpus of classes.

    Pairwise commutativity and triple associativity up to verified iso,
    regularity through the star classes, and idempotent-class behavior.
    Undecided iso outcomes abort with a distinct status.  Each pair of
    classes is multiplied once up to isomorphism.
    """
    rep = SuiteReport()
    for i, c in enumerate(classes):
        ver = verify_partial_action(c.action)
        if not ver.passed:
            bad = ver.failures()[0]
            rep.add(f"class {i} valid", False, f"{bad.name} [{bad.witness}]")
            return rep
        rep.add(f"class {i} valid", True)
    # the keys ignore the group and the base ring, so one of each
    if any(c.group != classes[0].group for c in classes):
        raise AlgebraError("star_product_suite: classes over different groups")
    if any(c.action.algebra.ring != classes[0].action.algebra.ring for c in classes):
        raise AlgebraError("star_product_suite: classes over different base rings")
    # every law is checked up to iso, on which the product is well defined,
    # so a class is numbered by its canonical key, or by its identity when
    # it has none (the suite keeps every class alive), and products by pairs
    numbers, indices, products = {}, {}, {}

    def mul(a: ExtensionClass, b: ExtensionClass) -> ExtensionClass:
        for c in (a, b):
            if id(c) not in numbers:
                numbers[id(c)] = indices.setdefault(id(c) if c.key is None else c.key, len(indices))
        pair = (numbers[id(a)], numbers[id(b)])
        out = products.get(pair)
        if out is None:
            out = products[pair] = harrison_product(a, b)
        return out

    # iso answers by the pair of actions compared, each asked once; keying on
    # identity is sound for the same reason
    answers = {}

    def iso_ok(x, y, label) -> bool:
        if x.action is y.action:
            # one memoised object on both sides: the identity is the witness
            rep.add(label, "pass")
            rep.witnesses += 1
            return True
        pair = (id(x.action), id(y.action))
        if pair not in answers:
            answers[pair] = iso_check(x.action, y.action)
        res = answers[pair]
        if res.status == "undecided":
            rep.add(label, "undecided", "carrier admits no split presentation")
            return False
        rep.add(label, res.status == "iso", res.obstruction)
        if res.status == "iso":
            rep.witnesses += 1
        return True

    n = len(classes)
    for i in range(n):
        for j in range(n):
            if not iso_ok(mul(classes[i], classes[j]), mul(classes[j], classes[i]), f"commutativity ({i},{j})"):
                return rep
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = mul(mul(classes[i], classes[j]), classes[k])
                rhs = mul(classes[i], mul(classes[j], classes[k]))
                if not iso_ok(lhs, rhs, f"associativity ({i},{j},{k})"):
                    return rep
    stars = [c.star() for c in classes]
    for i in range(n):
        x, xs = classes[i], stars[i]
        if not iso_ok(mul(mul(x, xs), x), x, f"x x* x = x ({i})"):
            return rep
        if not iso_ok(mul(mul(xs, x), xs), xs, f"x* x x* = x* ({i})"):
            return rep
    idems = [idempotent_class(c.action) for c in classes]
    for i in range(n):
        for j in range(i, n):
            if not iso_ok(mul(idems[i], idems[j]), mul(idems[j], idems[i]), f"idempotents commute ({i},{j})"):
                return rep
    for i in range(n):
        if not iso_ok(mul(idems[i], idems[i]), idems[i], f"idempotent_class idempotent ({i})"):
            return rep
        if not iso_ok(idems[i], mul(classes[i], stars[i]), f"E(S,alpha) = [x][x*] ({i})"):
            return rep
    return rep


def _check_product_presentation(group: FiniteGroup, orders):
    """Raise unless ``group`` has the Cayley table of the product of the
    cyclic groups of ``orders``.  Their product is compared with |G| first
    (:func:`~pargal.groups.multiply_to`), so no cyclic group larger than G
    is built."""
    if not multiply_to(orders, group.order) or group.table != make_product([make_cyclic(n) for n in orders]).table:
        raise AlgebraError(
            "the group is not presented as the product of cyclic groups "
            f"of orders {list(orders)}"
        )


def cyclic_compose(classes) -> ExtensionClass:
    """The tensor class over the product of the factors' groups, each of
    which must be presented as :func:`make_cyclic` of its order."""
    if not classes:
        raise AlgebraError("cyclic_compose of an empty factor list")
    for i, c in enumerate(classes):
        try:
            _check_product_presentation(c.group, [c.group.order])
        except AlgebraError as exc:
            raise AlgebraError(f"factor {i}: {exc}") from None
    if len(classes) == 1:
        return classes[0]
    orders = [c.group.order for c in classes]
    flat = make_product([make_cyclic(n) for n in orders])
    act = classes[0].action
    for c in classes[1:]:
        act = tensor_action(act, c.action)
    act = transport(act, flat, list(flat.elements()))
    return ExtensionClass.certify(act)


def cyclic_decompose(c: ExtensionClass, orders) -> list:
    """Per-factor classes S^{alpha_{H_i}} with G/H_i identified with G_i.

    In the order of :func:`make_product`, coordinate i of element idx is
    (idx // stride_i) mod n_i, where stride_i is the product of the later
    orders: H_i is where it is 0, and the transversal is k stride_i, k < n_i.
    """
    from .groups import Subgroup

    orders = list(orders)
    G = c.group
    _check_product_presentation(G, orders)
    out = []
    for i, order in enumerate(orders):
        stride = math.prod(orders[i + 1:])
        sub = Subgroup(G, tuple(idx for idx in G.elements() if idx // stride % order == 0))
        qa = quotient_action(c.action, sub, transversal=tuple(k * stride for k in range(order)))
        target = make_cyclic(order)
        out.append(ExtensionClass.certify(transport(qa.action, target, list(target.elements()))))
    return out
