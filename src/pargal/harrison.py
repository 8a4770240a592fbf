"""Harrison arithmetic: tensor actions, the product over delta G, inverse and
idempotent classes, the trivial extension, and the inverse-semigroup suite.

Classes of partial Galois extensions of the base ring with one abelian group
multiply by [S, a] * [S', a'] = [(S (x) S')^{delta G}, (a (x) a')_{(GxG)/delta G}],
with coset representatives fixed as {(g, 1)} so the identification of
(G x G)/delta G with G is definitional.  On standard carriers the
product's and the idempotent class's delta-G quotients are orbit reads of
the core (:func:`~pargal.gset.product`, :func:`~pargal.gset.hat`); other
carriers take the tensor or hat action as matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .scalars import QQ, Matrix
from .algebra import (
    AlgebraError,
    ProductAlgebra,
    SubAlgebra,
    deferred_labels,
    product_over_ideals,
    tensor,
    tensor_labels,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    delta_subgroup,
    delta_transversal,
    direct_square,
    make_cyclic,
    make_product,
    multiply_to,
)
from . import gset
from .corpus import trivial_action
from .paction import (
    ActionReport,
    GaloisCoordinates,
    PartialAction,
    _orbit_action,
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


def tensor_action(a: PartialAction, b: PartialAction) -> PartialAction:
    """The partial action of G_a x G_b on S (x) S' with ideals S_l (x) S'_t.
    Row (i, s) of M_l (x) M'_s is row i of M_l (x) row s of M'_s."""
    if a.algebra.ring != b.algebra.ring:
        raise AlgebraError("tensor_action: base ring mismatch")
    grp = direct_square(a.group) if a.group == b.group else make_product([a.group, b.group])
    t = tensor(a.algebra, b.algebra)
    idems = []
    maps = []
    for l in a.group.elements():
        for s in b.group.elements():
            idems.append(t.pair(a.idems[l], b.idems[s]))
            rows = [t.pair_coords(x, y) for x in a.maps[l].rows for y in b.maps[s].rows]
            maps.append(Matrix(t.algebra.ring, rows, t.algebra.rank))
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
        Galois coordinates.  On a certified point set
        (:attr:`PartialAction.points`) the invariants are the component
        indicators: rank 1 means connected.  Coordinate k of the g-equation
        of :func:`galois_coordinates` for the pairs (e_i, e_i) is 1 exactly
        when a_(g^-1) fixes k, so coordinates exist exactly when no a_g with
        g != 1 fixes a point (that function argues "only if").  Both are
        read at the roots of the components, which the certificate of the
        point set found and kept (:class:`~pargal.gset.PartialGSet`), with
        no second walk of the points: the invariants have one indicator per
        root, and a fixed point exists exactly when one fixes a root
        (:func:`~pargal.gset.fixes_a_root`).  ``witness`` and ``fixed`` are
        built on first read; any other carrier builds both here."""
        rep = verify_partial_action(action)
        if not rep.passed:
            bad = rep.failures()[0]
            raise CertificationError(f"not a partial action: {bad.name} [{bad.witness}]")
        out = ExtensionClass(action)
        points = action.points
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


def harrison_product(c1: ExtensionClass, c2: ExtensionClass) -> ExtensionClass:
    """[S,a] * [S',a'] via the delta-G quotient of the tensor action.

    Operands on standard bases multiply on their point sets: the delta-G
    read of X x Y (:func:`~pargal.gset.product`), whose components are
    labelled over the tensor basis a(x)b.  Any other carrier takes the
    matrix route through the tensor carrier.  Both routes give the same
    presentation, and the result is certified once either way.
    """
    g = c1.group
    if g != c2.group:
        raise AlgebraError("harrison_product: classes over different groups")
    if not g.is_abelian():
        raise AlgebraError("harrison_product: the group must be abelian")
    if c1.action.algebra.ring != c2.action.algebra.ring:
        raise AlgebraError("harrison_product: classes over different base rings")
    a, b = c1.action, c2.action
    set_a, set_b = a.points, b.points
    if set_a is not None and set_b is not None:
        orbits, images, _ = gset.product(g, set_a, set_b)
        point_labels = deferred_labels(tensor_labels, a.algebra, b.algebra)
        act = _orbit_action(g, a.algebra.ring, orbits, images, point_labels, "the delta-G quotient")
    else:
        act = _identify_with_group(_quotient_by_delta(tensor_action(a, b), g), g)
    return ExtensionClass.certify(act)


def trivial_extension(group: FiniteGroup, ring=None) -> ExtensionClass:
    """E_G(R) with the regular translation action; the global identity class."""
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
                op = act.idem_matrix(h).mul(act.maps[l]).mul(act.idem_matrix(tg))
                for j, row in enumerate(comp_in.ideal.basis.rows):
                    for i, c in enumerate(prod.embed_component(h, op.matvec(list(row)))):
                        mat.rows[comp_out.offset + i][comp_in.offset + j] = c
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

    A carrier on its standard basis takes the point set P of prod_g S_g
    and its delta-G read (:func:`~pargal.gset.hat`), P labelled
    [g]<label of e_i> as :func:`~pargal.algebra.product_over_ideals`
    presents it; any other carrier takes the matrix route through
    :func:`hat_action` and the delta-G quotient.  Both routes give
    the same presentation, and the result is certified once either way.
    On a point set the Galois test is read at the roots of the components
    (:func:`~pargal.gset.fixes_a_root`), exactly as
    :func:`galois_coordinates` decides it.
    """
    points = act.points
    if (galois_coordinates(act) is None) if points is None else gset.fixes_a_root(act.group, points):
        raise CertificationError("idempotent_class needs a partial Galois action")
    G = act.group
    if points is not None:
        pairs, (orbits, images, _) = gset.hat(G, points)
        group_labels = G.labels

        def write(names):
            return [f"[{group_labels[g]}]{names[i]}" for g, i in pairs]

        point_labels = deferred_labels(write, act.algebra)
        quotient = _orbit_action(G, act.algebra.ring, orbits, images, point_labels, "the delta-G quotient")
    else:
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
    The laws are listed once, in order, and the first undecided iso
    outcome stops the suite with a distinct status.  Each pair of classes
    is multiplied once up to isomorphism.

    The "iso" answers join the actions compared in a union-find (Tarjan,
    JACM 1975), and each pair not already joined by certified witnesses is
    handed to :func:`iso_check` in the direction of its law.  A law whose
    two sides are joined passes without a search, and soundly: each join
    is a witness that :func:`iso_check` trapped
    (:func:`~pargal.paction._certified_witness`), the inverse of a partial
    G-isomorphism f is one (f^-1(S'_g) = S_g and f^-1 alpha'_g =
    alpha_g f^-1), and so is the composite g f of two (g f(S_g) = S''_g
    and g f alpha_g = g alpha'_g f = alpha''_g g f).  The composite of the
    joins along the path between the two sides, each inverted where the
    path runs against it, is the witness the law counts; one action on
    both sides is the path of length 0, the identity.  Negative answers
    are never implied: a "none" or "undecided" law is searched in its own
    direction and carries its own obstruction, which only a law comparing
    the same two actions in the same order shares.  So no ordered pair is
    searched twice, and the suite searches no pair that the pairwise memo
    would not.
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

    def number(c: ExtensionClass) -> int:
        k = numbers.get(id(c))
        if k is None:
            k = numbers[id(c)] = indices.setdefault(id(c) if c.key is None else c.key, len(indices))
        return k

    def mul(a: ExtensionClass, b: ExtensionClass) -> ExtensionClass:
        pair = (number(a), number(b))
        out = products.get(pair)
        if out is None:
            out = products[pair] = harrison_product(a, b)
        return out

    # the union-find of the actions compared, keyed by identity for the same
    # reason: parent[k] is the next action up from k in its tree, and a root
    # has none; the answers that join nothing are kept by the ordered pair
    # searched, so no pair is searched twice
    parent, refuted = {}, {}

    def find(k: int) -> int:
        while k in parent:
            up = parent[k]
            parent[k] = parent.get(up, up)
            k = up
        return k

    def iso_ok(x, y, label) -> bool:
        root_x, root_y = find(id(x.action)), find(id(y.action))
        if root_x == root_y:
            rep.add(label, "pass")
            rep.witnesses += 1
            return True
        pair = (id(x.action), id(y.action))
        res = refuted.get(pair)
        if res is None:
            res = iso_check(x.action, y.action)
        if res.status == "undecided":
            rep.add(label, "undecided", "carrier admits no split presentation")
            return False
        rep.add(label, res.status == "iso", res.obstruction)
        if res.status == "iso":
            parent[root_x] = root_y
            rep.witnesses += 1
        else:
            refuted[pair] = res
        return True

    def laws():
        # (label, lhs, rhs) in order; each side is made when its law is
        # reached, so the suite stops before any later product
        n = len(classes)
        for i in range(n):
            for j in range(n):
                yield f"commutativity ({i},{j})", mul(classes[i], classes[j]), mul(classes[j], classes[i])
        # the base products, every one made by the loop above
        table = [[mul(a, b) for b in classes] for a in classes]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    yield f"associativity ({i},{j},{k})", mul(table[i][j], classes[k]), mul(classes[i], table[j][k])
        stars = [c.star() for c in classes]
        for i in range(n):
            x, xs = classes[i], stars[i]
            yield f"x x* x = x ({i})", mul(mul(x, xs), x), x
            yield f"x* x x* = x* ({i})", mul(mul(xs, x), xs), xs
        idems = [idempotent_class(c.action) for c in classes]
        for i in range(n):
            for j in range(i, n):
                yield f"idempotents commute ({i},{j})", mul(idems[i], idems[j]), mul(idems[j], idems[i])
        for i in range(n):
            yield f"idempotent_class idempotent ({i})", mul(idems[i], idems[i]), idems[i]
            yield f"E(S,alpha) = [x][x*] ({i})", idems[i], mul(classes[i], stars[i])

    for label, lhs, rhs in laws():
        if not iso_ok(lhs, rhs, label):
            break
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
