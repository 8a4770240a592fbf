"""Induced partial actions of quotient groups on invariant subalgebras.

Two routes to alpha_{G/H}: the intrinsic closed forms

    1~_{gH} = 1_g + sum_{i=2}^m prod_{j=2}^i (1 - 1_{g h_{j-1}}) 1_{g h_i}
    alpha_{gH}(x) = alpha_g(x 1_{g^-1})
                  + sum_{i=2}^m prod_{j=1}^{i-1} (1 - 1_{g h_j}) alpha_{g h_i}(x 1_{(g h_i)^-1})

evaluated entirely inside S, and the globalized route m_{1_S} o beta_g o psi_H
through T^H.  The intrinsic route is primary; the globalized route is the
differential oracle, and both are compared matrix-for-matrix.

On a standard carrier whose partial G-set X passes the point-set
certificate both routes keep one map of H-orbits per coset, read off the
point maps by the partial G-set core (:mod:`pargal.gset`): the closed
forms by its orbit read, the globalized route off the classes of
G x X / ~ (:mod:`pargal.envelope`) and the H-orbits of the restriction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import Matrix, canonical_row_form
from .algebra import AlgebraError, Element, SubAlgebra
from .groups import Subgroup, QuotientData, quotient
from . import gset
from .paction import (
    ActionReport,
    PartialAction,
    _action_on_points,
    _invariants_on_points,
    _point_set,
    galois_coordinates,
    invariants,
    restrict,
    verify_partial_action,
)


def quotient_idempotent(act: PartialAction, sub: Subgroup, g: int) -> Element:
    """The coset idempotent 1~_{gH}; independent of the representative g."""
    G = act.group
    A = act.algebra
    members = sub.members
    one = A.one()
    total = act.idems[G.mul(g, members[0])]
    prod = one
    for i in range(1, len(members)):
        prod = prod * (one - act.idems[G.mul(g, members[i - 1])])
        total = total + prod * act.idems[G.mul(g, members[i])]
    if not total.is_idempotent():
        raise AssertionError("1~_{gH} failed to be idempotent (bug trap)")
    return total


def induced_map_apply(act: PartialAction, sub: Subgroup, g: int, x: Element) -> Element:
    """alpha_{gH}(x) by the closed form, evaluated on any x of the carrier."""
    G = act.group
    A = act.algebra
    members = sub.members
    total = act.apply(g, x)
    one = A.one()
    prod = one
    for i in range(1, len(members)):
        prod = prod * (one - act.idems[G.mul(g, members[i - 1])])
        total = total + prod * act.apply(G.mul(g, members[i]), x)
    return total


@dataclass
class QuotientAction:
    base: PartialAction
    sub: Subgroup
    qdata: QuotientData
    carrier: SubAlgebra  # S^{alpha_H} presented inside S
    action: PartialAction  # of qdata.quotient on carrier.algebra
    tilde_idems: list  # Elements of S, one per coset (transversal order)

    def certify(self) -> ActionReport:
        """The two theorem-level invariants of the construction."""
        rep = verify_partial_action(self.action)
        inv_q = invariants(self.action)
        pushed = [self.carrier.include_coords(r) for r in inv_q.basis.rows]
        lhs = canonical_row_form(
            Matrix.from_rows(self.base.algebra.ring, pushed, self.base.algebra.rank)
        )
        rhs = canonical_row_form(invariants(self.base).basis)
        rep.add("(S^alpha_H)^(alpha_G/H) = S^alpha", lhs == rhs, None)
        return rep


def _build_quotient_action(act, sub, qdata, map_for_rep, tilde_for_rep) -> QuotientAction:
    carrier = invariants(restrict(act, sub))
    SH = carrier.algebra
    ring = SH.ring
    G = act.group
    tilde = [tilde_for_rep(rep) for rep in qdata.transversal]
    idems = []
    maps = []
    for q, rep in enumerate(qdata.transversal):
        coords = carrier.express(list(tilde[q].coords))
        if coords is None:
            raise AssertionError("1~_{gH} escaped S^{alpha_H} (bug trap)")
        idems.append(Element(SH, coords))
        q_inv = qdata.coset_of(G.inv(rep))
        cols = []
        for row in carrier.basis.rows:
            x = Element(act.algebra, row) * tilde[q_inv]
            y = map_for_rep(rep, x)
            ycoords = carrier.express(list(y.coords))
            if ycoords is None:
                raise AssertionError("alpha_{gH} left S^{alpha_H} (bug trap)")
            cols.append(ycoords)
        maps.append(Matrix(ring, [list(r) for r in zip(*cols)], SH.rank))
    action = PartialAction(qdata.quotient, SH, idems, maps)
    return QuotientAction(act, sub, qdata, carrier, action, tilde)


def _quotient_on_points(act, sub, qdata, images, comp) -> QuotientAction:
    """The quotient action of the orbit maps ``images``, one per coset in
    transversal order, on the indicators of the H-orbits, one per entry of
    a map, comp[p] the orbit of p (:func:`~pargal.paction._invariants_on_points`).
    1~_{gH} is 1 on the image orbits, so the quotient's own 1_(gH), the
    domain of the orbit map of g^-1 H, is written on first read; the maps
    must pass the point-set certificate (a bug trap), whose record is kept
    (:func:`~pargal.paction._action_on_points`)."""
    carrier = _invariants_on_points(act.algebra, comp, len(images[0]))
    action = _action_on_points(qdata.quotient, carrier.algebra, images, "alpha_{G/H}")
    tildes = [Element(act.algebra, tuple(int(c in hit) for c in comp)) for hit in map(set, images)]
    return QuotientAction(act, sub, qdata, carrier, action, tildes)


def _orbit_maps(least, comp, sources) -> list:
    """The orbit maps of the cosets gH read off alpha_{g^-1 H}(x)(p) =
    x(s), s = sources[q][p] for the coset q of g, or 0 where s is None:
    alpha_{gH} inverts it, sending the orbit of p to that of s.  Any vector
    not constant on the orbits escapes S^{alpha_H} (the bug traps).  Each
    term alpha_{gh}(x 1_{(gh)^-1}) of the closed form multiplies x by
    1_{(gh)^-1} <= 1~_{g^-1 H}, so alpha_{gH}(1_c 1~_{g^-1 H}) is 1 on the
    orbits that draw from c, the H-orbits with the least points ``least``,
    comp[p] that of p."""
    drawn = []
    for source in sources:
        if any((s is None) != (source[least[c]] is None) for s, c in zip(source, comp)):
            raise AssertionError("1~_{gH} escaped S^{alpha_H} (bug trap)")
        image = [None if s is None else comp[s] for s in source]
        if any(c != image[least[k]] for c, k in zip(image, comp)):
            raise AssertionError("alpha_{gH} left S^{alpha_H} (bug trap)")
        drawn.append([image[p] for p in least])
    return drawn


def quotient_action(act: PartialAction, sub: Subgroup, transversal=None) -> QuotientAction:
    """The induced partial action of G/H on S^{alpha_H} via the closed forms.

    On a certified point set (:func:`~pargal.paction._point_set`) the
    H-orbits, whose indicators span S^{alpha_H}, and the orbit maps are
    read in one call of :func:`~pargal.gset.orbit_quotient`: the closed
    form of alpha_{gH} reads x at a_(g h_i)^-1(q) for the first h_i with q
    in D_(g h_i), a point of orbit k exactly when q lies in the image of k;
    1~_{gH} is 1 on the union of the D_gh, the image orbits.  Uncertified:
    callers that need the theorem-level invariants run
    :meth:`QuotientAction.certify`.
    """
    qdata = quotient(act.group, sub, transversal)
    points = _point_set(act)
    if points is not None:
        maps, table = points.maps, act.group.table
        _, images, comp = gset.orbit_quotient(
            act.algebra.rank, act.group.identity, qdata.transversal, sub.members, lambda g, h, p: maps[table[g][h]][p])
        return _quotient_on_points(act, sub, qdata, images, comp)
    return _build_quotient_action(
        act,
        sub,
        qdata,
        lambda rep, x: induced_map_apply(act, sub, rep, x),
        lambda rep: quotient_idempotent(act, sub, rep),
    )


def quotient_via_globalization(act: PartialAction, sub: Subgroup) -> QuotientAction:
    """alpha_{G/H} through the enveloping action: m_{1_S} o beta_g o psi_H.

    On a certified point set (:func:`~pargal.paction._point_set`) the
    pull-down, beta_g, psi_H and the embedding are 0/1 matrices on the
    classes of G x X / ~ with at most one 1 a row, so their composite is
    read as the row sources (:func:`~pargal.gset.row_sources`) of
    each followed back from the class c(p) of p; 1_S is 1 on every c(x).
    The row sources of beta_g are pi_(g^-1), kept on the enveloping
    action.  Read at g^-1 H, it gives the orbit map of gH
    (:func:`_orbit_maps`) on the H-orbits, the components of the
    restriction to H (:func:`~pargal.paction.restrict`), whose
    certificate found them.  This route never evaluates the closed forms."""
    from .envelope import globalize, psi_h, subgroup_idempotents

    gd = globalize(act)
    qdata = quotient(act.group, sub)
    idems = subgroup_idempotents(gd, sub)
    psi = psi_h(gd, sub, idems)
    if _point_set(act) is not None:
        pull, through, up = (gset.row_sources(m.rows) for m in (gd.down, psi.matrix, gd.embed.matrix))
        pis = _point_set(gd.enveloping_action).maps
        sources = []
        for q in qdata.quotient.inverse:
            source = pull
            for step in (pis[act.group.inv(qdata.transversal[q])], through, up):
                source = [None if c is None else step[c] for c in source]
            sources.append(source)
        orbits = _point_set(restrict(act, sub))
        return _quotient_on_points(act, sub, qdata, _orbit_maps(orbits.roots, orbits.comp, sources), orbits.comp)
    T = gd.algebra
    down = gd.down
    emb = gd.embed.matrix
    one_s = list(gd.one_s.coords)

    e_h = idems.e_h

    def tilde_for_rep(rep):
        moved = T.mul_coords(gd.beta[rep].matvec(list(e_h.coords)), one_s)
        return Element(act.algebra, down.matvec(moved))

    def map_for_rep(rep, x):
        t = psi.matrix.matvec(emb.matvec(list(x.coords)))
        y = gd.beta[rep].matvec(t)
        return Element(act.algebra, down.matvec(T.mul_coords(y, one_s)))

    return _build_quotient_action(act, sub, qdata, map_for_rep, tilde_for_rep)


def quotient_galois_check(act: PartialAction, sub: Subgroup):
    """Galois coordinates for the quotient extension; absence is a bug trap.

    Precondition: the input extension is partial Galois.
    """
    base_witness = galois_coordinates(act)
    if base_witness is None:
        raise AlgebraError("quotient_galois_check: the input action is not partial Galois")
    qa = quotient_action(act, sub)
    rep = qa.certify()
    if not rep.passed:
        raise AssertionError(
            "quotient action certificate failed (bug trap): "
            + "; ".join(c.name for c in rep.failures())
        )
    witness = galois_coordinates(qa.action)
    if witness is None:
        raise AssertionError(
            "theorem violation: quotient of a partial Galois extension lost its coordinates"
        )
    return qa, witness
