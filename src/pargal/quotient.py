"""Induced partial actions of quotient groups on invariant subalgebras.

Two routes to alpha_{G/H}: the intrinsic closed forms

    1~_{gH} = 1_g + sum_{i=2}^m prod_{j=2}^i (1 - 1_{g h_{j-1}}) 1_{g h_i}
    alpha_{gH}(x) = alpha_g(x 1_{g^-1})
                  + sum_{i=2}^m prod_{j=1}^{i-1} (1 - 1_{g h_j}) alpha_{g h_i}(x 1_{(g h_i)^-1})

evaluated entirely inside S, and the globalized route m_{1_S} o beta_g o psi_H
through T^H.  The intrinsic route is primary; the globalized route is the
differential oracle, and both are compared matrix-for-matrix.

On a standard carrier whose partial G-set X passes the point-set
certificate both routes are read on points: the closed forms on the point
maps, and the globalized route on the classes of G x X / ~ (see
:mod:`pargal.envelope`), each as one partial map of X per coset, with no
product of elements.  Every other action evaluates them as elements.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import Matrix, canonical_row_form
from .algebra import AlgebraError, Element, SubAlgebra
from .groups import Subgroup, QuotientData, quotient
from .paction import (
    ActionReport,
    PartialAction,
    _point_set,
    _row_sources,
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


def _build_quotient_action(act, sub, qdata, carrier, map_for_rep, tilde_for_rep) -> QuotientAction:
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
    for q, rep in enumerate(qdata.transversal):
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


def _quotient_on_points(act, sub, qdata, carrier, sources) -> QuotientAction:
    """:func:`_build_quotient_action` on a certified point set, for the maps
    read off either route: alpha_{gH}(x)(p) = x(s) with s = sources[q][p]
    for the coset q of g, and 0 where s is None.  So 1~_{gH} =
    alpha_{gH}(1_S) is the indicator of where s is defined.

    The basis of S^{alpha_H} is the indicators of the H-orbits by least
    point (:func:`~pargal.paction.invariants` on points): a vector constant
    on each orbit has its values at the least points as coordinates, and
    any other escapes S^{alpha_H} (the bug traps).  alpha_{gH}(1_c
    1~_{g^-1 H}) is the indicator of the p whose s lies in orbit c: each
    term alpha_{gh}(x 1_{(gh)^-1}) of the closed form already multiplies x
    by 1_{(gh)^-1} <= 1~_{g^-1 H}, as (gh)^-1 lies in g^-1 H."""
    SH = carrier.algebra
    basis = carrier.basis.rows
    least = [row.index(1) for row in basis]
    comp = _row_sources(zip(*basis))
    tildes, idems, maps = [], [], []
    for source in sources:
        tilde = [int(s is not None) for s in source]
        if any(t != tilde[least[c]] for t, c in zip(tilde, comp)):
            raise AssertionError("1~_{gH} escaped S^{alpha_H} (bug trap)")
        image = [None if s is None else comp[s] for s in source]
        if any(c != image[least[k]] for c, k in zip(image, comp)):
            raise AssertionError("alpha_{gH} left S^{alpha_H} (bug trap)")
        tildes.append(Element(act.algebra, tuple(tilde)))
        idems.append(Element(SH, tuple(tilde[p] for p in least)))
        maps.append(Matrix(SH.ring, [[int(image[p] == c) for c in range(SH.rank)] for p in least], SH.rank))
    return QuotientAction(act, sub, qdata, carrier, PartialAction(qdata.quotient, SH, idems, maps), tildes)


def quotient_action(act: PartialAction, sub: Subgroup, transversal=None) -> QuotientAction:
    """The induced partial action of G/H on S^{alpha_H} via the closed forms.

    On a certified point set (:func:`~pargal.paction._point_set`) they read
    alpha_{gH}(x)(p) = x(a_{(g h_i)^-1}(p)) for the first h_i in
    ``sub.members`` with p in D_{g h_i}, whose term alone survives the
    products of (1 - 1_{g h_j}), and 0 if there is none; 1~_{gH} is the
    indicator of the union of the D_{gh}.  Uncertified: callers that need
    the theorem-level invariants run :meth:`QuotientAction.certify`.
    """
    qdata = quotient(act.group, sub, transversal)
    carrier = invariants(restrict(act, sub))
    points = _point_set(act)
    if points is not None:
        G = act.group
        sources = []
        for g in qdata.transversal:
            back = [points[G.inv(G.mul(g, h))] for h in sub.members]
            sources.append([next((a[p] for a in back if a[p] is not None), None) for p in range(act.algebra.rank)])
        return _quotient_on_points(act, sub, qdata, carrier, sources)
    return _build_quotient_action(
        act,
        sub,
        qdata,
        carrier,
        lambda rep, x: induced_map_apply(act, sub, rep, x),
        lambda rep: quotient_idempotent(act, sub, rep),
    )


def quotient_via_globalization(act: PartialAction, sub: Subgroup) -> QuotientAction:
    """alpha_{G/H} through the enveloping action: m_{1_S} o beta_g o psi_H.

    On a certified point set (:func:`~pargal.paction._point_set`) the
    pull-down, beta_g, psi_H and the embedding are 0/1 matrices on the
    classes of G x X / ~ with at most one 1 a row, so their composite is
    read as the row sources (:func:`~pargal.paction._row_sources`) of
    each followed back from the class c(p) of p; 1_S is 1 on every c(x).
    The row sources of beta_g are pi_(g^-1), kept on the enveloping
    action.  This route never evaluates the closed forms."""
    from .envelope import globalize, psi_h, subgroup_idempotents

    gd = globalize(act)
    qdata = quotient(act.group, sub)
    carrier = invariants(restrict(act, sub))
    idems = subgroup_idempotents(gd, sub)
    psi = psi_h(gd, sub, idems)
    if _point_set(act) is not None:
        pull, through, up = (_row_sources(m.rows) for m in (gd.down, psi.matrix, gd.embed.matrix))
        pis = _point_set(gd.enveloping_action)
        sources = []
        for rep in qdata.transversal:
            source = pull
            for step in (pis[act.group.inv(rep)], through, up):
                source = [None if c is None else step[c] for c in source]
            sources.append(source)
        return _quotient_on_points(act, sub, qdata, carrier, sources)
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

    return _build_quotient_action(act, sub, qdata, carrier, map_for_rep, tilde_for_rep)


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
