"""Induced partial actions of quotient groups on invariant subalgebras.

Two routes to alpha_{G/H}: the intrinsic closed forms

    1~_{gH} = 1_g + sum_{i=2}^m prod_{j=2}^i (1 - 1_{g h_{j-1}}) 1_{g h_i}
    alpha_{gH}(x) = alpha_g(x 1_{g^-1})
                  + sum_{i=2}^m prod_{j=1}^{i-1} (1 - 1_{g h_j}) alpha_{g h_i}(x 1_{(g h_i)^-1})

evaluated entirely inside S, and the globalized route m_{1_S} o beta_g o psi_H
through T^H.  The intrinsic route is primary; the globalized route is the
differential oracle, and both are compared matrix-for-matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import Matrix, canonical_row_form
from .algebra import AlgebraError, Element, SubAlgebra
from .groups import Subgroup, QuotientData, quotient
from .paction import (
    ActionReport,
    PartialAction,
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


def quotient_action(act: PartialAction, sub: Subgroup, transversal=None) -> QuotientAction:
    """The induced partial action of G/H on S^{alpha_H} via the closed forms.

    Uncertified: callers that need the theorem-level invariants run
    :meth:`QuotientAction.certify`.
    """
    qdata = quotient(act.group, sub, transversal)
    carrier = invariants(restrict(act, sub))
    return _build_quotient_action(
        act,
        sub,
        qdata,
        carrier,
        lambda rep, x: induced_map_apply(act, sub, rep, x),
        lambda rep: quotient_idempotent(act, sub, rep),
    )


def quotient_via_globalization(act: PartialAction, sub: Subgroup) -> QuotientAction:
    """alpha_{G/H} through the enveloping action: m_{1_S} o beta_g o psi_H."""
    from .envelope import globalize, psi_h, subgroup_idempotents

    gd = globalize(act)
    qdata = quotient(act.group, sub)
    carrier = invariants(restrict(act, sub))
    idems = subgroup_idempotents(gd, sub)
    psi = psi_h(gd, sub, idems)
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
