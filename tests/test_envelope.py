"""Globalization certificates and the psi_H property suite."""

import pytest

from pargal.scalars import QQ, Modular, canonical_row_form, Matrix
from pargal.algebra import Element
from pargal.corpus import example1, example2, global_swap, standard_corpus, trivial_action
from pargal.envelope import (
    certify_globalization,
    fixed_ring,
    global_iso_check,
    globalize,
    psi_h,
    psi_report,
    subgroup_idempotents,
)
from pargal.groups import all_subgroups, make_cyclic, subgroup_closure
from pargal.paction import global_action, inverse_action, invariants, restrict


def down_element(gd, t):
    """Pull t in T down to S: iota^-1(t * iota(1_S))."""
    return Element(gd.action.algebra, gd.down.matvec(list(t.coords)))


def test_globalize_certificates_on_corpus():
    for name, act in standard_corpus().items():
        gd = globalize(act)
        rep = certify_globalization(gd)
        assert rep.passed, (name, [c.name for c in rep.failures()])


def test_globalize_global_action_is_isomorphic_to_s():
    act = global_swap()
    gd = globalize(act)
    assert gd.algebra.rank == act.algebra.rank
    assert gd.embed.is_bijective()
    assert gd.one_s == gd.algebra.one()


def test_globalize_example2_rank():
    # theta embeds in a T spanned by the translates; the rank is certified by
    # the canonical row form of the translate span, here strictly larger than S
    gd = globalize(example2())
    assert gd.algebra.rank == 4
    assert certify_globalization(gd).passed


def test_eq1_identities_via_certificate():
    gd = globalize(example1())
    act = gd.action
    for g in act.group.elements():
        lhs = gd.algebra.element(gd.beta[g].matvec(list(gd.one_s.coords))) * gd.one_s
        assert lhs == gd.embed(act.idems[g])


def test_subgroup_idempotents_trivial_subgroup():
    gd = globalize(example1())
    ids = subgroup_idempotents(gd, subgroup_closure(gd.group, []))
    assert len(ids.eis) == 1
    assert ids.eis[0] == gd.one_s
    assert ids.e_h == gd.one_s


def test_beta_g_e1_recovers_idempotents():
    # Eq (4): beta_g(e_1) 1_S = 1_g for every g
    gd = globalize(example1())
    for g in gd.group.elements():
        moved = gd.algebra.element(gd.beta[g].matvec(list(gd.one_s.coords))) * gd.one_s
        assert down_element(gd, moved) == gd.action.idems[g]


def test_subgroup_idempotents_full_group_on_global():
    act = trivial_action(make_cyclic(2))
    gd = globalize(act)
    ids = subgroup_idempotents(gd, subgroup_closure(gd.group, [1]))
    assert ids.eis[0] == gd.algebra.one()
    assert all(e.is_zero() for e in ids.eis[1:])


def test_psi_trivial_subgroup_is_mult_by_one_s():
    gd = globalize(example2())
    psi = psi_h(gd, subgroup_closure(gd.group, []))
    assert psi.matrix == gd.algebra.mult_matrix(gd.one_s.coords)


def test_psi_full_group_sends_one_s_to_one_t():
    gd = globalize(example2())
    psi = psi_h(gd, subgroup_closure(gd.group, [1]))
    assert psi(gd.one_s) == gd.algebra.one()


def test_psi_report_all_subgroups_of_corpus():
    # Prop 2.1(ii)'s "only if" direction is false (see README "Known
    # discrepancies" and the dedicated test below); every other psi_H
    # property holds on the corpus.
    iff_name = "psi_H(1_S) = 1_T iff H = G"
    for name, act in standard_corpus().items():
        gd = globalize(act)
        for sub in all_subgroups(act.group):
            rep = psi_report(gd, sub)
            bad = [c.name for c in rep.failures() if c.name != iff_name]
            assert not bad, (name, sub.members, bad)


def test_psi_of_one_s_forward_direction_and_counterexample():
    # forward direction: psi_G(1_S) = 1_T, always
    for name, act in standard_corpus().items():
        gd = globalize(act)
        full = subgroup_closure(act.group, list(range(act.group.order)))
        assert psi_h(gd, full)(gd.one_s) == gd.algebra.one(), name
    # documented counterexample to the converse: Example 1 with H = {1, g2}
    # already has psi_H(1_S) = 1_T although H != G
    gd = globalize(example1())
    h = subgroup_closure(gd.group, [2])
    assert psi_h(gd, h)(gd.one_s) == gd.algebra.one()
    # and for a global action even H = {1} traps it: 1_S = 1_T there
    gd2 = globalize(global_swap())
    triv = subgroup_closure(gd2.group, [])
    assert psi_h(gd2, triv)(gd2.one_s) == gd2.algebra.one()


def test_fixed_ring_identity_subgroup_is_t():
    gd = globalize(example2())
    th = fixed_ring(gd, subgroup_closure(gd.group, []))
    assert th.algebra.rank == gd.algebra.rank


def test_fixed_ring_times_one_s_is_invariants():
    gd = globalize(example1())
    h = subgroup_closure(gd.group, [2])
    th = fixed_ring(gd, h)
    down = gd.down
    rows = [down.matvec(gd.algebra.mul_coords(list(r), list(gd.one_s.coords))) for r in th.basis.rows]
    lhs = canonical_row_form(Matrix.from_rows(gd.action.algebra.ring, rows, 3))
    s_ah = invariants(restrict(gd.action, h))
    assert lhs == canonical_row_form(s_ah.basis)


def test_globalization_unique_up_to_global_iso():
    act = example2()
    gd1 = globalize(act)
    gd2 = globalize(act, slot_order=[3, 1, 0, 2])
    res = global_iso_check(gd1, gd2)
    assert res.status == "iso"
    f = res.morphism
    assert f(gd1.one_s) == gd2.one_s
    for g in act.group.elements():
        assert f.matrix.mul(gd1.beta[g]) == gd2.beta[g].mul(f.matrix)


@pytest.mark.parametrize("ring", [QQ, Modular(2)], ids=["Q", "F2"])
def test_global_iso_check_matches_the_reference_enumeration(ring):
    # every same-group pair of corpus globalizations, each under two slot
    # orders, against the r! enumeration filtered by f(1_S) = 1_S'
    from test_paction import reference_iso_witnesses

    corpus = standard_corpus(ring)
    by_group = {}
    for name in ("ex1", "ex2", "ex2-star", "trivial-Z4", "klein-product"):
        for act in (corpus[name], inverse_action(corpus[name])):
            for order in ((0, 1, 2, 3), (3, 1, 0, 2)):
                by_group.setdefault(act.group, []).append(globalize(act, slot_order=order))
    statuses = set()
    for gds in by_group.values():
        for gd1 in gds:
            for gd2 in gds:
                t1 = global_action(gd1.group, gd1.algebra, gd1.beta)
                t2 = global_action(gd2.group, gd2.algebra, gd2.beta)
                expected = [f.matrix for f in reference_iso_witnesses(t1, t2) if f(gd1.one_s) == gd2.one_s]
                res = global_iso_check(gd1, gd2)
                assert res.status == ("iso" if expected else "none")
                assert res.status == "none" or res.morphism.matrix == expected[0]
                statuses.add(res.status)
    assert statuses == {"iso", "none"}


def test_globalize_over_f2():
    gd = globalize(example1(Modular(2)))
    assert certify_globalization(gd).passed
