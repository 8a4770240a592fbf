"""Quotient actions: closed forms, the globalized oracle, Galois descent."""

import pytest

from pargal.scalars import Matrix, Modular
from pargal.algebra import AlgebraError, AlgebraMorphism, Element
from pargal.corpus import example1, global_swap, standard_corpus, trivial_action
from pargal.envelope import GlobalizationData, certify_globalization, fixed_ring, globalize, psi_h
from pargal.groups import all_subgroups, is_normal, make_cyclic, subgroup_closure
from pargal.paction import galois_coordinates, verify_partial_action
from pargal.quotient import (
    induced_map_apply,
    quotient_action,
    quotient_galois_check,
    quotient_idempotent,
    quotient_via_globalization,
)


def test_quotient_idempotents_example1():
    act = example1()
    h = subgroup_closure(act.group, [2])
    one = act.algebra.one()
    assert quotient_idempotent(act, h, 0) == one
    assert quotient_idempotent(act, h, 1) == one


def test_quotient_idempotent_trivial_subgroup():
    act = example1()
    h = subgroup_closure(act.group, [])
    for g in act.group.elements():
        assert quotient_idempotent(act, h, g) == act.idems[g]


def test_quotient_idempotent_representative_independent():
    for name, act in standard_corpus().items():
        for h in all_subgroups(act.group):
            if not is_normal(act.group, h):
                continue
            for g in act.group.elements():
                base = quotient_idempotent(act, h, g)
                for m in h.members:
                    assert quotient_idempotent(act, h, act.group.mul(g, m)) == base, name


def test_example1_quotient_closed_form_direct():
    act = example1()
    h = subgroup_closure(act.group, [2])
    e1, e2, e3 = act.algebra.basis()
    one = act.algebra.one()
    # alpha_{gH}(x) = alpha_g(x 1_g3) + alpha_g3(x 1_g)(1 - 1_g), directly
    for x in (e1 + e3, e2, e1 + e2 + e3):
        displayed = act.apply(1, x) + act.apply(3, x) * (one - act.idems[1])
        assert induced_map_apply(act, h, 1, x) == displayed


def test_example1_quotient_action_swaps_basis():
    act = example1()
    h = subgroup_closure(act.group, [2])
    qa = quotient_action(act, h)
    assert qa.carrier.basis.rows == [[1, 0, 1], [0, 1, 0]]
    assert qa.action.group.order == 2
    # both coset idempotents are 1, so the domains are the whole carrier
    assert all(e == qa.action.algebra.one() for e in qa.action.idems)
    # the nontrivial coset swaps the coefficients of e1+e3 and e2
    assert qa.action.maps[1].rows == [[0, 1], [1, 0]]
    assert qa.action.maps[0].is_identity()
    assert verify_partial_action(qa.action).passed


def test_quotient_by_full_group_is_trivial_on_invariants():
    act = example1()
    h = subgroup_closure(act.group, [1])
    qa = quotient_action(act, h)
    assert qa.action.group.order == 1
    assert qa.action.algebra.rank == 1
    assert qa.action.maps[0].is_identity()


def test_quotient_by_identity_recovers_action():
    act = example1()
    h = subgroup_closure(act.group, [])
    qa = quotient_action(act, h)
    assert qa.action == act


def test_quotient_differential_oracle_corpus():
    # intrinsic closed forms vs the psi_H route, matrix for matrix
    for ring in (None, Modular(2)):
        corpus = standard_corpus() if ring is None else standard_corpus(ring)
        for name, act in corpus.items():
            for h in all_subgroups(act.group):
                if not is_normal(act.group, h):
                    continue
                qa = quotient_action(act, h)
                qb = quotient_via_globalization(act, h)
                assert qa.action == qb.action, (name, h.members)
                assert qa.tilde_idems == qb.tilde_idems, (name, h.members)


def test_quotient_invariants_collapse_to_base_invariants():
    for name, act in standard_corpus().items():
        for h in all_subgroups(act.group):
            if not is_normal(act.group, h):
                continue
            qa = quotient_action(act, h)
            rep = qa.certify()
            assert rep.passed, (name, h.members, [c.name for c in rep.failures()])


def quotient_globalization_data(act, sub):
    """(T^H, beta_{G/H}) packaged as certifiable globalization data for the
    induced action: it is the enveloping action of alpha_{G/H}."""
    gd = globalize(act)
    qa = quotient_via_globalization(act, sub)
    th = fixed_ring(gd, sub)
    TH = th.algebra
    ring = TH.ring
    psi = psi_h(gd, sub)

    def to_th(vec):
        got = th.express(vec)
        if got is None:
            raise AssertionError("beta_g left T^H although H is normal (bug trap)")
        return got

    beta_q = []
    for rep in qa.qdata.transversal:
        cols = [to_th(gd.beta[rep].matvec(list(row))) for row in th.basis.rows]
        beta_q.append(Matrix(ring, [list(r) for r in zip(*cols)], TH.rank))
    # embed S^{alpha_H} -> T^H via psi_H o iota
    emb_cols = []
    for row in qa.carrier.basis.rows:
        emb_cols.append(to_th(psi.matrix.matvec(gd.embed.matrix.matvec(list(row)))))
    embed = AlgebraMorphism(qa.carrier.algebra, TH, Matrix(ring, [list(r) for r in zip(*emb_cols)], qa.carrier.algebra.rank))
    one_s_q = Element(TH, to_th(psi.matrix.matvec(list(gd.one_s.coords))))
    # pull-down: t in T^H -> t * 1_S read inside S^{alpha_H}
    down_rows = []
    for i in range(TH.rank):
        t = th.include_coords([1 if j == i else 0 for j in range(TH.rank)])
        s = gd.down.matvec(gd.algebra.mul_coords(t, list(gd.one_s.coords)))
        c = qa.carrier.express(s)
        if c is None:
            raise AssertionError("T^H 1_S escaped S^{alpha_H} (bug trap)")
        down_rows.append(c)
    down_q = Matrix(ring, [list(r) for r in zip(*down_rows)], TH.rank)
    return GlobalizationData(qa.action, TH, beta_q, embed, one_s_q, down_q)


def test_quotient_globalization_is_enveloping():
    act = example1()
    h = subgroup_closure(act.group, [2])
    gd = quotient_globalization_data(act, h)
    rep = certify_globalization(gd)
    assert rep.passed, [c.name for c in rep.failures()]


def test_quotient_globalization_enveloping_all_corpus():
    for name, act in standard_corpus().items():
        for h in all_subgroups(act.group):
            if not is_normal(act.group, h) or h.order == 1:
                continue
            gd = quotient_globalization_data(act, h)
            assert certify_globalization(gd).passed, (name, h.members)


def test_quotient_galois_check_example1():
    act = example1()
    h = subgroup_closure(act.group, [2])
    qa, witness = quotient_galois_check(act, h)
    assert witness.verify()
    # H = G: the trivial-group extension has coordinates {(1, 1)}
    qa, witness = quotient_galois_check(act, subgroup_closure(act.group, [1]))
    assert witness.verify()
    # H = {1}: reproduces the original question
    qa, witness = quotient_galois_check(act, subgroup_closure(act.group, []))
    assert witness.verify()


def test_quotient_galois_check_requires_galois_input():
    triv = global_swap()
    # identity action on R^2 is valid but not Galois
    from pargal.paction import PartialAction
    from pargal.scalars import QQ

    ident = PartialAction(
        triv.group, triv.algebra, [triv.algebra.one()] * 2, [Matrix.identity(QQ, 2)] * 2
    )
    with pytest.raises(AlgebraError, match="not partial Galois"):
        quotient_galois_check(ident, subgroup_closure(ident.group, []))


def test_global_input_specializes_to_classical_quotient():
    act = trivial_action(make_cyclic(4))
    h = subgroup_closure(act.group, [2])
    qa = quotient_action(act, h)
    one = act.algebra.one()
    assert all(t == one for t in qa.tilde_idems)
    assert qa.action.group.order == 2
    # classical fixed ring of H inside R^4 has rank 2; the quotient acts
    # globally on it
    assert qa.carrier.algebra.rank == 2
    assert all(e == qa.action.algebra.one() for e in qa.action.idems)
    assert galois_coordinates(qa.action) is not None


def test_quotient_galois_for_all_corpus_normal_subgroups():
    for name, act in standard_corpus().items():
        if galois_coordinates(act) is None:
            continue
        for h in all_subgroups(act.group):
            if not is_normal(act.group, h):
                continue
            qa, witness = quotient_galois_check(act, h)
            assert witness.verify(), (name, h.members)
