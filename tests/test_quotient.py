"""Quotient actions: closed forms, the globalized oracle, Galois descent."""

import re
from unittest import mock

import pytest
from hypothesis import given, settings

from pargal.scalars import QQ, Matrix, Modular
from pargal.algebra import Algebra, AlgebraError, AlgebraMorphism, Element
from pargal.corpus import example1, global_swap, standard_corpus, trivial_action
from pargal.envelope import GlobalizationData, certify_globalization, fixed_ring, globalize, psi_h
from pargal.groups import all_subgroups, is_normal, make_cyclic, quotient, subgroup_closure
from pargal.paction import PartialAction, galois_coordinates, global_action, invariants, restrict, verify_partial_action
from pargal.quotient import (
    induced_map_apply,
    quotient_action,
    quotient_galois_check,
    quotient_idempotent,
    quotient_via_globalization,
)
from test_envelope import subset_classes_and_products
from test_groups import s3
from test_paction import crt_glue, points_action, rebased


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
    return GlobalizationData(qa.action, global_action(qa.action.group, TH, beta_q), embed, one_s_q, down_q)


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


# On a standard carrier both routes run on points: the closed forms on the
# point maps, the globalized route on the classes of G x X / ~.  The matrix
# routes that every other carrier takes are their oracles.


def matrix_routes(act, sub):
    """quotient_action and quotient_via_globalization as a carrier without a
    certified point set takes them: closed forms evaluated as elements
    (induced_map_apply, quotient_idempotent), and m_{1_S} o beta_g o psi_H
    as matrix products.  No action reads as a point set, so every module
    the routes call takes its matrix route too, globalize included."""
    with mock.patch.object(PartialAction, "points", property(lambda self: None)):
        return quotient_action(act, sub), quotient_via_globalization(act, sub)


def presentation(qa):
    return (qa.carrier.basis, qa.carrier.algebra, qa.action.group, qa.action.idems, qa.action.maps,
            qa.tilde_idems)


@given(subset_classes_and_products())
@settings(max_examples=60, deadline=None)
def test_point_routes_match_the_matrix_routes(act):
    for sub in all_subgroups(act.group):
        intrinsic, globalized = matrix_routes(act, sub)
        assert presentation(quotient_action(act, sub)) == presentation(intrinsic)
        assert presentation(quotient_via_globalization(act, sub)) == presentation(globalized)


@pytest.mark.parametrize("ring", [QQ, Modular(2), Modular(6)], ids=["Q", "F2", "Z6"])
def test_point_routes_match_the_matrix_routes_on_s3_sets(ring):
    # the regular S_3-set restricted to subsets of its points, by the
    # normal subgroups {e}, A_3 and S_3
    from pargal.paction import _action_on_points

    group = s3()
    for subset in ([0, 1, 2, 3, 4, 5], [0, 1, 3], [2, 4, 5, 1], [5]):
        pos = {x: i for i, x in enumerate(subset)}
        maps = [[pos.get(group.mul(g, x)) for x in subset] for g in group.elements()]
        act = _action_on_points(group, Algebra.split(ring, [f"x{x}" for x in subset]), maps, "a")
        assert act.points is not None
        for sub in all_subgroups(group):
            if is_normal(group, sub):
                intrinsic, globalized = matrix_routes(act, sub)
                assert presentation(quotient_action(act, sub)) == presentation(intrinsic)
                assert presentation(quotient_via_globalization(act, sub)) == presentation(globalized)


def test_point_route_traps_vectors_outside_the_invariants():
    from pargal.quotient import _orbit_maps, _quotient_on_points

    act = example1()
    h = subgroup_closure(act.group, [2])
    carrier = invariants(restrict(act, h))
    assert carrier.basis.rows == [[1, 0, 1], [0, 1, 0]]
    # sources: point 2 undefined, so 1~_{gH} splits the orbit {e1, e3};
    # then point 2 drawn from e2, so alpha_{gH} splits it
    # the H-orbits {e1, e3} and {e2}, by least point, and the orbit of each
    # point
    least, comp = [0, 1], [0, 1, 0]
    for sources, trap in (([0, 1, None], "1~_{gH} escaped"), ([0, 1, 1], "alpha_{gH} left")):
        with pytest.raises(AssertionError, match=re.escape(trap)):
            _orbit_maps(least, comp, [sources] * 2)
    assert _orbit_maps(least, comp, [[0, 1, 2], [1, 0, 1]]) == [[0, 1], [1, 0]]
    # orbit maps that are no partial G/H-set: the identity coset moves, or
    # sends both orbits to {e1, e3}
    qdata = quotient(act.group, h)
    qa = _quotient_on_points(act, h, qdata, [[0, 1], [1, 0]], comp)
    # one component, rooted at orbit 0
    assert qa.action._points == ([[0, 1], [1, 0]], [0], [0, 0])
    assert qa.carrier.basis == carrier.basis and qa.carrier.algebra == carrier.algebra
    for images in ([[1, 0], [1, 0]], _orbit_maps(least, comp, [[0, 0, 0]] * 2)):
        with pytest.raises(AssertionError, match="certificate"):
            _quotient_on_points(act, h, qdata, images, comp)


@pytest.fixture
def quotient_routes(monkeypatch):
    """The routes that quotient_action and quotient_via_globalization take:
    "points", or "matrices" for each evaluation of a closed form as an
    element or of the psi_H route as a matrix product."""
    import pargal.quotient as quotient

    calls = []
    for name, route in (("_quotient_on_points", "points"), ("_build_quotient_action", "matrices")):
        build = getattr(quotient, name)
        monkeypatch.setattr(quotient, name, lambda *args, route=route, build=build: calls.append(route) or build(*args))
    return calls


def test_standard_carriers_take_the_point_routes(quotient_routes):
    for ring in (QQ, Modular(2), Modular(6)):
        for act in standard_corpus(ring).values():
            for sub in all_subgroups(act.group):
                quotient_action(act, sub).certify()
                quotient_via_globalization(act, sub)
    assert set(quotient_routes) == {"points"}


def test_point_routes_keep_their_point_maps():
    # no matrix is written, and the maps kept are those that
    # PartialAction.points reads back off the matrices written from them
    from pargal.harrison import ExtensionClass, cyclic_decompose
    from test_harrison import read_afresh

    built = []
    for ring in (QQ, Modular(2), Modular(6)):
        for act in standard_corpus(ring).values():
            for sub in all_subgroups(act.group):
                built += [quotient_action(act, sub).action, quotient_via_globalization(act, sub).action]
                if galois_coordinates(act) is not None:
                    built.append(quotient_galois_check(act, sub)[0].action)
        for name, orders in (("trivial-Z4", [4]), ("klein-product", [2, 2])):
            built += [f.action for f in cyclic_decompose(ExtensionClass.certify(standard_corpus(ring)[name]), orders)]
    for out in built:
        assert out._maps is None
        assert out._points
        assert out._points == read_afresh(out)


def test_other_carriers_take_the_matrix_routes(quotient_routes):
    # a rebased carrier, a CRT-glued Z/6 action, and 0/1 data that fails the
    # point-set certificate (Z_3 on R^2 with a_g = a_g2 = the swap)
    swap = standard_corpus(Modular(6))["global-Z2-swap"]
    glued = crt_glue(swap, global_action(swap.group, swap.algebra, [Matrix.identity(Modular(6), 2)] * 2))
    rebased_ex1 = rebased(example1(), Matrix(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]], 3))
    # the invariants of the glued action under all of Z_2 are no free module
    cases = [(rebased_ex1, sub) for sub in all_subgroups(rebased_ex1.group)] + [(glued, subgroup_closure(glued.group, []))]
    for act, sub in cases:
        assert quotient_action(act, sub).action == quotient_via_globalization(act, sub).action
    not_p4 = points_action(QQ, 3, [(1, 1)] * 3, [(0, 1), (1, 0), (1, 0)])
    quotient_action(not_p4, subgroup_closure(not_p4.group, [1]))
    assert set(quotient_routes) == {"matrices"}
