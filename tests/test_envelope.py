"""Globalization certificates and the psi_H property suite."""

import re
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pargal.scalars import QQ, Modular, canonical_row_form, invert, Matrix
from pargal.algebra import Algebra, AlgebraError, AlgebraMorphism, Element, subalgebra_from_constraints
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
from pargal.groups import FiniteGroup, all_subgroups, make_cyclic, subgroup_closure
from pargal.harrison import harrison_product
from pargal.paction import PartialAction, global_action, inverse_action, invariants, restrict
from test_harrison import subset_class
from test_paction import crt_glue, rebased, relabel, report_of, reversed_basis


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


def test_psi_report_fails_on_corrupted_data():
    """Each corruption of Example 1's globalization fails one psi_H check
    that the true data passes, at H = <g2>: a doubled pull-down breaks the
    inverse by 1_S, 1_S set to 1_T puts psi_H(S^(alpha_H)) outside T^H, and
    beta_(g2) made non-multiplicative, fixing 1_T and T^H still, breaks the
    T^H-linearity of psi_H.

    No data reaches the other failure of that inverse, e_H t != t for t =
    psi_H(iota(s)): psi_H = sum_i e_i beta_(h_i) and e_H = sum_i e_i, with
    the e_i orthogonal idempotents (checked on matrices, disjoint 0/1
    indicators on classes), so e_H psi_H(x) = psi_H(x) in any commutative
    associative T, whatever beta, iota, 1_S and the pull-down are."""
    gd = globalize(example1())
    sub = subgroup_closure(gd.group, [2])

    def failing(data):
        return {c.name for c in psi_report(data, sub).failures()} - {"psi_H(1_S) = 1_T iff H = G"}

    def skew(rows):
        # beta_(g2)(e_0) = e_2 + e_3 and beta_(g2)(e_2) = e_0 - e_3
        rows[3][0] += 1
        rows[3][2] -= 1

    skewed = with_betas(gd, [edited(b, skew) if h == 2 else b for h, b in enumerate(gd.beta)])
    assert fixed_ring(skewed, sub).basis == fixed_ring(gd, sub).basis
    assert failing(gd) == set()
    assert failing(replace(gd, down=Matrix(gd.down.ring, [[2 * x for x in r] for r in gd.down.rows]))) == {
        "psi_H: S^(alpha_H) ~ T^H e_H with inverse mult by 1_S"
    }
    assert failing(replace(gd, one_s=gd.algebra.one())) == {"psi_H(S^(alpha_H)) <= T^H"}
    assert failing(skewed) == {"psi_H is T^H-linear"}


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
    gd2 = globalize(reversed_basis(act))
    res = global_iso_check(gd1, gd2)
    assert res.status == "iso"
    f = res.morphism
    assert f(gd1.one_s) == gd2.one_s
    for g in act.group.elements():
        assert f.matrix.mul(gd1.beta[g]) == gd2.beta[g].mul(f.matrix)


@pytest.mark.parametrize("ring", [QQ, Modular(2)], ids=["Q", "F2"])
def test_global_iso_check_matches_the_reference_enumeration(ring):
    # every same-group pair of corpus globalizations, each also of the copy
    # on the reversed basis, against the r! enumeration filtered by
    # f(1_S) = 1_S'
    from test_paction import reference_iso_witnesses

    corpus = standard_corpus(ring)
    by_group = {}
    for name in ("ex1", "ex2", "ex2-star", "trivial-Z4", "klein-product"):
        for act in (corpus[name], inverse_action(corpus[name])):
            for copy in (act, reversed_basis(act)):
                by_group.setdefault(act.group, []).append(globalize(copy))
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


# The point route builds the enveloping set G x X / ~ of a standard carrier;
# the matrix route, the span of translates in S^G, is its oracle.


def routes_of(act):
    from pargal.envelope import _globalize_matrices, _globalize_points

    def fields(gd):
        return gd.algebra, gd.beta, gd.embed.source, gd.embed.target, gd.embed.matrix, gd.one_s, gd.down

    points = act.points
    assert points is not None
    return fields(_globalize_points(act, points)), fields(_globalize_matrices(act))


@st.composite
def subset_classes_and_products(draw):
    """A partial Z_n-class (n <= 5) over Q, F_2 or Z/6 from a nonempty subset,
    possibly starred, possibly multiplied by a second one, on a permuted
    basis."""
    ring = draw(st.sampled_from([QQ, Modular(2), Modular(6)]))
    n = draw(st.integers(1, 5))

    def draw_class():
        points = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        c = subset_class(n, points, ring)
        return c.star() if draw(st.booleans()) else c

    c = draw_class()
    if draw(st.booleans()):
        c = harrison_product(c, draw_class())
    return relabel(c.action, draw(st.permutations(range(c.action.algebra.rank))))


def edited(m, edit):
    """A copy of the matrix ``m`` with ``edit`` applied to its rows."""
    rows = [list(row) for row in m.rows]
    edit(rows)
    return Matrix(m.ring, rows, len(rows[0]))


def swap(rows):
    for row in rows:
        row[0], row[-1] = row[-1], row[0]


def widen(rows):
    for row in rows:
        row.append(0)


def with_betas(gd, betas):
    """A copy of ``gd`` whose enveloping action has the matrices ``betas``."""
    return replace(gd, enveloping_action=global_action(gd.group, gd.algebra, betas))


def mutations(gd):
    """Copies of ``gd`` with two beta columns swapped, a second 1 in a beta
    column, beta_1 replaced, beta_1 and another beta swapped, an embed entry
    zeroed, a second 1 in an embed column, the classes of two points
    swapped, a square embedding transposed, a down entry flipped, an entry 2
    in 1_S and 1_S with one class outside the image of S, each with whether
    it must fail the certificate."""
    G, k = gd.group, gd.algebra.rank
    emb = gd.embed.matrix

    def zero(rows):
        rows[next(j for j, row in enumerate(rows) if row[0] == 1)][0] = 0

    def second_one(rows):
        rows[next(j for j, row in enumerate(rows) if row[0] == 0)][0] = 1

    def flip(rows):
        rows[0][rows[0].index(1)] = 0

    def with_beta(h, m):
        return with_betas(gd, [m if x == h else b for x, b in enumerate(gd.beta)])

    g = G.order - 1
    if k > 1:
        yield False, with_beta(g, edited(gd.beta[g], swap))
        # beta_g no longer sends 1_T to 1_T
        yield True, with_beta(g, edited(gd.beta[g], second_one))
        # the second class of e_0 is either the class of a point, and the
        # pull-down fails, or no point's, and (G1) fails
        yield True, replace(gd, embed=replace(gd.embed, matrix=edited(emb, second_one)))
    one = G.identity
    other = edited(gd.beta[one], swap) if k > 1 else gd.beta[g]
    yield other != gd.beta[one], with_beta(one, other)
    # every beta a permutation, but beta_1 != id unless beta_g = beta_1
    swapped = [gd.beta[g] if h == one else gd.beta[one] if h == g else m for h, m in enumerate(gd.beta)]
    yield gd.beta[g] != gd.beta[one], with_betas(gd, swapped)
    yield True, replace(gd, embed=replace(gd.embed, matrix=edited(emb, zero)))
    if emb.ncols > 1:
        # the classes of the first and last point swapped: the pull-down
        # no longer splits the embedding
        yield True, replace(gd, embed=replace(gd.embed, matrix=edited(emb, swap)))
    if emb.nrows == emb.ncols:
        # the pull-down fails unless the embedding is symmetric
        yield emb.transpose() != emb, replace(gd, embed=replace(gd.embed, matrix=emb.transpose()))
    yield True, replace(gd, down=edited(gd.down, flip))
    # 1_S 1_S != iota(1_S)
    coords = list(gd.one_s.coords)
    coords[coords.index(1)] = 2
    yield True, replace(gd, one_s=Element(gd.algebra, coords))
    if 0 in gd.one_s.coords:
        # beta_1(1_S) 1_S = 1_S != iota(1_S)
        coords = list(gd.one_s.coords)
        coords[coords.index(0)] = 1
        yield True, replace(gd, one_s=Element(gd.algebra, coords))


def shape_mutations(gd):
    """(message, build) for copies of ``gd`` of the wrong shape: one beta too
    many or too few, a k x (k+1) beta, beta of another group, a beta that
    is not global, a k x (n+1) embedding, a transposed one unless n = k,
    an n x (k+1) pull-down and 1_S of k+1 coordinates; ``build`` raises
    AlgebraError with the message."""
    G, T, k, n = gd.group, gd.algebra, gd.algebra.rank, gd.action.algebra.rank
    betas, g = list(gd.beta), G.order - 1
    count = "need one idempotent and one matrix per group element"
    yield count, lambda: with_betas(gd, betas + [betas[0]])
    yield count, lambda: with_betas(gd, betas[:-1])
    yield "action matrix shape mismatch", lambda: with_betas(gd, betas[:-1] + [edited(betas[-1], widen)])
    other = FiniteGroup([f"x{a}" for a in G.elements()], [list(row) for row in G.table])
    yield "beta acts by another group than the action", lambda: replace(
        gd, enveloping_action=global_action(other, T, betas)
    )
    idems = [T.one()] * g + [Element(T, (0,) * k)]
    yield f"beta is not global: 1_{G.labels[g]} != 1_T", lambda: replace(
        gd, enveloping_action=PartialAction(G, T, idems, betas)
    )
    for wrong in (edited(gd.embed.matrix, widen), gd.embed.matrix.transpose()):
        shape = f"the embedding is {wrong.nrows} x {wrong.ncols}, not {k} x {n}"
        if (wrong.nrows, wrong.ncols) != (k, n):
            yield shape, lambda wrong=wrong: replace(gd, embed=replace(gd.embed, matrix=wrong))
    yield f"the pull-down is {n} x {k + 1}, not {n} x {k}", lambda: replace(gd, down=edited(gd.down, widen))
    coords = list(gd.one_s.coords) + [0]
    yield f"1_S has {k + 1} coordinates, not {k}", lambda: replace(gd, one_s=Element(T, coords))


@given(subset_classes_and_products())
@settings(max_examples=60, deadline=None)
def test_point_route_matches_the_matrix_route(act):
    from pargal.envelope import _certified_on_points, _certify_on_matrices

    points, matrices = routes_of(act)
    assert points == matrices
    gd = globalize(act)
    assert _certified_on_points(gd)
    assert report_of(certify_globalization(gd)) == report_of(_certify_on_matrices(gd))
    for must_fail, bad in mutations(gd):
        report = report_of(_certify_on_matrices(bad))
        assert report_of(certify_globalization(bad)) == report
        assert not must_fail or not all(passed for _, passed, _ in report)
    for message, build in shape_mutations(gd):
        with pytest.raises(AlgebraError, match=f"^{re.escape(message)}$"):
            build()


@pytest.fixture
def route_calls(monkeypatch):
    """The routes that globalize takes, by name."""
    import pargal.envelope as envelope

    calls = []
    for name in ("_globalize_points", "_globalize_matrices"):
        build = getattr(envelope, name)
        monkeypatch.setattr(envelope, name, lambda *args, name=name, build=build: calls.append(name) or build(*args))
    return calls


def test_standard_carriers_take_the_point_route(route_calls):
    for act in standard_corpus(Modular(6)).values():
        globalize(act)
    assert set(route_calls) == {"_globalize_points"}


def test_non_standard_carriers_take_the_matrix_route(route_calls):
    from pargal.envelope import _certified_on_points

    # the swap on the Z/2 component and the identity on the Z/3 component
    swap = standard_corpus(Modular(6))["global-Z2-swap"]
    glued = crt_glue(swap, global_action(swap.group, swap.algebra, [Matrix.identity(Modular(6), 2)] * 2))
    base = Matrix(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]], 3)
    for act in (rebased(example1(), base), glued):
        gd = globalize(act)
        assert not _certified_on_points(gd)
        assert certify_globalization(gd).passed
    assert route_calls == ["_globalize_matrices"] * 2


def test_a_globalization_certifies_on_another_basis_of_t():
    # Example 1's globalization with T on the basis t_0, t_0 + t_1, t_1 +
    # t_2, ...: there no iota(S_g) is in canonical row form, and (G2) still
    # compares it as a module
    gd = globalize(example1())
    k = gd.algebra.rank
    cols = Matrix(QQ, [[1 if j in (i, i + 1) else 0 for j in range(k)] for i in range(k)])
    to_new = invert(cols)
    env = rebased(gd.enveloping_action, cols)
    emb = to_new.mul(gd.embed.matrix)
    moved = replace(gd, enveloping_action=env, embed=AlgebraMorphism(gd.action.algebra, env.algebra, emb),
                    one_s=env.algebra.element(to_new.matvec(list(gd.one_s.coords))), down=gd.down.mul(cols))
    for g in gd.group.elements():
        iota_s_g = Matrix(QQ, [emb.matvec(list(row)) for row in gd.action.ideal(g).basis.rows], k)
        assert canonical_row_form(iota_s_g) != iota_s_g
    assert certify_globalization(moved).passed


# On the classes of G x X / ~ the subgroup idempotents are indicator sets
# and psi_H a 0/1 matrix; the products of elements and matrices that every
# other carrier takes are their oracle.  psi_H is defined by the
# inclusion-exclusion double sum over the nonempty subsets A of the members
# h_1..h_m of H: the sum of (-1)^(|A|+1) u_A beta_(h_(max A)), with u_i =
# beta_(h_i)(1_S).  psi_h builds only the e_i form; the double sum, in 2^|H|
# terms, is its oracle on both routes.


def signed_subsets(m):
    """(sign, A) for the nonempty A of range(m), A ascending."""
    for size in range(1, m + 1):
        for subset in combinations(range(m), size):
            yield (1 if size % 2 else -1), subset


def double_sum_on_classes(gd, sub):
    """The double sum on the classes of G x X / ~: entry (c, pi_(h_(max
    A))^-1(c)) counts, with sign, the A whose sets beta_(h_i)(1_S) all hold
    the class c."""
    from pargal.envelope import _class_translates

    backs, ups = _class_translates(gd, sub)
    ring, k = gd.algebra.ring, gd.algebra.rank
    counts = [[0] * k for _ in range(k)]
    for sign, subset in signed_subsets(len(ups)):
        for c in set.intersection(*(ups[i] for i in subset)):
            counts[c][backs[subset[-1]][c]] += sign
    return Matrix(ring, [[ring.coerce(v) for v in row] for row in counts], k)


def double_sum_on_matrices(gd, sub):
    """The double sum in T: the products u_A times beta_(h_(max A))."""
    T = gd.algebra
    ups = [Element(T, gd.beta[h].matvec(list(gd.one_s.coords))) for h in sub.members]
    total = Matrix.zero(T.ring, T.rank, T.rank)
    for sign, subset in signed_subsets(len(ups)):
        u_a = T.one()
        for i in subset:
            u_a = u_a * ups[i]
        term = T.mult_matrix(u_a.coords).mul(gd.beta[sub.members[subset[-1]]])
        total = total.add(term) if sign == 1 else total.sub(term)
    return total


@given(subset_classes_and_products())
@settings(max_examples=60, deadline=None)
def test_psi_on_classes_matches_the_matrix_forms(act):
    from pargal.envelope import _class_translates, _idempotents_on_matrices, _psi_on_matrices

    gd = globalize(act)
    for sub in all_subgroups(act.group):
        assert _class_translates(gd, sub) is not None
        idems, dense = subgroup_idempotents(gd, sub), _idempotents_on_matrices(gd, sub)
        assert (idems.eis, idems.e_h) == (dense.eis, dense.e_h)
        expected = double_sum_on_matrices(gd, sub)
        assert double_sum_on_classes(gd, sub) == expected
        assert psi_h(gd, sub, idems).matrix == _psi_on_matrices(gd, sub, dense).matrix == expected
        # both routes read the e_i they are given, even in the wrong order
        wrong = replace(idems, eis=idems.eis[::-1])
        assert psi_h(gd, sub, wrong).matrix == _psi_on_matrices(gd, sub, wrong).matrix


@pytest.mark.parametrize("n", [8, 12, 16, 18, 20])
def test_psi_matches_the_double_sum_on_regular_restrictions(n):
    # Z_n on n/2 points; every subgroup of Z_n is cyclic
    gd = globalize(subset_class(n, range(n // 2)).action)
    subs = [sub for sub in all_subgroups(gd.group) if sub.order <= 10]
    assert max(sub.order for sub in subs) == {8: 8, 12: 6, 16: 8, 18: 9, 20: 10}[n]
    for sub in subs:
        assert psi_h(gd, sub).matrix == double_sum_on_classes(gd, sub)


def constraint_fixed_ring(gd, sub):
    """T^H as the kernel of the stacked beta_h - I."""
    T = gd.algebra
    ident = Matrix.identity(T.ring, T.rank)
    rows = [row for h in sub.members for row in gd.beta[h].sub(ident).rows]
    return subalgebra_from_constraints(T, Matrix.from_rows(T.ring, rows, T.rank))


def assert_fixed_rings_agree(gd):
    for sub in all_subgroups(gd.group):
        got, expected = fixed_ring(gd, sub), constraint_fixed_ring(gd, sub)
        assert (got.basis, got.algebra, got.algebra.labels) == (expected.basis, expected.algebra, expected.algebra.labels)


@pytest.mark.parametrize("ring", [QQ, Modular(2), Modular(6)], ids=["Q", "F2", "Z6"])
def test_fixed_ring_matches_the_constraint_solve_on_the_corpus(ring):
    for act in standard_corpus(ring).values():
        assert_fixed_rings_agree(globalize(act))
    assert_fixed_rings_agree(globalize(rebased(example1(ring), Matrix(ring, [[1, 1, 0], [0, 1, 0], [0, 0, 1]], 3))))


@given(subset_classes_and_products())
@settings(max_examples=60, deadline=None)
def test_fixed_ring_matches_the_constraint_solve(act):
    assert_fixed_rings_agree(globalize(act))


@pytest.fixture
def psi_routes(monkeypatch):
    """The matrix routes that subgroup_idempotents and psi_h take, by name."""
    import pargal.envelope as envelope

    calls = []
    for name in ("_idempotents_on_matrices", "_psi_on_matrices"):
        build = getattr(envelope, name)
        monkeypatch.setattr(envelope, name, lambda *args, name=name, build=build: calls.append(name) or build(*args))
    return calls


def test_standard_carriers_take_the_class_routes(psi_routes):
    for ring in (QQ, Modular(2), Modular(6)):
        for act in standard_corpus(ring).values():
            gd = globalize(act)
            for sub in all_subgroups(act.group):
                psi_report(gd, sub)
    assert not psi_routes


def test_non_standard_carriers_take_the_matrix_routes_of_psi(psi_routes):
    swap = standard_corpus(Modular(6))["global-Z2-swap"]
    glued = crt_glue(swap, global_action(swap.group, swap.algebra, [Matrix.identity(Modular(6), 2)] * 2))
    rebased_ex1 = rebased(example1(), Matrix(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]], 3))
    for act in (rebased_ex1, glued):
        gd = globalize(act)
        for sub in all_subgroups(act.group):
            assert psi_h(gd, sub).matrix == double_sum_on_matrices(gd, sub)
    assert psi_routes == ["_idempotents_on_matrices", "_psi_on_matrices"] * 5


# A standard carrier's enveloping action is built with its point set, so
# neither the certificate of globalize nor the routes that follow write a
# beta matrix.


@pytest.mark.parametrize("name", ["ex1", "ex2", "trivial-Z4"])
def test_the_enveloping_action_is_read_once(name, monkeypatch):
    import pargal.envelope as envelope
    from pargal.quotient import quotient_via_globalization

    built = []
    build = envelope.globalize
    monkeypatch.setattr(envelope, "globalize", lambda act: built.append(build(act)) or built[-1])
    act = standard_corpus(QQ)[name]
    gd, other = envelope.globalize(act), envelope.globalize(relabel(act, list(range(act.algebra.rank))[::-1]))
    for sub in all_subgroups(act.group):
        psi_report(gd, sub)
        fixed_ring(gd, sub)
        quotient_via_globalization(act, sub)
    assert global_iso_check(gd, other).status == "iso"
    assert len(built) == 2 + len(all_subgroups(act.group))
    assert [data.enveloping_action._maps for data in built] == [None] * len(built)


@pytest.mark.parametrize("name", ["ex1", "ex2", "trivial-Z4"])
def test_one_beta_short_is_refused(name):
    gd = globalize(standard_corpus(QQ)[name])
    with pytest.raises(AlgebraError, match="^need one idempotent and one matrix per group element$"):
        with_betas(gd, list(gd.beta)[:-1])


@pytest.mark.parametrize("extra", [1, -1], ids=["k+1", "k-1"])
@pytest.mark.parametrize("carrier", ["standard", "rebased"])
def test_one_s_of_the_wrong_length_is_refused(carrier, extra, psi_routes):
    act = example1()
    if carrier == "rebased":
        act = rebased(act, Matrix(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]], 3))
    gd = globalize(act)
    k = gd.algebra.rank
    coords = list(gd.one_s.coords) + [0] if extra > 0 else list(gd.one_s.coords)[:-1]
    with pytest.raises(AlgebraError, match=f"^1_S has {k + extra} coordinates, not {k}$"):
        replace(gd, one_s=Element(gd.algebra, coords))
    # the well-shaped data takes the class route on the standard carrier and
    # the matrix route on the rebased one
    assert not psi_routes
    for sub in all_subgroups(act.group):
        psi_report(gd, sub)
    assert bool(psi_routes) == (carrier == "rebased")


def test_the_enveloping_read_finds_the_identity_at_any_index():
    # the regular S_3-set on three of its points, with the elements
    # reordered so that the identity has index 1: the class c(x) of (1, x)
    # lies in the identity's slot of G x X, and G is not abelian, so no
    # other slot embeds X into G x X / ~
    from pargal.paction import _action_on_points
    from pargal.quotient import quotient_action, quotient_via_globalization
    from test_groups import s3

    base = s3()
    order = [1, 0] + list(range(2, 6))
    pos = {old: new for new, old in enumerate(order)}
    group = FiniteGroup([base.labels[a] for a in order], [[pos[base.mul(a, b)] for b in order] for a in order])
    subset = [0, 1, 3]
    where = {x: i for i, x in enumerate(subset)}
    maps = [[where.get(base.mul(g, x)) for x in subset] for g in order]
    act = _action_on_points(group, Algebra.split(QQ, [f"x{x}" for x in subset]), maps, "a")
    assert group.identity == 1 and act.points is not None
    gd = globalize(act)
    assert gd.algebra.rank == 6
    for sub in (subgroup_closure(group, []), subgroup_closure(group, [pos[1], pos[2]])):
        via, closed = quotient_via_globalization(act, sub), quotient_action(act, sub)
        assert via.action._points == closed.action._points
        assert via.carrier.basis == closed.carrier.basis
