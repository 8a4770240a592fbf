"""Harrison product, hat action, idempotent classes, inverse-semigroup laws."""

import contextlib
import re
import time
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pargal.scalars import QQ, Modular, Matrix, canonical_row_form, invert, kernel, modules_equal
from pargal.algebra import (
    Algebra,
    AlgebraError,
    AlgebraMorphism,
    Element,
    find_split_presentation,
    format_coords,
    subalgebra_from_constraints,
)
from pargal.corpus import (
    corrupted_p4,
    example1,
    example2,
    example2_star,
    global_swap,
    trivial_action,
)
from pargal.groups import Subgroup, make_cyclic, make_product
from pargal.harrison import (
    CertificationError,
    ExtensionClass,
    cyclic_compose,
    cyclic_decompose,
    delta_fixed_ring,
    harrison_product,
    hat_action,
    hat_iso,
    idempotent_class,
    SuiteReport,
    star_product_suite,
    tensor_action,
    trivial_extension,
    _identify_with_group,
    _quotient_by_delta,
)
from pargal.paction import (
    PartialAction,
    _trap_on_matrices,
    invariants,
    inverse_action,
    iso_check,
    restrict,
    verify_partial_action,
)
from pargal.envelope import globalize
from pargal.quotient import quotient_action, quotient_via_globalization

from test_algebra import project_coords


def cls(act):
    return ExtensionClass.certify(act)


def five_class_corpus(ring):
    """Criterion 6's classes: ex1, ex1*, ex2, ex2* and the trivial Z4 class."""
    ex1, ex2 = cls(example1(ring)), cls(example2(ring))
    return [ex1, ex1.star(), ex2, ex2.star(), trivial_extension(make_cyclic(4), ring)]


def test_tensor_action_with_trivial_group_factor():
    act = example2()
    point = trivial_action(make_cyclic(1))
    t = tensor_action(act, point)
    assert t.group.order == 4
    assert t.algebra.rank == 2
    # under G x {1} = G the data is alpha itself
    assert [e.coords for e in t.idems] == [e.coords for e in act.idems]
    assert list(t.maps) == list(act.maps)


def test_tensor_action_ideals_example2():
    theta = example2()
    t = tensor_action(theta, inverse_action(theta))
    # ideal at (g,g) is S'_g (x) S'_{g^-1} = Re2' (x) Re1'
    idx = t.group.index_of("(g,g)")
    assert t.idems[idx].coords == (0, 0, 1, 0)  # e2 (x) e1
    # idempotent at (l,t) is 1_l (x) 1*_t
    for l in range(4):
        for s in range(4):
            q = l * 4 + s
            lhs = t.idems[q].coords
            pair = [
                theta.algebra.ring.mul(a, b)
                for a in theta.idems[l].coords
                for b in inverse_action(theta).idems[s].coords
            ]
            assert list(lhs) == pair
    assert verify_partial_action(t).passed


def test_delta_fixed_ring_example2_known_basis():
    t = tensor_action(example2_star(), example2())
    fr = delta_fixed_ring(t, example2().group)
    # R(e1(x)e1 + e2(x)e2) + R(e1(x)e2) + R(e2(x)e1), rank 3
    assert fr.basis.rows == [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]


def test_delta_fixed_ring_trivial_group():
    point = trivial_action(make_cyclic(1))
    t = tensor_action(point, point)
    fr = delta_fixed_ring(t, make_cyclic(1))
    assert fr.algebra.rank == 1


def test_harrison_product_example2_reference_values():
    prod = harrison_product(cls(example2_star()), cls(example2()))
    act = prod.action
    # carrier: the rank-3 delta-fixed ring in basis u, v, w
    assert act.algebra.rank == 3
    u, v, w = act.algebra.basis()
    # the three coset idempotents in the u, v, w basis
    assert act.idems[1] == u + v  # e1'(x)1 + e2'(x)e2'
    assert act.idems[2] == v + w  # e2'(x)e1' + e1'(x)e2'
    assert act.idems[3] == u + w  # e2'(x)1 + e1'(x)e1'
    # domains have rank 2 each
    for l in (1, 2, 3):
        assert act.ideal(l).rank == 2
    # the (g^2,1) class swaps the coefficients of v and w
    assert act.apply(2, v) == w and act.apply(2, w) == v
    # (g,1): the mechanical closed-form evaluation sends r*u + s*w to s*u + r*v
    assert act.apply(1, u) == v and act.apply(1, w) == u
    assert act.apply(3, v) == u and act.apply(3, u) == w
    # and (g^3,1) inverts (g,1) on the domains
    assert act.maps[3].mul(act.maps[1]) == act.idem_matrix(3)


def test_harrison_product_group_and_ring_guards():
    c2 = cls(global_swap())
    c4 = cls(example2())
    with pytest.raises(AlgebraError):
        harrison_product(c2, c4)
    with pytest.raises(AlgebraError):
        harrison_product(c4, cls(example2(Modular(2))))


def test_trivial_extension_z2():
    triv = trivial_extension(make_cyclic(2))
    assert triv.action.algebra.rank == 2
    e1, eg = triv.action.algebra.basis()
    from pargal.paction import GaloisCoordinates

    assert GaloisCoordinates(triv.action, [(e1, e1), (eg, eg)]).verify()


def test_trivial_extension_is_identity_on_global_classes():
    for g in (make_cyclic(2), make_cyclic(4)):
        triv = trivial_extension(g)
        for c in (triv, cls(trivial_action(g))):
            left = harrison_product(triv, c)
            right = harrison_product(c, triv)
            assert iso_check(left.action, c.action).status == "iso"
            assert iso_check(right.action, c.action).status == "iso"


def test_hat_action_example2_ideals():
    theta = example2()
    hat = hat_action(theta)
    assert hat.product.algebra.rank == 4
    gg = hat.action.group.index_of("(g,g)")
    # only the g-component survives: 0 x Re2' x 0 x 0
    assert hat.action.ideal(gg).rank == 1
    comps = [project_coords(hat.product, i, list(hat.action.idems[gg].coords)) for i in range(4)]
    assert comps == [[0, 0], [0, 1], [0, 0], [0, 0]]
    # identity pair: the whole carrier
    assert hat.action.idems[0] == hat.product.algebra.one()
    assert verify_partial_action(hat.action).passed


def test_hat_action_example1_is_partial_action():
    hat = hat_action(example1())
    assert hat.product.algebra.rank == 9
    assert verify_partial_action(hat.action).passed


def test_hat_iso_certificates():
    for act in (example2(), example1(), global_swap()):
        morphism, rep = hat_iso(act)
        assert rep.passed, [c.name for c in rep.failures()]


def delta_invariant_module(act, prod):
    """Solutions of alpha_l(d_g 1_{l^-1}) 1_g = d_g 1_l 1_{lg} inside
    prod_g S_g: the delta-G invariants of the hat action by a linear system
    of their own, the oracle of both routes of idempotent_class."""
    G = act.group
    A = act.algebra
    rows = []
    incl_cols = []
    for g in G.elements():
        comp = prod.components[g]
        for j in range(comp.rank):
            incl_cols.append((g, list(comp.ideal.basis.rows[j])))
    for l in G.elements():
        e_l = act.idem_matrix(l)
        for g in G.elements():
            e_g = act.idem_matrix(g)
            e_lg = act.idem_matrix(G.mul(l, g))
            op = e_g.mul(act.maps[l]).sub(e_l.mul(e_lg))
            block_rows = [[0] * prod.algebra.rank for _ in range(A.rank)]
            for col_idx, (gg, vec) in enumerate(incl_cols):
                if gg != g:
                    continue
                out = op.matvec(vec)
                for r in range(A.rank):
                    block_rows[r][col_idx] = out[r]
            rows.extend(block_rows)
    return kernel(Matrix.from_rows(A.ring, rows, prod.algebra.rank))


def test_delta_invariant_module_global_swap():
    act = global_swap()
    hat = hat_action(act)
    rows = delta_invariant_module(act, hat.product)
    assert rows.nrows == 2  # E(S, alpha) = R x R for the global Z2 swap


def test_idempe_contains_unit_multiples():
    # (r 1_g)_g satisfies the componentwise fixed-tuple condition for every r
    from pargal.scalars import module_contains

    for act in (example1(), example2(), global_swap()):
        hat = hat_action(act)
        rows = delta_invariant_module(act, hat.product)
        unit = list(hat.product.algebra.unit)
        assert module_contains(rows, unit)
        two_unit = [act.algebra.ring.mul(2, c) for c in unit]
        assert module_contains(rows, two_unit)


def test_idempotent_class_matches_product_with_star():
    for act in (example2(), example1(), global_swap()):
        e = idempotent_class(act)
        c = cls(act)
        prod = harrison_product(c, c.star())
        assert iso_check(e.action, prod.action).status == "iso"


def test_idempotent_class_squares():
    # known discrepancy (see README): E(theta)^2 collapses to the trivial
    # class instead of E(theta).  For ex1 and global actions E is already
    # the trivial class and squares fine.
    for act in (example1(), global_swap()):
        e = idempotent_class(act)
        assert iso_check(harrison_product(e, e).action, e.action).status == "iso"
    e2 = idempotent_class(example2())
    square = harrison_product(e2, e2)
    assert iso_check(square.action, e2.action).status == "none"
    triv = trivial_extension(make_cyclic(4))
    assert iso_check(square.action, triv.action).status == "iso"


def test_regularity_collapses_to_trivial_class():
    # known discrepancy (see README): x x* x lands in the trivial class
    # for the partial corpus classes instead of reproducing x
    triv = trivial_extension(make_cyclic(4))
    for act in (example1(), example2()):
        x = cls(act)
        xs = x.star()
        triple = harrison_product(harrison_product(x, xs), x)
        assert iso_check(triple.action, x.action).status == "none"
        assert iso_check(triple.action, triv.action).status == "iso"


def class_map_closed_form(act, prod, x, l):
    """The specialized idempotent-class action formula at coset (l,1) delta G.

    Componentwise, with output component u and source component g = l^-1 u:

        out_u = d_g 1_u
              + sum_{i=2}^m prod_{j=1}^{i-1} (1_u - 1_u 1_{h_j} 1_{h_j g})
                            * alpha_{h_i}(d_g 1_{h_i^-1 u} 1_{h_i^-1}) 1_u

    (h runs over G itself, enumerating delta G = {(h, h^-1)}).  Derived
    componentwise from the generic quotient closed form at H = delta G,
    representative (1, l); tested to agree with the generic evaluation.
    """
    G = act.group
    A = act.algebra
    out = []
    for u in G.elements():
        g = G.mul(G.inv(l), u)
        d_g = Element(A, project_coords(prod, g, list(x.coords)))
        one_u = act.idems[u]
        term = d_g * one_u
        prod_factor = one_u
        for i in range(1, G.order):
            hj = i - 1
            prod_factor = prod_factor * (one_u - one_u * act.idems[hj] * act.idems[G.mul(hj, g)])
            hi = i
            pre = act.idems[G.mul(G.inv(hi), u)] * d_g
            term = term + prod_factor * (Element(A, act.maps[hi].matvec(list(pre.coords))) * one_u)
        out.append(list(term.coords))
    return prod.from_components(out)


def test_class_map_closed_form_agrees_with_generic_quotient():
    for act in (example2(), example1(), global_swap(), trivial_action(make_cyclic(2))):
        hat = hat_action(act)
        qa = _quotient_by_delta(hat.action, act.group)
        ident = _identify_with_group(qa, act.group)
        P = hat.product.algebra
        for l in act.group.elements():
            dom = Element(
                P, qa.carrier.include_coords(list(ident.idems[act.group.inv(l)].coords))
            )
            for row in qa.carrier.basis.rows:
                x = Element(P, row) * dom
                via_quotient = qa.carrier.include_coords(
                    ident.maps[l].matvec(qa.carrier.express(list(x.coords)))
                )
                assert list(class_map_closed_form(act, hat.product, x, l).coords) == via_quotient


def test_suite_single_trivial_class():
    rep = star_product_suite([trivial_extension(make_cyclic(2))])
    assert rep.passed, rep.failures()


def test_suite_rejects_corrupted_class():
    # the corrupted fixture breaks (P3) and (P4); certify and the report
    # carry the first
    with pytest.raises(CertificationError, match=re.escape("not a partial action: (P3) ") + ".*g=g2, h=g"):
        ExtensionClass.certify(corrupted_p4())
    bad = ExtensionClass(corrupted_p4())
    rep = star_product_suite([bad, trivial_extension(make_cyclic(4))])
    assert not rep.passed
    name, note = rep.failures()[0]
    assert name == "class 0 valid"
    assert "(P3)" in note and "g=g2" in note


def test_suite_small_corpus_over_q():
    classes = [cls(example2()), trivial_extension(make_cyclic(4))]
    rep = star_product_suite(classes)
    # commutativity, associativity, idempotent commutation and E = [x][x*]
    # all hold; regularity and E-idempotency fail for the partial class
    # exactly as README "Known discrepancies" documents
    failed = {name for name, note in rep.failures()}
    assert failed == {
        "x x* x = x (0)",
        "x* x x* = x* (0)",
        "idempotent_class idempotent (0)",
    }
    assert rep.witnesses > 0


# Criterion 6's cause.  Over a connected base ring a primitive idempotent p
# of a split carrier has the domain signature D = {g : 1_g p = p}; the
# product of classes is the Minkowski product of signatures up to
# translation, E(x) = [x][x*] has signature D D^-1, and A A^-1 A = A holds
# only when A is a coset.


def signatures(act):
    pres = find_split_presentation(act.algebra)
    return [frozenset(g for g in act.group.elements() if act.idems[g] * p == p) for p in pres.idempotents]


def minkowski(group, a, b):
    return frozenset(group.mul(x, y) for x in a for y in b)


def translates(group, a):
    return {frozenset(group.mul(x, t) for x in a) for t in group.elements()}


def test_products_are_minkowski_products_of_signatures():
    classes = five_class_corpus(QQ)
    for i, a in enumerate(classes):
        for j, b in enumerate(classes):
            g = a.group
            d = minkowski(g, signatures(a.action)[0], signatures(b.action)[0])
            prod = harrison_product(a, b).action
            assert prod.algebra.rank == len(d), (i, j)
            assert all(s in translates(g, d) for s in signatures(prod)), (i, j)


def test_signature_model_predicts_criterion_6_failures():
    # the suite's regularity and idempotency laws evaluated on signatures,
    # with classes equal when their signatures are translates
    classes = five_class_corpus(QQ)
    g = classes[0].group
    failed = set()
    for i, c in enumerate(classes):
        a = signatures(c.action)[0]
        a_inv = frozenset(g.inv(x) for x in a)
        e = minkowski(g, a, a_inv)
        assert signatures(idempotent_class(c.action).action)[0] in translates(g, e), i
        if minkowski(g, e, a) not in translates(g, a):
            failed.add(f"x x* x = x ({i})")
        if minkowski(g, e, a_inv) not in translates(g, a_inv):
            failed.add(f"x* x x* = x* ({i})")
        if minkowski(g, e, e) not in translates(g, e):
            failed.add(f"idempotent_class idempotent ({i})")
    assert failed == {
        *(f"x x* x = x ({i})" for i in range(4)),
        *(f"x* x x* = x* ({i})" for i in range(4)),
        "idempotent_class idempotent (2)",
        "idempotent_class idempotent (3)",
    }


def test_minimal_regularity_witness():
    # Z3 on R^2 with 1_g = e1, 1_g2 = e2 and alpha_g(e2) = e1: signature
    # {1, g} is not a coset, so x x* is global and x x* x cannot be x
    z3 = make_cyclic(3)
    a = Algebra.split(QQ, ["e1", "e2"])
    e1, e2 = a.basis()
    maps = [Matrix.identity(QQ, 2), Matrix(QQ, [[0, 1], [0, 0]]), Matrix(QQ, [[0, 0], [1, 0]])]
    x = cls(PartialAction(z3, a, [a.one(), e1, e2], maps))
    xx = harrison_product(x, x.star())
    assert iso_check(xx.action, trivial_extension(z3).action).status == "iso"
    triple = harrison_product(xx, x)
    assert triple.action.algebra.rank == 3
    assert iso_check(triple.action, x.action).status == "none"


def test_suite_multiplies_each_class_pair_once_up_to_iso(monkeypatch):
    import pargal.harrison as harrison

    calls = []
    product = harrison.harrison_product

    def counted(a, b):
        calls.append((a, b))
        return product(a, b)

    monkeypatch.setattr(harrison, "harrison_product", counted)
    rep = star_product_suite(five_class_corpus(Modular(2)))
    # ex1 ~ ex1* and ex2 ~ ex2* leave three classes up to iso; their nine
    # ordered pairs close the products the suite asks for
    assert len(calls) == 9
    assert rep.witnesses > 0


@pytest.mark.parametrize("ring", [QQ, Modular(2), Modular(6)], ids=["Q", "F2", "Z6"])
def test_suite_answers_each_iso_pair_once(ring, monkeypatch):
    import pargal.harrison as harrison

    answers = []
    search = harrison.iso_check

    def recorded(a, b):
        res = search(a, b)
        answers.append((a, b, res.status))
        return res

    monkeypatch.setattr(harrison, "iso_check", recorded)
    rep = star_product_suite(five_class_corpus(ring))
    pairs = [(id(a), id(b)) for a, b, _ in answers]
    # 162 laws compare 36 distinct pairs of actions; 13 pairs are already
    # joined by a chain of earlier "iso" answers, so 23 are searched, each
    # once, and a second search repeats each answer.  Every law still adds
    # its own line and witness
    assert len(pairs) == len(set(pairs)) == 23
    assert all(search(a, b).status == status for a, b, status in answers)
    assert len(rep.checks) == 190
    assert rep.witnesses == 175
    assert len(rep.failures()) == 10


def test_suite_stops_at_the_first_undecided_law(monkeypatch):
    # F_4 under Frobenius has no split presentation: its commutativity law
    # compares one memoised product with itself and passes, and the first
    # law that needs a search is undecided and ends the suite, with no
    # later product, star or idempotent class made
    from test_paction import frobenius_f4  # test_paction imports this module

    import pargal.harrison as harrison

    made = []
    for name in ["harrison_product", "idempotent_class"]:
        build = getattr(harrison, name)
        monkeypatch.setattr(harrison, name, lambda *args, name=name, build=build: made.append(name) or build(*args))
    c = ExtensionClass.certify(frobenius_f4())
    monkeypatch.setattr(ExtensionClass, "star", lambda self: made.append("star"))
    rep = star_product_suite([c])
    assert rep.checks == [
        ("class 0 valid", "pass", None),
        ("commutativity (0,0)", "pass", None),
        ("associativity (0,0,0)", "undecided", "carrier admits no split presentation"),
    ]
    assert rep.witnesses == 1
    # c c, then (c c) c and c (c c) for the associativity law
    assert made == ["harrison_product"] * 3


def test_suite_rejects_classes_over_different_groups():
    classes = [trivial_extension(make_cyclic(2)), trivial_extension(make_cyclic(4))]
    with pytest.raises(AlgebraError, match="different groups"):
        star_product_suite(classes)


# The signature laboratory: over a connected base ring every nonempty
# subset A of Z_n is a split partial Galois class, Z_n acting by
# translation restricted to A.  The coset classes are exactly the regular
# ones, so a suite over them alone passes every law.


def subset_class(n, subset, ring=QQ):
    """Z_n acting by translation restricted to ``subset`` on R^|subset|,
    with D_g the intersection of A and g + A.  The basis follows ``subset``
    when it is a sequence and ascending order when it is a set."""
    group = make_cyclic(n)
    points = sorted(subset) if isinstance(subset, (set, frozenset)) else list(subset)
    pos = {x: k for k, x in enumerate(points)}
    r = len(points)
    a = Algebra.split(ring, [f"x{x}" for x in points])
    idems, maps = [], []
    for g in group.elements():
        coords = [0] * r
        rows = [[0] * r for _ in range(r)]
        for x, k in pos.items():
            image = pos.get((x + g) % n)
            if image is not None:
                rows[image][k] = 1
                coords[image] = 1
        idems.append(a.element(coords))
        maps.append(Matrix(ring, rows, r))
    return cls(PartialAction(group, a, idems, maps))


@pytest.mark.parametrize(
    "n, cosets",
    [(4, [{0}, {0, 2}, {1, 3}, {0, 1, 2, 3}]), (6, [{0}, {0, 3}, {0, 2, 4}, {1, 4}, set(range(6))])],
    ids=["Z4", "Z6"],
)
def test_coset_classes_satisfy_every_law(n, cosets):
    start = time.perf_counter()
    rep = star_product_suite([subset_class(n, c) for c in cosets])
    elapsed = time.perf_counter() - start
    assert rep.passed, rep.failures()
    assert elapsed < 5.0, elapsed


def test_non_coset_class_is_not_regular():
    rep = star_product_suite([subset_class(4, {0, 1})])
    status = {name: s for name, s, _ in rep.checks}
    assert status["x x* x = x (0)"] == "fail"
    # the note names the obstruction of the iso "none"
    notes = {name: note for name, _, note in rep.checks}
    assert notes["x x* x = x (0)"] == "rank 4 != rank 2"


def test_suite_skips_the_search_on_identical_sides(monkeypatch):
    import pargal.harrison as harrison

    calls = []
    search = harrison.iso_check

    def counted(a, b):
        calls.append((a, b))
        return search(a, b)

    monkeypatch.setattr(harrison, "iso_check", counted)
    rep = star_product_suite(five_class_corpus(Modular(2)))
    # 23 of the 185 laws compare one memoised product with itself; they pass
    # with the identity as witness and no search.  The other 162 compare 36
    # distinct pairs of actions, of which 13 are already joined by earlier
    # "iso" answers and pass with the composite witness; 23 are searched
    assert len(calls) == 23
    assert all(a is not b for a, b in calls)
    assert len(rep.checks) == 190
    assert rep.witnesses == 175
    assert len(rep.failures()) == 10


def pairwise_suite(classes, laws):
    """The suite as it answered before its union-find: each ordered pair of
    actions compared is searched once and its answer kept, one action on
    both sides passes with the identity.  Appends (label, lhs, rhs, answer)
    to ``laws`` for every law, the answer None when no search was made."""
    rep = SuiteReport()
    for i, c in enumerate(classes):
        rep.add(f"class {i} valid", verify_partial_action(c.action).passed)
    numbers, indices, products = {}, {}, {}

    def mul(a, b):
        for c in (a, b):
            if id(c) not in numbers:
                numbers[id(c)] = indices.setdefault(id(c) if c.key is None else c.key, len(indices))
        pair = (numbers[id(a)], numbers[id(b)])
        if pair not in products:
            products[pair] = harrison_product(a, b)
        return products[pair]

    answers = {}

    def iso_ok(x, y, label):
        if x.action is y.action:
            laws.append((label, x.action, y.action, None))
            rep.add(label, "pass")
            rep.witnesses += 1
            return True
        pair = (id(x.action), id(y.action))
        if pair not in answers:
            answers[pair] = iso_check(x.action, y.action)
        res = answers[pair]
        laws.append((label, x.action, y.action, res))
        if res.status == "undecided":
            rep.add(label, "undecided", "carrier admits no split presentation")
            return False
        rep.add(label, res.status == "iso", res.obstruction)
        rep.witnesses += res.status == "iso"
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
    stars = [x.star() for x in classes]
    for i in range(n):
        x, xs = classes[i], stars[i]
        if not iso_ok(mul(mul(x, xs), x), x, f"x x* x = x ({i})"):
            return rep
        if not iso_ok(mul(mul(xs, x), xs), xs, f"x* x x* = x* ({i})"):
            return rep
    idems = [idempotent_class(x.action) for x in classes]
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


@st.composite
def subset_corpora(draw):
    """Two to four partial Z_n-classes (n <= 7) over Q, F_2 or Z/6: nonempty
    subsets of Z_n in a drawn basis order, each possibly replaced by its
    star, drawn from a pool of one to three so that one class object may
    come more than once."""
    ring = draw(st.sampled_from([QQ, Modular(2), Modular(6)]))
    n = draw(st.integers(1, 7))

    def draw_class():
        points = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        c = subset_class(n, points, ring)
        return c.star() if draw(st.booleans()) else c

    pool = [draw_class() for _ in range(draw(st.integers(1, 3)))]
    return draw(st.lists(st.sampled_from(pool), min_size=2, max_size=4))


def chain_witness(edges, x, y):
    """The matrix of the composite of the "iso" witnesses ``edges`` = [(u,
    v, f: u -> v)] along a path from action x to action y, each inverted
    where the path runs against it, or None when no path joins them."""
    frontier, reached = [x], {id(x): Matrix.identity(x.algebra.ring, x.algebra.rank)}
    while frontier:
        u = frontier.pop()
        for a, b, f in edges:
            for start, end, inverted in ((a, b, False), (b, a, True)):
                if start is u and id(end) not in reached:
                    step = invert(f.matrix) if inverted else f.matrix
                    reached[id(end)] = step.mul(reached[id(u)])
                    frontier.append(end)
    return reached.get(id(y))


@given(subset_corpora())
@settings(max_examples=40, deadline=None)
def test_suite_union_find_matches_the_pairwise_walk(classes):
    import pargal.harrison as harrison

    laws = []
    expected = pairwise_suite(classes, laws)
    searched = []
    search = harrison.iso_check

    def recorded(a, b):
        searched.append((a, b))
        return search(a, b)

    with mock.patch.object(harrison, "iso_check", recorded):
        rep = star_product_suite(classes)
    assert rep.checks == expected.checks
    assert rep.witnesses == expected.witnesses
    # the laws the union-find answers, replayed on the pairwise walk's own
    # actions: a law is searched unless earlier "iso" answers join its sides
    # or its ordered pair was refuted before
    edges, refuted, asked = [], set(), 0
    for label, x, y, res in laws:
        witness = chain_witness(edges, x, y)
        if witness is not None:
            assert iso_check(x, y).status == "iso", label
            _trap_on_matrices(x, y, AlgebraMorphism(x.algebra, y.algebra, witness))
            continue
        if (id(x), id(y)) in refuted:
            continue
        asked += 1
        if res.status == "iso":
            edges.append((x, y, res.morphism))
        else:
            refuted.add((id(x), id(y)))
    assert len(searched) == asked
    # no pair is searched twice, nor more pairs than the pairwise memo searched
    assert len({(id(a), id(b)) for a, b in searched}) == len(searched)
    assert len(searched) <= len({(id(x), id(y)) for _, x, y, res in laws if res is not None})


# The set route of harrison_product against the matrix route that every
# other carrier takes (tensor_action, the delta-G quotient, the
# identification with G): both must give one presentation, not merely one
# class up to isomorphism.


def matrix_product(a, b):
    g = a.group
    return cls(_identify_with_group(_quotient_by_delta(tensor_action(a.action, b.action), g), g))


def assert_same_presentation(got, expected):
    x, y = got.action, expected.action
    assert x.algebra.labels == y.algebra.labels
    assert x.algebra == y.algebra
    assert x.idems == y.idems
    assert x.maps == y.maps


@pytest.fixture
def tensor_calls(monkeypatch):
    """The tensor actions that harrison_product builds (matrix route only)."""
    import pargal.harrison as harrison

    calls = []
    build = harrison.tensor_action

    def counted(a, b):
        calls.append((a, b))
        return build(a, b)

    monkeypatch.setattr(harrison, "tensor_action", counted)
    return calls


@pytest.mark.parametrize("ring", [QQ, Modular(2), Modular(6)], ids=["Q", "F2", "Z6"])
def test_set_route_matches_matrix_route_on_corpus_pairs(ring, tensor_calls):
    classes = five_class_corpus(ring)
    for a in classes:
        for b in classes:
            assert_same_presentation(harrison_product(a, b), matrix_product(a, b))
    assert not tensor_calls


@st.composite
def subset_class_pairs(draw):
    """Two partial Z_n-classes (n <= 6) over Q, F_2 or Z/6: nonempty subsets
    of Z_n in a drawn basis order, each possibly replaced by its star."""
    ring = draw(st.sampled_from([QQ, Modular(2), Modular(6)]))
    n = draw(st.integers(1, 6))

    def draw_class():
        points = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        c = subset_class(n, points, ring)
        return c.star() if draw(st.booleans()) else c

    return draw_class(), draw_class()


@given(subset_class_pairs())
@settings(max_examples=150, deadline=None)
def test_set_route_matches_matrix_route_on_partial_zn_sets(pair):
    a, b = pair
    got = harrison_product(a, b)
    # built on the point route: the record is held and no matrix written
    assert got.action._points and got.action._maps is None
    assert_same_presentation(got, matrix_product(a, b))


def test_non_permutation_basis_takes_the_matrix_route(tensor_calls):
    from test_paction import rebased

    x, y = cls(example2()), cls(example2_star())
    # Q^2 on the basis 1 = e1 + e2, e2
    z = cls(rebased(x.action, Matrix(QQ, [[1, 0], [1, 1]])))
    expected = harrison_product(x, y)
    assert not tensor_calls
    got = harrison_product(z, y)
    assert len(tensor_calls) == 1
    assert got.key == expected.key


def test_nonsplit_carrier_with_0_1_data_takes_the_matrix_route(tensor_calls):
    from pargal.algebra import make_algebra

    # F_4 = F_2[x]/(x^2 + x + 1) under Frobenius x -> x + 1: every 1_g and
    # M_g is 0/1 on the basis 1, x, but the table is not the split one
    f2 = Modular(2)
    f4 = make_algebra(f2, ["1", "x"], [[[1, 0], [0, 1]], [[0, 1], [1, 1]]], [1, 0])
    maps = [Matrix.identity(f2, 2), Matrix(f2, [[1, 1], [0, 1]])]
    frobenius = cls(PartialAction(make_cyclic(2), f4, [f4.one()] * 2, maps))
    assert_same_presentation(harrison_product(frobenius, frobenius), matrix_product(frobenius, frobenius))
    assert len(tensor_calls) == 1


def test_crt_glued_action_takes_the_matrix_route(tensor_calls):
    from test_paction import crt_glue

    z6 = Modular(6)
    x, y = subset_class(6, {0, 1}, z6), subset_class(6, {0, 2}, z6)
    xx, yy = harrison_product(x, x), harrison_product(y, y)
    assert not tensor_calls
    glued = cls(crt_glue(x.action, y.action))
    got = harrison_product(glued, glued)
    assert len(tensor_calls) == 1
    # x on the Z/2 component (unit 3) and y on the Z/3 component (unit 4);
    # {0,1} + {0,1} is no coset but {0,2} + {0,2} is, so the two differ
    assert got.key == (xx.key[0], yy.key[1])
    assert xx.key[0] != yy.key[1]


@pytest.mark.xfail(
    strict=True,
    raises=AlgebraError,
    reason="the matrix route reads the delta-G invariants of this glued square as a Howell form "
    "with more rows than its rank, a module it takes for not free over Z/6 (ROADMAP item 11)",
)
def test_square_of_a_glued_class_glues_the_squares_of_its_units():
    # x on the Z/2 component and the relabelled x* on the Z/3 component:
    # both certify, and the square of each is a rank-4 class, yet the
    # glued square is refused ("subalgebra: generating rows are not a free
    # basis over Z/6")
    from test_paction import crt_glue, relabel

    x = subset_class(4, (0, 1, 2), Modular(6))
    glued = cls(crt_glue(x.action, relabel(x.star().action, (1, 0, 2))))
    x2 = subset_class(4, (0, 1, 2), Modular(2))
    x3 = cls(relabel(subset_class(4, (0, 1, 2), Modular(3)).star().action, (1, 0, 2)))
    expected = (harrison_product(x2, x2).key[0], harrison_product(x3, x3).key[0])
    assert harrison_product(glued, glued).key == expected


def test_regular_z16_class_squared_on_its_point_set(tensor_calls):
    regular = subset_class(16, range(16))
    start = time.perf_counter()
    square = harrison_product(regular, regular)
    elapsed = time.perf_counter() - start
    # 256 points of X x Y in 16 delta-G components; certified as a class
    assert not tensor_calls
    assert square.action.algebra.rank == 16
    assert square.key == regular.key
    assert elapsed < 2.0, elapsed


def test_regular_z32_class_squared_on_its_point_set(tensor_calls):
    # 1,024 points; the certificate of the rank-32 result is most of the time
    regular = subset_class(32, range(32))
    start = time.perf_counter()
    square = harrison_product(regular, regular)
    elapsed = time.perf_counter() - start
    assert not tensor_calls
    assert square.action.algebra.rank == 32
    assert square.key == regular.key
    assert elapsed < 3.0, elapsed


def test_regular_z64_class_squared_is_built_and_certified_within_a_second(tensor_calls):
    # 4,096 points of X x Y; the certificate of the rank-64 result is read
    # off its partial G-set, with no row reduction
    x, y = subset_class(64, range(64)), subset_class(64, range(64))
    start = time.perf_counter()
    square = harrison_product(x, y)
    elapsed = time.perf_counter() - start
    assert not tensor_calls
    assert square.action.algebra.rank == 64
    assert elapsed < 1.0, elapsed


def test_galois_coordinates_of_the_regular_z48_class_need_no_solve(monkeypatch):
    import pargal.paction as paction

    def refused(*args):
        raise AssertionError("galois_coordinates called solve")

    monkeypatch.setattr(paction, "solve", refused)
    act = subset_class(48, range(48)).action
    coords = paction.galois_coordinates(act)
    basis = act.algebra.basis()
    assert coords.pairs == list(zip(basis, basis))


# The point-set route of idempotent_class against the matrix route that
# every other carrier takes (hat_action, the delta-G quotient, the
# identification with G), and both against the delta-G invariants solved as
# a linear system of their own (delta_invariant_module).


def matrix_idempotent(act):
    """E(S, alpha) by the matrix route: the action, and the checks of its
    delta-G invariants against delta_invariant_module."""
    g = act.group
    hat = hat_action(act)
    qa = _quotient_by_delta(hat.action, g)
    assert modules_equal(delta_invariant_module(act, hat.product), qa.carrier.basis)
    return _identify_with_group(qa, g)


def assert_idempotent_routes_agree(act):
    got = idempotent_class(act).action
    # built on the point route: the record is held and no matrix written
    assert got._points and got._maps is None
    assert got == matrix_idempotent(act)
    # each component is labelled by its points [g]<label> of prod_g S_g, so
    # its label is its indicator vector; they span the delta-G invariants
    # (the labels of act's carrier hold no "[")
    hat = hat_action(act)
    position = {label: k for k, label in enumerate(hat.product.algebra.labels)}
    rows = [[0] * len(position) for _ in got.algebra.labels]
    for row, label in zip(rows, got.algebra.labels):
        for point in re.split(r" \+ (?=\[)", label):
            row[position[point]] = 1
    indicators = Matrix(act.algebra.ring, rows, len(position))
    assert modules_equal(delta_invariant_module(act, hat.product), indicators)


@pytest.mark.parametrize("ring", [QQ, Modular(2), Modular(6)], ids=["Q", "F2", "Z6"])
def test_idempotent_set_route_matches_matrix_route_on_the_corpus(ring, hat_calls):
    from pargal.corpus import standard_corpus

    for act in standard_corpus(ring).values():
        if act.group.is_abelian():
            assert_idempotent_routes_agree(act)
    # idempotent_class itself never took the matrix route
    assert not hat_calls


@st.composite
def subset_classes_and_squares(draw):
    """A partial Z_n-class (n <= 6) over Q, F_2 or Z/6 from a nonempty subset
    in a drawn basis order, possibly replaced by its star, its square or
    both."""
    ring = draw(st.sampled_from([QQ, Modular(2), Modular(6)]))
    n = draw(st.integers(1, 6))
    points = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    c = subset_class(n, points, ring)
    if draw(st.booleans()):
        c = c.star()
    return harrison_product(c, c) if draw(st.booleans()) else c


@given(subset_classes_and_squares())
@settings(max_examples=60, deadline=None)
def test_idempotent_set_route_matches_matrix_route_on_partial_zn_sets(c):
    assert_idempotent_routes_agree(c.action)


@pytest.fixture
def hat_calls(monkeypatch):
    """The hat actions that harrison builds (matrix route only)."""
    import pargal.harrison as harrison

    calls = []
    build = harrison.hat_action

    def counted(act):
        calls.append(act)
        return build(act)

    monkeypatch.setattr(harrison, "hat_action", counted)
    return calls


def test_non_permutation_basis_takes_the_idempotent_matrix_route(hat_calls):
    from test_paction import rebased

    # Q^2 on the basis 1 = e1 + e2, e2
    act = rebased(example2(), Matrix(QQ, [[1, 0], [1, 1]]))
    assert act.points is None
    e = idempotent_class(act)
    assert len(hat_calls) == 1
    assert e.action == matrix_idempotent(act)
    assert e.key == idempotent_class(example2()).key


def test_regular_z16_idempotent_class_on_its_point_set(hat_calls):
    # 256 points of prod_g S_g; the matrix route would build 256 hat maps
    regular = subset_class(16, range(16))
    start = time.perf_counter()
    e = idempotent_class(regular.action)
    elapsed = time.perf_counter() - start
    assert not hat_calls
    assert e.action.algebra.rank == 16
    assert elapsed < 1.0, elapsed


def test_cyclic_compose_of_trivials_is_trivial():
    z2 = make_cyclic(2)
    k = make_product([z2, z2])
    composed = cyclic_compose([trivial_extension(z2), trivial_extension(z2)])
    assert composed.group.table == k.table
    assert iso_check(composed.action, trivial_extension(k).action).status == "iso"


def test_cyclic_decompose_trivial_klein():
    z2 = make_cyclic(2)
    k = make_product([z2, z2])
    parts = cyclic_decompose(trivial_extension(k), [2, 2])
    assert len(parts) == 2
    for part in parts:
        assert iso_check(part.action, trivial_extension(z2).action).status == "iso"


def test_cyclic_round_trips():
    z2 = make_cyclic(2)
    swap = cls(global_swap())
    triv = trivial_extension(z2)
    for factors in ([swap, swap], [swap, triv], [triv, swap]):
        composed = cyclic_compose(factors)
        parts = cyclic_decompose(composed, [2, 2])
        for part, orig in zip(parts, factors):
            assert iso_check(part.action, orig.action).status == "iso"
        again = cyclic_compose(parts)
        assert iso_check(again.action, composed.action).status == "iso"


def mixed_radix_factors(orders):
    """The factor subgroups and transversals of cyclic_decompose, read by
    decoding each element of make_product's order into its tuple: H_i is
    where coordinate i is 0, the transversal where every other one is."""
    order = 1
    for n in orders:
        order *= n
    out = []
    for i in range(len(orders)):
        members, transversal = [], []
        for idx in range(order):
            t, rem = [], idx
            for n in reversed(orders):
                t.append(rem % n)
                rem //= n
            t.reverse()
            if t[i] == 0:
                members.append(idx)
            if all(v == 0 for j, v in enumerate(t) if j != i):
                transversal.append(idx)
        out.append((tuple(members), tuple(transversal)))
    return out


@pytest.mark.parametrize("orders", [[2, 3], [3, 2], [2, 3, 2], [4, 2]], ids=str)
def test_cyclic_decompose_reads_each_factor_by_its_stride(orders, monkeypatch):
    # unequal orders, where a mix-up of strides would show: the subgroups
    # and transversals against the mixed-radix decode, and each part iso to
    # its factor
    import pargal.harrison as harrison

    calls = []
    quotient = harrison.quotient_action

    def recorded(act, sub, transversal):
        calls.append((sub.members, transversal))
        return quotient(act, sub, transversal)

    monkeypatch.setattr(harrison, "quotient_action", recorded)
    factors = [subset_class(n, [0] if i % 2 else [0, 1]) for i, n in enumerate(orders)]
    parts = cyclic_decompose(cyclic_compose(factors), orders)
    assert calls == mixed_radix_factors(orders)
    for part, factor in zip(parts, factors):
        assert iso_check(part.action, factor.action).status == "iso"


def test_cyclic_decompose_requires_product_presentation():
    with pytest.raises(AlgebraError, match="not presented as the product"):
        cyclic_decompose(cls(example2()), [2, 2])


def test_single_factor_compose_is_identity():
    c = cls(global_swap())
    assert cyclic_compose([c]) is c


def test_certification_rejects_non_galois():
    from test_paction import rebased
    from pargal.paction import PartialAction

    triv = global_swap()
    ident = PartialAction(
        triv.group, triv.algebra, [triv.algebra.one()] * 2, [Matrix.identity(QQ, 2)] * 2
    )
    # Q^2 on the basis 1 = e1 + e2, e2 takes the matrix route
    copy = rebased(ident, Matrix(QQ, [[1, 0], [1, 1]]))
    assert ident.points is not None and copy.points is None
    for act in (ident, copy):
        with pytest.raises(CertificationError) as exc:
            ExtensionClass.certify(act)
        assert str(exc.value) == "fixed ring has rank 2, expected the base ring"


# The theorem-level check (S^alpha_H)^(alpha_G/H) = S^alpha of each quotient
# that the class arithmetic builds.  harrison_product and cyclic_decompose
# certify their results only as extension classes, so it runs here.

@pytest.mark.parametrize("ring", [QQ, Modular(2)], ids=["Q", "F2"])
def test_delta_quotients_certify_on_criterion_6_pairs(ring):
    classes = five_class_corpus(ring)
    for i, a in enumerate(classes):
        for j, b in enumerate(classes):
            qa = _quotient_by_delta(tensor_action(a.action, b.action), a.group)
            rep = qa.certify()
            assert rep.passed, (i, j, [c.name for c in rep.failures()])


def test_factor_quotients_certify_on_criterion_7_candidates():
    z2 = make_cyclic(2)
    swap = cls(global_swap())
    candidates = [
        trivial_extension(make_product([z2, z2])),
        cyclic_compose([swap, swap]),
        cyclic_compose([swap, trivial_extension(z2)]),
    ]
    # cyclic_decompose's factor subgroups and transversals for orders [2, 2],
    # with (a, b) in Z2 x Z2 at index 2a + b
    factors = [((0, 1), (0, 2)), ((0, 2), (0, 1))]
    for c in candidates:
        for members, transversal in factors:
            qa = quotient_action(c.action, Subgroup(c.group, members), transversal)
            rep = qa.certify()
            assert rep.passed, (c, members, [f.name for f in rep.failures()])


# The orbit read of gset._orbit_quotient against a union-find over every
# (h, point) pair, on every route that calls it (the product,
# idempotent_class, quotient_action, the enveloping set of globalize and
# the globalized quotient on points); the
# point set each result keeps against a fresh read of its matrices; and the
# split invariants of a certified point set against the constraint solve
# that every other carrier takes.


def union_find_quotient(npoints, identity, reps, members, move):
    """(orbits, images, orbit of each point) of gset._orbit_quotient,
    with the orbits found by a union-find over all |H| npoints (h, point)
    pairs, and each image read off every point of its orbit and every h,
    which must agree."""
    root = list(range(npoints))

    def find(p):
        while root[p] != p:
            root[p] = root[root[p]]
            p = root[p]
        return p

    for h in members:
        for p in range(npoints):
            q = move(identity, h, p)
            if q is not None:
                p, q = find(p), find(q)
                if p != q:
                    root[max(p, q)] = min(p, q)
    rep = [find(p) for p in range(npoints)]
    least = [p for p, q in enumerate(rep) if p == q]
    index = {p: k for k, p in enumerate(least)}
    comp = [index[q] for q in rep]
    orbits = [[] for _ in least]
    for p, k in enumerate(comp):
        orbits[k].append(p)
    images = []
    for g in reps:
        image = []
        for pts in orbits:
            hit = {comp[q] for p in pts for h in members if (q := move(g, h, p)) is not None}
            assert len(hit) <= 1, "the orbit map is not well defined"
            image.append(hit.pop() if hit else None)
        images.append(image)
    return orbits, images, comp


@contextlib.contextmanager
def checked_orbit_quotients(calls):
    """gset._orbit_quotient, where every read of the core looks it up,
    checked on every call against the union-find oracle; each call's
    arguments go to ``calls``."""
    import pargal.gset as gset

    orbit_read = gset._orbit_quotient

    def checked(*args):
        got = orbit_read(*args)
        assert got == union_find_quotient(*args)
        calls.append(args)
        return got

    with mock.patch.object(gset, "_orbit_quotient", checked):
        yield


@given(subset_class_pairs())
@settings(max_examples=120, deadline=None)
def test_orbit_read_matches_the_union_find_oracle(pair):
    a, b = pair
    calls = []
    with checked_orbit_quotients(calls):
        product = harrison_product(a, b)
        idems = [idempotent_class(a.action), idempotent_class(b.action)]
        square = harrison_product(product, product)
        subs = cyclic_subgroups(product.group)
        quotients = [quotient_action(product.action, sub) for sub in subs]
        envelope = globalize(product.action)
        globalized = [quotient_via_globalization(product.action, sub) for sub in subs]
    built = [c.action for c in (product, *idems, square)] + [qa.action for qa in quotients + globalized]
    # per class, a delta-G read (its certificate reads the record the point
    # set's certificate kept); one read per quotient action; G x X / ~ for
    # the envelope; and per globalized quotient, G x X / ~, with the
    # H-orbits the certificate walk of the restriction to H found
    assert len(calls) == 4 + len(subs) + 1 + len(subs)
    for act in built + [envelope.enveloping_action]:
        assert act._maps is None and act._points
        assert act._points == read_afresh(act)


def test_quotient_action_on_points_reads_the_orbits_once():
    act = subset_class(12, range(12)).action
    for sub in cyclic_subgroups(act.group):
        calls = []
        with checked_orbit_quotients(calls):
            qa = quotient_action(act, sub)
        assert len(calls) == 1 and qa.action._points
        assert qa.carrier.basis == invariants(restrict(act, sub)).basis


# The semigroup on the partial G-set core alone: the product, the idempotent
# class and the envelope read on records with no algebra, against a
# union-find over moves written here on tuples, against the records of the
# actions the library builds, and against the signature model of README
# "Known discrepancies" (a product's signatures are translates of D_a D_b,
# an idempotent class's of D_a D_a^-1).


def point_signature(group, record, p):
    """{g : p in D_g}, D_g the domain of a_(g^-1)."""
    return frozenset(g for g in group.elements() if record.maps[group.inv(g)][p] is not None)


def tuple_read(group, points, move, element):
    """The union-find read of the partial G x G-set on the tuples
    ``points``, numbered in that order: ``move(l, t, point)`` is the image
    under (l, t), or None, and ``element(g, h)`` the (l, t) that the read
    moves by for the representative g and the member h."""
    index = {q: k for k, q in enumerate(points)}

    def numbered(g, h, p):
        q = move(*element(g, h), points[p])
        return None if q is None else index.get(q)

    return union_find_quotient(len(points), group.identity, group.elements(), group.elements(), numbered)


@given(subset_class_pairs())
@settings(max_examples=100, deadline=None)
def test_the_semigroup_on_the_core_alone(pair):
    import itertools
    import pargal.gset as gset

    a, b = pair
    G = a.group
    firsts, seconds = [a, a.star()], [b, b.star()]

    def delta(g, s):
        # the coset of (g, 1) runs over (gs, s^-1)
        return G.mul(g, s), G.inv(s)

    for x, y in itertools.product(firsts, seconds):
        rx, ry = x.action.points, y.action.points
        read = gset.product(G, rx, ry)
        points = list(itertools.product(range(len(rx.maps[0])), range(len(ry.maps[0]))))

        def pair_move(l, t, p):
            u, v = rx.maps[l][p[0]], ry.maps[t][p[1]]
            return None if u is None or v is None else (u, v)

        assert read == tuple_read(G, points, pair_move, delta)
        record = gset.certify(G, read[1])
        assert record == harrison_product(x, y).action._points
        d = minkowski(G, point_signature(G, rx, 0), point_signature(G, ry, 0))
        assert len(record.maps[0]) == len(d)
        assert all(point_signature(G, record, p) in translates(G, d) for p in range(len(d)))
    for c in firsts + seconds:
        rc = c.action.points
        r = len(rc.maps[0])
        idems = c.action.idems
        pairs, read = gset.hat(G, rc)
        assert pairs == [(g, i) for g in G.elements() for i in range(r) if idems[g].coords[i] == 1]

        def hat_move(l, t, p):
            # (l, t) sends (g, i) to (ltg, a_l(i)) where E_ltg M_l E_tg is nonzero
            g, i = p
            j = rc.maps[l][i] if idems[G.mul(t, g)].coords[i] == 1 else None
            target = G.mul(G.mul(l, t), g)
            return None if j is None or idems[target].coords[j] != 1 else (target, j)

        assert read == tuple_read(G, pairs, hat_move, delta)
        record = gset.certify(G, read[1])
        assert record == idempotent_class(c.action).action._points
        d_a = point_signature(G, rc, 0)
        e = minkowski(G, d_a, frozenset(G.inv(g) for g in d_a))
        assert all(point_signature(G, record, p) in translates(G, e) for p in range(len(record.maps[0])))
        read = gset.envelope(G, rc)

        def envelope_move(k, t, p):
            # (k, t) sends (g, y) to (k g t^-1, a_k(y))
            j = rc.maps[k][p[1]]
            return None if j is None else (G.mul(G.mul(k, p[0]), G.inv(t)), j)

        cells = list(itertools.product(G.elements(), range(r)))
        # the orbits of G x 1, and the coset of (1, t) runs over (k, t)
        assert read == tuple_read(G, cells, envelope_move, lambda t, k: (k, t))
        assert gset.certify(G, read[1]) == globalize(c.action).enveloping_action._points


def cyclic_subgroups(G):
    """Every subgroup of Z_n as make_cyclic orders it: the multiples of d."""
    n = G.order
    return [Subgroup(G, tuple(range(0, n, d))) for d in range(1, n + 1) if n % d == 0]


def constraint_invariants(act):
    """The invariants solved from the constraints M_g - E_g, the route of
    every carrier without a certified point set."""
    rows = []
    for g in act.group.elements():
        rows.extend(act.maps[g].sub(act.idem_matrix(g)).rows)
    return subalgebra_from_constraints(act.algebra, Matrix.from_rows(act.algebra.ring, rows, act.algebra.rank))


@given(subset_class_pairs(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_split_invariants_match_the_constraint_solve(pair, rnd):
    a, b = pair
    for c in (harrison_product(a, b), idempotent_class(a.action)):
        for sub in cyclic_subgroups(c.group):
            act = restrict(c.action, sub)
            got, expected = invariants(act), constraint_invariants(act)
            assert got.algebra.labels == expected.algebra.labels
            assert got.algebra == expected.algebra
            assert got.basis == expected.basis
            assert got.inclusion.matrix == expected.inclusion.matrix
            A = act.algebra
            for _ in range(4):
                inside = [rnd.randint(-3, 3) for _ in range(got.algebra.rank)]
                vectors = [
                    A.element(rnd.randint(-3, 3) for _ in range(A.rank)).coords,
                    A.element(got.include_coords(inside)).coords,
                ]
                for v in vectors:
                    assert got.express(v) == expected.express(v)


# An action built on certified point maps holds them and writes its matrices
# on the first read of ``maps``.  The oracle writes the matrices at once with
# _point_matrix and reads no point set, so every action derived from it
# keeps matrices and compares them.


def eager(act):
    """An unread copy of ``act`` whose matrices _point_matrix writes at once
    from the point maps ``act`` holds."""
    from pargal.paction import _point_matrix

    maps = [_point_matrix(act.algebra.ring, a) for a in act._points.maps]
    return PartialAction(act.group, act.algebra, act.idems, maps)


@given(subset_class_pairs(), st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_lazy_actions_match_the_eager_oracle(pair, k):
    import copy
    import math

    from pargal.envelope import globalize
    from pargal.paction import transport

    a, b = pair
    G = a.group
    units = [u for u in range(1, G.order + 1) if math.gcd(u, G.order) == 1]
    automorphism = [units[k % len(units)] * x % G.order for x in G.elements()]
    built = {
        "product": harrison_product(a, b).action,
        "idempotent class": idempotent_class(a.action).action,
        "star": a.star().action,
        "enveloping action": globalize(a.action).enveloping_action,
    }
    oracle = {name: eager(act) for name, act in built.items()}
    derived = {
        "star of the product": inverse_action,
        "transport": lambda act: transport(act, G, automorphism),
        **{f"restriction to {sub.members}": lambda act, sub=sub: restrict(act, sub) for sub in cyclic_subgroups(G)},
    }
    for name, derive in derived.items():
        built[name], oracle[name] = derive(built["product"]), derive(oracle["product"])
    for name, act in built.items():
        assert act._points, name
        assert act._maps is None, name
    # copies made before any matrix is written, and compared after
    twins = {name: copy.deepcopy(act) for name, act in built.items()}
    pairs = [(x, y) for x in built for y in built]
    same = [built[x] == built[y] for x, y in pairs]
    assert same == [oracle[x] == oracle[y] for x, y in pairs]
    for name, act in built.items():
        twin, want = twins[name], oracle[name]
        assert act == twin and twin == act, name
        assert act == want and want == act and twin == want and want == twin, name
        assert hash(act) == hash(want) == hash(twin), name
        assert act.maps == want.maps and twin.maps == want.maps, name
        assert copy.deepcopy(act) == act and copy.deepcopy(act).maps == want.maps, name
        assert want.points == act._points, name


def test_point_classes_write_no_matrix(monkeypatch):
    import pargal.paction as paction

    calls = []
    write = paction._point_matrix
    monkeypatch.setattr(paction, "_point_matrix", lambda ring, image: calls.append(image) or write(ring, image))
    for ring in (QQ, Modular(2), Modular(6)):
        for n, subset in ((4, [0, 1]), (5, [0, 1, 3]), (6, range(6))):
            c = subset_class(n, subset, ring)
            product = harrison_product(c, c.star())
            square = harrison_product(product, product)
            idems = [idempotent_class(x.action) for x in (c, product, square)]
            stars = [x.star() for x in (product, square, *idems)]
            assert all(x.action._maps is None for x in (product, square, *idems, *stars))
    assert calls == []
    assert stars[0].action.maps and len(calls) == stars[0].group.order


# ExtensionClass.certify decides a point class on its partial G-set: rank 1
# is one component, coordinates exist when no a_g with g != 1 fixes a point.
# witness and fixed are then built on first read.  invariants and
# galois_coordinates on the action are the eager oracles, and the matrix
# route of a rebased copy decides the same.


def z4_through_z2(ring):
    """Z_4 on R^2 through Z_4 -> Z_2: g and g^3 swap the two points, g^2
    fixes both.  Connected, so its invariants are R, and not free."""
    from pargal.paction import global_action

    A = Algebra.split(ring, ["e1", "e2"])
    one, swap = Matrix.identity(ring, 2), Matrix(ring, [[0, 1], [1, 0]], 2)
    return global_action(make_cyclic(4), A, [one, swap, one, swap])


REBASE = [[1, 0], [1, 1]]  # R^2 on the basis 1 = e1 + e2, e2


@pytest.mark.parametrize("ring", [QQ, Modular(2), Modular(6)], ids=["Q", "F2", "Z6"])
def test_connected_action_with_a_fixed_point_has_no_coordinates(ring):
    from test_paction import rebased

    act = z4_through_z2(ring)
    copy = rebased(act, Matrix(ring, REBASE, 2))
    assert act.points is not None and copy.points is None
    for a in (act, copy):
        with pytest.raises(CertificationError) as exc:
            ExtensionClass.certify(a)
        assert str(exc.value) == "no partial Galois coordinates exist"
        with pytest.raises(CertificationError) as exc:
            idempotent_class(a)
        assert str(exc.value) == "idempotent_class needs a partial Galois action"


@st.composite
def point_classes(draw):
    """A class that certify accepts on its point set: a subset class of Z_n
    (n <= 6) over Q, F_2 or Z/6, its star, its product with a second one,
    the idempotent class of either, or the square of any of these."""
    a, b = draw(subset_class_pairs())
    c = draw(st.sampled_from(["class", "star", "product", "idempotent class"]))
    c = {
        "class": lambda: a,
        "star": a.star,
        "product": lambda: harrison_product(a, b),
        "idempotent class": lambda: idempotent_class(a.action),
    }[c]()
    return harrison_product(c, c) if draw(st.booleans()) else c


def eager_class(act):
    """The class of ``act`` on matrices written at once (:func:`eager`),
    with both certificates built here."""
    c = ExtensionClass(eager(act))
    assert c.witness is not None and c.fixed.algebra.rank == 1
    return c


@given(point_classes())
@settings(max_examples=80, deadline=None)
def test_lazy_certificates_match_the_eager_oracles(c):
    import copy

    from pargal.paction import galois_coordinates

    assert c.action._points
    assert "witness" not in c.__dict__ and "fixed" not in c.__dict__
    twin = copy.deepcopy(c)
    full = eager_class(c.action)
    assert c == full and full == c and twin == full
    assert "witness" not in c.__dict__ and "fixed" not in c.__dict__
    for x in (c, twin):
        assert x.fixed == invariants(c.action) == full.fixed
        assert x.witness == galois_coordinates(c.action)
        assert x.witness.pairs == full.witness.pairs and x.witness.verify()


@pytest.fixture
def certificate_calls(monkeypatch):
    """The galois_coordinates and invariants calls, wherever they are made."""
    import pargal.harrison as harrison
    import pargal.paction as paction

    calls = []
    for name in ("galois_coordinates", "invariants"):
        build = getattr(paction, name)

        def counted(act, name=name, build=build):
            calls.append(name)
            return build(act)

        for module in (harrison, paction):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_point_classes_build_no_certificate_until_read(certificate_calls):
    for ring in (QQ, Modular(2), Modular(6)):
        for n, subset in ((4, [0, 1]), (5, [0, 1, 3]), (6, range(6))):
            c = subset_class(n, subset, ring)
            product = harrison_product(c, c.star())
            idem = idempotent_class(product.action)
            classes = [c, product, idem, harrison_product(idem, idem), idem.star()]
            assert not any("witness" in x.__dict__ or "fixed" in x.__dict__ for x in classes)
    assert certificate_calls == []
    witness = classes[1].witness
    assert classes[1].witness is witness and witness.verify()
    assert certificate_calls == ["galois_coordinates"]
    assert classes[1].fixed is classes[1].fixed
    assert certificate_calls == ["galois_coordinates", "invariants"]


def test_matrix_route_builds_both_certificates_once(certificate_calls):
    from test_paction import rebased

    c = cls(rebased(example2(), Matrix(QQ, REBASE, 2)))
    assert certificate_calls == ["invariants", "galois_coordinates"]
    assert c.witness.verify() and c.fixed.algebra.rank == 1
    assert certificate_calls == ["invariants", "galois_coordinates"]


# The carriers that the point builders make (products, idempotent classes,
# the enveloping action and the invariants on points) defer their basis
# labels to the first read of Algebra.labels.  The oracles are the label
# code that wrote them at once: the point labels of the product and hat
# sets, the component sums of each delta-G read (union_find_quotient of its
# move) and the class sums of the enveloping set.


def eager_tensor_labels(a, b):
    """The point labels of X x Y, written at once."""
    return [f"{la}(x){lb}" for la in a.algebra.labels for lb in b.algebra.labels]


def eager_hat_labels(act):
    """The point labels [g]<label of e_i>, i in D_g, written at once."""
    G, A = act.group, act.algebra
    return [
        f"[{G.labels[g]}]{A.labels[i]}" for g in G.elements() for i, c in enumerate(act.idems[g].coords) if c == 1
    ]


def eager_envelope_labels(act):
    """The class sums of G x X / ~, written at once by the rule of the
    product's labels (format_coords)."""

    maps, G, S = act.points.maps, act.group, act.algebra
    n = S.rank
    point_labels = [f"{g}:{lab}" for g in G.labels for lab in S.labels]
    cls_of, labels = [None] * (G.order * n), []
    for g in G.elements():
        for y in range(n):
            if cls_of[g * n + y] is None:
                members = sorted(G.mul(k, g) * n + a[y] for k, a in enumerate(maps) if a[y] is not None)
                for p in members:
                    cls_of[p] = len(labels)
                labels.append(format_coords([point_labels[p] for p in members], [1] * len(members)))
    return labels


def recorded_orbit_actions(calls):
    """_orbit_action as harrison calls it, each call's arguments and result
    going to ``calls``."""
    import pargal.harrison as harrison

    build = harrison._orbit_action

    def recorded(*args):
        out = build(*args)
        calls.append((args, out))
        return out

    return mock.patch.object(harrison, "_orbit_action", recorded)


def deferred(algebra) -> bool:
    return callable(algebra._labels)


@given(subset_class_pairs())
@settings(max_examples=80, deadline=None)
def test_deferred_labels_match_the_eager_oracle(pair):
    import copy

    a, b = pair
    calls, reads = [], []
    with recorded_orbit_actions(calls), checked_orbit_quotients(reads):
        product = harrison_product(a, b)
        square = harrison_product(product, product)
        with_star = harrison_product(product, product.star())
        idem = idempotent_class(a.action)
    operands = [(a.action, b.action), (product.action,) * 2, (product.action, product.star().action), a.action]
    assert [out for _, out in calls] == [c.action for c in (product, square, with_star, idem)]
    assert len(reads) == len(calls)
    gd = globalize(product.action)
    # one component per point, so each invariant is labelled by one point
    fixed = invariants(restrict(product.action, Subgroup(product.group, (product.group.identity,))))
    built = [out.algebra for _, out in calls] + [gd.algebra, fixed.algebra]
    assert all(deferred(alg) for alg in built)
    # copies taken before the first read
    twins = [copy.deepcopy(alg) for alg in built]
    assert all(deferred(alg) for alg in twins)
    wanted = []
    for (args, out), read, ops in zip(calls, reads, operands):
        names = eager_tensor_labels(*ops) if isinstance(ops, tuple) else eager_hat_labels(ops)
        G, npoints, move = args[0], read[0], read[4]
        orbits = union_find_quotient(npoints, G.identity, G.elements(), G.elements(), move)[0]
        assert args[2] == orbits
        wanted.append([format_coords([names[p] for p in pts], [1] * len(pts)) for pts in orbits])
    wanted.append(eager_envelope_labels(product.action))
    rows = fixed.basis.rows
    wanted.append([product.action.algebra.format_coords(row) for row in rows])
    for alg, twin, want in zip(built, twins, wanted):
        eager = Algebra(alg.ring, want, {(i, j): e for i, r in enumerate(alg.table) for j, e in enumerate(r) if e}, alg.unit)
        # hash and == read the deferred labels, on either side
        assert hash(twin) == hash(eager)
        assert copy.deepcopy(alg) == eager and eager == copy.deepcopy(alg)
        assert alg.labels == want and twin.labels == want
        assert alg == eager and not deferred(alg)
        assert repr(alg) == repr(eager)


@given(subset_class_pairs())
@settings(max_examples=30, deadline=None)
def test_class_arithmetic_leaves_the_labels_deferred(pair):
    import pargal.harrison as harrison

    a, b = pair
    made = []
    build = harrison.harrison_product

    def recorded(x, y):
        made.append(build(x, y))
        return made[-1]

    with mock.patch.object(harrison, "harrison_product", recorded):
        product = harrison.harrison_product(a, b)
        square = harrison.harrison_product(product, product)
        idem = idempotent_class(a.action)
        classes = [a, b, product, square, idem, product.star()]
        for c in classes:
            cls(c.action)
            c.key
        for x in classes:
            for y in classes:
                iso_check(x.action, y.action)
        star_product_suite(classes[:4])
    assert len(made) > 2
    assert all(deferred(c.action.algebra) for c in [*made, idem])


# PartialAction.ideal_ranks reads |D_g| off a certified point set; the
# unital ideals of every other carrier, a row reduction each, are the oracle.


def unital_ideal_ranks(act):
    return [act.ideal(g).rank for g in act.group.elements()]


@given(subset_class_pairs())
@settings(max_examples=60, deadline=None)
def test_ideal_ranks_on_points_match_the_unital_ideals(pair):
    a, b = pair
    product = harrison_product(a, b)
    on_points = [a.action, b.action, product.action, idempotent_class(a.action).action]
    assert all(act.points is not None for act in on_points)
    for act in on_points:
        assert act.ideal_ranks() == unital_ideal_ranks(act)


def test_ideal_ranks_off_points_are_the_unital_ideals():
    from pargal.corpus import standard_corpus
    from test_paction import crt_glue, rebased

    for ring in (QQ, Modular(2), Modular(6)):
        for name, act in standard_corpus(ring).items():
            if verify_partial_action(act).passed:
                assert act.ideal_ranks() == unital_ideal_ranks(act), name
    ex2 = example2()
    r = ex2.algebra.rank
    cols = Matrix(QQ, [[1 if j in (i, i + 1) else 0 for j in range(r)] for i in range(r)], r)
    others = [rebased(ex2, cols)]
    z6 = Modular(6)
    for x, y in [({0, 1}, {0, 2}), ({0, 1, 2}, {0, 1, 3}), ({0, 1}, {0, 3})]:
        others.append(crt_glue(subset_class(4, x, z6).action, subset_class(4, y, z6).action))
    for act in others:
        assert act.points is None
        assert act.ideal_ranks() == unital_ideal_ranks(act)
    assert others[0].ideal_ranks() == ex2.ideal_ranks()


def test_a_long_chain_of_products_reads_its_labels_with_no_recursion():
    # each product's labels read those of its operands; a chain of 1200 is
    # read at its end as if it had been read at each step
    c = subset_class(2, [0])
    lazy = read = c
    for _ in range(1200):
        lazy = harrison_product(lazy, c)
        read = harrison_product(read, c)
        read.action.algebra.labels
    assert deferred(lazy.action.algebra)
    assert lazy.action.algebra.labels == read.action.algebra.labels == ["(x)".join(["x0"] * 1201)]


def held_by_labels(algebra):
    """What the deferred labels of ``algebra`` hold until they are read: the
    cells of each write function and the sources, through nested deferred
    labels."""
    todo, held = [algebra._labels], []
    while todo:
        node = todo.pop()
        held += [c.cell_contents for c in node.write.__closure__ or ()] + list(node.sources)
        todo += [obj for obj in node.sources if callable(obj)]
    return held


@given(subset_class_pairs())
@settings(max_examples=30, deadline=None)
def test_deferred_labels_hold_no_algebra(pair):
    # an unread chain of products frees its operands' tables: the deferred
    # labels keep only label lists, points and group labels
    from pargal.envelope import globalize
    from pargal.groups import FiniteGroup

    a, b = pair
    product = harrison_product(a, b)
    square = harrison_product(product, product)
    built = [
        product.action.algebra,
        square.action.algebra,
        idempotent_class(square.action).action.algebra,
        globalize(square.action).algebra,
        invariants(square.action).algebra,
    ]
    for alg in built:
        held = held_by_labels(alg)
        assert held and not any(isinstance(obj, (Algebra, PartialAction, ExtensionClass, FiniteGroup)) for obj in held)
    labels = square.action.algebra.labels
    assert square.action.algebra._labels is labels and isinstance(labels, list)


# An action built on points holds only the record of its certificate: its
# maps, the roots of its components and the component of each point.  Its
# 1_g and the table of its split carrier are written on first read, and the
# certificate of its class reads the roots.  The oracles are the eager
# constructions these replaced: 1_g as the indicator of the image of a_g
# (as _quotient_on_points wrote it), the split table written at once, the
# second walk of test_paction.components, and a fixed point looked for at
# every point (test_paction.has_fixed_point).


def read_afresh(act):
    """The point set read off a copy of ``act`` on its written 1_g and
    M_g (PartialAction.points), or None."""
    return PartialAction(act.group, act.algebra, act.idems, act.maps).points


def eager_idems(act):
    """The 1_g of an action on points written at once: the indicator of
    the image of a_g."""
    algebra = act.algebra
    return tuple(Element(algebra, tuple(int(x in set(a)) for x in range(algebra.rank))) for a in act._points.maps)


def eager_split_table(ring, rank):
    """The table of Algebra.split as it was written at once: the diagonal
    ((i, 1),) in an empty sparse table."""
    out = Algebra(ring, [f"b{i}" for i in range(rank)], {}, [1] * rank, validate=False)
    for i, one in enumerate(out.unit):
        out.table[i][i] = ((i, one),)
    return out.table


def test_point_constructions_write_no_idempotent_or_table():
    # a product, an idempotent class, a quotient action and a globalization
    # on points, certified, keyed, compared and starred as a suite would,
    # write no 1_g and no split table until they are read
    for ring in (QQ, Modular(2), Modular(6)):
        for n, subset in ((4, [0, 1]), (5, [0, 1, 3]), (6, range(6))):
            c = subset_class(n, subset, ring)
            product = harrison_product(c, c.star())
            idem = idempotent_class(c.action)
            quotient = quotient_action(product.action, cyclic_subgroups(product.group)[-2])
            assert quotient.certify().passed
            envelope = globalize(product.action)
            for x in (product, idem):
                assert x.key is not None and iso_check(x.action, x.star().star().action).status == "iso"
            built = {
                "product": product.action,
                "idempotent class": idem.action,
                "quotient": quotient.action,
                "enveloping action": envelope.enveloping_action,
            }
            for name, act in built.items():
                assert act._idems is None and act.algebra._table is None, name
            for name, act in built.items():
                assert act.idems == eager_idems(act), name
                assert act.algebra.table == eager_split_table(ring, act.algebra.rank), name


def test_certify_of_a_point_set_reads_the_kept_roots(monkeypatch, tmp_path):
    # certify and invariants walk no point set a second time: a built or
    # loaded point set kept the record of its certificate, so invariants
    # call neither the certificate nor the orbit read, certify reads the
    # roots alone, and the one walk of an unread loaded file is that
    # certificate
    import pargal.gset as gset
    import pargal.paction as paction
    from pargal.actionfile import load_action, save_action

    c = subset_class(6, [0, 1, 3])
    product = harrison_product(c, c)
    path = str(tmp_path / "c.json")
    save_action(c.action, path)
    built = [c.action, c.star().action, product.action, idempotent_class(c.action).action,
             harrison_product(product, c.star()).action, load_action(path)]
    assert not hasattr(paction, "_components") and not hasattr(paction, "_point_roots")
    walks = []
    for name in ("certify", "_orbit_quotient", "fixes_a_root"):
        walk = getattr(gset, name)
        monkeypatch.setattr(gset, name, lambda *args, walk=walk, name=name: walks.append(name) or walk(*args))
    for act in built:
        assert invariants(act).algebra.rank == 1
        assert walks == []
        ExtensionClass.certify(act)
        assert walks == ["fixes_a_root"]
        walks.clear()
    ExtensionClass.certify(load_action(path, verify=False))
    assert walks == ["certify", "fixes_a_root"]
