"""Partial-action axioms and Galois machinery on the worked examples."""

import random
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from pargal.scalars import QQ, Matrix, Modular
from pargal.algebra import AlgebraError
from pargal.corpus import (
    corrupted_p4,
    example1,
    example2,
    example2_star,
    global_swap,
    klein_product,
    standard_corpus,
    trivial_action,
)
from pargal.groups import all_subgroups, make_cyclic, make_product, subgroup_closure
from pargal.paction import (
    GaloisCoordinates,
    PartialAction,
    canonical_key,
    galois_coordinates,
    global_action,
    invariants,
    inverse_action,
    iso_check,
    phi_map,
    restrict,
    trace,
    transport,
    verify_partial_action,
)
from test_algebra import project_coords
from test_groups import s3
from test_harrison import subset_class, subset_class_pairs


def test_example1_satisfies_all_axioms():
    rep = verify_partial_action(example1())
    assert rep.passed, [c.witness for c in rep.failures()]


def test_example2_satisfies_all_axioms():
    rep = verify_partial_action(example2())
    assert rep.passed


def test_global_actions_pass():
    for act in (global_swap(), trivial_action(make_cyclic(4)), klein_product()):
        assert verify_partial_action(act).passed


def test_corpus_over_f2_passes():
    for name, act in standard_corpus(Modular(2)).items():
        assert verify_partial_action(act).passed, name


def test_corrupted_p4_fails_with_witness():
    act = corrupted_p4()
    rep = verify_partial_action(act)
    assert not rep.passed
    p4 = [c for c in rep.checks if c.name.startswith("(P4)")]
    assert len(p4) == 1 and not p4[0].passed
    # first failing pair is (g, g); e1 is the first differing basis column
    assert p4[0].witness == "g=g, h=g, basis=e1"
    # the composition identity also fails on e3: both sides evaluated directly
    e3 = act.algebra.basis_element(2)
    lhs = act.apply(1, act.apply(1, e3))
    rhs = act.apply(2, e3) * act.idems[1]
    assert lhs != rhs
    assert lhs == act.algebra.basis_element(0)  # alpha_g(alpha_g(e3)) = e1


def perturbed(act, maps=None, idems=None):
    """``act`` with the matrices (rows) and idempotents (coordinates) given
    for some group elements replaced as stored: unreduced and unchecked."""
    from pargal.algebra import Element

    ring = act.algebra.ring
    new_maps = list(act.maps)
    new_idems = list(act.idems)
    for g, rows in (maps or {}).items():
        new_maps[g] = Matrix(ring, rows, act.algebra.rank)
    for g, coords in (idems or {}).items():
        new_idems[g] = Element(act.algebra, tuple(coords))
    return PartialAction(act.group, act.algebra, new_idems, new_maps)


P1 = "(P1) alpha_g: S_(g^-1) -> S_g is an algebra isomorphism"
P3 = "(P3) alpha_g(S_(g^-1) /\\ S_h) = S_g /\\ S_gh"
# an involution of Q^3 fixing 1 = (1,1,1) that keeps e1 idempotent but sends
# e1 e2 = 0 to e1 (e1 + e3) = e1
NON_MULTIPLICATIVE = [[1, 1, -1], [0, 0, 1], [0, 1, 0]]


def regular_z3():
    return gset_action(QQ, 3, [3], gset_points([3]))


# one minimal failing action per sub-check of (P1), in the order the check
# runs them, and one for (P3); each fails first at g (not at the identity)
AXIOM_WITNESSES = [
    ("kills-complement", lambda: perturbed(example2(), maps={1: [[0, 0], [1, 1]]}),
     P1, "g=g: M_g != M_g E_(g^-1)"),
    ("lands-in-S_g", lambda: perturbed(example2(), maps={1: [[1, 0], [1, 0]]}),
     P1, "g=g: image of alpha_g escapes S_g"),
    ("unital", lambda: perturbed(example2(), maps={1: [[0, 0], [2, 0]]}),
     P1, "g=g: alpha_g(1_(g^-1)) != 1_g"),
    ("inverse", lambda: perturbed(example2(), maps={3: [[0, 0], [0, 0]]}),
     P1, "g=g: alpha_g alpha_(g^-1) is not multiplication by 1_g"),
    ("multiplicative", lambda: perturbed(regular_z3(), maps={1: NON_MULTIPLICATIVE, 2: NON_MULTIPLICATIVE}),
     P1, "g=g: alpha_g not multiplicative on S_(g^-1) basis pair (0,1)"),
    ("p3", lambda: perturbed(example2(), maps={2: [[1, 0], [0, 0]]}, idems={2: [1, 0]}),
     P3, "g=g, h=g2"),
]


@pytest.mark.parametrize("build, name, witness", [c[1:] for c in AXIOM_WITNESSES],
                         ids=[c[0] for c in AXIOM_WITNESSES])
def test_each_axiom_check_names_its_witness(build, name, witness):
    rep = verify_partial_action(build())
    found = [c for c in rep.checks if c.name == name]
    assert len(found) == 1
    assert not found[0].passed
    assert found[0].witness == witness
    if name == P3:
        # (P1) holds, so (P3) is reached on a family of algebra isomorphisms
        assert next(c for c in rep.checks if c.name == P1).passed


def non_idempotent_domain_unit():
    """Z_3 on Q^2 with 1_(g2) = e1 + 2 e2, which is not idempotent, though
    the first four (P1) checks pass at g."""
    from pargal.algebra import Algebra

    A = Algebra.split(QQ, ["e1", "e2"])
    idems = [A.element([1, 1]), A.element([1, 0]), A.element([1, 2])]
    maps = [Matrix.identity(QQ, 2), Matrix(QQ, [[1, 0], [0, 0]], 2), Matrix(QQ, [[1, 0], [5, 7]], 2)]
    return PartialAction(make_cyclic(3), A, idems, maps)


def test_non_idempotent_domain_unit_fails_p1_like_the_dense_reference():
    # S_(g2) has no basis as a unital ideal, so (P1) fails at g with a
    # report instead of an AlgebraError
    act = non_idempotent_domain_unit()
    rep = verify_partial_action(act)
    assert report_of(rep) == report_of(reference_verify_partial_action(act))
    failed = [(c.name, c.witness) for c in rep.failures()]
    assert failed[:2] == [("unital: each 1_g is idempotent", "1_g2 not idempotent"),
                          (P1, "g=g: 1_(g^-1) is not idempotent")]


def test_restrict_to_identity_and_full():
    act = example1()
    triv = restrict(act, subgroup_closure(act.group, []))
    assert triv.group.order == 1
    assert triv.maps[0].is_identity()
    full = restrict(act, subgroup_closure(act.group, [1]))
    assert full == act


def test_restrict_example1_to_h():
    act = example1()
    h = subgroup_closure(act.group, [2])
    sub = restrict(act, h)
    assert sub.group.labels == ["1", "g2"]
    e1, e2, e3 = act.algebra.basis()
    assert sub.idems[1] == e1 + e3
    assert sub.apply(1, e1) == e3
    assert sub.apply(1, e3) == e1
    assert verify_partial_action(sub).passed


def test_restrictions_to_one_subgroup_share_its_group():
    # Subgroup.as_group builds the group once: restricting a point set and a
    # carrier on another basis twice each hands all four the one group,
    # while the subgroup compares and prints as before
    from pargal.groups import Subgroup

    point_set = subset_class(12, range(12)).action
    other_basis = rebased(example2(), Matrix(QQ, [[1, 0], [1, 1]]))
    for act, members in ((point_set, (0, 4, 8)), (other_basis, (0, 2))):
        sub = Subgroup(act.group, members)
        first, second = restrict(act, sub), restrict(act, sub)
        assert first.group is second.group is sub.as_group()
        assert first.group.labels == [act.group.labels[m] for m in members]
        twin = Subgroup(act.group, members)
        assert sub == twin and repr(sub) == repr(twin)


def test_trace_example1():
    act = example1()
    e1, e2, e3 = act.algebra.basis()
    assert trace(act, e1) == act.algebra.one()
    assert trace(act, act.algebra.zero()).is_zero()


def test_trace_example2():
    act = example2()
    e1, e2 = act.algebra.basis()
    assert trace(act, e1) == act.algebra.one()


@pytest.mark.parametrize("ring", [QQ, Modular(2), Modular(6)], ids=["Q", "F2", "Z6"])
def test_trace_is_the_summed_matrix_applied(ring):
    # sum_g alpha_g(x 1_(g^-1)) equals (sum_g M_g) x, on every basis vector
    # of the corpus and on a sum of them
    for act in standard_corpus(ring).values():
        total = Matrix.zero(ring, act.algebra.rank, act.algebra.rank)
        for m in act.maps:
            total = total.add(m)
        for x in [*act.algebra.basis(), act.algebra.one() + act.algebra.basis()[0]]:
            assert trace(act, x).coords == tuple(total.matvec(list(x.coords)))


def test_invariants_example1():
    act = example1()
    inv = invariants(act)
    assert inv.algebra.rank == 1
    assert inv.basis.rows == [[1, 1, 1]]


def test_invariants_example1_restricted():
    act = example1()
    sub = restrict(act, subgroup_closure(act.group, [2]))
    inv = invariants(sub)
    assert inv.basis.rows == [[1, 0, 1], [0, 1, 0]]


def test_invariants_trivial_group():
    act = example1()
    triv = restrict(act, subgroup_closure(act.group, []))
    assert invariants(triv).algebra.rank == 3


def test_galois_coordinates_example2_reference_witness():
    act = example2()
    e1, e2 = act.algebra.basis()
    assert GaloisCoordinates(act, [(e1, e1), (e2, e2)]).verify()
    found = galois_coordinates(act)
    assert found is not None and found.verify()


def test_galois_coordinates_global_swap():
    act = global_swap()
    a, b = act.algebra.basis()
    assert GaloisCoordinates(act, [(a, a), (b, b)]).verify()
    assert galois_coordinates(act) is not None


def test_galois_coordinates_example1_exists():
    found = galois_coordinates(example1())
    assert found is not None and found.verify()
    # g = 1 instance: sum x_i alpha_1(y_i) = 1
    acc = example1().algebra.zero()
    for x, y in found.pairs:
        acc = acc + x * y
    assert acc == example1().algebra.one()


@pytest.mark.parametrize("ring", [QQ, Modular(2), Modular(6)], ids=["Q", "F2", "Z6"])
def test_a_fixed_point_answers_not_galois_without_a_solve(ring, monkeypatch):
    # the identity Z_2 action on R^2: a_g fixes each point k, so coordinate
    # k of the g-equation is that of the 1-equation, which must be 1, not 0
    import pargal.paction as paction
    from pargal.algebra import Algebra

    act = global_action(make_cyclic(2), Algebra.split(ring, ["a", "b"]), [Matrix.identity(ring, 2)] * 2)
    assert paction.solve(paction._galois_matrix(act), list(act.algebra.unit) + [0, 0]) is None
    solves = []
    solve = paction.solve
    monkeypatch.setattr(paction, "solve", lambda *args: solves.append(args) or solve(*args))
    assert galois_coordinates(act) is None
    assert not solves


def test_phi_map_example2_values():
    act = example2()
    phi = phi_map(act)
    # ranks 2 + 1 + 0 + 1
    assert phi.product.algebra.rank == 4
    assert [c.rank for c in phi.product.components] == [2, 1, 0, 1]
    e1 = act.algebra.basis_element(0)
    t = phi.tensor.pair(e1, e1)
    assert phi.morphism(t).coords == (1, 0, 0, 0)
    one = phi.tensor.pair(act.algebra.one(), act.algebra.one())
    assert phi.morphism(one) == phi.product.algebra.one()
    assert phi.bijective


def test_phi_bijective_iff_galois_on_corpus():
    for name, act in standard_corpus().items():
        has_coords = galois_coordinates(act) is not None
        assert phi_map(act).bijective == has_coords, name


def test_phi_bijective_iff_galois_on_restrictions():
    # the equivalence is relative to S^{alpha_H}: restrictions always carry
    # coordinates over their own invariants, and phi must report accordingly
    act = example1()
    for seeds in ([], [2], [1]):
        sub = restrict(act, subgroup_closure(act.group, seeds))
        assert galois_coordinates(sub) is not None
        assert phi_map(sub).bijective


def test_product_unit_example2():
    phi = phi_map(example2())
    prod = phi.product
    unit_components = [project_coords(prod, i, prod.algebra.unit) for i in range(4)]
    assert unit_components == [[1, 1], [0, 1], [0, 0], [1, 0]]


def test_inverse_action_involution_and_values():
    act = example2()
    star = inverse_action(act)
    assert inverse_action(star) == act
    e1 = act.algebra.basis_element(0)
    assert star.idems[1] == e1  # 1*_g = 1_{g^-1} = e1'
    assert star.maps[1] == act.maps[3]
    assert verify_partial_action(star).passed


def test_inverse_of_global():
    act = trivial_action(make_cyclic(4))
    star = inverse_action(act)
    assert star.maps[1] == act.maps[3]
    assert verify_partial_action(star).passed


def test_iso_check_identity():
    act = example1()
    res = iso_check(act, act)
    assert res.status == "iso"
    assert res.morphism.matrix.is_identity()


def test_iso_check_relabeled_example1():
    act = example1()
    # permute basis e1 <-> e2 and conjugate all data accordingly
    ring = act.algebra.ring
    p = Matrix(ring, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    idems = [act.algebra.element(p.matvec(list(e.coords))) for e in act.idems]
    maps = [p.mul(m).mul(p) for m in act.maps]  # p is its own inverse
    other = PartialAction(act.group, act.algebra, idems, maps)
    assert verify_partial_action(other).passed
    res = iso_check(act, other)
    assert res.status == "iso"
    got = res.morphism
    assert got.multiplicative_failure() is None and got.is_unital()
    # symmetric outcome
    assert iso_check(other, act).status == "iso"


def test_iso_check_rank_obstruction():
    res = iso_check(example1(), example2())
    assert res.status == "none"
    assert res.obstruction == "rank 3 != rank 2"


def test_iso_check_group_mismatch():
    with pytest.raises(AlgebraError):
        iso_check(example2(), global_swap())


def test_iso_check_example2_isomorphic_to_star():
    # swapping e1' and e2' carries theta onto theta*: it maps S_g = Re2' onto
    # S*_g = Re1' and intertwines the maps, so the classes coincide
    res = iso_check(example2(), example2_star())
    assert res.status == "iso"
    assert res.morphism.matrix.rows == [[0, 1], [1, 0]]


def test_iso_check_none_without_rank_obstruction():
    # the identity Z2-action on R^2 is a valid partial action that is not
    # isomorphic to the swap: f o id = swap o f has no invertible solution
    triv = global_swap()
    ident = PartialAction(
        triv.group,
        triv.algebra,
        [triv.algebra.one()] * 2,
        [Matrix.identity(QQ, 2)] * 2,
    )
    assert verify_partial_action(ident).passed
    # the obstruction names the first component of the first action that
    # has no partner: the 2-orbit of the swap, or a fixed point
    assert iso_check(triv, ident).status == "none"
    assert iso_check(triv, ident).obstruction == "CRT unit 1: a component of size 2 has no partner"
    assert iso_check(ident, triv).status == "none"
    assert iso_check(ident, triv).obstruction == "CRT unit 1: a component of size 1 has no partner"


def test_iso_check_names_the_crt_unit_without_a_partner():
    # over Z/6 the Z/2 components (unit 3) agree and the Z/3 components
    # (unit 4) are a 2-orbit against two fixed points
    swap = gset_action(Z6, 2, [2], gset_points([2]))
    fixed = gset_action(Z6, 2, [1, 1], gset_points([1, 1]))
    res = iso_check(crt_glue(swap, swap), crt_glue(swap, fixed))
    assert res.status == "none"
    assert res.obstruction == "CRT unit 4: a component of size 2 has no partner"


def test_iso_check_undecided_on_nonsplit_carrier():
    from pargal.algebra import make_algebra
    from pargal.groups import make_cyclic

    nil = make_algebra(QQ, ["1", "x"], [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0])
    z1 = make_cyclic(1)
    act = PartialAction(z1, nil, [nil.one()], [Matrix.identity(QQ, 2)])
    assert iso_check(act, act).status == "undecided"


def test_iso_symmetry_on_corpus_pairs():
    corpus = standard_corpus()
    z4_actions = [corpus["ex1"], corpus["ex2"], corpus["ex2-star"], corpus["trivial-Z4"]]
    for a in z4_actions:
        for b in z4_actions:
            assert iso_check(a, b).status == iso_check(b, a).status


@pytest.mark.parametrize("ring", [QQ, Modular(2), Modular(6)], ids=["Q", "F2", "Z6"])
def test_iso_check_requires_equal_domains(ring):
    # a partial G-isomorphism has f(S_g) = S'_g, not only f(S_g) <= S'_g:
    # Z_2 on a rank-1 carrier with S_g = 0 is not isomorphic to the global one
    from pargal.algebra import Algebra

    z2 = make_cyclic(2)
    line = Algebra.split(ring, ["e"])
    one = Matrix.identity(ring, 1)
    glob = global_action(z2, line, [one, one])
    empty = PartialAction(z2, line, [line.one(), line.zero()], [one, Matrix.zero(ring, 1, 1)])
    assert verify_partial_action(glob).passed and verify_partial_action(empty).passed
    assert iso_check(glob, empty).status == "none"
    assert iso_check(empty, glob).status == "none"


def test_iso_check_symmetric_over_composite_zn():
    # over Z/6 = Z/2 x Z/3 the domain S_g may sit on different split
    # idempotents in the two components: 1_g = (3,4) is e1 on Z/2 and e2 on
    # Z/3, so the witness swaps e1 and e2 on the Z/3 component only
    from pargal.algebra import Algebra

    z2 = make_cyclic(2)
    carrier = Algebra.split(Z6, ["e1", "e2"])

    def restricted(d):
        return PartialAction(z2, carrier, [carrier.one(), carrier.element(d)],
                             [Matrix.identity(Z6, 2), Matrix(Z6, [[d[0], 0], [0, d[1]]])])

    a, b = restricted([1, 0]), restricted([3, 4])
    assert verify_partial_action(a).passed and verify_partial_action(b).passed
    assert iso_check(a, b).status == "iso"
    res = iso_check(b, a)
    assert res.status == "iso"
    assert res.morphism.matrix.rows == [[3, 4], [4, 3]]


def test_iso_check_rejects_a_non_partial_action():
    # the search reads the carrier as a partial G-set; data that is not one
    # is refused with the element and split index instead of a wrong answer,
    # on either side and over each ring.  This 0/1 data fails the point-set
    # certificate; its standard carrier is read in place, so the split
    # index is the point: alpha_g = id sends e_1, off D_(g^-1), to e_1
    for ring in (QQ, Modular(2), Modular(6)):
        act = example2(ring)
        broken = PartialAction(act.group, act.algebra, act.idems, [act.maps[0], act.maps[0], *act.maps[2:]])
        for a, b in ((broken, act), (act, broken)):
            with pytest.raises(AlgebraError) as exc:
                iso_check(a, b)
            assert str(exc.value) == "iso_check: alpha_g does not permute the split idempotents (index 1)"


@pytest.mark.parametrize("ring", [QQ, Modular(2), Modular(6)], ids=["Q", "F2", "Z6"])
def test_iso_check_refuses_uncertified_point_data_read_in_place(ring):
    # 0/1 data that fails the point-set certificate but sends each basis
    # point in D_(g^-1) to one point: the split data reads these maps off
    # the standard carrier in place, per CRT unit, and they fail the same
    # certificate there, so iso_check refuses the data against every
    # relabelling, on either side, as canonical_key does.  Z_1 on R^3 with
    # a_1 = [1, 1, 2] once fired the bug trap against its relabelling by
    # (0, 2, 1) and answered "iso" against itself
    from itertools import permutations

    unit = 3 if ring == Z6 else 1
    message = f"iso_check: the split idempotents of CRT unit {unit} carry no partial G-set"
    cases = [case[1:4] for case in POINT_SET_FAILURES] + [(1, [(1, 1, 1)], [(1, 1, 2)])]
    for n, domains, maps in cases:
        act = points_action(ring, n, domains, maps)
        assert act.points is None, maps
        for perm in permutations(range(act.algebra.rank)):
            for a, b in ((act, relabel(act, perm)), (relabel(act, perm), act)):
                with pytest.raises(AlgebraError) as exc:
                    iso_check(a, b)
                assert str(exc.value) == message, (maps, perm)
        with pytest.raises(AlgebraError) as exc:
            canonical_key(act)
        assert str(exc.value) == message, maps


def test_partial_bijectivity_matrix_identity():
    for name, act in standard_corpus().items():
        for g in act.group.elements():
            gi = act.group.inv(g)
            assert act.maps[gi].mul(act.maps[g]) == act.idem_matrix(gi), name


def _perm_order(perm):
    order = 1
    seen = set()
    for start in range(len(perm)):
        if start in seen:
            continue
        length = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = perm[x]
            length += 1
        order = lcm(order, length)
    return order


@given(st.permutations(list(range(4))))
@settings(max_examples=40, deadline=None)
def test_random_permutation_global_actions(perm):
    # any permutation of the split idempotents generates a global action of
    # the cyclic group of its order; all axioms and both Galois oracles must
    # agree on it even when the extension is not Galois
    from pargal.algebra import Algebra
    from pargal.groups import make_cyclic
    from pargal.scalars import QQ

    m = len(perm)
    n = _perm_order(perm)
    a = Algebra.split(QQ, [f"e{i}" for i in range(m)])
    step = Matrix.zero(QQ, m, m)
    for i in range(m):
        step.rows[perm[i]][i] = 1
    maps = [Matrix.identity(QQ, m)]
    for _ in range(n - 1):
        maps.append(step.mul(maps[-1]))
    act = PartialAction(make_cyclic(n), a, [a.one()] * n, maps)
    assert verify_partial_action(act).passed
    x = a.element(list(range(1, m + 1)))
    tr = trace(act, x)
    for g in act.group.elements():
        assert act.apply(g, tr) == tr
    assert (galois_coordinates(act) is not None) == phi_map(act).bijective
    assert iso_check(act, act).status == "iso"


def test_transport_relabels_group():
    act = example2()
    z4 = make_cyclic(4)
    # relabel along inversion, which is an automorphism of Z4
    inv_map = [z4.inv(a) for a in z4.elements()]
    moved = transport(act, z4, inv_map)
    assert moved.idems[1] == act.idems[3]
    assert verify_partial_action(moved).passed
    with pytest.raises(AlgebraError):
        transport(act, z4, [0, 2, 1, 3])


# -- iso search: differential oracle and scale --------------------------------


def gset_action(ring, n, orbits, points):
    """Z_n acting by translation on R^points, inside the global Z_n-set with
    these orbit sizes; a point's position in ``points`` is its basis index,
    and points left out make the action partial."""
    from pargal.algebra import Algebra

    group = make_cyclic(n)
    pos = {p: k for k, p in enumerate(points)}
    r = len(points)
    algebra = Algebra.split(ring, [f"x{o}_{i}" for o, i in points])
    idems, maps = [], []
    for g in group.elements():
        coords = [0] * r
        rows = [[0] * r for _ in range(r)]
        for (o, i), k in pos.items():
            image = pos.get((o, (i + g) % orbits[o]))
            if image is not None:
                rows[image][k] = 1
                coords[image] = 1
        idems.append(algebra.element(coords))
        maps.append(Matrix(ring, rows, r))
    return PartialAction(group, algebra, idems, maps)


def gset_points(orbits):
    return [(o, i) for o, d in enumerate(orbits) for i in range(d)]


def reference_iso_witnesses(a, b):
    """The full (r!)^u enumeration that the pruned search replaced: every
    combination of permutations of b's split idempotents, one per CRT unit,
    through the matrix filters, in itertools order of the combinations and
    each permutation sigma taken from the last index down: (sigma(r-1), ...,
    sigma(0)) descending lexicographically, the order in which iso_check
    meets witnesses.  None when a carrier has no split presentation."""
    from itertools import permutations, product

    from pargal.algebra import AlgebraMorphism, find_split_presentation
    from pargal.scalars import invert, invertible

    pa = find_split_presentation(a.algebra)
    pb = find_split_presentation(b.algebra)
    if pa is None or pb is None:
        return None
    if a.algebra.rank != b.algebra.rank:
        return []
    r = a.algebra.rank
    ring = a.algebra.ring
    group = a.group
    ps = [list(e.coords) for e in pa.idempotents]
    qs = [list(e.coords) for e in pb.idempotents]
    to_p = invert(Matrix(ring, [list(col) for col in zip(*ps)], r))
    units = ring.crt_units
    out = []
    last_first = [p[::-1] for p in permutations(range(r - 1, -1, -1))]
    for combo in product(last_first, repeat=len(units)):
        cols = []
        for i in range(r):
            col = [0] * r
            for u, sigma in zip(units, combo):
                col = [ring.add(c, ring.mul(u, x)) for c, x in zip(col, qs[sigma[i]])]
            cols.append(col)
        fmat = Matrix(ring, [list(row) for row in zip(*cols)], r).mul(to_p)
        if any(
            b.idem_matrix(g).mul(fmat) != fmat.mul(a.idem_matrix(g))
            or fmat.mul(a.maps[g]) != b.maps[g].mul(fmat).mul(a.idem_matrix(group.inv(g)))
            for g in group.elements()
        ):
            continue
        if not invertible(fmat):
            continue
        morphism = AlgebraMorphism(a.algebra, b.algebra, fmat)
        if morphism.multiplicative_failure() is None and morphism.is_unital():
            out.append(morphism)
    return out


Z6 = Modular(6)


def crt_glue(x, y):
    """The action 3 x + 4 y over Z/6: x on the Z/2 component and y on the
    Z/3 component, carried by x's algebra (x and y of one group and rank)."""
    ring, algebra = x.algebra.ring, x.algebra

    def glue(u, v):
        return [ring.add(ring.mul(3, s), ring.mul(4, t)) for s, t in zip(u, v)]

    idems = [algebra.element(glue(e.coords, f.coords)) for e, f in zip(x.idems, y.idems)]
    maps = [Matrix(ring, [glue(rx, ry) for rx, ry in zip(mx.rows, my.rows)], mx.ncols) for mx, my in zip(x.maps, y.maps)]
    return PartialAction(x.group, algebra, idems, maps)


def breadth_first(maps, root):
    """The component of ``root`` in breadth-first order from it; the maps
    include each inverse, so following them forward reaches the component."""
    order, seen = [root], {root}
    for x in order:
        for f in maps:
            y = f[x]
            if y is not None and y not in seen:
                seen.add(y)
                order.append(y)
    return order


def component_code(maps, order):
    """The component labelled by position in ``order``: the image labels
    (-1 off the domain) of each point under each map."""
    label = {x: k for k, x in enumerate(order)}
    return tuple(tuple(-1 if f[x] is None else label[f[x]] for f in maps) for x in order)


def breadth_first_code(maps, x, colour=None):
    """The rooted code of x as iso_check read it before its first-reach
    code: the component in breadth-first order from x and its labelling by
    that order, with the colour as one more map, the identity on the
    coloured points."""
    if colour is not None:
        maps = [*maps, [y if c else None for y, c in enumerate(colour)]]
    order = breadth_first(maps, x)
    return order, component_code(maps, order)


def breadth_first_key(act):
    """canonical_key from breadth_first_code: for each CRT unit, the sorted
    least labellings of the components over all their roots."""
    from pargal.paction import _split_data

    data = _split_data(act)
    if data is None:
        return None
    key = []
    for maps in (unit.maps for unit in data.gsets):
        codes, seen = [], set()
        for x in range(len(maps[0])):
            if x not in seen:
                component = breadth_first(maps, x)
                seen.update(component)
                codes.append(min(breadth_first_code(maps, root)[1] for root in component))
        key.append(tuple(sorted(codes)))
    return tuple(key)


@st.composite
def gset_pairs(draw):
    """Two partial G-sets of one rank as actions: random partial Z_n-sets
    (n <= 5) or multi-orbit global Z_4-sets, the second either unrelated or a
    relabelling of the first, either one possibly replaced by its star.  Over
    Z/6 both actions may be CRT-glued from two such pairs, so that the two
    components carry different partial G-sets."""
    ring = draw(st.sampled_from([QQ, Modular(2), Z6]))
    max_rank = 4 if ring == Z6 else 5
    if draw(st.booleans()):
        n = 4
        shapes = [o for o in ([4], [2, 2], [2, 1, 1], [1, 1, 1, 1], [4, 1], [2, 2, 1], [2, 1, 1, 1], [1] * 5)
                  if sum(o) <= max_rank]
        r = sum(draw(st.sampled_from(shapes)))

        def draw_side():
            orbits = draw(st.sampled_from([o for o in shapes if sum(o) == r]))
            return orbits, draw(st.permutations(gset_points(orbits)))
    else:
        n = draw(st.integers(2, 5))
        r = draw(st.integers(1, max_rank))
        divisors = [d for d in range(1, n + 1) if n % d == 0]

        def draw_side():
            orbits = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=3))
            orbits += [1] * max(0, r - sum(orbits))
            return orbits, draw(st.permutations(gset_points(orbits)))[:r]

    def draw_pair():
        oa, pts_a = draw_side()
        ob, pts_b = draw_side()
        if draw(st.booleans()):
            ob, pts_b = oa, draw(st.permutations(pts_a))
        a = gset_action(ring, n, oa, pts_a)
        b = gset_action(ring, n, ob, pts_b)
        if draw(st.booleans()):
            a = inverse_action(a)
        if draw(st.booleans()):
            b = inverse_action(b)
        return a, b

    a, b = draw_pair()
    if ring == Z6 and draw(st.booleans()):
        a2, b2 = draw_pair()
        a, b = crt_glue(a, a2), crt_glue(b, b2)
    return a, b


@given(gset_pairs())
@settings(max_examples=80, deadline=None)
def test_iso_check_returns_the_first_reference_witness(pair):
    # the matched witness must be the first one of the r! enumeration, not
    # just any witness
    a, b = pair
    assert verify_partial_action(a).passed and verify_partial_action(b).passed
    expected = [m.matrix for m in reference_iso_witnesses(a, b)]
    res = iso_check(a, b)
    assert res.status == ("iso" if expected else "none")
    assert res.status == "none" or res.morphism.matrix == expected[0]
    assert iso_check(b, a).status == res.status


def relabel(act, perm):
    """The same action on a permuted basis: basis vector i becomes perm[i]."""
    from pargal.algebra import Algebra

    alg, r = act.algebra, act.algebra.rank
    inv = sorted(range(r), key=perm.__getitem__)

    def move(v):
        return [v[inv[j]] for j in range(r)]

    table = {
        (perm[i], perm[j]): tuple((perm[k], c) for k, c in alg.table[i][j])
        for i in range(r) for j in range(r) if alg.table[i][j]
    }
    algebra = Algebra(alg.ring, move(alg.labels), table, move(alg.unit), validate=False)
    idems = [algebra.element(move(e.coords)) for e in act.idems]
    maps = [Matrix(alg.ring, [[m.rows[inv[x]][inv[y]] for y in range(r)] for x in range(r)], r) for m in act.maps]
    return PartialAction(act.group, algebra, idems, maps)


def reversed_basis(act):
    """The copy of ``act`` on its basis in reverse order; its globalization
    is a second presentation of the same T."""
    return relabel(act, list(reversed(range(act.algebra.rank))))


def rebased(act, cols: Matrix):
    """The same action on the basis whose vectors, in the old coordinates,
    are the columns of the invertible matrix ``cols``."""
    from pargal.algebra import Algebra
    from pargal.scalars import invert

    A, ring, r = act.algebra, act.algebra.ring, act.algebra.rank
    to_new = invert(cols)
    basis = [list(col) for col in zip(*cols.rows)]
    table = {}
    for i in range(r):
        for j in range(r):
            prod = to_new.matvec(A.mul_coords(basis[i], basis[j]))
            if any(c != 0 for c in prod):
                table[(i, j)] = tuple((k, c) for k, c in enumerate(prod) if c != 0)
    B = Algebra(ring, [f"b{i}" for i in range(r)], table, to_new.matvec(list(A.unit)))
    idems = [B.element(to_new.matvec(list(e.coords))) for e in act.idems]
    maps = [to_new.mul(m).mul(cols) for m in act.maps]
    return PartialAction(act.group, B, idems, maps)


@given(gset_pairs(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_canonical_key_agrees_with_iso_check(pair, rnd):
    a, b = pair
    status = iso_check(a, b).status
    ka, kb = canonical_key(a), canonical_key(b)
    assert (ka is None or kb is None) == (status == "undecided")
    assert (ka is not None and ka == kb) == (status == "iso")
    # iso_check reads the key's codes, so the enumeration is the independent oracle
    assert (ka is not None and ka == kb) == bool(reference_iso_witnesses(a, b))
    perm = list(range(a.algebra.rank))
    rnd.shuffle(perm)
    moved = relabel(a, perm)
    assert verify_partial_action(moved).passed
    assert canonical_key(moved) == ka


def test_canonical_key_is_none_on_a_nonsplit_carrier():
    from pargal.algebra import make_algebra

    nil = make_algebra(QQ, ["1", "x"], [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0])
    act = PartialAction(make_cyclic(1), nil, [nil.one()], [Matrix.identity(QQ, 2)])
    assert canonical_key(act) is None


def test_every_rebasing_over_z6_keeps_its_key_and_iso():
    # the Z_2-set with orbits [2, 1] on (Z/6)^3 on each of the 162 bases
    # that permute the rows of a unit upper triangular matrix with entries
    # 0-2: the mod-2 and mod-3 split idempotents glued by CRT always give a
    # split presentation, so none is "undecided"
    from itertools import permutations, product

    base = gset_action(Z6, 2, [2, 1], gset_points([2, 1]))
    key = canonical_key(base)
    count = 0
    for upper in product(range(3), repeat=3):
        rows = [[1, upper[0], upper[1]], [0, 1, upper[2]], [0, 0, 1]]
        for order in permutations(range(3)):
            act = rebased(base, Matrix(Z6, [rows[k] for k in order], 3))
            assert canonical_key(act) == key
            assert iso_check(base, act).status == "iso"
            count += 1
    assert count == 162


def _timed_iso(a, b):
    start = time.perf_counter()
    res = iso_check(a, b)
    return res, time.perf_counter() - start


@pytest.mark.parametrize("ring", [QQ, Z6], ids=["Q", "Z6"])
def test_iso_check_rank_12_regular_against_two_orbits(ring):
    # 12! = 4.8e8 candidates for the full enumeration ((12!)^2 over Z/6)
    rng = random.Random(12)
    pts_a, pts_b = gset_points([12]), gset_points([6, 6])
    rng.shuffle(pts_a)
    rng.shuffle(pts_b)
    res, elapsed = _timed_iso(gset_action(ring, 12, [12], pts_a), gset_action(ring, 12, [6, 6], pts_b))
    assert res.status == "none"
    assert elapsed < 2.0, elapsed


@pytest.mark.parametrize("ring", [QQ, Z6], ids=["Q", "Z6"])
def test_iso_check_rank_12_regular_against_relabelling(ring):
    rng = random.Random(21)
    pts_a = gset_points([12])
    rng.shuffle(pts_a)
    pts_b = list(pts_a)
    rng.shuffle(pts_b)
    a, b = gset_action(ring, 12, [12], pts_a), gset_action(ring, 12, [12], pts_b)
    res, elapsed = _timed_iso(a, b)
    assert res.status == "iso"
    assert elapsed < 2.0, elapsed
    f = res.morphism
    assert f.multiplicative_failure() is None and f.is_unital()
    for g in a.group.elements():
        assert f.matrix.mul(a.maps[g]) == b.maps[g].mul(f.matrix)


@pytest.mark.parametrize("ring", [QQ, Z6], ids=["Q", "Z6"])
def test_iso_check_rank_14_interchangeable_points(ring):
    # Z_2 with 12 fixed points and one 2-orbit against 10 fixed points and
    # two 2-orbits: the search alone would try every arrangement of the
    # interchangeable fixed points; the one-index checks admit no matching
    rng = random.Random(14)
    oa, ob = [1] * 12 + [2], [1] * 10 + [2, 2]
    pts_a, pts_b = gset_points(oa), gset_points(ob)
    rng.shuffle(pts_a)
    rng.shuffle(pts_b)
    res, elapsed = _timed_iso(gset_action(ring, 2, oa, pts_a), gset_action(ring, 2, ob, pts_b))
    assert res.status == "none"
    assert elapsed < 2.0, elapsed


@pytest.mark.parametrize("ring", [QQ, Z6], ids=["Q", "Z6"])
def test_iso_check_rank_32_interchangeable_orbits(ring):
    # 16 Z_2 orbits against a relabelling: every point passes every
    # one-index check, so a permutation search would backtrack through the
    # arrangements of the orbits
    rng = random.Random(32)
    orbits = [2] * 16
    pts_a = gset_points(orbits)
    rng.shuffle(pts_a)
    pts_b = list(pts_a)
    rng.shuffle(pts_b)
    a, b = gset_action(ring, 2, orbits, pts_a), gset_action(ring, 2, orbits, pts_b)
    # the split data is built here, outside the timer
    assert canonical_key(a) == canonical_key(b)
    res, elapsed = _timed_iso(a, b)
    assert res.status == "iso"
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("ring", [QQ, Z6], ids=["Q", "Z6"])
def test_canonical_key_and_iso_check_rank_60_standard_carrier(ring):
    # 30 Z_2 orbits against a relabelling, on R^60 with its standard basis:
    # the split presentation is the basis, so building the split data stays
    # as cheap as the match (it took 7.5 s when it was eigen-split)
    rng = random.Random(60)
    orbits = [2] * 30
    pts_a = gset_points(orbits)
    rng.shuffle(pts_a)
    pts_b = list(pts_a)
    rng.shuffle(pts_b)
    a, b = gset_action(ring, 2, orbits, pts_a), gset_action(ring, 2, orbits, pts_b)
    start = time.perf_counter()
    assert canonical_key(a) == canonical_key(b)
    assert iso_check(a, b).status == "iso"
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, elapsed


def test_iso_check_rank_36_differs_in_one_component():
    # six restrictions of the regular Z_8-set; b's last one is restricted to
    # a set that is no translate of the others'
    rng = random.Random(36)
    kept, odd = (0, 1, 2, 3, 5, 6), (0, 1, 2, 4, 5, 6)
    pts_a = [(o, i) for o in range(6) for i in kept]
    pts_b = [(o, i) for o in range(6) for i in (odd if o == 5 else kept)]
    rng.shuffle(pts_a)
    rng.shuffle(pts_b)
    a, b = gset_action(QQ, 8, [8] * 6, pts_a), gset_action(QQ, 8, [8] * 6, pts_b)
    assert canonical_key(a) != canonical_key(b)
    for x, y in ((a, b), (b, a)):
        res, elapsed = _timed_iso(x, y)
        assert res.status == "none"
        assert elapsed < 1.0, elapsed


# -- the certificate against the dense route it replaced ----------------------


def dense_apply(m, v):
    """M v summed over every column, as the certificate did before it read
    only the nonzero entries of v."""
    ring = m.ring
    out = []
    for row in m.rows:
        acc = 0
        for a, x in zip(row, v):
            if a != 0 and x != 0:
                acc = ring.add(acc, ring.mul(a, x))
        out.append(acc)
    return out


def reference_verify_partial_action(act):
    """The axiom checks with the dense (P1) loop: three dense products per
    basis pair (i, j), i <= j, of S_(g^-1), the images recomputed for each."""
    from pargal.paction import ActionReport
    from pargal.algebra import Element

    def apply(g, x):
        return Element(A, dense_apply(act.maps[g], list(x.coords)))

    g_labels = act.group.labels
    A = act.algebra
    rep = ActionReport()

    bad = [g_labels[g] for g in act.group.elements() if not act.idems[g].is_idempotent()]
    rep.add("unital: each 1_g is idempotent", not bad, None if not bad else f"1_{bad[0]} not idempotent")

    p2 = act.idems[act.group.identity] == A.one() and act.maps[act.group.identity].is_identity()
    rep.add("(P2) S_1 = S and alpha_1 = id", p2, None if p2 else "identity component is not the identity")

    witness = None
    for g in act.group.elements():
        gi = act.group.inv(g)
        mg = act.maps[g]
        if mg.mul(act.idem_matrix(gi)) != mg:
            witness = f"g={g_labels[g]}: M_g != M_g E_(g^-1)"
            break
        if act.idem_matrix(g).mul(mg) != mg:
            witness = f"g={g_labels[g]}: image of alpha_g escapes S_g"
            break
        if apply(g, act.idems[gi]) != act.idems[g]:
            witness = f"g={g_labels[g]}: alpha_g(1_(g^-1)) != 1_g"
            break
        if mg.mul(act.maps[gi]) != act.idem_matrix(g):
            witness = f"g={g_labels[g]}: alpha_g alpha_(g^-1) is not multiplication by 1_g"
            break
        if not act.idems[gi].is_idempotent():
            witness = f"g={g_labels[g]}: 1_(g^-1) is not idempotent"
            break
        rows = act.ideal(gi).basis.rows
        done = False
        for i in range(len(rows)):
            for j in range(i, len(rows)):
                lhs = dense_apply(mg, A.mul_coords(rows[i], rows[j]))
                rhs = A.mul_coords(dense_apply(mg, rows[i]), dense_apply(mg, rows[j]))
                if lhs != rhs:
                    witness = f"g={g_labels[g]}: alpha_g not multiplicative on S_(g^-1) basis pair ({i},{j})"
                    done = True
                    break
            if done:
                break
        if witness:
            break
    rep.add("(P1) alpha_g: S_(g^-1) -> S_g is an algebra isomorphism", witness is None, witness)

    witness = None
    for g in act.group.elements():
        gi = act.group.inv(g)
        for h in act.group.elements():
            lhs = apply(g, act.idems[gi] * act.idems[h])
            rhs = act.idems[g] * act.idems[act.group.mul(g, h)]
            if lhs != rhs:
                witness = f"g={g_labels[g]}, h={g_labels[h]}"
                break
        if witness:
            break
    rep.add("(P3) alpha_g(S_(g^-1) /\\ S_h) = S_g /\\ S_gh", witness is None, witness)

    witness = None
    for g in act.group.elements():
        for h in act.group.elements():
            lhs = act.maps[g].mul(act.maps[h])
            rhs = act.idem_matrix(g).mul(act.maps[act.group.mul(g, h)])
            if lhs != rhs:
                col = next(
                    j for j in range(A.rank) if [r[j] for r in lhs.rows] != [r[j] for r in rhs.rows]
                )
                witness = f"g={g_labels[g]}, h={g_labels[h]}, basis={A.labels[col]}"
                break
        if witness:
            break
    rep.add("(P4) alpha_g alpha_h extends to alpha_gh", witness is None, witness)
    return rep


def reference_galois_matrix(act):
    """The Galois system column by column: column (i, j) stacks
    e_i alpha_g(e_j) over g, through mul_coords and a dense product."""
    A = act.algebra
    r = A.rank
    basis = [[1 if t == i else 0 for t in range(r)] for i in range(r)]
    images = {g: [dense_apply(act.maps[g], basis[j]) for j in range(r)] for g in act.group.elements()}
    cols = []
    for i in range(r):
        for j in range(r):
            col = []
            for g in act.group.elements():
                col.extend(A.mul_coords(basis[i], images[g][j]))
            cols.append(col)
    return Matrix(A.ring, [list(row) for row in zip(*cols)], r * r)


def reference_galois_pairs(act):
    """The pairs of galois_coordinates read off the reference system; None
    when it has no solution."""
    from pargal.scalars import solve

    A, r = act.algebra, act.algebra.rank
    rhs = []
    for g in act.group.elements():
        rhs.extend(A.unit if g == act.group.identity else (0,) * r)
    sol = solve(reference_galois_matrix(act), rhs)
    if sol is None:
        return None
    return [
        (A.basis_element(i), A.element(sol.particular[i * r : (i + 1) * r]))
        for i in range(r)
        if any(c != 0 for c in sol.particular[i * r : (i + 1) * r])
    ]


ORACLE_RINGS = [QQ, Modular(2), Z6]


def oracle_corpus(ring):
    """The shipped fixtures over ``ring`` and the corrupted (P4) control."""
    return list(standard_corpus(ring).values()) + [corrupted_p4(ring)]


def frobenius_f4():
    """F_4 = F_2[x]/(x^2 + x + 1) under Frobenius x -> x + 1: a global Z_2
    action on a carrier without a split table."""
    from pargal.algebra import make_algebra

    f2 = Modular(2)
    f4 = make_algebra(f2, ["1", "x"], [[[1, 0], [0, 1]], [[0, 1], [1, 1]]], [1, 0])
    return global_action(make_cyclic(2), f4, [Matrix.identity(f2, 2), Matrix(f2, [[1, 1], [0, 1]])])


@st.composite
def unitriangular(draw, ring, r):
    """An invertible change of basis over any ring: a permutation of a unit
    upper triangular matrix."""
    rows = [[1 if i == j else (draw(st.integers(0, 2)) if j > i else 0) for j in range(r)] for i in range(r)]
    order = draw(st.permutations(range(r)))
    return Matrix(ring, [[ring.coerce(x) for x in rows[k]] for k in order], r)


@st.composite
def diagonal(draw, r):
    """A change of basis over Q that scales each basis vector, by 1/2, 3,
    -2/3, ..., so that the rebased M_g and 1_g hold fractions."""
    scales = [draw(st.sampled_from([Fraction(1, 2), 3, Fraction(-2, 3), 1, Fraction(5, 4)])) for _ in range(r)]
    return Matrix(QQ, [[QQ.coerce(scales[i]) if i == j else 0 for j in range(r)] for i in range(r)], r)


@st.composite
def oracle_actions(draw):
    """Actions, valid or not, for the certificate's differential oracle:
    corpus actions over Q, F_2 and Z/6, their copies on other bases (over Q
    also scaled to fractions), the non-split F_4 Frobenius action, CRT-glued
    Z_n-sets over Z/6 and the pinned failing actions; each possibly with one
    entry of one M_g changed (to a fraction over Q)."""
    source = draw(st.sampled_from(["corpus", "rebased", "scaled", "frobenius", "crt", "pinned"]))
    if source == "pinned":
        act = draw(st.sampled_from(AXIOM_WITNESSES))[1]()
    elif source == "frobenius":
        act = frobenius_f4()
    elif source == "crt":
        n, r = draw(st.integers(2, 4)), draw(st.integers(1, 3))
        divisors = [d for d in range(1, n + 1) if n % d == 0]

        def zn_set():
            orbits = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=3))
            orbits += [1] * max(0, r - sum(orbits))
            return gset_action(Z6, n, orbits, draw(st.permutations(gset_points(orbits)))[:r])

        act = crt_glue(zn_set(), zn_set())
    elif source == "scaled":
        act = draw(st.sampled_from(oracle_corpus(QQ)))
        act = rebased(act, draw(diagonal(act.algebra.rank)))
    else:
        act = draw(st.sampled_from(oracle_corpus(draw(st.sampled_from(ORACLE_RINGS)))))
        if source == "rebased":
            act = rebased(act, draw(unitriangular(act.algebra.ring, act.algebra.rank)))
    if draw(st.booleans()):
        ring, r = act.algebra.ring, act.algebra.rank
        g = draw(st.sampled_from(list(act.group.elements())))
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
        rows = [list(row) for row in act.maps[g].rows]
        if ring == QQ:
            rows[i][j] = ring.coerce(draw(st.fractions(-2, 2, max_denominator=3)))
        else:
            rows[i][j] = ring.coerce(draw(st.integers(-2, 2)))
        act = perturbed(act, maps={g: rows})
    return act


def report_of(rep):
    return [(c.name, c.passed, c.witness) for c in rep.checks]


@given(oracle_actions())
@settings(max_examples=150, deadline=None)
def test_certificate_matches_the_dense_reference(act):
    from pargal.paction import _galois_matrix

    assert report_of(verify_partial_action(act)) == report_of(reference_verify_partial_action(act))
    assert _galois_matrix(act) == reference_galois_matrix(act)
    found = galois_coordinates(act)
    expected = reference_galois_pairs(act)
    assert (found is None) == (expected is None)
    assert found is None or found.pairs == expected


def test_certificate_drops_sums_that_vanish_mod_6():
    # example 1 over Z/6 on the basis (e2, e2 + e3, e1 + 4 e2): column e1 of
    # M_g M_g has the integer sums (6, 0, 6), which are 0 mod 6, so it must
    # equal the empty column of E_g M_g2 and the action passes
    act = rebased(example1(Z6), Matrix(Z6, [[0, 0, 1], [1, 1, 4], [0, 1, 0]], 3))
    m = act.maps[1].rows
    assert [sum(m[k][l] * m[l][0] for l in range(3)) for k in range(3)] == [6, 0, 6]
    rep = verify_partial_action(act)
    assert rep.passed
    assert report_of(rep) == report_of(reference_verify_partial_action(act))


@pytest.mark.parametrize("maps, idems, witness", [
    ({1: [[0, 0], [7, 0]]}, None, "g=g: M_g != M_g E_(g^-1)"),
    (None, {1: (0, 7)}, "g=g: alpha_g(1_(g^-1)) != 1_g"),
], ids=["matrix", "idempotent"])
def test_certificate_reads_unreduced_entries_like_the_dense_reference(maps, idems, witness):
    # a stored 7 over Z/6 is not the residue 1: no reduced sum equals it
    from pargal.algebra import Element

    act = perturbed(example2(Z6), maps=maps)
    if idems:
        act = PartialAction(act.group, act.algebra,
                            [Element(act.algebra, idems.get(g, e.coords)) for g, e in enumerate(act.idems)], act.maps)
    rep = verify_partial_action(act)
    assert report_of(rep) == report_of(reference_verify_partial_action(act))
    assert next(c for c in rep.checks if c.name == P1).witness == witness


# -- the iso bug trap against the dense trap it replaced -----------------------


def reference_certified_witness(a, b, fmat, marked=None):
    """The trap with dense r x r products: E'_g f = f E_g and
    f M_g = M'_g f E_(g^-1) for every g, then invertibility, multiplicativity
    on every basis pair and unitality, then the marked idempotent."""
    from pargal.algebra import AlgebraMorphism
    from pargal.scalars import invertible

    morphism = AlgebraMorphism(a.algebra, b.algebra, fmat)
    for g in a.group.elements():
        if b.idem_matrix(g).mul(fmat) != fmat.mul(a.idem_matrix(g)):
            raise AssertionError(f"iso_check: f(S_g) != S'_g at g={a.group.labels[g]} (bug trap)")
        if fmat.mul(a.maps[g]) != b.maps[g].mul(fmat).mul(a.idem_matrix(a.group.inv(g))):
            raise AssertionError(f"iso_check: f alpha_g != alpha'_g f at g={a.group.labels[g]} (bug trap)")
    if not invertible(fmat) or morphism.multiplicative_failure() is not None or not morphism.is_unital():
        raise AssertionError("iso_check: f is not a unital algebra isomorphism (bug trap)")
    if marked is not None and morphism(marked[0]) != marked[1]:
        raise AssertionError("iso_check: f does not carry the marked idempotent (bug trap)")
    return morphism


def trap_outcome(trap, a, b, fmat, marked=None):
    """The morphism matrix a trap returns, or the message it raises."""
    try:
        return trap(a, b, fmat, marked).matrix
    except AssertionError as exc:
        return str(exc)


def read_permutation(fmat):
    """pi with f e_x = e_pi(x) when f is a square permutation matrix, else
    None: the witness read back as iso_check read it before it handed pi
    over to the trap."""
    from pargal.gset import row_sources

    pi = row_sources(zip(*fmat.rows)) if fmat.nrows == fmat.ncols else None
    return pi if pi is not None and None not in pi and len(set(pi)) == len(pi) else None


def handed_over_witness(a, b, fmat, marked=None):
    """_certified_witness with f handed over as the permutation pi of the
    points, as iso_check hands it over, when both actions are certified
    point sets and f is a permutation matrix."""
    from pargal.paction import _certified_witness

    on_points = a.points is not None and b.points is not None
    return _certified_witness(a, b, fmat, marked, read_permutation(fmat) if on_points else None)


def trap_pairs(ring):
    """Iso pairs of actions with the witness iso_check found: each corpus
    action against itself and against a relabelled copy of its carrier,
    and one CRT-glued pair over Z/6."""
    pairs = []
    for act in standard_corpus(ring).values():
        r = act.algebra.rank
        perm = Matrix(ring, [[1 if i == (j + 1) % r else 0 for j in range(r)] for i in range(r)], r)
        for other in (act, rebased(act, perm)):
            res = iso_check(act, other)
            assert res.status == "iso"
            pairs.append((act, other, res.morphism.matrix))
    if ring == Z6:
        x = gset_action(Z6, 4, [4], gset_points([4])[:3])
        y = gset_action(Z6, 4, [2, 1], gset_points([2, 1]))
        glued = crt_glue(x, y)
        res = iso_check(glued, glued)
        pairs.append((glued, glued, res.morphism.matrix))
    return pairs


def corrupted_witnesses(ring, fmat):
    """f with its first two columns swapped, with its first column zeroed
    and zero (both singular), and scaled by 5 (not unital unless 5 = 1)."""
    rows = [list(row) for row in fmat.rows]
    return {
        "swapped": [[row[1], row[0], *row[2:]] for row in rows],
        "singular": [[0, *row[1:]] for row in rows],
        "zero": [[0] * len(row) for row in rows],
        "scaled": [[ring.mul(5, x) for x in row] for row in rows],
    }


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=["Q", "F2", "Z6"])
def test_iso_trap_matches_the_dense_trap(ring):
    # on the matrices, and on the points where f is handed over as pi
    from pargal.paction import _certified_witness

    messages = set()
    for a, b, fmat in trap_pairs(ring):
        assert trap_outcome(reference_certified_witness, a, b, fmat) == fmat
        for trap in (_certified_witness, handed_over_witness):
            assert trap_outcome(trap, a, b, fmat) == fmat
            if a.algebra.rank < 2:
                continue
            for rows in corrupted_witnesses(ring, fmat).values():
                bad = Matrix(ring, rows, fmat.ncols)
                got = trap_outcome(trap, a, b, bad)
                assert got == trap_outcome(reference_certified_witness, a, b, bad)
                if isinstance(got, str):
                    messages.add(got.split(" at ")[0])
    assert messages == {
        "iso_check: f(S_g) != S'_g",
        "iso_check: f alpha_g != alpha'_g f",
        "iso_check: f is not a unital algebra isomorphism (bug trap)",
    }


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=["Q", "F2", "Z6"])
def test_iso_trap_fires_on_a_witness_missing_the_marked_idempotent(ring):
    # beta_g of the globalization of example 2 is a global G-automorphism of
    # T (the group is abelian), but it moves 1_S, which global_iso_check marks
    from pargal.envelope import globalize
    from pargal.paction import _certified_witness

    gd = globalize(example2(ring))
    t = global_action(gd.group, gd.algebra, gd.beta)
    marked = (gd.one_s, gd.one_s)
    for g in gd.group.elements():
        fmat = gd.beta[g]
        expected = trap_outcome(reference_certified_witness, t, t, fmat, marked)
        for trap in (_certified_witness, handed_over_witness):
            assert trap_outcome(trap, t, t, fmat, marked) == expected
            if g == gd.group.identity:
                assert expected == fmat
            else:
                assert expected == "iso_check: f does not carry the marked idempotent (bug trap)"
                assert trap_outcome(trap, t, t, fmat) == fmat


def test_read_permutation_refuses_all_but_square_permutation_matrices():
    # f e_x = e_pi(x): column x holds its 1 in row pi(x)
    assert read_permutation(Matrix(QQ, [[0, 1, 0], [0, 0, 1], [1, 0, 0]], 3)) == [2, 0, 1]
    # one 1 in each row, in distinct columns, but not square
    assert read_permutation(Matrix(QQ, [[1, 0, 0], [0, 1, 0]], 3)) is None
    assert read_permutation(Matrix(QQ, [[1, 0], [0, 1], [0, 0]], 2)) is None
    # two rows with their 1 in one column
    assert read_permutation(Matrix(QQ, [[0, 1], [0, 1]], 2)) is None
    # a 2 or a second 1 in a row
    assert read_permutation(Matrix(QQ, [[2, 0], [0, 1]], 2)) is None
    assert read_permutation(Matrix(QQ, [[1, 1], [0, 1]], 2)) is None


def test_iso_trap_fires_on_a_non_multiplicative_witness():
    # f = 2 - swap commutes with the global swap, fixes 1 = e1 + e2 and is
    # invertible over Q, but f(e1)^2 = (4, 1) != f(e1) = (2, -1)
    from pargal.paction import _certified_witness
    from pargal.scalars import invertible

    act = global_swap()
    fmat = Matrix(QQ, [[2, -1], [-1, 2]], 2)
    assert invertible(fmat)
    expected = "iso_check: f is not a unital algebra isomorphism (bug trap)"
    for trap in (_certified_witness, reference_certified_witness):
        assert trap_outcome(trap, act, act, fmat) == expected


# -- the iso witness on the point maps of standard carriers --------------------


def is_permutation_matrix(rows):
    return all(sorted(line) == [0] * (len(line) - 1) + [1] for line in [*rows, *zip(*rows)])


def swap_columns(rows, x, y):
    out = [list(row) for row in rows]
    for row in out:
        row[x], row[y] = row[y], row[x]
    return out


def breaks_some_map(maps, x, y):
    """Whether the transposition of points x and y fails to commute with
    some partial map (None off its domain)."""
    swap = {x: y, y: x, None: None}

    def t(z):
        return swap.get(z, z)

    return any(f[t(z)] != t(f[z]) for f in maps for z in range(len(f)))


@st.composite
def point_trap_cases(draw):
    """A subset class of Z_1-Z_6 over Q, F_2 or Z/6, possibly its star and
    possibly times a second one, against a relabelled copy ("mixed": one of
    the two rebased instead), with the witness iso_check found, changed by
    one drawn corruption: two columns swapped; a transposition of two
    points of one component with the same domains that breaks some a_g;
    or a column zeroed, an entry flipped or an entry 2, which leave no
    permutation matrix."""
    from pargal.harrison import harrison_product

    ring = draw(st.sampled_from(ORACLE_RINGS))
    n = draw(st.integers(1, 6))

    def draw_class():
        points = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        c = subset_class(n, points, ring)
        return c.star() if draw(st.booleans()) else c

    c = draw_class()
    if draw(st.booleans()):
        c = harrison_product(c, draw_class())
    a, r = c.action, c.action.algebra.rank
    b = relabel(a, draw(st.permutations(range(r))))
    kind = draw(st.sampled_from(["correct", "swapped", "transposition", "not a permutation", "mixed"]))
    if kind == "mixed":
        b = rebased(b, draw(unitriangular(ring, r)))
        if draw(st.booleans()):
            a, b = b, a
    res = iso_check(a, b)
    # every rebased carrier over Z/6 gets a split presentation
    assert res.status == "iso"
    fmat = res.morphism.matrix
    rows = fmat.rows
    if kind == "swapped" and r > 1:
        x, y = draw(st.lists(st.integers(0, r - 1), min_size=2, max_size=2, unique=True))
        rows = swap_columns(rows, x, y)
    elif kind == "transposition":
        # D_g is the domain of a_(g^-1), so x and y lie in the same D_g when
        # every map is defined at both or at neither
        points = a.points.maps
        pairs = [
            (x, y)
            for x in range(r)
            for y in breadth_first(points, x)
            if x < y
            and all((f[x] is None) == (f[y] is None) for f in points)
            and breaks_some_map(points, x, y)
        ]
        if pairs:
            rows = swap_columns(rows, *draw(st.sampled_from(pairs)))
        else:
            kind = "correct"
    elif kind == "not a permutation":
        x, y = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
        change = draw(st.sampled_from(["zero column", "flipped entry", "entry 2"]))
        rows = [list(row) for row in rows]
        if change == "zero column":
            for row in rows:
                row[x] = 0
        elif change == "entry 2" and ring.coerce(2) != 0:
            rows[y][x] = 2
        else:
            rows[y][x] = 1 - rows[y][x]
    return kind, a, b, Matrix(ring, rows, r)


@given(point_trap_cases())
@settings(max_examples=150, deadline=None)
def test_point_trap_matches_the_dense_trap(case):
    # the trap reads f on the points when both carriers are certified point
    # sets and f is handed over as a permutation of the points, with no
    # matrix product; every other f or carrier runs the matrix trap
    from unittest import mock

    kind, a, b, fmat = case
    with mock.patch.object(Matrix, "mul", autospec=True, side_effect=Matrix.mul) as mul:
        got = trap_outcome(handed_over_witness, a, b, fmat)
    certified = a.points is not None and b.points is not None
    on_points = certified and is_permutation_matrix(fmat.rows)
    assert (mul.call_count == 0) == on_points
    assert got == trap_outcome(reference_certified_witness, a, b, fmat)
    if kind == "correct":
        assert got == fmat
    elif kind == "transposition":
        assert on_points and got.startswith("iso_check: f alpha_g != alpha'_g f at g=")
    elif kind == "not a permutation":
        assert not on_points
    elif kind == "mixed":
        assert got == fmat


def split_order_match(maps_a, maps_b, colour_a=None, colour_b=None):
    """gset.match_components on the split-order maps of
    presentation_split_data, from the last index down on both sides, with
    codes kept afresh."""
    from pargal.gset import _component_from

    r = len(maps_a[0])
    kept_a, kept_b = [None] * r, [None] * r
    sigma, used = [None] * r, [False] * r
    for i in reversed(range(r)):
        if sigma[i] is None:
            order, code = _component_from(maps_a, kept_a, i, colour_a)
            k = next((k for k in reversed(range(r)) if not used[k] and _component_from(maps_b, kept_b, k, colour_b)[1] == code), None)
            if k is None:
                return None, len(order)
            for x, y in zip(order, kept_b[k][0]):
                sigma[x], used[y] = y, True
    return sigma, None


def split_order_iso(a, b, marked=None):
    """iso_check, or with ``marked`` global_iso_check, on the split-order
    route: one match per CRT unit on the partial G-sets of
    presentation_split_data, and the witness of presentation_witness,
    checked by the dense trap."""
    from pargal.algebra import find_split_presentation
    from pargal.paction import IsoResult

    if find_split_presentation(a.algebra) is None or find_split_presentation(b.algebra) is None:
        return IsoResult("undecided")
    if a.algebra.rank != b.algebra.rank:
        return IsoResult("none", obstruction=f"rank {a.algebra.rank} != rank {b.algebra.rank}")
    ring = a.algebra.ring
    pa, pb = presentation_split_data(a), presentation_split_data(b)

    def colour(u, to_coords, e):
        return [ring.mul(u, x) == u for x in to_coords.matvec(list(e.coords))]

    sigmas = []
    for u, maps_a, maps_b in zip(ring.crt_units, pa[2], pb[2]):
        colours = (None, None) if marked is None else (colour(u, pa[1], marked[0]), colour(u, pb[1], marked[1]))
        sigma, unmatched = split_order_match(maps_a, maps_b, *colours)
        if sigma is None:
            return IsoResult("none", obstruction=f"CRT unit {u}: a component of size {unmatched} has no partner")
        sigmas.append(sigma)
    return IsoResult("iso", reference_certified_witness(a, b, presentation_witness(a, b, sigmas), marked))


def split_order_key(act):
    """canonical_key on the partial G-sets of presentation_split_data: per
    CRT unit, the sorted least rooted codes of the components, which a walk
    over the points finds, with codes kept afresh."""
    from pargal.algebra import find_split_presentation
    from pargal.gset import _component_from

    if find_split_presentation(act.algebra) is None:
        return None
    r = act.algebra.rank
    key = []
    for maps in presentation_split_data(act)[2]:
        kept, codes, seen = [None] * r, [], set()
        for x in range(r):
            if x not in seen:
                component = _component_from(maps, kept, x)[0]
                seen.update(component)
                codes.append(min(_component_from(maps, kept, y)[1] for y in component))
        key.append(tuple(sorted(codes)))
    return tuple(key)


@st.composite
def split_order_pairs(draw):
    """Pairs of partial Z_n-classes (n <= 6) over Q, F_2 and Z/6 for the
    split-order oracle: subset classes in a drawn basis order, each possibly
    its star; the second another class or a relabelling of the first; over
    Z/6 possibly CRT-glued with a second such pair; either side possibly
    rebased onto another basis, a pair of a point set and a carrier on
    another basis; and a flag to compare the globalizations, a marked
    pair, through global_iso_check."""
    ring = draw(st.sampled_from(ORACLE_RINGS))
    n = draw(st.integers(1, 6))

    def draw_class(size=None):
        points = draw(st.lists(st.integers(0, n - 1), min_size=size or 1, max_size=size or n, unique=True))
        act = subset_class(n, points, ring).action
        return inverse_action(act) if draw(st.booleans()) else act

    def draw_pair():
        a = draw_class()
        if draw(st.booleans()):
            return a, relabel(a, draw(st.permutations(range(a.algebra.rank))))
        return a, draw_class()

    a, b = draw_pair()
    if ring == Z6 and draw(st.booleans()):
        a, b = crt_glue(a, draw_class(a.algebra.rank)), crt_glue(b, draw_class(b.algebra.rank))
    sides = []
    for act in (a, b):
        if draw(st.booleans()):
            act = rebased(act, draw(unitriangular(ring, act.algebra.rank)))
        sides.append(act)
    return (*sides, draw(st.booleans()))


@given(split_order_pairs())
@settings(max_examples=150, deadline=None)
def test_point_maps_read_in_place_match_the_split_order_oracle(case):
    # status, obstruction, witness bytes and keys as on the split-order
    # route, both ways round, unmarked and through global_iso_check
    from pargal.envelope import global_iso_check, globalize

    a, b, marked = case
    pairs = [(a, b, iso_check(a, b), split_order_iso(a, b)), (b, a, iso_check(b, a), split_order_iso(b, a))]
    if marked and a.group == b.group:
        try:
            gd1, gd2 = globalize(a), globalize(b)
        except AlgebraError as exc:
            # a glued set, or over Z/6 some carriers on another basis:
            # globalize refuses a span of translates it reads as not free
            assert a.algebra.ring == Z6 and "not a free basis over Z/6" in str(exc)
        else:
            t1, t2 = gd1.enveloping_action, gd2.enveloping_action
            pairs.append((t1, t2, global_iso_check(gd1, gd2), split_order_iso(t1, t2, (gd1.one_s, gd2.one_s))))
    for x, y, res, expected in pairs:
        assert (res.status, res.obstruction) == (expected.status, expected.obstruction)
        if res.status == "iso":
            assert repr(res.morphism.matrix) == repr(expected.morphism.matrix)
        assert canonical_key(x) == split_order_key(x) and canonical_key(y) == split_order_key(y)


def presentation_witness(a, b, sigmas):
    """The witness as iso_check built it before it read point maps: f(p_i)
    = sum_t u_t q_(sigma_t(i)) on the split data of presentation_split_data,
    times the coordinates -> coefficients matrix of a."""
    ring, r = a.algebra.ring, a.algebra.rank
    to_coords = presentation_split_data(a)[1]
    idems_b = presentation_split_data(b)[0]
    cols = []
    for i in range(r):
        col = [0] * r
        for u, sigma in zip(ring.crt_units, sigmas):
            col = [ring.add(c, ring.mul(u, x)) for c, x in zip(col, idems_b[sigma[i]])]
        cols.append(col)
    return Matrix(ring, [list(row) for row in zip(*cols)], r).mul(to_coords)


@pytest.fixture
def matched_sigmas(monkeypatch):
    """The bijections sigma that gset.match_components returns, in order:
    sigma[i] = k when it sends p_i to q_k, and on a point set p_i = e_i.
    One call serves every CRT unit when the units share their maps and
    colours."""
    import pargal.gset as gset

    calls = []
    match = gset.match_components

    def recorded(*args):
        sigma, unmatched = match(*args)
        calls.append(sigma)
        return sigma, unmatched

    monkeypatch.setattr(gset, "match_components", recorded)
    return calls


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=["Q", "F2", "Z6"])
def test_point_witness_is_the_presentation_witness(ring, matched_sigmas, monkeypatch):
    # corpus actions and their stars against relabelled copies, and the
    # globalizations of the corpus and of its copies on the reversed basis
    # through global_iso_check; over Z/6 also a marked pair whose two CRT units
    # take different sigmas.  The trap runs on the points exactly when the
    # witness is a permutation matrix, with the permutation it reads back.
    from dataclasses import replace

    import pargal.gset as gset
    from pargal.envelope import global_iso_check, globalize

    handed = []
    trap = gset.trap_on_points
    monkeypatch.setattr(gset, "trap_on_points", lambda group, pa, pb, pi: handed.append(pi) or trap(group, pa, pb, pi))

    def assert_presentation_witness(a, b, res):
        assert a.points is not None and b.points is not None
        pi = None
        if res.status == "iso":
            units = a.algebra.ring.crt_units
            sigmas = matched_sigmas * len(units) if len(matched_sigmas) == 1 else matched_sigmas
            expected = presentation_witness(a, b, sigmas)
            assert repr(res.morphism.matrix) == repr(expected)
            pi = read_permutation(res.morphism.matrix)
        assert handed == ([] if pi is None else [pi])
        matched_sigmas.clear()
        handed.clear()

    rng = random.Random(15)
    corpus = standard_corpus(ring)
    for act in corpus.values():
        for a in (act, inverse_action(act)):
            perm = list(range(a.algebra.rank))
            for _ in range(3):
                other = relabel(a, perm)
                assert_presentation_witness(a, other, iso_check(a, other))
                rng.shuffle(perm)
    envelopes = []
    for name in ("ex1", "ex2", "ex2-star", "trivial-Z4"):
        for copy in (corpus[name], reversed_basis(corpus[name])):
            envelopes.append(globalize(copy))
    for gd1 in envelopes:
        for gd2 in envelopes:
            if gd1.group == gd2.group:
                t1 = global_action(gd1.group, gd1.algebra, gd1.beta)
                t2 = global_action(gd2.group, gd2.algebra, gd2.beta)
                assert_presentation_witness(t1, t2, global_iso_check(gd1, gd2))
    if ring == Z6:
        # 1_S = (3, 4) is e_0 on Z/2 and e_1 on Z/3, and (1, 0) is e_0 on
        # both: the two CRT units take different sigmas, and the witness
        # 3 id + 4 swap is no permutation matrix
        gd = globalize(corpus["trivial-Z2"])
        gd1 = replace(gd, one_s=gd.algebra.element([3, 4]))
        gd2 = replace(gd, one_s=gd.algebra.element([1, 0]))
        res = global_iso_check(gd1, gd2)
        assert res.status == "iso" and matched_sigmas[0] != matched_sigmas[1]
        assert res.morphism.matrix.rows == [[3, 4], [4, 3]]
        t = global_action(gd.group, gd.algebra, gd.beta)
        assert_presentation_witness(t, t, res)


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=["Q", "F2", "Z6"])
def test_iso_check_on_point_sets_makes_no_matrix_product(ring, monkeypatch):
    # the match, the witness and the trap all run on the point maps: no
    # matrix, matrix product, invertibility test, row reduction or
    # multiplication matrix E_g, and one match for all CRT units; the
    # witness writes the permutation matrix of pi when it is read; a mixed
    # pair shows that the counters see calls
    import sys

    import pargal.gset as gset
    import pargal.paction as paction

    pairs = []
    for act in standard_corpus(ring).values():
        for a in (act, inverse_action(act)):
            pairs.append((a, relabel(a, list(reversed(range(a.algebra.rank))))))
    pairs.append((example1(ring), example2(ring)))
    pairs.append((gset_action(ring, 2, [2], gset_points([2])), gset_action(ring, 2, [1, 1], gset_points([1, 1]))))
    mixed = rebased(example2(ring), Matrix(ring, [[1, 0], [1, 1]], 2))
    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(Matrix, "mul", counted("Matrix.mul", Matrix.mul))
    monkeypatch.setattr(Matrix, "__init__", counted("Matrix.__init__", Matrix.__init__))
    monkeypatch.setattr(paction, "_point_matrix", counted("_point_matrix", paction._point_matrix))
    monkeypatch.setattr(gset, "match_components", counted("match_components", gset.match_components))
    handed = []
    trap = gset.trap_on_points
    monkeypatch.setattr(gset, "trap_on_points", lambda group, pa, pb, pi: handed.append(pi) or trap(group, pa, pb, pi))
    monkeypatch.setattr(
        PartialAction, "idem_matrix", counted("PartialAction.idem_matrix", PartialAction.idem_matrix)
    )
    for name, module in list(sys.modules.items()):
        if name.startswith("pargal"):
            for fn in ("invertible", "canonical_row_form"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, counted(fn, getattr(module, fn)))
    results = []
    for a, b in pairs:
        res = iso_check(a, b)
        assert calls == ["match_components"] * (a.algebra.rank == b.algebra.rank)
        calls.clear()
        results.append((a.algebra.rank, res))
    assert {res.status for _, res in results} == {"iso", "none"}
    witnesses = [(r, res.morphism) for r, res in results if res.status == "iso"]
    assert len(handed) == len(witnesses)
    for (r, morphism), pi in zip(witnesses, handed):
        matrix = morphism.matrix
        assert calls == ["_point_matrix", "Matrix.__init__"]
        calls.clear()
        assert morphism.matrix is matrix and not calls
        assert matrix.rows == [[int(pi[x] == y) for x in range(r)] for y in range(r)]
    assert iso_check(example2(ring), mixed).status == "iso"
    assert {"Matrix.mul", "invertible", "PartialAction.idem_matrix"} <= set(calls)


def test_crt_units_of_one_ring_are_factored_once(monkeypatch):
    # iso_check and canonical_key on fresh actions over one Z/6 (point
    # sets, a rebased carrier through find_split_presentation and a
    # CRT-glued one, each read per unit) take the CRT units, and the split
    # presentation its components, from the ring: 6 is factored once
    import pargal.scalars as scalars

    calls = []
    factorize = scalars._factorize
    monkeypatch.setattr(scalars, "_factorize", lambda n: calls.append(n) or factorize(n))
    ring = Modular(6)
    for _ in range(3):
        corpus = standard_corpus(ring)
        x = corpus["ex2"]
        for a, b in ((x, relabel(x, [1, 0])), (rebased(x, Matrix(ring, [[1, 0], [1, 1]], 2)), x), (crt_glue(x, x), x)):
            assert iso_check(a, b).status == "iso"
            assert canonical_key(a) == canonical_key(b)
    assert calls == [6]


# -- the point-set route against the matrix route and the dense reference -----


def kernel_invariants(act):
    """The invariants as the kernel of the stacked M_g - E_g, the route
    every carrier took before the point-set certificate."""
    from pargal.algebra import subalgebra_from_constraints

    rows = []
    for g in act.group.elements():
        rows.extend(act.maps[g].sub(act.idem_matrix(g)).rows)
    return subalgebra_from_constraints(act.algebra, Matrix.from_rows(act.algebra.ring, rows, act.algebra.rank))


def presentation_split_data(act):
    """The split data of find_split_presentation and presentation_gsets,
    the route every carrier took before the point-set reader, with the
    unfilled component list of each unit."""
    from pargal.algebra import find_split_presentation
    from pargal.scalars import invert

    ring, r = act.algebra.ring, act.algebra.rank
    idems = [list(e.coords) for e in find_split_presentation(act.algebra).idempotents]
    to_coords = invert(Matrix(ring, [list(col) for col in zip(*idems)], r))
    gsets = presentation_gsets(act, idems, to_coords, ring.crt_units)
    return idems, to_coords, gsets, [[None] * r for _ in gsets]


def presentation_gsets(act, idems, to_coords, units):
    """The partial G-set that ``act`` induces on the idempotents u p_i, for
    the split idempotents p_i (coordinate lists ``idems``, ``to_coords``
    sending coordinates to coefficients over them) and each CRT unit u in
    ``units``, as split data read it through the split presentation of
    every carrier: maps[g][i] = j when alpha_g(u p_i) = u p_j, None off
    D_{g^-1}.  Raises AlgebraError, naming the split index, when 1_g or
    alpha_g does not come from partial maps of the u p_i, or when those
    maps fail the certificate."""
    from pargal.gset import certify

    ring = act.algebra.ring
    group = act.group
    label = group.labels
    r = len(idems)
    idem_coeffs = [to_coords.matvec(list(act.idems[g].coords)) for g in group.elements()]
    image_coeffs = [[to_coords.matvec(act.maps[g].matvec(p)) for p in idems] for g in group.elements()]
    out = []
    for u in units:
        domains = []
        for g in group.elements():
            coeffs = [ring.mul(u, x) for x in idem_coeffs[g]]
            bad = next((i for i, x in enumerate(coeffs) if x not in (0, u)), None)
            if bad is not None:
                raise AlgebraError(f"iso_check: 1_{label[g]} is not a sum of split idempotents (index {bad})")
            domains.append([x == u for x in coeffs])
        maps = []
        for g in group.elements():
            images = []
            for i in range(r):
                col = [ring.mul(u, x) for x in image_coeffs[g][i]]
                support = [s for s, x in enumerate(col) if x != 0]
                if domains[group.inv(g)][i]:
                    ok = len(support) == 1 and col[support[0]] == u
                else:
                    ok = not support
                if not ok:
                    raise AlgebraError(
                        f"iso_check: alpha_{label[g]} does not permute the split idempotents (index {i})"
                    )
                images.append(support[0] if support else None)
            maps.append(images)
        if certify(group, maps, domains) is None:
            raise AlgebraError(f"iso_check: the split idempotents of CRT unit {u} carry no partial G-set")
        out.append(maps)
    return out


def dense_galois_verify(coords):
    """GaloisCoordinates.verify through dense apply and Element arithmetic."""
    act = coords.action
    A = act.algebra
    for g in act.group.elements():
        acc = A.zero()
        for x, y in coords.pairs:
            acc = acc + x * act.apply(g, y)
        if acc != (A.one() if g == act.group.identity else A.zero()):
            return False
    return True


def outcome(fn, *args):
    """What ``fn`` returns, or the type and message of the AlgebraError it
    raises."""
    try:
        return fn(*args)
    except AlgebraError as exc:
        return ("AlgebraError", str(exc))


@st.composite
def point_set_actions(draw):
    """0/1 actions of Z_1-Z_4 on R^r, r <= 4, over Q, F_2 and Z/6: a
    Z_n-set restricted to r of its points (a partial action), possibly on a
    permuted basis, and possibly with a flipped entry of M_g, a flipped
    coordinate of 1_g, a stored 7 or 2, or a second 1 in a column of M_g."""
    ring = draw(st.sampled_from(ORACLE_RINGS))
    n = draw(st.integers(1, 4))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    orbits = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=3))
    points = draw(st.permutations(gset_points(orbits)))
    r = draw(st.integers(1, min(4, len(points))))
    act = gset_action(ring, n, orbits, points[:r])
    if draw(st.booleans()):
        act = relabel(act, draw(st.permutations(range(r))))
    g = draw(st.sampled_from(list(act.group.elements())))
    i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
    rows = [list(row) for row in act.maps[g].rows]
    coords = list(act.idems[g].coords)
    kind = draw(st.sampled_from(["none", "entry", "domain", "stored", "double"]))
    if kind == "entry":
        rows[i][j] = 1 - rows[i][j]
    elif kind == "domain":
        coords[i] = 1 - coords[i]
    elif kind == "stored" and draw(st.booleans()):
        rows[i][j] = draw(st.sampled_from([7, 2]))
    elif kind == "stored":
        coords[i] = draw(st.sampled_from([7, 2]))
    elif kind == "double":
        rows[i][j] = 1
        rows[(i + 1) % r][j] = 1
    return perturbed(act, maps={g: rows}, idems={g: coords})


def subalgebra_of(sub):
    return sub.basis, sub.algebra, sub.algebra.labels


@given(point_set_actions(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_point_set_route_matches_the_sparse_and_dense_routes(act, rnd):
    # the name is kept from when the matrix route summed sparse columns
    from pargal.paction import _verify_on_matrices

    report = report_of(verify_partial_action(act))
    assert report == report_of(_verify_on_matrices(act))
    assert report == report_of(reference_verify_partial_action(act))
    inv = outcome(invariants, act)
    expected = outcome(kernel_invariants, act)
    assert inv == expected if isinstance(expected, tuple) else subalgebra_of(inv) == subalgebra_of(expected)
    found = galois_coordinates(act)
    pairs = reference_galois_pairs(act)
    assert (found is None) == (pairs is None)
    assert found is None or found.pairs == pairs
    if not all(passed for _, passed, _ in report):
        return
    perm = list(range(act.algebra.rank))
    rnd.shuffle(perm)
    other = relabel(act, perm)
    res = iso_check(act, other)
    assert res.status == "iso"
    assert res.morphism.matrix == reference_iso_witnesses(act, other)[0].matrix


@given(point_set_actions())
@settings(max_examples=150, deadline=None)
def test_restrict_and_inverse_hand_over_the_point_maps(act):
    # each construction reads the point set of the action it starts from,
    # once, and nothing else; a certified one is handed over, with no matrix
    # written, and equals the matrix relabel of the same members, while an
    # uncertified star or transport holds no point set
    from unittest import mock
    from pargal import gset
    from test_harrison import read_afresh

    group = act.group
    certified = read_afresh(act) is not None
    builds = [(lambda a, sub=sub: restrict(a, sub), sub.as_group(), sub.members) for sub in all_subgroups(group)]
    builds += [(inverse_action, group, group.inverse), (lambda a: transport(a, group, group.inverse), group, group.inverse)]
    for build, target, members in builds:
        parent = PartialAction(group, act.algebra, act.idems, act.maps)
        with mock.patch.object(gset, "read", wraps=gset.read) as read:
            out = build(parent)
        assert read.call_count == 1 and parent._points is not None
        if certified:
            assert out._maps is None
            assert out == PartialAction(target, act.algebra, [act.idems[m] for m in members], [act.maps[m] for m in members])
    if not certified:
        for out in (inverse_action(act), transport(act, group, group.inverse)):
            assert out.points is None and read_afresh(out) is None


def test_inverse_of_a_non_abelian_action_hands_over_nothing():
    act = trivial_action(s3())
    assert act.points is not None
    star = inverse_action(act)
    assert star._points is None
    # a*_g a*_h = a_(g^-1 h^-1), which is a*_(hg), not a*_(gh): the star
    # data is a right action, and the certificate refuses it
    assert star.points is None
    assert not verify_partial_action(star).passed


@st.composite
def split_carrier_actions(draw):
    """point_set_actions on a standard carrier, over Z/6 possibly CRT-glued
    with a relabelled copy of itself or of its star, or rebased onto
    another basis."""
    act = draw(point_set_actions())
    ring, r = act.algebra.ring, act.algebra.rank
    route = draw(st.sampled_from(["points", "glued", "rebased"] if ring == Z6 else ["points", "rebased"]))
    if route == "glued":
        other = draw(st.sampled_from([act, inverse_action(act)]))
        return crt_glue(act, relabel(other, draw(st.permutations(range(r)))))
    if route == "rebased":
        return rebased(act, draw(unitriangular(ring, r)))
    return act


@given(split_carrier_actions())
@settings(max_examples=200, deadline=None)
def test_split_data_matches_the_presentation_route(act):
    # the one reader against find_split_presentation and presentation_gsets:
    # split idempotents (on a standard carrier the points, p_i = e_i), maps,
    # roots, keys and AlgebraError messages
    from unittest import mock

    import pargal.paction as paction
    from pargal.gset import _component_from, certify
    from pargal.paction import _split_data

    ring, r = act.algebra.ring, act.algebra.rank
    standard = act.algebra.is_split()

    def split_fields(a):
        data = _split_data(a)
        maps = [unit.maps for unit in data.gsets]
        if data.basis is None:
            return [[int(t == i) for t in range(r)] for i in range(r)], Matrix.identity(ring, r), maps, data.kept
        return [list(col) for col in zip(*data.basis.rows)], data.to_coords, maps, data.kept

    with mock.patch.object(paction, "find_split_presentation", wraps=paction.find_split_presentation) as found:
        got = outcome(split_fields, act)
    # a standard carrier is read in place, with no presentation
    assert found.called != standard
    assert got == outcome(presentation_split_data, act)
    assert outcome(canonical_key, act) == outcome(split_order_key, act)
    if got[0] != "AlgebraError":
        data = _split_data(act)
        assert (data.basis is None) == standard
        # a point set hands its record over to every unit
        assert data.units == ring.crt_units
        if act.points is not None:
            assert all(unit is act.points for unit in data.gsets)
        for unit in data.gsets:
            assert unit == certify(act.group, unit.maps)
            assert sorted(y for x in unit.roots for y in _component_from(unit.maps, [None] * r, x)[0]) == list(range(r))
    if not standard:
        assert act.points is None
        return
    # the reader keeps every action with 0/1 data and no column with two
    # 1s that is a partial action, as the dense reference checks it
    stored = [x for m in act.maps for row in m.rows for x in row] + [x for e in act.idems for x in e.coords]
    columns = [list(col) for m in act.maps for col in zip(*m.rows)]
    readable = all(x in (0, 1) for x in stored) and all(col.count(1) <= 1 for col in columns)
    certified = readable and all(passed for _, passed, _ in report_of(reference_verify_partial_action(act)))
    assert (act.points is not None) == certified


def test_actions_on_points_trap_maps_that_are_no_partial_g_set():
    # every builder hands _action_on_points the maps of a partial G-set:
    # a_1 moves a point, a map that is not injective, and a_g with a_g a_g
    # undefined at a point of D_g raise the bug trap, with no fallback
    from pargal.algebra import Algebra
    from pargal.paction import _action_on_points

    z2 = make_cyclic(2)
    for maps in ([[1, 0], [1, 0]], [[0, 1], [0, 0]], [[0, 1], [1, None]]):
        with pytest.raises(AssertionError, match=r"^a_g fails the point-set certificate \(bug trap\)$"):
            _action_on_points(z2, Algebra.split(QQ, ["x", "y"]), maps, "a_g")
    act = _action_on_points(z2, Algebra.split(QQ, ["x", "y"]), [[0, 1], [1, 0]], "a_g")
    assert act._points == ([[0, 1], [1, 0]], [0], [0, 0]) and verify_partial_action(act).passed


def test_point_set_reader_refuses_all_but_0_1_permutation_data():
    z6 = example2(Z6)
    assert z6.points is not None
    # an unreduced 7 over Z/6 is stored data, not the residue 1
    assert perturbed(z6, maps={1: [[0, 0], [7, 0]]}).points is None
    assert perturbed(z6, idems={1: (0, 7)}).points is None
    # a column with two 1s sends a point to two points
    assert perturbed(z6, maps={0: [[1, 0], [1, 1]]}).points is None
    # a row with two 1s is two points sent to one: no injective a_1, so
    # the certificate fails
    assert perturbed(z6, maps={0: [[1, 1], [0, 0]]}).points is None
    # a carrier on another basis has no point set
    assert rebased(example2(), Matrix(QQ, [[1, 0], [1, 1]], 2)).points is None
    assert frobenius_f4().points is None


def points_action(ring, n, domains, maps):
    """Z_n on R^r from its point data: ``domains[g]`` the 0/1 coordinates of
    1_g and ``maps[g][i]`` the image of point i under a_g, or None."""
    from pargal.algebra import Algebra

    r = len(domains[0])
    A = Algebra.split(ring, [f"x{i}" for i in range(r)])
    mats = []
    for m in maps:
        rows = [[0] * r for _ in range(r)]
        for i, j in enumerate(m):
            if j is not None:
                rows[j][i] = 1
        mats.append(Matrix(ring, rows, r))
    return PartialAction(make_cyclic(n), A, [A.element(d) for d in domains], mats)


# a_1 = id and (P4) on points are the whole point-set certificate; one
# action for each that passes the other and fails the matrix checks
POINT_SET_FAILURES = [
    # Z_1 on R^2 with a_1 sending both points to the first: (P4) holds
    ("a_1 not id", 1, [(1, 1)], [(0, 0)], "(P2) S_1 = S and alpha_1 = id"),
    # Z_3 on R^2, every D_g = X, a_g = a_g2 = the swap: a_g a_g != a_g2
    ("P4 only", 3, [(1, 1)] * 3, [(0, 1), (1, 0), (1, 0)], "(P4) alpha_g alpha_h extends to alpha_gh"),
]


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=["Q", "F2", "Z6"])
@pytest.mark.parametrize("n, domains, maps, name", [c[1:] for c in POINT_SET_FAILURES],
                         ids=[c[0] for c in POINT_SET_FAILURES])
def test_point_set_certificate_fails_with_the_column_checks(ring, n, domains, maps, name):
    from pargal.gset import certify
    from pargal.paction import _verify_on_matrices

    act = points_action(ring, n, domains, maps)
    # 0/1 data with one 1 at most in each column, refused by the certificate
    assert certify(act.group, [list(m) for m in maps], [[c == 1 for c in d] for d in domains]) is None
    assert act.points is None
    report = report_of(verify_partial_action(act))
    assert report == report_of(_verify_on_matrices(act)) == report_of(reference_verify_partial_action(act))
    assert [check for check, passed, _ in report if not passed][0] == name


def reference_points_certified(group, maps, domains):
    """The point-set certificate composed point by point through dicts."""
    if any(j != i for i, j in enumerate(maps[group.identity])):
        return False
    # a_g extended by None -> None, and the identity on D_g extended likewise
    compose, restrict_to = [], []
    for a, dom in zip(maps, domains):
        compose.append(dict(enumerate(a)))
        restrict_to.append({i: i if d else None for i, d in enumerate(dom)})
        compose[-1][None] = restrict_to[-1][None] = None
    for g in group.elements():
        for h in group.elements():
            gh = maps[group.mul(g, h)]
            if [compose[g][x] for x in maps[h]] != [restrict_to[g][k] for k in gh]:
                return False
    return True


def itemgetter_points_certified(group, maps, domains):
    """The point-set certificate at all |G|^2 pairs (g, h), composing the
    maps with ``operator.itemgetter``."""
    from operator import itemgetter

    if any(j != i for i, j in enumerate(maps[group.identity])):
        return False
    # a_g and the identity on D_g as lists over the points and one more, r,
    # that stands for "undefined" and that each list sends to itself;
    # itemgetter(*f)(a) is then the composite a o f
    r = len(maps[group.identity])
    full = [[r if j is None else j for j in a] + [r] for a in maps]
    on = [[i if d else r for i, d in enumerate(dom)] + [r] for dom in domains]
    after = [itemgetter(*f) for f in full]
    return all(after[h](full[g]) == after[gh](on[g]) for g, row in enumerate(group.table) for h, gh in enumerate(row))


def walked_roots(group, maps, domains=None):
    """The roots of the components of the partial G-set of ``maps`` and
    ``domains``, or None: the certificate walk as it was before it numbered
    the components, marking each point reached."""
    if any(j != i for i, j in enumerate(maps[group.identity])):
        return None
    if domains is not None and any(
        [j is not None for j in maps[gi]] != list(map(bool, dom)) for gi, dom in zip(group.inverse, domains)
    ):
        return None
    reached = [False] * len(maps[group.identity])
    roots = []
    for x, done in enumerate(reached):
        if done:
            continue
        roots.append(x)
        phi = [a[x] for a in maps]
        dom = [g for g, y in enumerate(phi) if y is not None]
        points = [phi[g] for g in dom]
        for y in points:
            reached[y] = True
        if any([a[y] for y in points] != [phi[hg[g]] for g in dom] for a, hg in zip(maps, group.table)):
            return None
    return roots


def components(maps):
    """The components of the partial G-set of the point maps ``maps``,
    ordered by least point, and the component of each point: a second walk,
    from each point not yet reached, of its images under every map."""
    comp, orbits = [None] * len(maps[0]), []
    for p, k in enumerate(comp):
        if k is None:
            orbit = sorted({a[p] for a in maps if a[p] is not None})
            for q in orbit:
                comp[q] = len(orbits)
            orbits.append(orbit)
    return orbits, comp


@st.composite
def partial_maps(draw):
    """A group of order <= 4 with one partial map of r <= 4 points and one
    domain per element: a partial G-set restricted to r of its points and
    possibly edited, or maps and domains drawn freely, a_1 = id or not."""

    r = draw(st.integers(1, 4))
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        orbits = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=3))
        points = draw(st.permutations(gset_points(orbits)))
        r = min(r, len(points))
        act = gset_action(QQ, n, orbits, points[:r])
        maps = [list(m) for m in act.points.maps]
        domains = [[c == 1 for c in e.coords] for e in act.idems]
        g, i = draw(st.integers(0, n - 1)), draw(st.integers(0, r - 1))
        edit = draw(st.sampled_from(["none", "map", "domain"]))
        if edit == "map":
            maps[g][i] = draw(st.sampled_from([None] + list(range(r))))
        elif edit == "domain":
            domains[g][i] = not domains[g][i]
        return act.group, maps, domains
    group = draw(st.sampled_from([make_cyclic(n) for n in (1, 2, 3, 4)] + [klein_product().group]))
    image = st.lists(st.one_of(st.none(), st.integers(0, r - 1)), min_size=r, max_size=r)
    maps = [draw(image) for _ in group.elements()]
    if draw(st.booleans()):
        maps[group.identity] = list(range(r))
    domains = [draw(st.lists(st.booleans(), min_size=r, max_size=r)) for _ in group.elements()]
    return group, maps, domains


# groups of order up to 8 with every subgroup, for G-sets with stabilizers
COSET_GROUPS = [
    (g, all_subgroups(g)) for g in (make_cyclic(6), make_cyclic(8), make_product([make_cyclic(2), make_cyclic(4)]), s3())
]


@st.composite
def coset_point_sets(draw):
    """A multi-orbit G-set, a disjoint union of coset spaces G/H for
    subgroups H (Z_n/<d>, S3/H, ...), restricted to r <= 8 of its points,
    with D_g the domain of a_(g^-1); then one map entry or one domain bit
    edited, or none."""
    group, subgroups = draw(st.sampled_from(COSET_GROUPS))
    orbits = draw(st.lists(st.sampled_from(subgroups), min_size=1, max_size=3))
    # y = (o, gH) as the frozenset gH, translated by h to hgH
    cosets = {(o, frozenset(group.mul(g, k) for k in h.members)) for o, h in enumerate(orbits) for g in group.elements()}
    ys = draw(st.permutations(sorted(cosets, key=lambda y: (y[0], sorted(y[1])))))
    ys = ys[: draw(st.integers(1, min(8, len(ys))))]
    pos = {y: i for i, y in enumerate(ys)}
    maps = [[pos.get((o, frozenset(group.mul(g, x) for x in c))) for o, c in ys] for g in group.elements()]
    domains = [[j is not None for j in maps[group.inv(g)]] for g in group.elements()]
    g, i = draw(st.sampled_from(list(group.elements()))), draw(st.integers(0, len(ys) - 1))
    edit = draw(st.sampled_from(["none", "map", "domain"]))
    if edit == "map":
        maps[g][i] = draw(st.sampled_from([None] + list(range(len(ys)))))
    elif edit == "domain":
        domains[g][i] = not domains[g][i]
    return group, maps, domains


@given(st.one_of(partial_maps(), coset_point_sets()))
@settings(max_examples=600, deadline=None)
def test_point_set_certificate_matches_the_pointwise_reference(case):
    from pargal.gset import certify

    certified = certify(*case) is not None
    assert certified == reference_points_certified(*case) == itemgetter_points_certified(*case)
    # with no domains they are read off the maps, as _action_on_points does
    group, maps, _ = case
    own = [[j is not None for j in maps[gi]] for gi in group.inverse]
    assert (certify(group, maps) is not None) == reference_points_certified(group, maps, own)


def regular_z4_with_a_flipped_domain_bit():
    maps = [[(g + i) % 4 for i in range(4)] for g in range(4)]
    domains = [[True] * 4 for _ in range(4)]
    domains[2][1] = False
    return make_cyclic(4), maps, domains


# the cases the per-component argument of the certificate turns on
NAMED_POINT_SETS = [
    # a_g merges the orbit {0, 1} with the fixed point 2: not injective
    ("merges two orbits", lambda: (make_cyclic(2), [[0, 1, 2], [1, 0, 0]], [[True] * 3] * 2), False),
    ("regular Z4, D_(g^2) bit flipped", regular_z4_with_a_flipped_domain_bit, False),
    # a_g fixes the point, so K = <g> = Z_3, but a_(g^2) is undefined there
    ("fixed by a_g, a_(g^-1) undefined", lambda: (make_cyclic(3), [[0], [0], [None]], [[1], [0], [1]]), False),
    # from x = 0, phi(g^2) = 1 and a_(g^2)(1) = 0, but a_(g^4)(0) = a_g(0) is undefined
    ("a_h defined where a_hg is not", lambda: (make_cyclic(3), [[0, 1], [None, 0], [1, 0]], [[1, 1], [1, 1], [0, 1]]),
     False),
    # root 0 reaches only itself; root 1 reaches 0 through a_g
    ("later root meets an earlier component", lambda: (make_cyclic(2), [[0, 1], [None, 0]], [[1, 1], [0, 1]]), False),
    ("regular Z3", lambda: (make_cyclic(3), [[(g + i) % 3 for i in range(3)] for g in range(3)], [[1] * 3] * 3), True),
]


@pytest.mark.parametrize("build, expected", [c[1:] for c in NAMED_POINT_SETS],
                         ids=[c[0] for c in NAMED_POINT_SETS])
def test_named_point_sets_decide_alike_under_every_certificate(build, expected):
    from pargal.gset import certify

    case = build()
    certified = certify(*case) is not None
    assert certified == reference_points_certified(*case) == itemgetter_points_certified(*case) == expected


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=["Q", "F2", "Z6"])
def test_sparse_galois_verify_matches_the_dense_sums(ring):
    # the witness of each Galois corpus action, and corrupted copies: one y
    # scaled by 2 or by 7 (unreduced), one pair dropped, one pair doubled
    from pargal.algebra import Element

    for act in standard_corpus(ring).values():
        coords = galois_coordinates(act)
        if coords is None:
            continue
        assert coords.verify() and dense_galois_verify(coords)
        A = act.algebra
        (x, y), rest = coords.pairs[0], coords.pairs[1:]
        for pairs in (
            [(x, A.element([2 * c for c in y.coords]))] + rest,
            [(x, Element(A, tuple(7 * c for c in y.coords)))] + rest,
            rest,
            coords.pairs + coords.pairs[:1],
        ):
            probe = GaloisCoordinates(act, pairs)
            assert probe.verify() == dense_galois_verify(probe)


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=["Q", "F2", "Z6"])
def test_galois_verify_sums_through_the_point_maps(ring, monkeypatch):
    # the corpus actions are certified point sets: verify applies no
    # alpha_g as a matrix and still rejects a pair whose y is moved to
    # another point, or scaled by 7 unreduced
    from pargal.algebra import Element

    applied = []
    apply = PartialAction.apply
    monkeypatch.setattr(PartialAction, "apply", lambda act, g, x: applied.append(g) or apply(act, g, x))
    for act in standard_corpus(ring).values():
        coords = galois_coordinates(act)
        if coords is None:
            continue
        assert coords.verify() and not applied
        A = act.algebra
        (x, y), rest = coords.pairs[0], coords.pairs[1:]
        moved = [(x, A.basis_element(1 % A.rank))] + rest
        scaled = [(x, Element(A, tuple(7 * c for c in y.coords)))] + rest
        for pairs in (moved, scaled):
            probe = GaloisCoordinates(act, pairs)
            got = probe.verify()
            assert not applied
            assert got == dense_galois_verify(probe)
            applied.clear()
        assert not GaloisCoordinates(act, moved).verify() or A.rank == 1


def test_iso_check_reuses_the_codes_of_canonical_key(monkeypatch):
    # canonical_key computes the rooted code of each point once and keeps
    # it on the split data; iso_check reads the kept codes back
    import pargal.gset as gset

    a = standard_corpus()["ex2"]
    b = relabel(a, list(reversed(range(a.algebra.rank))))
    computed = []
    component_from = gset._component_from

    def counted(maps, kept, x, colour=None):
        if kept[x] is None:
            computed.append(x)
        return component_from(maps, kept, x, colour)

    monkeypatch.setattr(gset, "_component_from", counted)
    assert canonical_key(a) == canonical_key(b)
    assert sorted(computed) == sorted(2 * list(range(a.algebra.rank)))
    computed.clear()
    assert iso_check(a, b).status == "iso"
    assert iso_check(b, a).status == "iso"
    assert not computed


# ExtensionClass.certify decides a certified point set on its points: the
# fixed ring has rank 1 when the partial G-set is connected, and coordinates
# exist when no a_g with g != 1 fixes a point.  A rebased copy takes the
# matrix route, which must decide the same, with the same message.


@st.composite
def partial_zn_sets(draw, ring=None, n=None):
    """0/1 data of a partial Z_n-set (n <= 6) over Q, F_2 or Z/6, in a drawn
    basis order: one to three orbits Z_n / <d>, the regular one at d = n as
    in a subset class, restricted to a drawn nonempty set of points.  Every
    partial Z_n-set is one of these, since it is the restriction of its
    globalization (Abadie; Exel), so the data may be disconnected, have
    fixed points, both or neither.  ``ring`` and ``n`` are drawn unless
    given."""
    if ring is None:
        ring = draw(st.sampled_from(ORACLE_RINGS))
    if n is None:
        n = draw(st.integers(1, 6))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    orbits = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=3))
    orbit_points = [(k, x) for k, size in enumerate(orbits) for x in range(size)]
    kept = draw(st.lists(st.sampled_from(orbit_points), min_size=1, max_size=8, unique=True))
    pos = {p: i for i, p in enumerate(kept)}
    maps = [[pos.get((k, (x + g) % orbits[k])) for k, x in kept] for g in range(n)]
    # D_g is the domain of a_(g^-1)
    domains = [[int(j is not None) for j in maps[(n - g) % n]] for g in range(n)]
    return points_action(ring, n, domains, maps)


def certify_outcome(act):
    from pargal.harrison import CertificationError, ExtensionClass

    try:
        ExtensionClass.certify(act)
    except CertificationError as exc:
        return str(exc)
    return "certified"


def has_fixed_point(group, maps):
    """Whether some a_g with g != 1 of the point maps fixes a point, read at
    every point: the oracle of the root read gset.fixes_a_root."""
    return any(j == i for g in group.elements() if g != group.identity for i, j in enumerate(maps[g]))


@given(partial_zn_sets(), st.data())
@settings(max_examples=60, deadline=None)
def test_point_decisions_match_the_matrix_route(act, data):
    from pargal.paction import galois_coordinates

    points = act.points.maps
    r = act.algebra.rank
    copy = rebased(act, data.draw(unitriangular(act.algebra.ring, r)))
    # a permutation matrix keeps a point set, and rank 1 over F_2 has no
    # other basis
    assume(copy.points is None)
    try:
        outcome = certify_outcome(copy)
    except AlgebraError as exc:
        # over Z/6 the invariants that the matrix route solves for may come
        # out as a Howell form with more rows than their rank, and the
        # carrier is refused; the point route has no such refusal
        assert act.algebra.ring == Z6, exc
        assert str(exc).startswith("subalgebra: generating rows are not a free basis over Z/6")
    else:
        assert outcome == certify_outcome(act)
    assert has_fixed_point(act.group, points) == (galois_coordinates(copy) is None)


@st.composite
def rooted_code_pairs(draw):
    """Two actions of partial_zn_sets with one group and base ring, each
    kept on its points, rebased, or over Z/6 CRT-glued with a relabelled
    copy of its star; the last two read their partial G-sets through
    _partial_gsets."""
    ring = draw(st.sampled_from(ORACLE_RINGS))
    n = draw(st.integers(1, 6))

    def draw_action():
        act = draw(partial_zn_sets(ring, n))
        r = act.algebra.rank
        route = draw(st.sampled_from(["points", "rebased", "glued"] if ring == Z6 else ["points", "rebased"]))
        if route == "rebased":
            return rebased(act, draw(unitriangular(ring, r)))
        if route == "glued":
            return crt_glue(act, relabel(inverse_action(act), draw(st.permutations(range(r)))))
        return act

    return draw_action(), draw_action()


@given(rooted_code_pairs(), st.data())
@settings(max_examples=150, deadline=None)
def test_rooted_codes_match_the_breadth_first_codes(pair, data):
    # any two roots, in one action or in two, with or without colours,
    # have equal first-reach codes exactly when their breadth-first codes
    # are equal, and then both pair the points alike; the keys built from
    # the two codes tell the same actions apart
    from itertools import product

    from pargal.gset import _component_from
    from pargal.paction import _split_data

    roots = []
    for act in pair:
        r = act.algebra.rank
        colour = data.draw(st.lists(st.booleans(), min_size=r, max_size=r))
        for unit, c, x in product(_split_data(act).gsets, (None, colour), range(r)):
            roots.append((c is None, _component_from(unit.maps, [None] * r, x, c), breadth_first_code(unit.maps, x, c)))
    for (plain, new, old), (plain2, new2, old2) in product(roots, repeat=2):
        if plain == plain2:
            assert (new[1] == new2[1]) == (old[1] == old2[1])
            if new[1] == new2[1]:
                assert dict(zip(new[0], new2[0])) == dict(zip(old[0], old2[0]))
    a, b = pair
    assert (canonical_key(a) == canonical_key(b)) == (breadth_first_key(a) == breadth_first_key(b))


# The first reads of an action on points (1_g, the split table) and the
# root reads of its certificate, against the eager constructions that
# tests/test_harrison.py keeps (eager_idems, eager_split_table), the
# roots of walked_roots, the components of components and has_fixed_point,
# over subset classes, their stars, products, idempotent classes, quotients
# and CRT-glued pairs.


@given(subset_class_pairs(), st.data())
@settings(max_examples=60, deadline=None)
def test_first_reads_and_root_reads_match_the_eager_oracles(pair, data):
    from pargal.envelope import globalize
    from pargal.harrison import ExtensionClass, harrison_product, idempotent_class
    from pargal.gset import fixes_a_root
    from pargal.paction import _split_data
    from pargal.quotient import quotient_action, quotient_via_globalization
    from test_harrison import cyclic_subgroups, eager_idems, eager_split_table

    a, b = pair
    ring, n = a.action.algebra.ring, a.group.order
    product = harrison_product(a, b)
    sub = data.draw(st.sampled_from(cyclic_subgroups(a.group)))
    # a partial Z_n-set that may be disconnected and have fixed points
    z = data.draw(partial_zn_sets(ring, n))
    actions = [
        a.action,
        b.star().action,
        product.action,
        idempotent_class(a.action).action,
        quotient_action(product.action, sub).action,
        quotient_via_globalization(product.action, sub).action,
        globalize(product.action).enveloping_action,
        restrict(product.action, sub),
        z,
        inverse_action(z),
        restrict(z, sub),
        quotient_action(z, sub).action,
        globalize(z).enveloping_action,
    ]
    if ring == Z6:
        # over Z/6 a glued pair reads one partial G-set per CRT unit, and the
        # square of a glued class takes the matrix route of harrison_product
        r = a.action.algebra.rank
        glued = crt_glue(a.action, relabel(a.star().action, data.draw(st.permutations(range(r)))))
        actions.append(glued)
        try:
            c = ExtensionClass.certify(glued)
            actions.append(harrison_product(c, c).action)
        except AlgebraError as exc:
            # the Z/6 refusal of the matrix route's invariants (ROADMAP item 11)
            assert str(exc).startswith("subalgebra: generating rows are not a free basis over Z/6"), exc
        r = z.algebra.rank
        actions.append(crt_glue(z, relabel(inverse_action(z), data.draw(st.permutations(range(r))))))

    def outcome(act):
        try:
            return certify_outcome(act)
        except AlgebraError as exc:
            return str(exc)

    for act in actions:
        if act._points and act._idems is None:
            assert act.idems == eager_idems(act)
        if act.algebra._table is None:
            assert act.algebra.table == eager_split_table(act.algebra.ring, act.algebra.rank)
        points = act.points
        gsets = [points] if points is not None else _split_data(act).gsets
        for unit in gsets:
            orbits, comp = components(unit.maps)
            assert unit.roots == walked_roots(act.group, unit.maps) == [orbit[0] for orbit in orbits]
            assert unit.comp == comp
            assert fixes_a_root(act.group, unit) == has_fixed_point(act.group, unit.maps)
        # a copy on written matrices and a written table, read afresh
        assert outcome(act) == outcome(relabel(act, list(range(act.algebra.rank))))


@given(partial_zn_sets(), st.data())
@settings(max_examples=200, deadline=None)
def test_the_certificate_record_matches_the_walks_it_replaced(act, data):
    # the one walk of gset.certify against the walk that kept only the
    # roots, the second walk of components, the union-find orbits and the
    # pointwise reference, on a partial Z_n-set, its restriction to each
    # cyclic subgroup, and its maps or domains with one entry perturbed
    from pargal.gset import certify
    from test_harrison import cyclic_subgroups, union_find_quotient

    group, maps = act.group, act.points.maps
    r = len(maps[0])
    cases = [(group, maps)] + [(sub.as_group(), [maps[m] for m in sub.members]) for sub in cyclic_subgroups(group)]
    perturbed = [list(a) for a in maps]
    g, i = data.draw(st.integers(0, group.order - 1)), data.draw(st.integers(0, r - 1))
    perturbed[g][i] = data.draw(st.sampled_from([None, *range(r)]))
    cases.append((group, perturbed))
    for grp, case in cases:
        own = [[j is not None for j in case[gi]] for gi in grp.inverse]
        domains = [list(d) for d in own]
        if data.draw(st.booleans()):
            h, k = data.draw(st.integers(0, grp.order - 1)), data.draw(st.integers(0, r - 1))
            domains[h][k] = not domains[h][k]
        for doms in (own, domains):
            got = certify(grp, case, doms)
            assert (got is None) == (not reference_points_certified(grp, case, doms))
            assert (got is None) == (walked_roots(grp, case, doms) is None)
        got = certify(grp, case)
        assert got == certify(grp, case, own)
        if got is None:
            continue
        orbits, comp = components(case)
        found = union_find_quotient(r, grp.identity, (), case, lambda _, a, p: a[p])
        assert got.maps is case
        assert got.roots == walked_roots(grp, case) == [orbit[0] for orbit in orbits]
        assert got.comp == comp == found[2]
