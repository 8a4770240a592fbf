"""Structure-constant algebra tests: products, tensors, ideals, splitting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pargal.scalars import QQ, Matrix, Modular
from pargal.algebra import (
    Algebra,
    AlgebraError,
    AlgebraMorphism,
    algebra_on_module,
    find_split_presentation,
    make_algebra,
    product_over_ideals,
    subalgebra_from_constraints,
    tensor,
    unital_ideal,
)


def project_coords(prod, idx, coords):
    """Product coordinates -> parent coordinates of component ``idx`` of the
    ProductAlgebra ``prod``: the component block times its ideal basis."""
    comp = prod.components[idx]
    block = list(coords[comp.offset : comp.offset + comp.rank])
    out = [0] * prod.parent.rank
    add, mul = prod.parent.ring.add, prod.parent.ring.mul
    for c, row in zip(block, comp.ideal.basis.rows):
        for t, v in enumerate(row):
            if c != 0 and v != 0:
                out[t] = add(out[t], mul(c, v))
    return out


def split_constants(n):
    """Dense structure constants of R^n with componentwise product."""
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        c[i][i][i] = 1
    return c


def test_make_algebra_split_r3():
    a = make_algebra(QQ, ["e1", "e2", "e3"], split_constants(3), [1, 1, 1])
    assert a.rank == 3
    e1, e2, e3 = a.basis()
    assert (e1 * e2).is_zero()
    assert e1 + e2 + e3 == a.one()


def test_make_algebra_rank_one_base():
    a = make_algebra(QQ, ["1"], [[[1]]], [1])
    assert a.one() * a.one() == a.one()


def test_make_algebra_rejects_noncommutative():
    # b1*b2 = b1 but b2*b1 = 0
    c = [[[0, 0], [1, 0]], [[0, 0], [0, 1]]]
    with pytest.raises(AlgebraError, match="not commutative"):
        make_algebra(QQ, ["b1", "b2"], c, [0, 1])


def test_make_algebra_rejects_nonassociative():
    # commutative magma that is not associative: b2*b2 = b2? craft one:
    # b2*b2 = b1, b1*b2 = b2, b1*b1 = b1 with unit b1 fails associativity:
    # (b2 b2) b2 = b1 b2 = b2 vs b2 (b2 b2) = b2 -- associative; use instead
    # b2*b2 = b2 + b1? keep it simple: b2*b2 = b1, b2*b1 = 0 breaks unit first,
    # so test associativity with a genuinely broken triple and valid unit.
    c = [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]
    # here (b2 b2) b2 = (b1 + b2) b2 = b2 + b1 + b2 while b2 (b2 b2) is equal,
    # so perturb: make b2*b2 = b1 only
    c = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    # b2^2 = b1: this is Q[x]/(x^2-1), associative. Break it asymmetrically:
    c[1][1] = [1, 1]
    # now b2^2 = b1 + b2: (b2 b2) b2 = b2 + b1 + b2 = b1 + 2 b2;
    # b2 (b2 b2) equals the same by commutativity... associativity holds for
    # any commutative monogenic table? No: check ((b2 b2) b2) vs (b2 (b2 b2))
    # is forced equal. Use rank 3 with a broken mixed triple instead.
    c3 = split_constants(3)
    c3[1][2] = [1, 0, 0]
    c3[2][1] = [1, 0, 0]
    with pytest.raises(AlgebraError, match="not associative|unit"):
        make_algebra(QQ, ["e1", "e2", "e3"], c3, [1, 1, 1])


def test_element_products_in_split_r3():
    a = Algebra.split(QQ, ["e1", "e2", "e3"])
    e1, e2, e3 = a.basis()
    assert (e1 * e2).is_zero()
    x = a.element([2, Fraction(1, 2), -1])
    assert a.one() * x == x
    assert (e1 + e2) * (e2 + e3) == e2


def test_tensor_unit_factor():
    r1 = Algebra.base(QQ)
    b = Algebra.split(QQ, ["u", "v"])
    t = tensor(r1, b)
    assert t.algebra.rank == 2
    # b |-> 1 (x) b is an algebra isomorphism onto the tensor
    for x in b.basis():
        for y in b.basis():
            assert t.pair(r1.one(), x * y) == t.pair(r1.one(), x) * t.pair(r1.one(), y)


def test_tensor_split_squares():
    a = Algebra.split(QQ, ["a1", "a2"])
    t = tensor(a, a)
    # split R^2 (x) split R^2 = split R^4: basis products are diagonal
    for i in range(4):
        for j in range(4):
            prod = t.algebra.mul_coords(
                [1 if k == i else 0 for k in range(4)],
                [1 if k == j else 0 for k in range(4)],
            )
            expected = [1 if (k == i and i == j) else 0 for k in range(4)]
            assert prod == expected


def test_tensor_orthogonality_across_factors():
    a = Algebra.split(QQ, ["e1", "e2"])
    t = tensor(a, a)
    e1, e2 = a.basis()
    assert (t.pair(e1, e2) * t.pair(e2, e1)).is_zero()


def swap_morphism(t_ab, t_ba):
    """Coordinate swap A(x)B -> B(x)A (t_ba must be the swapped product)."""
    n, m = t_ab.left.rank, t_ab.right.rank
    mat = Matrix.zero(t_ab.algebra.ring, n * m, n * m)
    for i in range(n):
        for j in range(m):
            mat.rows[t_ba.index(j, i)][t_ab.index(i, j)] = 1
    return AlgebraMorphism(t_ab.algebra, t_ba.algebra, mat)


def test_tensor_swap_is_multiplicative():
    a = Algebra.split(QQ, ["a1", "a2"])
    b = make_algebra(QQ, ["1", "s"], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [1, 0])
    t_ab = tensor(a, b)
    t_ba = tensor(b, a)
    swap = swap_morphism(t_ab, t_ba)
    assert swap.multiplicative_failure() is None
    assert swap.is_unital()


def test_multiplicative_failure_names_a_square():
    # e1 -> 2 e1 keeps every product of two distinct basis vectors and
    # breaks only e1 e1 = e1
    a = Algebra.split(QQ, ["e1", "e2"])
    f = AlgebraMorphism(a, a, Matrix(QQ, [[2, 0], [0, 1]]))
    assert f.multiplicative_failure() == ("e1", "e1")


def test_unital_ideal_and_product():
    a = Algebra.split(QQ, ["e1", "e2", "e3"])
    e1, e2, e3 = a.basis()
    full = unital_ideal(a, a.one())
    prod = product_over_ideals([full])
    assert prod.algebra.rank == 3
    assert prod.algebra.unit == (1, 1, 1)

    # ranks 2 + 1 + 0 + 1 with a zero ideal in the middle
    i1 = unital_ideal(a, e1 + e2)
    i2 = unital_ideal(a, e3)
    iz = unital_ideal(a, a.zero())
    i3 = unital_ideal(a, e2)
    prod = product_over_ideals([i1, i2, iz, i3])
    assert prod.algebra.rank == 4
    assert iz.rank == 0
    # unit is the tuple of generators
    assert project_coords(prod, 0, prod.algebra.unit) == list((e1 + e2).coords)
    assert project_coords(prod, 2, prod.algebra.unit) == [0, 0, 0]
    # from_components reads each component's coordinates in its own block
    parts = [list(x.coords) for x in (e1 + e2 * 3, e3 * 2, a.zero(), e2 * 5)]
    elem = prod.from_components(parts)
    assert elem.coords == (1, 3, 2, 5)
    assert [project_coords(prod, i, elem.coords) for i in range(4)] == parts
    # and refuses a vector outside its ideal, the zero ideal included
    for idx, wrong in ((1, e1), (2, e2), (3, e1 + e2)):
        outside = parts[:idx] + [list(wrong.coords)] + parts[idx + 1 :]
        with pytest.raises(AlgebraError, match=f"^element is outside ideal component {idx}$"):
            prod.from_components(outside)
    with pytest.raises(AlgebraError, match="component count mismatch"):
        prod.from_components(parts[:3])


def test_subalgebra_from_constraints_trivial():
    a = Algebra.split(QQ, ["e1", "e2"])
    sub = subalgebra_from_constraints(a, Matrix.zero(QQ, 0, 2))
    assert sub.algebra.rank == 2


def test_subalgebra_e1_plus_e3():
    # pin the coordinates of e1 and e3 equal inside split R^3
    a = Algebra.split(QQ, ["e1", "e2", "e3"])
    sub = subalgebra_from_constraints(a, Matrix(QQ, [[1, 0, -1]]))
    assert sub.algebra.rank == 2
    assert sub.basis.rows == [[1, 0, 1], [0, 1, 0]]
    # round trip through the inclusion
    for i in range(2):
        coords = [1 if t == i else 0 for t in range(2)]
        back = sub.express(sub.include_coords(coords))
        assert back == coords


def test_subalgebra_unit_absent():
    a = Algebra.split(QQ, ["e1", "e2"])
    with pytest.raises(AlgebraError, match="unit .* absent"):
        subalgebra_from_constraints(a, Matrix(QQ, [[0, 1]]))
    # e1 lies in the span of e1 and e2 but is not its identity
    with pytest.raises(AlgebraError, match="provided unit does not act as identity on the span"):
        algebra_on_module(a, Matrix.identity(QQ, 2), [1, 0])


def test_split_presentation_given_idempotent_basis():
    a = Algebra.split(QQ, ["e1", "e2", "e3"])
    pres = find_split_presentation(a)
    assert pres is not None
    # the basis vectors in point order: e_0, e_1, e_2
    assert [e.coords for e in pres.idempotents] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_split_presentation_recovered_from_mixed_basis():
    # split R^2 in basis {1, e1 - e2}: second basis vector squares to 1
    a = make_algebra(QQ, ["1", "d"], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [1, 0])
    pres = find_split_presentation(a)
    assert pres is not None
    coords = sorted(e.coords for e in pres.idempotents)
    assert coords == [(Fraction(1, 2), Fraction(-1, 2)), (Fraction(1, 2), Fraction(1, 2))]


def test_split_presentation_absent_for_nilpotents():
    # Q[x]/(x^2): 1, x with x^2 = 0
    a = make_algebra(QQ, ["1", "x"], [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0])
    assert find_split_presentation(a) is None


def test_split_presentation_over_f2():
    a = Algebra.split(Modular(2), ["e1", "e2"])
    pres = find_split_presentation(a)
    assert pres is not None
    assert len(pres.idempotents) == 2


def test_split_presentation_over_z4():
    from pargal.algebra import _split_over_field

    ring = Modular(4)
    # Z/4[d]/(d^2-1) is not split: 2 is not a unit, so (1 +- d)/2 fail to exist
    a = make_algebra(ring, ["1", "d"], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [1, 0])
    assert find_split_presentation(a) is None
    # (Z/4)^2 in the scrambled free basis {u = e1, v = e1 + e2 = 1}
    b = make_algebra(ring, ["u", "v"], [[[1, 0], [1, 0]], [[1, 0], [0, 1]]], [0, 1])
    pres = find_split_presentation(b)
    assert pres is not None
    assert sorted(e.coords for e in pres.idempotents) == [(1, 0), (3, 1)]
    # (Z/4)^2 on the basis c1 = (1, 1) = 1, c2 = (2, 3), so c2^2 = (0, 1) =
    # 2 c1 + c2.  Mod 2 the idempotents are c2 and c1 + c2, coordinates
    # (0, 1) and (1, 1); over Z/4 they are (2, 3) and (3, 0), which square
    # to (0, 1) and (1, 0), so no candidate is idempotent and the Hensel
    # step must lift each
    c = make_algebra(ring, ["c1", "c2"], [[[1, 0], [0, 1]], [[0, 1], [2, 1]]], [1, 0])
    mod_2 = _split_over_field(c.over(Modular(2)))
    assert sorted(e.coords for e in mod_2) == [(0, 1), (1, 1)]
    assert not any(c.element(e.coords).is_idempotent() for e in mod_2)
    e1, e2 = find_split_presentation(c).idempotents
    # e_1 = 3 c1 + 3 c2 = (9, 12) and e_2 = 2 c1 + c2 = (4, 5), mod 4
    assert (e1.coords, e2.coords) == ((3, 3), (2, 1))
    assert e1.is_idempotent() and e2.is_idempotent()
    assert (e1 * e2).is_zero()
    assert e1 + e2 == c.one()


def test_split_presentation_over_z6():
    ring = Modular(6)
    a = Algebra.split(ring, ["e1", "e2"])
    pres = find_split_presentation(a)
    assert pres is not None
    assert [e.coords for e in pres.idempotents] == [(1, 0), (0, 1)]


def test_zn_splitting_glues_the_sorted_idempotents_of_each_component(monkeypatch):
    # over Z/6 any pairing of the idempotents mod 2 with those mod 3 glues
    # to a split presentation; the i-th of each in sorted order are paired,
    # so the order a component's splitting lists them in does not matter
    import pargal.algebra as algebra

    a = Algebra(Modular(6), ["e1", "e2", "e3"], {(i, i): ((i, 1),) for i in range(3)}, [1, 1, 1])
    want = [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert [e.coords for e in algebra._split_over_zn(a)] == want
    split = algebra._split_over_field
    monkeypatch.setattr(algebra, "_split_over_field", lambda b: split(b)[::-1] if b.ring == Modular(3) else split(b))
    assert [e.coords for e in algebra._split_over_zn(a)] == want


@pytest.mark.parametrize("ring", [QQ, Modular(2), Modular(6)], ids=["Q", "F2", "Z6"])
@pytest.mark.parametrize("perm", [[0], [1, 0], [3, 0, 4, 2, 1]], ids=["rank1", "rank2", "rank5"])
def test_standard_basis_presentation_matches_the_splitting(ring, perm):
    # R^r with the split table entered in permuted order under other labels
    # is Algebra.split, so its presentation is read off the basis; the
    # general splitting of the same carrier must give the same idempotents,
    # both sorted by descending coordinate tuple
    from pargal.algebra import _split_over_field, _split_over_zn

    r = len(perm)
    labels = [f"x{p}" for p in perm]
    a = Algebra(ring, labels, {(p, p): ((p, 1),) for p in perm}, [1] * r)
    assert a == Algebra.split(ring, labels)
    pres = find_split_presentation(a)
    pres.check()
    general = _split_over_field(a) if ring.is_field else _split_over_zn(a)
    assert [e.coords for e in pres.idempotents] == sorted((e.coords for e in general), reverse=True)


small_ranks = st.integers(1, 3)


@given(small_ranks, small_ranks)
@settings(max_examples=20, deadline=None)
def test_tensor_of_split_is_split(n, m):
    a = Algebra.split(QQ, [f"a{i}" for i in range(n)])
    b = Algebra.split(QQ, [f"b{i}" for i in range(m)])
    t = tensor(a, b)
    pres = find_split_presentation(t.algebra)
    assert pres is not None
    assert len(pres.idempotents) == n * m
    pres.check()


# -- validate on the sparse table against the dense loops it replaced ---------


def reference_validate(algebra):
    """The checks of Algebra.validate through dense mul_coords products,
    in the same loop order; the message of the first failure, or None."""
    n = algebra.rank
    table = algebra.table
    for i in range(n):
        for j in range(i, n):
            if sorted(table[i][j]) != sorted(table[j][i]):
                return f"not commutative: {algebra.labels[i]}*{algebra.labels[j]} != {algebra.labels[j]}*{algebra.labels[i]}"
    basis = [[1 if t == i else 0 for t in range(n)] for i in range(n)]
    for i in range(n):
        if tuple(algebra.mul_coords(algebra.unit, basis[i])) != tuple(basis[i]):
            return f"unit does not fix basis vector {algebra.labels[i]}"
    for i in range(n):
        for j in range(n):
            ij = algebra.mul_coords(basis[i], basis[j])
            for l in range(n):
                left = algebra.mul_coords(ij, basis[l])
                right = algebra.mul_coords(basis[i], algebra.mul_coords(basis[j], basis[l]))
                if left != right:
                    return f"not associative on ({algebra.labels[i]}, {algebra.labels[j]}, {algebra.labels[l]})"
    return None


def validate_message(algebra):
    try:
        algebra.validate()
    except AlgebraError as exc:
        return str(exc)
    return None


@st.composite
def structure_tables(draw):
    """Rank 1-3 tables over Q, F_2 and Z/6: a split, tensor or F_4 table
    with some constants changed symmetrically (so that the unit and
    associativity checks are reached) and perhaps one more changed, with
    its unit or a drawn one; or b_0 = 1 with random symmetric products of
    the other basis vectors, which reach the associativity check."""
    ring = draw(st.sampled_from([QQ, Modular(2), Modular(6)]))
    values = st.sampled_from([0, 1, 2, -1, Fraction(1, 2)]) if ring == QQ else st.integers(0, 6)
    kind = draw(st.sampled_from(["split", "tensor", "f4", "random", "unital"]))
    if kind == "unital":
        n = draw(st.integers(2, 3))
        dense = [[[0] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            dense[0][i][i] = dense[i][0][i] = 1
        for i in range(1, n):
            for j in range(i, n):
                for k in range(n):
                    dense[i][j][k] = dense[j][i][k] = draw(values)
        return Algebra(ring, [f"b{i}" for i in range(n)], dense, [1] + [0] * (n - 1), validate=False)
    if kind == "split":
        base = Algebra.split(ring, [f"e{i}" for i in range(draw(st.integers(1, 3)))])
    elif kind == "tensor":
        base = tensor(Algebra.split(ring, ["a"]), Algebra.split(ring, ["b", "c"])).algebra
    elif kind == "f4":
        base = make_algebra(ring, ["1", "x"], [[[1, 0], [0, 1]], [[0, 1], [1, 1]]], [1, 0])
    else:
        base = Algebra.split(ring, [f"e{i}" for i in range(draw(st.integers(1, 3)))])
    n = base.rank
    dense = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k, c in base.table[i][j]:
                dense[i][j][k] = c
    for _ in range(draw(st.integers(0 if kind != "random" else n, n + 1))):
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        dense[i][j][k] = dense[j][i][k] = draw(values)
    if draw(st.booleans()):
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        dense[i][j][k] = draw(values)
    unit = list(base.unit) if draw(st.booleans()) else [draw(values) for _ in range(n)]
    return Algebra(ring, base.labels, dense, unit, validate=False)


@given(structure_tables())
@settings(max_examples=300, deadline=None)
def test_validate_matches_the_dense_loops(algebra):
    assert validate_message(algebra) == reference_validate(algebra)


@pytest.mark.parametrize("ring", [QQ, Modular(2), Modular(6)], ids=["Q", "F2", "Z6"])
def test_split_is_the_diagonal_table_of_the_constructor(ring):
    for n in range(6):
        labels = [f"e{i}" for i in range(n)]
        got = Algebra.split(ring, labels)
        want = Algebra(ring, labels, {(i, i): ((i, 1),) for i in range(n)}, [1] * n, validate=False)
        # equality compares the ring, labels, unit and table
        assert got == want and got.rank == n and hash(got) == hash(want) and got.is_split()
        got.validate()
