"""Linear algebra kernel tests, with brute-force module oracles."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pargal.scalars import (
    QQ,
    LinearSystem,
    Matrix,
    Modular,
    ShapeError,
    canonical_row_form,
    crt_components,
    intersect_modules,
    invertible,
    kernel,
    module_contains,
    modules_equal,
    parse_ring,
    solve,
)


def enumerate_row_module(rows, n, ncols=None):
    """Brute-force row module of a matrix over Z/n as a set of tuples."""
    if not rows:
        return {(0,) * (ncols or 0)}
    ncols = len(rows[0])
    out = set()
    for coeffs in product(range(n), repeat=len(rows)):
        v = tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % n for j in range(ncols))
        out.add(v)
    return out


def test_canonical_identity_over_q():
    m = Matrix.identity(QQ, 3)
    assert canonical_row_form(m) == m


def test_canonical_zero_matrix():
    m = Matrix.zero(QQ, 2, 3)
    assert canonical_row_form(m).nrows == 0
    z6 = Matrix.zero(Modular(6), 2, 3)
    assert canonical_row_form(z6).nrows == 0


def test_canonical_howell_single_row_z6_matches_enumeration():
    ring = Modular(6)
    m = Matrix(ring, [[2, 4]])
    h = canonical_row_form(m)
    assert enumerate_row_module(h.rows, 6) == enumerate_row_module([[2, 4]], 6)
    # canonical: same module in another presentation gives the identical form
    m2 = Matrix(ring, [[4, 2], [2, 4]])
    assert canonical_row_form(m2) == h


def test_canonical_howell_annihilator_row():
    # (2,1) over Z/6 needs the annihilator row 3*(2,1) = (0,3)
    ring = Modular(6)
    h = canonical_row_form(Matrix(ring, [[2, 1]]))
    assert h.rows == [[2, 1], [0, 3]]
    assert enumerate_row_module(h.rows, 6) == enumerate_row_module([[2, 1]], 6)


def test_solve_identity():
    v = [Fraction(1, 2), 3, 0]
    sol = solve(Matrix.identity(QQ, 3), v)
    assert sol is not None
    assert sol.particular == [Fraction(1, 2), 3, 0]
    assert sol.kernel.nrows == 0


def test_solve_mod4_no_solution():
    # 2x = 1 mod 4 has no solution: 2*x only reaches {0, 2}
    assert all((2 * x) % 4 != 1 for x in range(4))
    assert solve(Matrix(Modular(4), [[2]]), [1]) is None


def test_solve_mod4_with_kernel():
    # brute force: {x : 2x = 2 mod 4} = {1, 3}; homogeneous {0, 2}
    assert {x for x in range(4) if (2 * x) % 4 == 2} == {1, 3}
    sol = solve(Matrix(Modular(4), [[2]]), [2])
    assert sol is not None
    assert sol.particular == [1]
    assert sol.kernel.rows == [[2]]


def test_solve_shape_mismatch():
    with pytest.raises(ShapeError):
        solve(Matrix.identity(QQ, 2), [1, 2, 3])


def test_intersect_idempotent():
    u = Matrix(QQ, [[1, 2], [0, 1]])
    assert intersect_modules(u, u) == canonical_row_form(u)


def test_intersect_complementary_lines():
    u = Matrix(QQ, [[1, 0]])
    v = Matrix(QQ, [[0, 1]])
    assert intersect_modules(u, v).nrows == 0


def test_intersect_mod4_matches_bruteforce():
    ring = Modular(4)
    u = [[2, 0], [0, 1]]
    v = [[1, 1]]
    expected = enumerate_row_module(u, 4) & enumerate_row_module(v, 4)
    assert expected == {(0, 0), (2, 2)}
    got = intersect_modules(Matrix(ring, u), Matrix(ring, v))
    assert enumerate_row_module(got.rows, 4) == expected


def test_crt_components():
    # (p, p^e, u): u is 1 mod p^e and 0 mod n/p^e, and the units sum to 1
    assert list(crt_components(6)) == [(2, 2, 3), (3, 3, 4)]
    assert list(crt_components(12)) == [(2, 4, 9), (3, 3, 4)]
    assert list(crt_components(9)) == [(3, 9, 1)]
    for n in (6, 12, 30, 36, 77):
        comps = list(crt_components(n))
        assert sum(u for _, _, u in comps) % n == 1
        for p, q, u in comps:
            assert q % p == 0 and (n // q) % p != 0
            assert u % q == 1 % q and u % (n // q) == 0 and u * u % n == u


def test_is_prime_matches_trial_division():
    from math import isqrt

    from pargal.scalars import _is_prime

    for n in range(10**5):
        assert _is_prime(n) == (n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))), n
    # a strong pseudoprime to the bases 2, 3, 5 and 7: 151 * 751 * 28351
    assert not _is_prime(3215031751)
    # large moduli are decided at once: a Mersenne prime, a product of
    # two primes near 10^9, and the ring of each
    assert _is_prime(2**61 - 1) and Modular(2**61 - 1).is_field
    assert not _is_prime((10**9 + 7) * (10**9 + 9)) and not Modular((10**9 + 7) * (10**9 + 9)).is_field


def test_modulus_beyond_the_exact_primality_bound_is_refused():
    from pargal.scalars import _MR_BOUND, _is_prime

    big = 10**29 + 7  # 30 digits, no prime factor <= 41
    assert _is_prime(big) is None
    with pytest.raises(ValueError, match=f"^modulus {big} is too large: with no prime factor <= 41, "):
        Modular(big)
    with pytest.raises(ValueError, match=f"ring spec 'Z/{big}': modulus {big} is too large"):
        parse_ring(f"Z/{big}")
    # a prime factor <= 41 decides primality at any size; the CRT
    # components of the powers of 10 and 2 are found at once
    for n in (10**30, 2**100, 10**29 + 1, 41 * _MR_BOUND):
        assert _is_prime(n) is False and not parse_ring(f"Z/{n}").is_field
    assert [(p, q) for p, q, _ in Modular(10**30).crt] == [(2, 2**30), (5, 5**30)]
    assert Modular(2**100).crt_units == (1,) and not Modular(2**100).is_field


def trial_factorize(n: int) -> dict:
    """{p: e} of n by trial division: the oracle of _factorize."""
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_matches_trial_division():
    from pargal.scalars import _factorize

    for n in range(1, 10**5):
        assert _factorize(n) == trial_factorize(n), n
    # rho splits what trial division could not: two primes near 10^7, two
    # near 10^12, a prime square, and a part above the primality bound
    # that Miller-Rabin proves composite
    cases = {
        (10**7 + 19) * (10**7 + 79): {10**7 + 19: 1, 10**7 + 79: 1},
        1000000000039 * 1000000000061: {1000000000039: 1, 1000000000061: 1},
        (10**6 + 3) ** 2 * 41: {41: 1, 10**6 + 3: 2},
        2 * 43**16: {2: 1, 43: 16},
    }
    for n, factors in cases.items():
        assert list(_factorize(n).items()) == sorted(factors.items())
        ring = Modular(n)
        assert [(p, q) for p, q, _ in ring.crt] == [(p, p**e) for p, e in sorted(factors.items())]
        assert sum(ring.crt_units) % n == 1 and all(u * u % n == u for u in ring.crt_units)


def test_factors_of_undecided_primality_are_refused():
    # 2 (2^89 - 1) builds, as 2 decides that it is composite; its factor
    # 2^89 - 1 is prime, but above the bound where primality is exact
    ring = Modular(2 * (2**89 - 1))
    with pytest.raises(ValueError, match=f"^cannot factor {2**89 - 1}: with no prime factor <= 41"):
        ring.crt_units


def test_scientific_scalars_bound_their_exponent():
    assert QQ.scalar_from_str("1.5e3") == 1500 and QQ.scalar_from_str("-2E-2") == Fraction(-1, 50)
    assert QQ.scalar_from_str(" 1e4300 ") == 10**4300 and Modular(7).scalar_from_str("1e-4300") == pow(10, -4300, 7)
    for s in ("1e4301", "1E-4301", "1e10000000", "3.5e+1_000_000"):
        with pytest.raises(ValueError, match="exponent beyond 4300$"):
            QQ.scalar_from_str(s)


def test_crt_units_are_factored_once_per_ring(monkeypatch):
    import pargal.scalars as scalars

    calls = []
    factorize = scalars._factorize
    monkeypatch.setattr(scalars, "_factorize", lambda n: calls.append(n) or factorize(n))
    assert QQ.crt_units == Modular(7).crt_units == (1,) and not calls
    z12 = Modular(12)
    assert z12.crt_units == (4, 9) and z12.crt_units == (4, 9) and z12.crt == tuple(crt_components(12))
    assert calls == [12, 12]  # the ring once, the reference once


def test_parse_ring():
    assert parse_ring("Q") == QQ
    assert parse_ring("Z/6") == Modular(6)
    with pytest.raises(ValueError, match="supported rings are Q and Z/n"):
        parse_ring("Z")
    with pytest.raises(ValueError):
        parse_ring("Z/1")


small_mod = st.sampled_from([2, 3, 4, 5, 6, 8, 9])


@st.composite
def modular_matrices(draw, max_rows=3, max_cols=3):
    n = draw(small_mod)
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    entries = st.integers(0, n - 1)
    mat = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    return n, mat


@given(modular_matrices())
@settings(max_examples=120, deadline=None)
def test_canonical_row_form_is_idempotent_and_faithful(nm):
    n, rows = nm
    ring = Modular(n)
    m = Matrix(ring, rows)
    h = canonical_row_form(m)
    assert canonical_row_form(h) == h
    if n ** len(rows[0]) <= 10 ** 4:
        assert enumerate_row_module(h.rows, n, h.ncols) == enumerate_row_module(rows, n)


@given(modular_matrices(max_rows=2, max_cols=2))
@settings(max_examples=80, deadline=None)
def test_membership_matches_bruteforce(nm):
    n, rows = nm
    ring = Modular(n)
    h = canonical_row_form(Matrix(ring, rows))
    module = enumerate_row_module(rows, n)
    for vec in product(range(n), repeat=len(rows[0])):
        assert module_contains(h, list(vec)) == (vec in module)


@given(modular_matrices())
@settings(max_examples=100, deadline=None)
def test_solve_resubstitution(nm):
    n, rows = nm
    ring = Modular(n)
    a = Matrix(ring, rows)
    # pick rhs in the column space so a solution exists
    x0 = list(range(1, a.ncols + 1))
    b = a.matvec([v % n for v in x0])
    sol = solve(a, b)
    assert sol is not None
    assert a.matvec(sol.particular) == b
    for krow in sol.kernel.rows:
        assert all(v == 0 for v in a.matvec(krow))


@given(modular_matrices(max_rows=2, max_cols=2), modular_matrices(max_rows=2, max_cols=2))
@settings(max_examples=60, deadline=None)
def test_intersection_matches_bruteforce(nm1, nm2):
    n, rows1 = nm1
    _, rows2 = nm2
    rows2 = [r[: len(rows1[0])] for r in rows2]
    if len(rows2[0]) != len(rows1[0]):
        return
    ring = Modular(n)
    got = intersect_modules(Matrix(ring, rows1), Matrix(ring, [[x % n for x in r] for r in rows2]))
    expected = enumerate_row_module(rows1, n) & enumerate_row_module(
        [[x % n for x in r] for r in rows2], n
    )
    assert enumerate_row_module(got.rows, n, got.ncols) == expected


@st.composite
def systems(draw):
    """A ring among Q, F_5 and Z/6, a matrix over it and several right-hand
    sides; entries are small so Z/6 draws non-free columns and every ring
    draws unsolvable b."""
    ring = draw(st.sampled_from([QQ, Modular(5), Modular(6)]))
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 3))
    entry = st.integers(-2, 2) if ring == QQ else st.integers(0, ring.n - 1)
    a = Matrix(ring, [[ring.coerce(draw(entry)) for _ in range(cols)] for _ in range(rows)])
    rhs = [[ring.coerce(draw(entry)) for _ in range(rows)] for _ in range(draw(st.integers(2, 4)))]
    return a, rhs


@given(systems())
@settings(max_examples=150, deadline=None)
def test_linear_system_reuse_matches_solve(case):
    a, rhs = case
    system = LinearSystem(a)
    for b in rhs:
        got = system.solve(b)
        assert got == solve(a, b)
        if got is not None:
            assert a.matvec(got.particular) == b
        elif a.ring == QQ:
            # unsolvable over a field: b raises the rank of the columns
            cols = a.transpose().rows
            assert canonical_row_form(Matrix(QQ, cols + [b])).nrows > canonical_row_form(a.transpose()).nrows
        else:
            n = a.ring.n
            assert all(a.matvec(list(x)) != b for x in product(range(n), repeat=a.ncols))
    assert system.kernel == kernel(a)


def test_modules_equal_distinguishes():
    ring = Modular(6)
    assert modules_equal(Matrix(ring, [[2, 4]]), Matrix(ring, [[4, 2]]))
    assert not modules_equal(Matrix(ring, [[2, 4]]), Matrix(ring, [[2, 4], [0, 3]]))


def test_kernel_and_invertible():
    ring = Modular(6)
    assert invertible(Matrix(ring, [[5, 0], [1, 1]]))
    assert not invertible(Matrix(ring, [[2, 0], [0, 1]]))
    k = kernel(Matrix(ring, [[2, 0], [0, 1]]))
    assert enumerate_row_module(k.rows, 6) == {(0, 0), (3, 0)}


# -- matvec against the dense textbook product ------------------------------------


def dense_matvec(m, v):
    """sum_j m[i][j] v[j] over every column, in the ring's arithmetic."""
    ring = m.ring
    out = []
    for row in m.rows:
        acc = 0
        for a, x in zip(row, v):
            acc = ring.add(acc, ring.mul(a, x))
        out.append(acc)
    return out


@st.composite
def matvec_cases(draw):
    """A matrix over Q, F_5 or Z/6 (possibly with no rows) and a zero, unit
    or dense vector of its width."""
    ring = draw(st.sampled_from([QQ, Modular(5), Modular(6)]))
    if ring == QQ:
        scalar = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)).map(ring.coerce)
    else:
        scalar = st.integers(0, ring.n - 1)
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(1, 5))
    m = Matrix.from_rows(ring, [[draw(scalar) for _ in range(ncols)] for _ in range(nrows)], ncols)
    kind = draw(st.sampled_from(["zero", "unit", "dense"]))
    if kind == "zero":
        v = [0] * ncols
    elif kind == "unit":
        v = [0] * ncols
        v[draw(st.integers(0, ncols - 1))] = draw(scalar.filter(lambda x: x != 0))
    else:
        v = [draw(scalar) for _ in range(ncols)]
    return m, v


@given(matvec_cases())
@settings(max_examples=200, deadline=None)
def test_matvec_matches_the_dense_product(case):
    m, v = case
    assert m.matvec(v) == dense_matvec(m, v)
    assert m.matvec(list(v)) == m.matvec(tuple(v))


@pytest.mark.parametrize("ring", [QQ, Modular(5), Modular(6)], ids=["Q", "F5", "Z6"])
def test_matvec_rejects_a_vector_of_the_wrong_length(ring):
    m = Matrix(ring, [[1, 2, 0], [0, 1, 1]])
    for v in ([1, 0], [0, 0, 0, 1], []):
        with pytest.raises(ShapeError):
            m.matvec(v)


def fraction_route(ring, s):
    """scalar_from_str before integer literals bypassed Fraction: the
    value, or the type and text of the error."""
    try:
        return ring.coerce(Fraction(s))
    except ZeroDivisionError:
        return ("ValueError", f"bad scalar {s!r}: zero denominator")
    except ValueError as exc:
        return ("ValueError", str(exc))


@pytest.mark.parametrize("ring", [QQ, Modular(2), Modular(6)], ids=["Q", "F2", "Z6"])
@pytest.mark.parametrize("s", ["0", "007", "-3", "+1", " 1", "1_0", "²", "1/0", "0.5", "True", ""],
                         ids=["zero", "leading-zeros", "negative", "plus", "space", "underscore",
                              "superscript", "zero-denominator", "decimal", "word", "empty"])
def test_integer_literals_parse_like_fractions(ring, s):
    try:
        got = ring.scalar_from_str(s)
    except ValueError as exc:
        got = ("ValueError", str(exc))
    assert got == fraction_route(ring, s)
    assert type(got) is type(fraction_route(ring, s))
