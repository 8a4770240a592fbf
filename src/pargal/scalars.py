"""Exact scalars and row-module linear algebra over Q, F_p and Z/n.

Scalars are plain Python values: ``Fraction``/``int`` over the rationals,
``int`` residues in ``[0, n)`` over ``Z/n``.  A :class:`BaseRing` instance
carries the arithmetic.  Canonical row forms are reduced row echelon over a
field and Howell normal form over ``Z/n``; two matrices generate the same
row module iff their canonical forms are identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

Scalar = "int | Fraction"


class ShapeError(ValueError):
    """Incompatible matrix/vector dimensions."""


class BaseRing:
    """Common interface of the supported coefficient rings."""

    is_field: bool
    kind: str
    crt_units: tuple  # the primitive idempotents, ascending

    def coerce(self, x):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def scalar_to_str(self, a) -> str:
        return str(a)

    def scalar_from_str(self, s: str):
        """Parse "3", "-3/4" or "0.5"; a malformed scalar raises ValueError.

        ASCII digits, with at most a leading minus sign, are read by ``int``;
        any other string goes through ``Fraction``."""
        digits = s[1:] if s[:1] == "-" else s
        if digits.isascii() and digits.isdigit():
            return self.coerce(int(s))
        try:
            return self.coerce(Fraction(s))
        except ZeroDivisionError:
            raise ValueError(f"bad scalar {s!r}: zero denominator") from None


class Rationals(BaseRing):
    """The field Q with arbitrary-precision fractions."""

    is_field = True
    kind = "rationals"
    crt_units = (1,)

    def coerce(self, x):
        if isinstance(x, int):
            return x
        f = Fraction(x)
        return f.numerator if f.denominator == 1 else f

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        f = 1 / Fraction(a)
        return f.numerator if f.denominator == 1 else f

    def div(self, a, b):
        f = Fraction(a) / Fraction(b)
        return f.numerator if f.denominator == 1 else f

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


# Miller-Rabin on the prime bases 2 .. 41 is exact below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool | None:
    """Whether n is prime, exact when a prime of ``_MR_BASES`` divides n or
    n < ``_MR_BOUND`` (Miller-Rabin on them); None, undecided, else."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_BOUND:
        return None
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Modular(BaseRing):
    """The residue ring Z/n, a field exactly when n is prime; n must be one
    whose primality :func:`_is_prime` decides."""

    kind = "modular"

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"modulus must be >= 2, got {n}")
        self.n = n
        self.is_field = _is_prime(n)
        if self.is_field is None:
            raise ValueError(f"modulus {n} is too large: with no prime factor <= 41, primality is decided only below {_MR_BOUND}")

    @cached_property
    def crt(self) -> tuple:
        """:func:`crt_components` of n, factored on first use and kept."""
        return tuple(crt_components(self.n))

    @cached_property
    def crt_units(self) -> tuple:
        """The CRT units of Z/n, its primitive idempotents, ascending; (1,)
        over a field, with no factoring."""
        return (1,) if self.is_field else tuple(sorted(u for _, _, u in self.crt))

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator == 1:
                return x.numerator % self.n
            return self.div(x.numerator % self.n, x.denominator % self.n)
        return int(x) % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def sub(self, a, b):
        return (a - b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def inv(self, a):
        return pow(a, -1, self.n)

    def div(self, a, b):
        return (a * pow(b, -1, self.n)) % self.n

    def __eq__(self, other):
        return isinstance(other, Modular) and other.n == self.n

    def __hash__(self):
        return hash(("Z/", self.n))

    def __repr__(self):
        return f"Z/{self.n}"


QQ = Rationals()


def parse_ring(spec: str) -> BaseRing:
    """Parse a ring spec: "Q" or "Z/<n>" with n >= 2.

    The integers are deliberately unsupported; asking for them is an error.
    """
    spec = spec.strip()
    if spec == "Q":
        return QQ
    if spec.startswith("Z/"):
        try:
            n = int(spec[2:])
        except ValueError:
            raise ValueError(f"bad modulus in ring spec {spec!r}") from None
        try:
            return Modular(n)
        except ValueError as exc:
            raise ValueError(f"ring spec {spec!r}: {exc}") from None
    raise ValueError(
        f"unsupported base ring {spec!r}: supported rings are Q and Z/n (n >= 2)"
    )


class Matrix:
    """Dense matrix over a fixed BaseRing; rows of scalars."""

    __slots__ = ("ring", "rows", "_ncols")

    def __init__(self, ring: BaseRing, rows, ncols: "int | None" = None):
        self.ring = ring
        self.rows = [list(r) for r in rows]
        self._ncols = len(self.rows[0]) if self.rows else (ncols or 0)

    @classmethod
    def identity(cls, ring: BaseRing, n: int) -> "Matrix":
        return cls(ring, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, ring: BaseRing, nrows: int, ncols: int) -> "Matrix":
        return cls(ring, [[0] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def from_rows(cls, ring: BaseRing, rows, ncols: int) -> "Matrix":
        """Like the constructor but keeps an explicit width for empty row sets."""
        return cls(ring, rows, ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    def transpose(self) -> "Matrix":
        if not self.rows:
            return Matrix(self.ring, [[] for _ in range(self.ncols)])
        return Matrix(self.ring, [list(c) for c in zip(*self.rows)])

    def matvec(self, v):
        if len(v) != self.ncols:
            raise ShapeError(f"matvec: {self.nrows}x{self.ncols} with vector of length {len(v)}")
        mul, add = self.ring.mul, self.ring.add
        # sum over the nonzero entries of v only: a unit vector costs O(rows)
        support = [(j, x) for j, x in enumerate(v) if x != 0]
        out = []
        for row in self.rows:
            acc = 0
            for j, x in support:
                a = row[j]
                if a != 0:
                    acc = add(acc, mul(a, x))
            out.append(acc)
        return out

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ShapeError(f"matmul: {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        mul, add = self.ring.mul, self.ring.add
        orows = other.rows
        out = []
        for row in self.rows:
            acc = [0] * other.ncols
            for a, orow in zip(row, orows):
                if a == 0:
                    continue
                for j, b in enumerate(orow):
                    if b != 0:
                        acc[j] = add(acc[j], mul(a, b))
            out.append(acc)
        return Matrix(self.ring, out)

    def add(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeError("matrix addition shape mismatch")
        f = self.ring.add
        return Matrix(self.ring, [[f(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def sub(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeError("matrix subtraction shape mismatch")
        f = self.ring.sub
        return Matrix(self.ring, [[f(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in r) for r in self.rows)

    def is_identity(self) -> bool:
        return self.nrows == self.ncols and all(
            a == (1 if i == j else 0) for i, r in enumerate(self.rows) for j, a in enumerate(r)
        )

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ring, tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        return f"Matrix({self.ring}, {self.rows})"


# ---------------------------------------------------------------------------
# canonical row forms
# ---------------------------------------------------------------------------

def _ext_gcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _unit_for(a: int, n: int) -> int:
    """A unit u of Z/n with u*a == gcd(a, n) mod n."""
    g = gcd(a, n)
    a1 = (a // g) % n
    m = n // g
    u = pow(a1, -1, m) if m > 1 else 1
    while gcd(u, n) != 1:
        u += m
    return u % n


def _rref_rows(rows, ring):
    """Reduced row echelon form over a field; returns (rows, pivots)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = ring.inv(mat[r][c])
        if inv != 1:
            mat[r] = [ring.mul(inv, x) for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


def _howell_rows(rows, ncols: int, n: int):
    """Howell normal form over Z/n; returns (rows, pivots).

    Pivot entries are the canonical divisors gcd(a, n); entries above a pivot
    are reduced modulo it; annihilator multiples of each pivot row are fed
    back so the result has the Howell property (every module element whose
    leading zeros extend past column c is spanned by the rows pivoted
    after c).
    """
    mat = [[x % n for x in r] for r in rows]
    mat = [r for r in mat if any(r)]
    pivots = []
    r = 0
    c = 0
    while c < ncols:
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            c += 1
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        u = _unit_for(mat[r][c], n)
        if u != 1:
            mat[r] = [(u * x) % n for x in mat[r]]
        for i in range(r + 1, len(mat)):
            b = mat[i][c]
            if b == 0:
                continue
            p = mat[r][c]
            g, x, y = _ext_gcd(p, b)
            rr, ri = mat[r], mat[i]
            mat[r] = [(x * s + y * t) % n for s, t in zip(rr, ri)]
            mat[i] = [((-(b // g)) * s + (p // g) * t) % n for s, t in zip(rr, ri)]
        u = _unit_for(mat[r][c], n)
        if u != 1:
            mat[r] = [(u * x) % n for x in mat[r]]
        p = mat[r][c]
        for i in range(r):
            q = mat[i][c] // p
            if q:
                mat[i] = [(s - q * t) % n for s, t in zip(mat[i], mat[r])]
        ann = n // gcd(p, n)
        if ann % n != 0:
            extra = [(ann * x) % n for x in mat[r]]
            if any(extra):
                mat.append(extra)
        pivots.append((r, c))
        r += 1
        c += 1
    return mat[:r], pivots


def _canonical_rows(rows, ncols: int, ring: BaseRing):
    if ring.is_field:
        return _rref_rows(rows, ring)
    return _howell_rows(rows, ncols, ring.n)


def canonical_row_form(m: Matrix) -> Matrix:
    """Canonical generating set of the row module (RREF / Howell form)."""
    rows, _ = _canonical_rows(m.rows, m.ncols, m.ring)
    return Matrix.from_rows(m.ring, rows, m.ncols)


def _reduce_vector(vec, rows, pivots, ring):
    """Reduce vec against canonical rows; returns (remainder, coeffs).

    coeffs[i] is the multiple of rows[i] that was subtracted, so that
    vec == remainder + sum coeffs[i]*rows[i].  Over Z/n a pivot divides its
    column entry or that position is left untouched.
    """
    v = list(vec)
    coeffs = [0] * len(rows)
    modular = not ring.is_field
    for r, c in pivots:
        a = v[c]
        if a == 0:
            continue
        p = rows[r][c]
        if modular:
            if a % p != 0:
                continue
            q = a // p
        else:
            q = ring.div(a, p)
        coeffs[r] = ring.add(coeffs[r], q)
        v = [ring.sub(x, ring.mul(q, y)) for x, y in zip(v, rows[r])]
    return v, coeffs


def module_contains(canonical: Matrix, vec) -> bool:
    """Membership of vec in the row module given by its canonical form."""
    rows = canonical.rows
    rem, _ = _reduce_vector(vec, rows, _pivots_of(rows), canonical.ring)
    return all(x == 0 for x in rem)


def modules_equal(u: Matrix, v: Matrix) -> bool:
    return canonical_row_form(u) == canonical_row_form(v)


@dataclass
class LinearSolution:
    """One particular solution of A x = b plus a canonical kernel basis."""

    particular: list
    kernel: Matrix


def _pivots_of(rows):
    """(row, column) of the leading nonzero entry of each row."""
    out = []
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x != 0:
                out.append((i, j))
                break
    return out


class LinearSystem:
    """A x = b for one fixed A: [A^T | I] is reduced once, then any b is solved.

    Rows of the reduced form with a zero left block give the kernel;
    expressing b over the left blocks recovers a particular solution, which
    is normalized against the kernel so the answer is deterministic.
    """

    __slots__ = ("ring", "nrows", "kernel", "_rows", "_lead_pivots", "_kernel_pivots")

    def __init__(self, a: Matrix):
        ring = a.ring
        m, k = a.nrows, a.ncols
        aug = [[a.rows[j][i] for j in range(m)] + [1 if t == i else 0 for t in range(k)] for i in range(k)]
        rows, pivots = _canonical_rows(aug, m + k, ring)
        kernel_rows = [row[m:] for row in rows if all(x == 0 for x in row[:m])]
        self.ring = ring
        self.nrows = m
        self.kernel = Matrix.from_rows(ring, kernel_rows, k)
        self._rows = rows
        self._lead_pivots = [(r, c) for (r, c) in pivots if c < m]
        self._kernel_pivots = _pivots_of(kernel_rows)

    def solve(self, b) -> "LinearSolution | None":
        """Solve A x = b exactly; None when unsolvable."""
        ring, m = self.ring, self.nrows
        if len(b) != m:
            raise ShapeError(f"solve: {m}x{self.kernel.ncols} system with rhs of length {len(b)}")
        rem, _ = _reduce_vector(list(b) + [0] * self.kernel.ncols, self._rows, self._lead_pivots, ring)
        if any(x != 0 for x in rem[:m]):
            return None
        particular = [ring.neg(x) for x in rem[m:]]
        particular, _ = _reduce_vector(particular, self.kernel.rows, self._kernel_pivots, ring)
        return LinearSolution(particular, self.kernel)


def solve(a: Matrix, b) -> "LinearSolution | None":
    """Solve A x = b exactly; None when unsolvable.

    The kernel of the returned solution generates all homogeneous solutions.
    """
    return LinearSystem(a).solve(b)


def kernel(a: Matrix) -> Matrix:
    """Canonical generating set of {x : A x = 0}."""
    return LinearSystem(a).kernel


def intersect_modules(u: Matrix, v: Matrix) -> Matrix:
    """Canonical generating set of the intersection of two row modules."""
    if u.ring != v.ring:
        raise ShapeError("intersect_modules: base ring mismatch")
    if u.ncols != v.ncols:
        raise ShapeError(f"intersect_modules: ambient widths {u.ncols} != {v.ncols}")
    n = u.ncols
    # Zassenhaus: row-reduce [[U U],[V 0]]; zero-left rows carry U /\ V.
    block = [list(r) + list(r) for r in u.rows] + [list(r) + [0] * n for r in v.rows]
    rows, _ = _canonical_rows(block, 2 * n, u.ring)
    inter = [row[n:] for row in rows if all(x == 0 for x in row[:n])]
    return canonical_row_form(Matrix.from_rows(u.ring, inter, n))


def invertible(a: Matrix) -> bool:
    """Whether the square matrix is invertible over its ring."""
    if a.nrows != a.ncols:
        return False
    return canonical_row_form(a).is_identity()


def invert(a: Matrix) -> Matrix:
    """Exact inverse of an invertible square matrix."""
    n = a.nrows
    if n != a.ncols:
        raise ShapeError("invert: matrix not square")
    system = LinearSystem(a)
    cols = []
    for j in range(n):
        sol = system.solve([1 if i == j else 0 for i in range(n)])
        if sol is None:
            raise ValueError("matrix is not invertible")
        cols.append(sol.particular)
    return Matrix(a.ring, [list(r) for r in zip(*cols)])


def _factorize(n: int) -> dict:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def crt_components(n: int):
    """Yield (p, q, u) for each prime power q = p^e exactly dividing n, in
    increasing p, where u is the idempotent of Z/n that is 1 mod q and 0
    mod n/q (the CRT unit of the factor Z/q)."""
    for p, e in _factorize(n).items():
        q = p ** e
        m = n // q
        g, x, _ = _ext_gcd(m, q)
        if g != 1:
            raise AssertionError(f"crt_components: {m} and {q} are not coprime (bug trap)")
        yield p, q, (m * x) % n
