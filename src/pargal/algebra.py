"""Finite-rank commutative unital algebras presented by structure constants.

An :class:`Algebra` stores a sparse multiplication table c_{ijk} with
b_i*b_j = sum_k c_{ijk} b_k over a :class:`~pargal.scalars.BaseRing`.
Elements are coordinate vectors; morphisms are matrices acting on
coordinates.  Tensor products, direct products over unital ideals,
subalgebra presentations and split (orthogonal idempotent) presentations
are built here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import gcd

from .scalars import (
    BaseRing,
    LinearSystem,
    Matrix,
    Modular,
    canonical_row_form,
    invertible,
    kernel,
    solve,
)


class AlgebraError(ValueError):
    """Invalid algebra data or an operation leaving the supported class."""


class Algebra:
    """Commutative unital algebra of finite rank over an exact base ring."""

    __slots__ = ("ring", "_labels", "rank", "unit", "_table", "_hash", "_split")

    def __init__(self, ring: BaseRing, labels, table, unit, validate: bool = True):
        """table maps (i, j) to a sparse row: tuple of (k, c_ijk) with c != 0.

        Accepts either the sparse dict form or a dense rank^3 nested list.
        ``labels`` is the list of basis labels, or a function of no
        arguments that returns it (:func:`deferred_labels`), called on the
        first read of :attr:`labels`; the rank is then the length of
        ``unit``.
        """
        self.ring = ring
        self.unit = tuple(ring.coerce(u) for u in unit)
        self._labels = labels if callable(labels) else list(labels)
        n = self.rank = len(self.unit) if callable(labels) else len(self._labels)
        if len(self.unit) != n:
            raise AlgebraError(f"unit vector has length {len(self.unit)}, rank is {n}")
        if isinstance(table, dict):
            tab = [[()] * n for _ in range(n)]
            for (i, j), entries in table.items():
                cleaned = sorted((k, ring.coerce(c)) for k, c in entries)
                tab[i][j] = tuple((k, c) for k, c in cleaned if c != 0)
        else:
            tab = [
                [tuple((k, ring.coerce(c)) for k, c in enumerate(table[i][j]) if ring.coerce(c) != 0) for j in range(n)]
                for i in range(n)
            ]
        self._table = tab
        self._hash = None
        self._split = None
        if validate:
            self.validate()

    # -- construction helpers ------------------------------------------------

    @classmethod
    def split(cls, ring: BaseRing, labels, rank: int | None = None) -> "Algebra":
        """The split algebra R^n with componentwise product, n = ``rank``,
        which deferred ``labels`` need.  Its diagonal table is written on
        the first read of :attr:`table`, with no sort or coerce of entries;
        :meth:`is_split` needs no table."""
        out = cls.__new__(cls)
        n = out.rank = len(labels) if rank is None else rank
        out.ring, out.unit = ring, (ring.coerce(1),) * n
        out._labels = labels if callable(labels) else list(labels)
        if not callable(labels) and len(out._labels) != n:
            raise AlgebraError(f"unit vector has length {n}, rank is {len(out._labels)}")
        out._table = out._hash = out._split = None
        return out

    @classmethod
    def base(cls, ring: BaseRing) -> "Algebra":
        return cls.split(ring, ["1"])

    def is_split(self) -> bool:
        """Whether this is :meth:`split` on its own labels: R^n on its
        standard basis, with unit (1, ..., 1).  O(rank^2), building nothing;
        O(1) on a table :meth:`split` has not written yet."""
        if self._table is None:
            return True
        one = self.ring.coerce(1)
        if any(u != one for u in self.unit):
            return False
        for i, row in enumerate(self.table):
            for j, entries in enumerate(row):
                if i != j:
                    if entries:
                        return False
                elif len(entries) != 1 or entries[0][0] != i or entries[0][1] != one:
                    return False
        return True

    # -- arithmetic ----------------------------------------------------------

    def zero(self) -> "Element":
        return Element(self, (0,) * self.rank)

    def one(self) -> "Element":
        return Element(self, self.unit)

    def basis_element(self, i: int) -> "Element":
        return Element(self, tuple(1 if j == i else 0 for j in range(self.rank)))

    def basis(self):
        return [self.basis_element(i) for i in range(self.rank)]

    def element(self, coords) -> "Element":
        coords = tuple(self.ring.coerce(c) for c in coords)
        if len(coords) != self.rank:
            raise AlgebraError(f"coordinate vector of length {len(coords)}, rank is {self.rank}")
        return Element(self, coords)

    def mul_coords(self, x, y):
        out = [0] * self.rank
        table = self.table
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            ti = table[i]
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                entries = ti[j]
                if not entries:
                    continue
                c = xi * yj
                for k, cijk in entries:
                    out[k] = out[k] + (c if cijk == 1 else c * cijk)
        if isinstance(self.ring, Modular):
            n = self.ring.n
            return [v % n for v in out]
        return out

    def mult_matrix(self, coords) -> Matrix:
        """Matrix of multiplication by the element with the given coordinates."""
        cols = [self.mul_coords(coords, [1 if t == j else 0 for t in range(self.rank)]) for j in range(self.rank)]
        return Matrix(self.ring, [list(r) for r in zip(*cols)]) if cols else Matrix(self.ring, [])

    def over(self, ring: BaseRing) -> "Algebra":
        """The same structure constants and unit coerced into ``ring``
        (zeros dropped).  Not validated: a caller holding outside input
        calls :meth:`validate` on the result."""
        table = {(i, j): entries for i, row in enumerate(self.table) for j, entries in enumerate(row) if entries}
        return Algebra(ring, self.labels, table, self.unit, validate=False)

    # -- validation ----------------------------------------------------------

    def validate(self):
        # R^n with unit (1, ..., 1) is commutative and associative
        if self.is_split():
            return
        n = self.rank
        table = self.table
        for i in range(n):
            for j in range(i, n):
                if sorted(table[i][j]) != sorted(table[j][i]):
                    raise AlgebraError(
                        f"not commutative: {self.labels[i]}*{self.labels[j]} != {self.labels[j]}*{self.labels[i]}"
                    )
        # products composed on the sparse table rows, reduced like mul_coords
        modulus = self.ring.n if isinstance(self.ring, Modular) else None

        def total(terms):
            # sum_m c d b_m over the terms (c, ((m, d), ...)), zeros dropped
            out = {}
            for c, entries in terms:
                for m, d in entries:
                    out[m] = out.get(m, 0) + c * d
            if modulus:
                return {m: v % modulus for m, v in out.items() if v % modulus}
            return {m: v for m, v in out.items() if v != 0}

        unit = [(l, u) for l, u in enumerate(self.unit) if u != 0]
        for i in range(n):
            if total((u, table[l][i]) for l, u in unit) != {i: 1}:
                raise AlgebraError(f"unit does not fix basis vector {self.labels[i]}")
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    # (b_i b_j) b_l against b_i (b_j b_l)
                    left = total((c, table[k][l]) for k, c in table[i][j])
                    right = total((c, table[i][m]) for m, c in table[j][l])
                    if left != right:
                        raise AlgebraError(
                            f"not associative on ({self.labels[i]}, {self.labels[j]}, {self.labels[l]})"
                        )

    # -- formatting / identity -----------------------------------------------

    @property
    def table(self) -> list:
        """The sparse table: table[i][j] is the tuple of (k, c_ijk) with c
        != 0.  On :meth:`split`, the diagonal ((i, 1),) is written here on
        first read."""
        if self._table is None:
            n = self.rank
            self._table = [[()] * n for _ in range(n)]
            for i, one in enumerate(self.unit):
                self._table[i][i] = ((i, one),)
        return self._table

    @property
    def labels(self) -> list:
        """The basis labels, written on first read when they were deferred."""
        if callable(self._labels):
            self._labels = self._labels()
        return self._labels

    def format_coords(self, coords) -> str:
        return format_coords(self.labels, coords)

    def __eq__(self, other):
        return (
            self is other
            or isinstance(other, Algebra)
            and self.ring == other.ring
            and self.labels == other.labels
            and self.unit == other.unit
            and self.table == other.table
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, tuple(self.labels), self.unit, tuple(tuple(r) for r in self.table)))
        return self._hash

    def __repr__(self):
        return f"Algebra({self.ring}, rank {self.rank}, basis {self.labels})"


class _DeferredLabels:
    """Basis labels written on the first call: ``write`` applied to the
    label lists of ``sources``, each a list or deferred labels itself.  The
    deferred sources are written first, deepest first with an explicit
    stack, so a long chain of products is read with no recursion; once
    written, a node keeps only its list, so it holds no algebra alive."""

    __slots__ = ("write", "sources", "value")

    def __init__(self, write, sources):
        self.write, self.sources, self.value = write, sources, None

    def __call__(self) -> list:
        stack = [self]
        while stack:
            node = stack[-1]
            if node.value is not None:
                stack.pop()
                continue
            waiting = [s for s in node.sources if isinstance(s, _DeferredLabels) and s.value is None]
            if waiting:
                stack += waiting
                continue
            stack.pop()
            node.value = node.write(*(s.value if isinstance(s, _DeferredLabels) else s for s in node.sources))
            node.write = node.sources = None
        return self.value


def deferred_labels(write, *sources):
    """The basis labels of an :class:`Algebra` that ``write(*names)``
    returns when they are first read, ``names`` the labels of ``sources``
    (algebras or deferred labels).  Only the labels of an algebra source
    are held, not the algebra."""
    return _DeferredLabels(write, tuple(s._labels if isinstance(s, Algebra) else s for s in sources))


def format_coords(labels, coords) -> str:
    """A coordinate vector as a signed sum of the basis labels."""
    parts = []
    for c, lab in zip(coords, labels):
        if c == 0:
            continue
        if c == 1:
            parts.append(lab)
        elif c == -1:
            parts.append(f"-{lab}")
        else:
            parts.append(f"({c})*{lab}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


class Element:
    """Element of an Algebra; immutable coordinate vector."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: Algebra, coords):
        self.algebra = algebra
        self.coords = tuple(coords)

    def _check(self, other: "Element"):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraError("elements of different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        add = self.algebra.ring.add
        return Element(self.algebra, tuple(add(a, b) for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        sub = self.algebra.ring.sub
        return Element(self.algebra, tuple(sub(a, b) for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Element":
        neg = self.algebra.ring.neg
        return Element(self.algebra, tuple(neg(a) for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check(other)
            return Element(self.algebra, self.algebra.mul_coords(self.coords, other.coords))
        c = self.algebra.ring.coerce(other)
        mul = self.algebra.ring.mul
        return Element(self.algebra, tuple(mul(c, a) for a in self.coords))

    def __rmul__(self, other):
        return self.__mul__(other)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_idempotent(self) -> bool:
        return (self * self) == self

    def __eq__(self, other):
        return isinstance(other, Element) and self.coords == other.coords and self.algebra == other.algebra

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return self.algebra.format_coords(self.coords)


def make_algebra(ring: BaseRing, labels, struct_consts, unit) -> Algebra:
    """Validated algebra from dense structure constants c[i][j][k]."""
    return Algebra(ring, labels, struct_consts, unit, validate=True)


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

@dataclass
class AlgebraMorphism:
    """Linear map source -> target given by a matrix on coordinates.  A
    morphism made by :meth:`deferred` writes its matrix on first read."""

    source: Algebra
    target: Algebra
    matrix: Matrix

    @classmethod
    def deferred(cls, source: Algebra, target: Algebra, write) -> "AlgebraMorphism":
        """The morphism whose matrix is ``write()``, called on the first read
        of :attr:`matrix`."""
        out = cls.__new__(cls)
        out.source, out.target, out._write = source, target, write
        return out

    def __getattr__(self, name):
        # reached only while the matrix of a deferred morphism is unwritten
        if name != "matrix" or "_write" not in self.__dict__:
            raise AttributeError(name)
        self.matrix = self.__dict__.pop("_write")()
        return self.matrix

    def __call__(self, elem: Element) -> Element:
        if elem.algebra != self.source:
            raise AlgebraError("morphism applied to element of the wrong algebra")
        return Element(self.target, self.matrix.matvec(list(elem.coords)))

    def multiplicative_failure(self):
        """A witness basis pair where f(xy) != f(x)f(y), or None."""
        src, tgt, m = self.source, self.target, self.matrix
        units = Matrix.identity(src.ring, src.rank).rows
        images = [m.matvec(e) for e in units]
        for i in range(src.rank):
            for j in range(i, src.rank):
                if m.matvec(src.mul_coords(units[i], units[j])) != tgt.mul_coords(images[i], images[j]):
                    return (src.labels[i], src.labels[j])
        return None

    def is_unital(self) -> bool:
        return tuple(self.matrix.matvec(list(self.source.unit))) == self.target.unit

    def is_bijective(self) -> bool:
        return self.matrix.nrows == self.matrix.ncols and invertible(self.matrix)


# ---------------------------------------------------------------------------
# unital ideals and direct products
# ---------------------------------------------------------------------------

def _free_basis_or_raise(system: LinearSystem, what: str):
    """The system of a row basis B^T must have no kernel: the rows of B are a
    free module basis (no relations); Z/n can fail this."""
    if system.kernel.nrows != 0:
        raise AlgebraError(
            f"{what}: generating rows are not a free basis over {system.ring}; "
            "non-free modules are not supported as algebra carriers"
        )


def _ideal_rows(algebra: Algebra, e: Element) -> Matrix:
    rows = [algebra.mul_coords(e.coords, [1 if t == i else 0 for t in range(algebra.rank)]) for i in range(algebra.rank)]
    return canonical_row_form(Matrix(algebra.ring, rows, algebra.rank))


@dataclass
class UnitalIdeal:
    """Ideal e*S of an algebra generated by a central idempotent e."""

    parent: Algebra
    generator: Element
    basis: Matrix

    @property
    def rank(self) -> int:
        return self.basis.nrows

    @cached_property
    def system(self) -> LinearSystem:
        """Expresses ideal elements over the basis rows."""
        return LinearSystem(self.basis.transpose())


def unital_ideal(parent: Algebra, generator: Element) -> UnitalIdeal:
    if generator.algebra != parent:
        raise AlgebraError("idempotent belongs to a different algebra")
    if not generator.is_idempotent():
        raise AlgebraError(f"ideal generator {generator!r} is not idempotent")
    return UnitalIdeal(parent, generator, _ideal_rows(parent, generator))


@dataclass
class SubAlgebra:
    """A subspace of an algebra presented as an algebra of its own.

    ``basis`` rows live in parent coordinates; ``inclusion`` maps sub
    coordinates to parent coordinates; the sub unit need not be the parent
    unit (unital ideals qualify).
    """

    algebra: Algebra
    parent: Algebra
    basis: Matrix
    inclusion: AlgebraMorphism
    _system: LinearSystem | None = field(default=None, compare=False, repr=False)

    @property
    def system(self) -> LinearSystem:
        """The linear system of basis^T, factored on first use."""
        if self._system is None:
            self._system = LinearSystem(self.basis.transpose())
        return self._system

    def express(self, coords):
        """Parent coordinates -> sub coordinates, or None if outside."""
        sol = self.system.solve(list(coords))
        return None if sol is None else sol.particular

    def include_coords(self, coords):
        return self.inclusion.matrix.matvec(list(coords))


def _table_on_rows(parent: Algebra, rows, system: LinearSystem, table: dict, offset: int = 0):
    """Write into the sparse ``table`` the product of each pair of the
    basis ``rows`` i <= j of a span, solved over them by ``system``, with
    every index shifted by ``offset``; return the first (i, j, product)
    outside the span, else None."""
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            prod = parent.mul_coords(rows[i], rows[j])
            sol = system.solve(prod)
            if sol is None:
                return i, j, prod
            entries = tuple((offset + t, c) for t, c in enumerate(sol.particular) if c != 0)
            if entries:
                table[(offset + i, offset + j)] = entries
                table[(offset + j, offset + i)] = entries
    return None


def algebra_on_module(parent: Algebra, rows: Matrix, unit_coords, what: str = "subalgebra") -> SubAlgebra:
    """Present a multiplicatively closed submodule as an Algebra.

    ``unit_coords`` (parent coordinates) must lie in the module and act as
    its identity.  Raises with a witness pair when the module is not closed.
    """
    ring = parent.ring
    rows = canonical_row_form(rows)
    bt = rows.transpose()
    system = LinearSystem(bt)
    _free_basis_or_raise(system, what)
    unit_sol = system.solve(list(unit_coords))
    if unit_sol is None:
        raise AlgebraError(f"{what}: unit {parent.format_coords(unit_coords)} is absent from the span")
    table = {}
    outside = _table_on_rows(parent, rows.rows, system, table)
    if outside is not None:
        i, j, prod = outside
        raise AlgebraError(
            f"{what}: not multiplicatively closed at basis pair ({i}, {j}): "
            f"{parent.format_coords(prod)} is outside the span"
        )
    sub = Algebra(ring, [parent.format_coords(r) for r in rows.rows], table, unit_sol.particular, validate=False)
    # unit acts as identity on the presented basis (guards bad unit input)
    if not sub.mult_matrix(sub.unit).is_identity():
        raise AlgebraError(f"{what}: provided unit does not act as identity on the span")
    return SubAlgebra(sub, parent, rows, AlgebraMorphism(sub, parent, bt), system)


def subalgebra_from_constraints(parent: Algebra, constraints: Matrix) -> SubAlgebra:
    """The solution space of constraints*x = 0 presented as an algebra.

    The space must be closed under multiplication and contain the parent
    unit; violations raise with a witness.
    """
    if constraints.ncols != parent.rank:
        raise AlgebraError(
            f"constraint width {constraints.ncols} does not match rank {parent.rank}"
        )
    rows = kernel(constraints) if constraints.nrows else Matrix.identity(parent.ring, parent.rank)
    return algebra_on_module(parent, rows, list(parent.unit), what="subalgebra")


@dataclass
class ProductComponent:
    ideal: UnitalIdeal
    offset: int

    @property
    def rank(self) -> int:
        return self.ideal.rank


@dataclass
class ProductAlgebra:
    """Direct product of unital ideals of one parent, as a single algebra.

    Zero-rank components keep their logical index but occupy no coordinates.
    """

    algebra: Algebra
    parent: Algebra
    components: list

    @property
    def arity(self) -> int:
        return len(self.components)

    def embed_component(self, idx: int, parent_coords) -> list:
        """Parent coordinates (in component idx's ideal) -> the component's
        own coordinates, its block of the product coordinates."""
        sol = self.components[idx].ideal.system.solve(list(parent_coords))
        if sol is None:
            raise AlgebraError(f"element is outside ideal component {idx}")
        return sol.particular

    def from_components(self, parent_coord_list) -> Element:
        if len(parent_coord_list) != self.arity:
            raise AlgebraError("component count mismatch")
        coords = [c for idx, x in enumerate(parent_coord_list) for c in self.embed_component(idx, x)]
        return Element(self.algebra, coords)


def product_over_ideals(ideals, labels=None) -> ProductAlgebra:
    """Direct product algebra of unital ideals sharing one parent."""
    if not ideals:
        raise AlgebraError("product over an empty family of ideals")
    parent = ideals[0].parent
    for ideal in ideals:
        if ideal.parent != parent:
            raise AlgebraError("ideals with different parents")
    ring = parent.ring
    components = []
    offset = 0
    for ideal in ideals:
        _free_basis_or_raise(ideal.system, "product_over_ideals")
        components.append(ProductComponent(ideal, offset))
        offset += ideal.rank
    total = offset
    table = {}
    unit = [0] * total
    out_labels = []
    for idx, comp in enumerate(components):
        k = comp.rank
        if k == 0:
            continue
        system = comp.ideal.system
        sol = system.solve(list(comp.ideal.generator.coords))
        if sol is None:
            raise AlgebraError(f"ideal generator escapes its own basis at component {idx}")
        unit[comp.offset : comp.offset + k] = sol.particular
        tag = labels[idx] if labels else str(idx)
        for i in range(k):
            out_labels.append(f"[{tag}]{parent.format_coords(comp.ideal.basis.rows[i])}")
        if _table_on_rows(parent, comp.ideal.basis.rows, system, table, comp.offset) is not None:
            raise AlgebraError(f"ideal component {idx} is not multiplicatively closed")
    algebra = Algebra(ring, out_labels, table, unit, validate=False)
    return ProductAlgebra(algebra, parent, components)


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

def _kron(ring, xc, yc) -> list:
    """The coordinates of x (x) y: x_i y_j at index i |y| + j."""
    n = len(yc)
    out = [0] * (len(xc) * n)
    mul = ring.mul
    for i, a in enumerate(xc):
        if a == 0:
            continue
        base = i * n
        for j, b in enumerate(yc):
            if b != 0:
                out[base + j] = mul(a, b)
    return out


@dataclass
class TensorProduct:
    algebra: Algebra
    left: Algebra
    right: Algebra

    def index(self, i: int, j: int) -> int:
        return i * self.right.rank + j

    def pair_coords(self, xc, yc):
        return _kron(self.algebra.ring, xc, yc)

    def pair(self, x: Element, y: Element) -> Element:
        if x.algebra != self.left or y.algebra != self.right:
            raise AlgebraError("tensor factors from the wrong algebras")
        return Element(self.algebra, self.pair_coords(list(x.coords), list(y.coords)))


def tensor_labels(a: list, b: list) -> list:
    """The labels of the basis b_i (x) b'_j of a (x) b, index i |b| + j,
    from the labels ``a`` and ``b`` of the factors."""
    return [f"{la}(x){lb}" for la in a for lb in b]


def tensor(a: Algebra, b: Algebra) -> TensorProduct:
    """Tensor product over the base ring: (x(x)y)(x'(x)y') = xx'(x)yy'."""
    if a.ring != b.ring:
        raise AlgebraError("tensor factors over different base rings")
    ring = a.ring
    rb = b.rank
    labels = tensor_labels(a.labels, b.labels)
    a_table, b_table = a.table, b.table
    table = {}
    for i in range(a.rank):
        for j in range(a.rank):
            arow = a_table[i][j]
            if not arow:
                continue
            for s in range(rb):
                for t in range(rb):
                    brow = b_table[s][t]
                    if not brow:
                        continue
                    entries = []
                    for k, ca in arow:
                        for u, cb in brow:
                            c = ring.mul(ca, cb)
                            if c != 0:
                                entries.append((k * rb + u, c))
                    if entries:
                        table[(i * rb + s, j * rb + t)] = tuple(entries)
    alg = Algebra(ring, labels, table, _kron(ring, a.unit, b.unit), validate=False)
    return TensorProduct(alg, a, b)


# ---------------------------------------------------------------------------
# split presentations
# ---------------------------------------------------------------------------

@dataclass
class SplitPresentation:
    """Orthogonal idempotents summing to 1, each spanning a free rank-1 ideal."""

    parent: Algebra
    idempotents: list

    def check(self):
        total = self.parent.zero()
        for i, e in enumerate(self.idempotents):
            if not e.is_idempotent():
                raise AlgebraError(f"split presentation: element {i} is not idempotent")
            total = total + e
            for f in self.idempotents[i + 1 :]:
                if not (e * f).is_zero():
                    raise AlgebraError("split presentation: idempotents are not orthogonal")
        if total != self.parent.one():
            raise AlgebraError("split presentation: idempotents do not sum to 1")


def _minimal_polynomial(op: Matrix):
    """Coefficients (ascending, monic) of the minimal polynomial of op."""
    ring = op.ring
    k = op.nrows
    cur = Matrix.identity(ring, k)
    flat = [[x for row in cur.rows for x in row]]
    for _ in range(k):
        cur = cur.mul(op)
        flat.append([x for row in cur.rows for x in row])
    for d in range(1, k + 1):
        a = Matrix(ring, [list(col) for col in zip(*flat[:d])], d)
        sol = solve(a, flat[d])
        if sol is not None:
            coeffs = [ring.neg(c) for c in sol.particular] + [1]
            return coeffs
    raise AssertionError("minimal polynomial of degree <= rank must exist")


def _poly_divide_linear(coeffs, root, ring):
    """Divide by (x - root); returns (quotient, remainder)."""
    out = [0] * (len(coeffs) - 1)
    acc = 0
    for i in range(len(coeffs) - 1, 0, -1):
        acc = ring.add(ring.mul(acc, root), coeffs[i])
        out[i - 1] = acc
    rem = ring.add(ring.mul(acc, root), coeffs[0])
    return out, rem


def _int_divisors(n: int):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _field_roots(coeffs, ring):
    """All roots in the base field with multiplicity; also the leftover degree."""
    roots = []
    work = list(coeffs)
    while len(work) > 1 and work[0] == 0:
        roots.append(0)
        work = work[1:]
    if isinstance(ring, Modular):
        candidates = list(range(ring.n))
    else:
        lcm = 1
        for c in work:
            f = Fraction(c)
            lcm = lcm * f.denominator // gcd(lcm, f.denominator)
        ints = [int(Fraction(c) * lcm) for c in work]
        if not ints or all(v == 0 for v in ints):
            return roots, 0
        lead, const = ints[-1], next(v for v in ints if v != 0)
        candidates = []
        for p in _int_divisors(const):
            for q in _int_divisors(lead):
                for sign in (1, -1):
                    f = Fraction(sign * p, q)
                    candidates.append(f.numerator if f.denominator == 1 else f)
        candidates = sorted(set(candidates))
    progress = True
    while len(work) > 1 and progress:
        progress = False
        for r in candidates:
            quot, rem = _poly_divide_linear(work, r, ring)
            if rem == 0:  # the remainder is the value at r
                roots.append(r)
                work = quot
                progress = True
                break
    return roots, len(work) - 1


def find_split_presentation(algebra: Algebra):
    """A canonically ordered split presentation, or None when absent.

    Complete over Q and F_p (simultaneous eigen-splitting of the commuting
    multiplication operators); over composite Z/n complete when the algebra
    is a finite product of copies of the base ring (per-prime splitting with
    idempotent lifting).  On R^n with its standard basis the split
    idempotents are the basis vectors, read off without splitting.  The
    idempotents are sorted by descending coordinate tuple, so the basis
    vectors of R^n come in point order e_0, ..., e_(r-1).  Computed once
    per algebra and kept on it.
    """
    if algebra._split is None:
        ring = algebra.ring
        if algebra.is_split():
            idems = algebra.basis()
        elif ring.is_field:
            idems = _split_over_field(algebra)
        else:
            idems = _split_over_zn(algebra)
        pres = None
        if idems is not None:
            idems.sort(key=lambda e: tuple(e.coords), reverse=True)
            pres = SplitPresentation(algebra, idems)
            pres.check()
        algebra._split = (pres,)
    return algebra._split[0]


def _split_over_field(algebra: Algebra):
    ring = algebra.ring
    blocks = [algebra.one()]
    final = []
    while blocks:
        e = blocks.pop()
        basis = _ideal_rows(algebra, e)
        k = basis.nrows
        if k == 0:
            continue
        if k == 1:
            final.append(e)
            continue
        system = LinearSystem(basis.transpose())
        refined = False
        for gi in range(algebra.rank):
            gen = algebra.mul_coords(e.coords, [1 if t == gi else 0 for t in range(algebra.rank)])
            cols = []
            for row in basis.rows:
                prod = algebra.mul_coords(gen, row)
                sol = system.solve(prod)
                if sol is None:
                    raise AssertionError("_split_over_field: ideal not closed under multiplication (bug trap)")
                cols.append(sol.particular)
            op = Matrix(ring, [list(r) for r in zip(*cols)], k)
            minpoly = _minimal_polynomial(op)
            if len(minpoly) == 2:
                continue  # scalar operator, no refinement from this generator
            roots, leftover = _field_roots(minpoly, ring)
            if leftover > 0 or len(set(roots)) != len(roots):
                return None  # irreducible factor or nilpotent part: not split
            gen_elem = algebra.element(gen)
            for r in roots:
                factor = e
                denom = 1
                for s in roots:
                    if s == r:
                        continue
                    factor = factor * (gen_elem - algebra.element([ring.mul(s, u) for u in e.coords]))
                    denom = ring.mul(denom, ring.sub(r, s))
                proj = factor * ring.inv(denom)
                if not proj.is_zero():
                    blocks.append(proj)
            refined = True
            break
        if not refined:
            # all multiplication operators scalar forces rank 1; rank > 1 here
            # means the algebra holds nilpotents and cannot split
            return None
    return final


def _split_over_zn(algebra: Algebra):
    """The split idempotents of a free algebra A over composite Z/n, glued
    by CRT: e = sum_t u_t e_t from one split idempotent e_t of each
    component A_t = A / q_t A, for the CRT units u_t of the prime powers
    q_t of n; None when some component does not split, or the components
    split into different numbers of idempotents.

    Each e is a free rank-1 ideal generator by construction, with no test.
    A is free over Z/n, so by CRT A e is the direct sum of the A_t e_t.
    Over a field A_t e_t is a rank-1 block of the splitting.  Over Z/p^k it
    is a direct summand of the free module A_t over a local ring, hence
    free, and its rank is its rank mod p, which is 1.  So A e is the sum of
    the Z/q_t, which is Z/n.  The e are idempotent, orthogonal and sum to 1
    because the e_t are so in each component; ``find_split_presentation``
    checks that (:meth:`SplitPresentation.check`).
    """
    n, crt = algebra.ring.n, algebra.ring.crt
    per_prime = []
    for p, q, _ in crt:
        local = algebra if q == n else algebra.over(Modular(q))
        if local.ring.is_field:
            idems = _split_over_field(local)
        else:
            idems = _split_mod_prime_power(local, p)
        if idems is None:
            return None
        per_prime.append(sorted(list(i.coords) for i in idems))
    if len({len(v) for v in per_prime}) != 1:
        return None
    # the i-th idempotents of the components, each sorted once, glued
    return [
        algebra.element([sum(u * v for (_, _, u), v in zip(crt, col)) % n for col in zip(*vecs)])
        for vecs in zip(*per_prime)
    ]


def _split_mod_prime_power(algebra: Algebra, p: int):
    """Split over Z/p^k by splitting mod p and Hensel-lifting idempotents."""
    q = algebra.ring.n
    mod_p = _split_over_field(algebra.over(Modular(p)))
    if mod_p is None:
        return None
    lifted = []
    complement = algebra.one()
    for e_bar in mod_p:
        cand = complement * algebra.element([c % q for c in e_bar.coords])
        for _ in range(64):
            if cand.is_idempotent():
                break
            sq = cand * cand
            cand = sq * 3 - (sq * cand) * 2
        if not cand.is_idempotent():
            return None
        lifted.append(cand)
        complement = complement - cand
    if not complement.is_zero():
        return None
    return lifted
