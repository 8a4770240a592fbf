"""Sparse vectors and columns over the base rings, for the certificates.

A sparse vector is a dict {index: value} of its nonzero coordinates; a
matrix is read as one such dict per column.  Sums run over the nonzero
entries only, so a 0/1 partial permutation costs O(1) a column, and are
reduced like the ring's own (mod n over Z/n), so an equality of sparse
results is the equality of the dense ones.
"""

from __future__ import annotations


def sparse_vector(coords) -> dict:
    """The nonzero coordinates of a vector, {index: value}."""
    return {i: x for i, x in enumerate(coords) if x != 0}


def sparse_columns(rows, ncols: int) -> list:
    """The nonzero entries of each column of a matrix given by its rows,
    one {row: value} dict per column."""
    cols = [{} for _ in range(ncols)]
    for k, row in enumerate(rows):
        for j, x in enumerate(row):
            if x != 0:
                cols[j][k] = x
    return cols


def sparse_table(algebra) -> list:
    """The structure constants of ``algebra`` for :func:`sparse_mul`: row i
    holds the nonzero entries (j, ((k, c_ijk), ...))."""
    return [[(j, entries) for j, entries in enumerate(row) if entries] for row in algebra.table]


def reduced(vec: dict, n) -> dict:
    """A sparse vector with its values reduced mod n (when n is set) and
    the zeros dropped."""
    if n:
        return {k: v % n for k, v in vec.items() if v % n}
    return {k: v for k, v in vec.items() if v != 0}


def combine(cols, vec: dict, n) -> dict:
    """sum_l vec[l] cols[l] for sparse columns ``cols`` and vector ``vec``,
    reduced by :func:`reduced`; a unit vector returns its column."""
    if len(vec) == 1:
        ((l, b),) = vec.items()
        if b == 1:
            return cols[l]
    out = {}
    for l, b in vec.items():
        for k, a in cols[l].items():
            out[k] = out.get(k, 0) + a * b
    return reduced(out, n)


def sparse_mul(table, x: dict, y: dict, n) -> dict:
    """The product of sparse vectors x and y for the table of
    :func:`sparse_table`; the same sum as ``Algebra.mul_coords``, reduced by
    :func:`reduced`."""
    out = {}
    for i, a in x.items():
        for j, entries in table[i]:
            b = y.get(j)
            if b is not None:
                for k, c in entries:
                    out[k] = out.get(k, 0) + a * b * c
    return reduced(out, n)
