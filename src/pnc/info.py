"""Exact mutual information from integer joint counts.

Observations and secrets are turned into integer keys by their callers;
this module tabulates how often each pair of keys occurs and evaluates
I(A; B) from those counts.  Independence is decided by integer
cross-multiplication, so a returned 0.0 is a true zero and never a
rounding artifact; logarithms are applied only to dependent tables.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["joint_counts", "mi_bits", "conditional_mi_bits"]

# Largest grand total n for which n * n still fits in an int64.
_MAX_TOTAL = math.isqrt(int(np.iinfo(np.int64).max))


def joint_counts(a_keys, b_keys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contingency table of two aligned integer key arrays.

    Returns (table, a_values, b_values): table[i, j] is the number of
    positions where a_keys == a_values[i] and b_keys == b_values[j].  Only
    values that occur get a row or a column, so the table's size follows
    the data, not the range of the keys.
    """
    a_keys = np.asarray(a_keys).ravel()
    b_keys = np.asarray(b_keys).ravel()
    if a_keys.shape != b_keys.shape:
        raise ValueError(f"key arrays differ in length: {a_keys.size} != {b_keys.size}")
    a_values, a_idx = np.unique(a_keys, return_inverse=True)
    b_values, b_idx = np.unique(b_keys, return_inverse=True)
    shape = (a_values.size, b_values.size)
    flat = np.bincount(a_idx * shape[1] + b_idx, minlength=shape[0] * shape[1])
    return flat.astype(np.int64, copy=False).reshape(shape), a_values, b_values


def mi_bits(table) -> float:
    """I(A; B) in bits from a joint-count table with A on the rows.

    Exactly 0.0 whenever table * n == outer(row sums, column sums) in
    integer arithmetic, n being the grand total; an empty table is
    independent too.  Raises OverflowError when n * n could overflow int64.
    """
    t = np.asarray(table, dtype=np.int64)
    n = int(t.sum())
    if n > _MAX_TOTAL:
        raise OverflowError(f"grand total {n} is too large for exact int64 products")
    rows, cols = t.sum(axis=1), t.sum(axis=0)
    expected = np.outer(rows, cols)
    if np.array_equal(t * n, expected):
        return 0.0
    nz = t > 0
    c = t[nz]
    return float(np.sum(c / n * np.log2((c * n) / expected[nz])))


def conditional_mi_bits(a_keys, b_keys, given) -> float:
    """I(A; B | C) in bits from three aligned integer key arrays.

    The mean of :func:`mi_bits` over the slices given == c, weighted by
    slice size, so it is exactly 0.0 when every slice's table factorizes.
    """
    a_keys, b_keys, given = (np.asarray(k).ravel() for k in (a_keys, b_keys, given))
    if not a_keys.shape == b_keys.shape == given.shape:
        raise ValueError("key arrays differ in length")
    if given.size == 0:
        return 0.0
    total = 0.0
    for c in np.unique(given):
        in_slice = given == c
        table, _, _ = joint_counts(a_keys[in_slice], b_keys[in_slice])
        total += int(table.sum()) * mi_bits(table)
    return total / given.size
