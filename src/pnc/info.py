"""Exact mutual information from integer joint counts.

Observations and secrets are turned into integer keys by their callers;
this module tabulates how often each pair of keys occurs, weighted by an
integer count per position, and evaluates I(A; B) from those counts.
Independence is decided in integer arithmetic for any table whose total
fits an int64, so a returned 0.0 is a true zero and never a rounding
artifact; logarithms are applied only to dependent tables.
"""

from __future__ import annotations

import numpy as np

__all__ = ["joint_counts", "mi_bits", "conditional_mi_bits"]


def joint_counts(a_keys, b_keys, weights=1) -> np.ndarray:
    """Contingency table of two aligned integer key arrays.

    table[i, j] sums, in int64, the integer weights of the positions where
    a_keys holds its i-th smallest distinct value and b_keys its j-th.  Only
    values that occur get a row or a column (an all-zero one if all their
    weights are 0), so the table's size follows the data, not the range of
    the keys.
    """
    a_keys = np.asarray(a_keys).ravel()
    b_keys = np.asarray(b_keys).ravel()
    if a_keys.shape != b_keys.shape:
        raise ValueError(f"key arrays differ in length: {a_keys.size} != {b_keys.size}")
    a_values, a_idx = np.unique(a_keys, return_inverse=True)
    b_values, b_idx = np.unique(b_keys, return_inverse=True)
    shape = (a_values.size, b_values.size)
    flat = np.zeros(shape[0] * shape[1], dtype=np.int64)
    np.add.at(flat, a_idx * shape[1] + b_idx, weights)
    return flat.reshape(shape)


def mi_bits(table) -> float:
    """I(A; B) in bits from a joint-count table with A on the rows.

    Exactly 0.0 when table * n == outer(row sums, column sums), n the
    grand total.  A nonnegative table factorizes exactly when every row
    lies on the ray of the column sums, that is, when row i is
    (row sum i // sum(p)) * p with no remainder, p being the primitive
    vector of that ray (the column sums over their gcd).  No product in
    this test exceeds a row sum, so it is exact for any total that fits an
    int64; zero rows and columns, and an empty table, need no special case.
    A dependent table's value takes its products in float64, which rounds
    products of integers below 2**53 correctly.  A nearly independent table
    with a total above about 1e7 reads rounding noise, since its terms are
    first order in the deviation and the value second order: it can read
    <= 0 (the zero decision stays exact).
    """
    t = np.asarray(table, dtype=np.int64)
    rows, cols = t.sum(axis=1), t.sum(axis=0)
    p = cols // max(np.gcd.reduce(cols), 1)
    multiple, rest = np.divmod(rows, max(p.sum(), 1))
    if not rest.any() and np.array_equal(t, np.outer(multiple, p)):
        return 0.0
    n = float(t.sum())
    nz = t > 0
    c = t[nz]
    return float(np.sum(c / n * np.log2(c * n / np.outer(rows.astype(float), cols)[nz])))


def conditional_mi_bits(a_keys, b_keys, given, weights=1) -> float:
    """I(A; B | C) in bits from three aligned integer key arrays.

    The mean of :func:`mi_bits` over the slices given == c, weighted by
    each slice's total weight, so it is exactly 0.0 when every slice's
    table factorizes.  `weights` are integer counts per position, as in
    :func:`joint_counts`.
    """
    a_keys, b_keys, given = (np.asarray(k).ravel() for k in (a_keys, b_keys, given))
    if not a_keys.shape == b_keys.shape == given.shape:
        raise ValueError("key arrays differ in length")
    weights = np.broadcast_to(weights, given.shape)
    n = int(weights.sum())
    if n == 0:
        return 0.0
    total = 0.0
    for c in np.unique(given):
        in_slice = given == c
        table = joint_counts(a_keys[in_slice], b_keys[in_slice], weights[in_slice])
        total += int(table.sum()) * mi_bits(table)
    return total / n
