"""Exact mutual information from integer joint counts.

Observations and secrets are turned into integer keys by their callers,
which tabulate how often each pair of keys occurs; this module evaluates
I(A; B) from those counts.
Independence is decided in integer arithmetic for any table whose total
fits an int64, so a returned 0.0 is a true zero and never a rounding
artifact; logarithms are applied only to dependent tables.

A table whose cells within each group of columns take only two adjacent
values has a private kernel, :func:`_balanced_mi_bits`, that reads only
per-row group totals and never builds the table.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["mi_bits"]


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


# atanh(z) = z + z^3 * h(z^2), h(w) = sum_m w^m / (2m + 3), highest power first;
# for |z| <= 1/3 the terms past these 16 move phi by under 2^-56 relative
_ATANH_TAIL = 1.0 / (2 * np.arange(15, -1, -1) + 3)
_CHUNK_CELLS = 1 << 16  # cells per chunk of rows: bounds the float temporaries


def _phi(num, den) -> np.ndarray:
    """phi(x) = (1 + x) ln(1 + x) - x at x = num/den >= -1, to a few ulp.

    num and den are int64 arrays of one shape, den > 0, whose values and
    2*den + num are exact in float64.  For -1/2 <= x <= 1, z = x/(2 + x) =
    num/(2 den + num) lies in [-1/3, 1/3], ln(1 + x) = 2 atanh(z), and
    phi = num^2 (1 + z(1 + z) h(z^2)) / (den (2 den + num)), where no two
    terms cancel.  Elsewhere (1 + x) log1p(x) - x loses at most a factor
    of 3.6 to cancellation, and phi(-1) = 1.
    """
    x = num / den
    out = np.ones_like(x)
    mid = (x >= -0.5) & (x <= 1)
    m, d = num[mid], den[mid]
    s = 2 * d + m
    z = m / s
    m = m.astype(np.float64)
    w = z * z
    tail = np.full_like(w, _ATANH_TAIL[0])
    for c in _ATANH_TAIL[1:]:  # Horner, in place
        tail *= w
        tail += c
    out[mid] = m * m * (1 + z * (1 + z) * tail) / (d * s.astype(np.float64))
    far = ~mid & (x > -1)
    x = x[far]
    out[far] = (1 + x) * np.log1p(x) - x
    return out


def _balanced_mi_bits(totals, widths) -> np.ndarray:
    """I(Y; G, C) in bits from per-row group totals of a balanced table.

    The table has a row per y and, for each group g, widths[g] columns c;
    totals[..., y, g] is row y's sum over group g.  Leading axes of totals
    and widths broadcast, and each of their entries is one table, so the
    result has their broadcast leading shape.  The table is balanced:
    each row's counts within one group are at most one apart, and each
    group's columns have equal sums.  Then, with q, r = divmod(T, W), r
    cells of the row hold q + 1 and W - r hold q, and every column of
    group g sums to N_g / W, N_g being the group total.  With R_y the row
    totals and n their sum, D(p_YGC || p_Y p_GC) in nats is
    sum e [r phi(x1) + (W - r) phi(x0)] / n over rows and groups, where
    e = R_y N_g / (n W) is the independent cell count, x0 = q/e - 1 =
    (q n W - R_y N_g) / (R_y N_g), x1 = ((q + 1) n W - R_y N_g) / (R_y N_g)
    and phi(x) = (1 + x) ln(1 + x) - x >= 0 (Cover & Thomas, Elements of
    Information Theory, ch. 2).  Every term is nonnegative, so nothing
    cancels to first order near independence, and each numerator is an
    exact int64.  An entry is exactly 0.0 when every r and every numerator
    of x0 is 0, decided in integers before any logarithm; rows and groups
    with no counts add nothing.

    Raises ValueError unless (max row total + max width) * n < 2^62, which
    keeps every integer above, and 2 R_y N_g plus a numerator, in an int64.
    """
    widths = np.asarray(widths, dtype=np.int64)[..., None, :]
    t = np.asarray(totals, dtype=np.int64)
    shape = np.broadcast_shapes(t.shape, widths.shape)
    t = np.broadcast_to(t, shape)
    rows = t.sum(axis=-1, keepdims=True)
    cols = t.sum(axis=-2, keepdims=True)
    n = rows.sum(axis=-2, keepdims=True)
    if (int(rows.max(initial=0)) + int(widths.max())) * int(n.max(initial=0)) >= 2**62:
        raise ValueError("joint counts too large for exact int64 arithmetic")
    nw = n * widths
    step = max(1, _CHUNK_CELLS * shape[-2] // max(t.size, 1))
    chunks = [np.s_[..., i : i + step, :] for i in range(0, shape[-2], step)]

    def cells(c):
        d = rows[c] * cols  # R_y N_g = n W e
        q, r = np.divmod(t[c], widths)
        return d, r, q * nw - d

    dependent = np.zeros(shape[:-2], dtype=bool)
    for c in chunks:
        d, r, num = cells(c)
        dependent |= r.any(axis=(-2, -1)) | num.any(axis=(-2, -1))
    if not dependent.any():
        return np.zeros(shape[:-2])
    total = np.zeros(shape[:-2])
    for c in chunks:
        d, r, num = cells(c)
        # an empty row or group has d = 0 and adds 0; den 1 keeps phi finite there
        phi = _phi(np.stack([num + nw, num]), np.broadcast_to(np.maximum(d, 1), (2, *d.shape)))
        total += np.sum(d / nw * (r * phi[0] + (widths - r) * phi[1]), axis=(-2, -1))
    return np.where(dependent, total / (n[..., 0, 0] * math.log(2)), 0.0)

