"""Timing-misalignment model and its effect on the secrecy-rate upper bound.

With rectangular transmit pulses and a correlator receiver, a timing
offset of delta*T at a user smears its contribution across the current and
previous symbol: the relay sees

    y = (1 - alpha) x_A + (1 - beta) x_B + alpha x_A_prev + beta x_B_prev
      = s + alpha d_a + beta d_b

with s = x_A + x_B, d = previous minus current symbol, and alpha, beta in
[0, 1] determined by the offsets.  The upper bound is re-evaluated as
[I(U; X_A) - I(Y; X_A)]^+ by exact enumeration of this finite
distribution, where U = x_A + alpha d_a is what the legitimate receiver is
left with after cancelling its own known contributions.  At zero offset
this collapses to the aligned bound m_A - I(Y; X_A).

Which observations coincide is decided exactly, with no float tolerance.
An offset is a rational r = delta/T and alpha = r + sin(4 pi r)/(4 pi).
The sine of a rational multiple of pi is algebraic and pi is
transcendental (Lindemann 1882), so an integer relation
a + b alpha + c beta = 0 holds iff a + b r_a + c r_b = 0 and
b sin(4 pi r_a) + c sin(4 pi r_b) = 0.  Two nonzero sines of rational
multiples of pi have a rational ratio only when their absolute values are
equal or both lie in {1/2, 1}, because no minimal vanishing sum of four
roots of unity exists (Conway & Jones 1976, "Trigonometric diophantine
equations").  A few Fraction tests therefore give every observation an
exact integer key.

On ranks the observations fill a box.  The ranks (i, i', j, j') of
(x_A, x_A_prev, x_B, x_B_prev) land in the cell
(sigma, e, tau) = (i + j, i' - i, i + j'), and (s, d_a, d_b) are affine in
(sigma, e, tau - sigma).  A cell is reached by exactly the x_A ranks in
[lo, hi], once each, with

    lo = max(sigma - M_B + 1, tau - M_B + 1, -e, 0)
    hi = min(sigma, tau, M_A - 1 - e, M_A - 1),

the ranks i that keep j, j', i' and i itself in range.  The X_A x class
table therefore adds +1 at lo and -1 at hi + 1 for each member cell of a
class and sums along the ranks.

At generic offsets every cell is its own class and U is injective, so
I(U; X_A) = m_A and the bound is H(X_A | Y) = sum_L h(L) L log2(L) /
(M_A^2 M_B^2), where h(L) counts the cells with hi - lo + 1 = L.  Write
a = M_A <= b = M_B.  A reaching rank lies in [0, a - 1] and in
[-e, a - 1 - e], an interval J of m = a - |e| ranks, and in the two
windows of b ranks that end at sigma and at tau.  As b >= m, a window
meets J in all of J (b - m + 1 windows), or in a prefix or a suffix of
each length k < m (one window each).  Two windows meet J in L = m ranks
in (b - m + 1)^2 ways.  They meet it in L < m ranks in 4(b - m + 1) ways
that take all of J and a part of length L, in 2(2m - 2L - 1) ways that
take two prefixes or two suffixes the shorter of which has length L, and
in 2(m - 1 - L) ways that take a prefix and a suffix overlapping in L
ranks: g(m, L) = 4b + 2m - 6L ways in all.  One e has m = a and two have
each m < a, so h(a) = (b - a + 1)^2 and, for 1 <= L < a,

    h(L) = g(a, L) + 2 (b - L + 1)^2 + 2 sum_{m=L+1}^{a-1} g(m, L)
         = 12 L^2 - 12 (a + b) L + 2 a^2 + 8 a b + 2 b^2 + 2.

With k = b/a fixed the sum is a Riemann sum in x = L/a, and the loss
against m_A tends to a constant:

    m_A - H(X_A | Y) -> -(1/k^2) int_0^1 (12x^2 - 12(1 + k)x + 2 + 8k + 2k^2) x log2(x) dx
                      = (6k^2 + 8k - 1) / (12 k^2 ln 2) bits,

1.1722 at k = 2, 0.9543 at k = 4, 0.8397 at k = 8 and 1/(2 ln 2) as k
grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constellation import _validate_orders
from .info import joint_counts, mi_bits

__all__ = ["SyncParams", "alpha_beta", "ub_with_sync", "sync_sweep"]

# sin(pi w) at the only w in [0, 1/2] where it is rational (Niven's theorem)
_RATIONAL_SINES = {Fraction(0): 0, Fraction(1, 6): Fraction(1, 2), Fraction(1, 2): 1}

# forms that key every (s, d_a, d_b) apart
_IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@dataclass(frozen=True)
class SyncParams:
    """Timing offsets delta/T of the two users, as fractions of the symbol period in [0, 1].

    The bound reads each field x as the rational Fraction(str(x)): a float
    stands for its shortest decimal (0.1 is 1/10) and a Fraction for
    itself, so pass Fraction(1, 3) for a third of the period.
    """

    delta_a: float
    delta_b: float

    def __post_init__(self):
        for name, d in (("delta_a", self.delta_a), ("delta_b", self.delta_b)):
            if not 0 <= d <= 1:
                raise ValueError(f"{name} must lie in [0, 1]")


def alpha_beta(p: SyncParams) -> tuple[float, float]:
    """Fraction of each user's energy leaking from the previous symbol."""
    alpha, beta = (math.sin(4 * math.pi * r) / (4 * math.pi) + r for r in (p.delta_a, p.delta_b))
    return alpha, beta


def _sine(r: Fraction) -> tuple[Fraction, Fraction]:
    """(label, c) with sin(4 pi r) = c sin(pi label), or = c when label is 0.

    A nonzero label is the w in (0, 1/2) with sin(4 pi r) = c sin(pi w)
    when that sine is irrational; sines with different nonzero labels have
    an irrational ratio.
    """
    t = 4 * r % 2
    c = 1 if t < 1 else -1
    w = min(t % 1, 1 - t % 1)
    if w in _RATIONAL_SINES:
        return Fraction(0), Fraction(c * _RATIONAL_SINES[w])
    return w, Fraction(c)


def _exact(d) -> tuple[Fraction, Fraction, Fraction]:
    """The offset d as (r, label, c): the rational r = Fraction(str(d)) and _sine(r)."""
    r = Fraction(str(d))
    return (r, *_sine(r))


def _forms(offsets) -> tuple[tuple[int, ...], ...]:
    """Integer forms in (s, d_1, ...) that agree exactly where s + sum(alpha_i d_i) does.

    The offsets are triples from _exact.  The relations are the row
    (1, r_1, ...) and one row per nonzero-sine label, holding the c of each
    offset with that label; the forms are their reduced row echelon form,
    each row scaled to coprime integers.
    """
    forms = [[Fraction(1), *(r for r, _, _ in offsets)]]
    for label in dict.fromkeys(lab for _, lab, c in offsets if c):
        row = [Fraction(0)] + [c if lab == label else Fraction(0) for _, lab, c in offsets]
        pivot = next(j for j, v in enumerate(row) if v)
        row = [v / row[pivot] for v in row]
        # label rows have disjoint supports: only the first row needs reducing
        forms[0] = [a - forms[0][pivot] * b for a, b in zip(forms[0], row)]
        forms.append(row)
    scales = [math.lcm(*(v.denominator for v in form)) for form in forms]
    return tuple(tuple(int(v * m) for v in form) for form, m in zip(forms, scales))


def _classes(M_A: int, M_B: int, a, b) -> tuple[tuple[int, int, int], ...]:
    """Forms keying Y over (s, d_a, d_b) at the offsets a and b, triples from _exact."""
    y_forms = _forms([a, b])
    if len(y_forms) == 2:
        # Observations then coincide along one integer direction v of
        # (s, d_a, d_b).  When no multiple of v fits between two reachable
        # triples, every observation is its own class, and the identity
        # forms say so without the large coefficients of an exotic offset.
        (a1, b1, c1), (a2, b2, c2) = y_forms
        v = (b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2)
        g = math.gcd(*v)
        if any(abs(x) > g * n for x, n in zip(v, (M_A + M_B - 2, 2 * M_A - 2, 2 * M_B - 2))):
            return _IDENTITY
    return y_forms


def _key(forms, coords) -> np.ndarray:
    """One int64 key over integer coordinate arrays of one shape, equal exactly where every form is."""
    key, radix = 0, 1
    for form in forms:
        key = key + radix * sum(np.multiply(c, x, dtype=np.int64) for c, x in zip(form, coords) if c)
        radix *= 1 + sum(abs(c) * (int(x.max()) - int(x.min())) for c, x in zip(form, coords))
    return key


def _box(M_A: int, M_B: int) -> tuple[np.ndarray, ...]:
    """The reached cells of the rank box as arrays (s, d_a, d_b, lo, hi), one entry per cell.

    The coordinates are (sigma, e, tau - sigma) and the x_A ranks reaching
    the cell are lo..hi (see the module docstring), in the narrowest
    integer type that holds them all.
    """
    n = M_A + M_B - 1
    dtype = np.int16 if n < 2**15 else np.int32
    sig = np.arange(n, dtype=dtype)[:, None, None]
    e = np.arange(1 - M_A, M_A, dtype=dtype)[:, None]
    tau = np.arange(n, dtype=dtype)
    lo = np.maximum(np.maximum(sig, tau) - (M_B - 1), np.maximum(-e, 0))
    hi = np.minimum(np.minimum(sig, tau), np.minimum(M_A - 1 - e, M_A - 1))
    reached = lo <= hi
    lo, hi = lo[reached], hi[reached]
    sig, e, tau = (x[reached] for x in np.broadcast_arrays(sig, e, tau))
    tau -= sig  # d_b, in place
    return sig, e, tau, lo, hi


def _class_ids(key: np.ndarray) -> np.ndarray:
    """The rank of each key among the distinct keys, as np.unique's inverse gives it.

    A key range at most a few times the number of keys is marked in an
    occupancy array, with no sort.
    """
    offset = key - key.min()
    span = int(offset.max()) + 1
    if span > 4 * key.size:
        return np.unique(key, return_inverse=True)[1]
    occupied = np.zeros(span, dtype=bool)
    occupied[offset] = True
    return (np.cumsum(occupied) - 1)[offset]


def _relay_table(M_A: int, y_forms, box) -> np.ndarray:
    """Joint counts of (X_A, Y class): row i counts each class's cells reached by rank i."""
    *coords, lo, hi = box
    cls = _class_ids(_key(y_forms, coords))
    n = int(cls.max()) + 1

    def events(ranks):
        return np.bincount(np.multiply(ranks, n, dtype=np.intp) + cls, minlength=(M_A + 1) * n)

    table = events(lo)
    table -= events(hi + 1)
    rows = table.reshape(M_A + 1, n)[:M_A]  # row M_A holds only the -1 events past the top rank
    return np.cumsum(rows, axis=0, out=rows)


def _interval_lengths(M_A: int, M_B: int) -> np.ndarray:
    """h[L]: the number of reached cells of the rank box with hi - lo + 1 = L, L <= M_A."""
    L = np.arange(M_A + 1, dtype=np.int64)
    h = 12 * L * L - 12 * (M_A + M_B) * L + 2 * M_A**2 + 8 * M_A * M_B + 2 * M_B**2 + 2
    h[0], h[M_A] = 0, (M_B - M_A + 1) ** 2
    return h


def _bound(M_A: int, M_B: int, y_forms, u_forms, box=None) -> float:
    """The bound at offsets whose Y and U the forms key; box is _box(M_A, M_B) or None."""
    if y_forms == _IDENTITY and len(u_forms) == 2:
        # every cell is its own class and U is injective: the bound is H(X_A | Y)
        L = np.arange(2, M_A + 1)
        h = _interval_lengths(M_A, M_B)[2:]
        return float(np.sum(h * (L * np.log2(L)))) / (M_A * M_B) ** 2
    i, i_prev = np.indices((M_A, M_A))
    i_receiver = mi_bits(joint_counts(_key(u_forms, (i, i_prev - i)), i))
    i_ray = mi_bits(_relay_table(M_A, y_forms, _box(M_A, M_B) if box is None else box))
    return max(i_receiver - i_ray, 0.0)


def ub_with_sync(M_A: int, M_B: int, p: SyncParams) -> float:
    """Secrecy-rate upper bound under timing misalignment.

    Current and previous symbols of both users are i.i.d. uniform.  The
    bound is [I(U; X_A) - I(Y; X_A)]^+ where Y is the relay's misaligned
    observation and U = (1 - alpha) X_A + alpha X_A_prev is what remains
    once the legitimate receiver cancels its own (known) current and
    previous contributions.  At zero offset U = X_A and this collapses to
    m_A - I(Y; X_A), the aligned bound.  Offsets are exact rationals (see
    SyncParams), and two observations are one outcome only when equal.
    """
    _validate_orders(M_A, M_B)
    a, b = _exact(p.delta_a), _exact(p.delta_b)
    return _bound(M_A, M_B, _classes(M_A, M_B, a, b), _forms([a]))


def _offsets(grid_step: float) -> list[Fraction]:
    """Every i * step in [0, 1], i = 0, 1, ..., for the exact step Fraction(str(grid_step))."""
    step = Fraction(str(grid_step))
    return [i * step for i in range(math.floor(1 / step) + 1)]


def sync_sweep(M_A: int, M_B: int, grid_step: float = 0.05) -> list[tuple[float, float, float]]:
    """Rows (delta_a, delta_b, ub) over the full [0, 1]^2 offset grid.

    Offsets are the i * Fraction(str(grid_step)) <= 1 (see _offsets); the
    bound is evaluated once per exact observation class.
    """
    if not 0 < grid_step <= 0.5:
        raise ValueError("grid_step must lie in (0, 0.5]")
    _validate_orders(M_A, M_B)
    grid = [_exact(r) for r in _offsets(grid_step)]
    box = _box(M_A, M_B)
    bounds, rows = {}, []
    for a in grid:
        u_forms = _forms([a])
        for b in grid:
            cls = (_classes(M_A, M_B, a, b), u_forms)
            if cls not in bounds:
                bounds[cls] = _bound(M_A, M_B, *cls, box)
            rows.append((float(a[0]), float(b[0]), bounds[cls]))
    return rows
