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


def _forms(offsets: list[Fraction]) -> tuple[tuple[int, ...], ...]:
    """Integer forms in (s, d_1, ...) that agree exactly where s + sum(alpha_i d_i) does.

    The relations are the row (1, r_1, ...) and one row per nonzero-sine
    label, holding the c of each offset with that label; the forms are
    their reduced row echelon form, each row scaled to coprime integers.
    """
    sines = [_sine(r) for r in offsets]
    forms = [[Fraction(1), *offsets]]
    for label in dict.fromkeys(lab for lab, c in sines if c):
        row = [Fraction(0)] + [c if lab == label else Fraction(0) for lab, c in sines]
        pivot = next(j for j, v in enumerate(row) if v)
        row = [v / row[pivot] for v in row]
        # label rows have disjoint supports: only the first row needs reducing
        forms[0] = [a - forms[0][pivot] * b for a, b in zip(forms[0], row)]
        forms.append(row)
    scales = [math.lcm(*(v.denominator for v in form)) for form in forms]
    return tuple(tuple(int(v * m) for v in form) for form, m in zip(forms, scales))


def _classes(M_A: int, M_B: int, p: SyncParams):
    """Forms keying Y over (s, d_a, d_b) and U over (x_A, d_a) at offsets p."""
    r_a, r_b = (Fraction(str(d)) for d in (p.delta_a, p.delta_b))
    y_forms = _forms([r_a, r_b])
    if len(y_forms) == 2:
        # Observations then coincide along one integer direction v of
        # (s, d_a, d_b).  When no multiple of v fits between two reachable
        # triples, every observation is its own class, and the identity
        # forms say so without the large coefficients of an exotic offset.
        (a, b, c), (d, e, f) = y_forms
        v = (b * f - c * e, c * d - a * f, a * e - b * d)
        g = math.gcd(*v)
        if any(abs(x) > g * n for x, n in zip(v, (M_A + M_B - 2, 2 * M_A - 2, 2 * M_B - 2))):
            y_forms = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return y_forms, _forms([r_a])


def _key(forms, coords) -> np.ndarray:
    """One int64 key over broadcast integer coordinates, equal exactly where every form is."""
    key, radix = 0, 1
    for form in forms:
        key = key + radix * sum(c * x for c, x in zip(form, coords))
        radix *= 1 + sum(abs(c) * int(np.ptp(x)) for c, x in zip(form, coords))
    return key


def _relay_counts(M_A: int, M_B: int, forms) -> np.ndarray:
    """Joint counts of (X_A, Y class) over all four-tuples of ranks.

    The ranks (i, i', j, j') of (x_A, x_A_prev, x_B, x_B_prev) land in the
    cell (i + j, i' - i, i + j') of one box, whose coordinates fix s, d_a
    and d_b.  Each x_A reaches one rectangular slice of the box; the
    classes of the reached cells are sorted once, and each x_A reads its
    counts off its slice.
    """
    n = M_A + M_B - 1
    sig, e_a, tau = np.arange(n)[:, None, None], np.arange(1 - M_A, M_A)[:, None], np.arange(n)
    key = _key(forms, (sig, e_a, tau - sig))
    slices = [np.s_[i : i + M_B, M_A - 1 - i : 2 * M_A - 1 - i, i : i + M_B] for i in range(M_A)]
    reached = np.zeros(key.shape, dtype=bool)
    for cells in slices:
        reached[cells] = True
    values, cls = np.unique(key[reached], return_inverse=True)
    key[reached] = cls  # unreached cells keep their keys; no slice reads them
    return np.stack([np.bincount(key[cells].ravel(), minlength=values.size) for cells in slices])


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
    y_forms, u_forms = _classes(M_A, M_B, p)
    i_ray = mi_bits(_relay_counts(M_A, M_B, y_forms))
    i = np.arange(M_A)[:, None]
    u = _key(u_forms, (i, i.T - i))
    i_receiver = mi_bits(joint_counts(u, np.broadcast_to(i, u.shape)))
    return max(i_receiver - i_ray, 0.0)


def sync_sweep(M_A: int, M_B: int, grid_step: float = 0.05) -> list[tuple[float, float, float]]:
    """Rows (delta_a, delta_b, ub) over the full [0, 1]^2 offset grid.

    Offsets are i * Fraction(str(grid_step)), capped at 1; the bound is
    evaluated once per exact observation class.
    """
    if not 0 < grid_step <= 0.5:
        raise ValueError("grid_step must lie in (0, 0.5]")
    grid = [min(i * Fraction(str(grid_step)), 1) for i in range(math.floor(1 / grid_step) + 1)]
    points = [(da, db) for da in grid for db in grid]
    classes = [_classes(M_A, M_B, SyncParams(*pt)) for pt in points]
    reps = dict(zip(classes, points))  # one offset pair per class
    bounds = {cls: ub_with_sync(M_A, M_B, SyncParams(*pt)) for cls, pt in reps.items()}
    return [(float(da), float(db), bounds[cls]) for (da, db), cls in zip(points, classes)]
