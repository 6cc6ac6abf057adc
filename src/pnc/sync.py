"""Timing-misalignment model and its effect on the secrecy-rate upper bound.

With rectangular transmit pulses and a correlator receiver, a timing
offset of delta*T at a user smears its contribution across the current and
previous symbol: the relay sees

    y = (1 - alpha) x_A + (1 - beta) x_B + alpha x_A_prev + beta x_B_prev

with alpha, beta in [0, 1] determined by the offsets.  The upper bound is
re-evaluated as [I(U; X_A) - I(Y; X_A)]^+ by exact enumeration of this
finite distribution, where U is what the legitimate receiver is left with
after cancelling its own known contributions.  At zero offset this
collapses to the aligned bound m_A - I(Y; X_A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import _validate_orders, make_pam
from .info import mi_bits

__all__ = ["SyncParams", "MisalignedChannel", "alpha_beta", "ub_with_sync", "sync_sweep"]


@dataclass(frozen=True)
class SyncParams:
    """Timing offsets of the two users, each in [0, period]."""

    delta_a: float
    delta_b: float
    period: float = 1.0

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("symbol period must be positive")
        for name, d in (("delta_a", self.delta_a), ("delta_b", self.delta_b)):
            if not 0 <= d <= self.period:
                raise ValueError(f"{name} must lie in [0, period]")


@dataclass(frozen=True)
class MisalignedChannel:
    """Observation table over all (x_A_prev, x_A, x_B_prev, x_B) 4-tuples."""

    alpha: float
    beta: float
    observations: np.ndarray  # shape (M_A, M_A, M_B, M_B), axes (xa, xa_prev, xb, xb_prev)


def alpha_beta(p: SyncParams) -> tuple[float, float]:
    """Fraction of each user's energy leaking from the previous symbol."""

    def coeff(delta: float) -> float:
        r = delta / p.period
        return math.sin(4 * math.pi * r) / (4 * math.pi) + r

    return coeff(p.delta_a), coeff(p.delta_b)


def _misaligned_channel(M_A: int, M_B: int, p: SyncParams) -> MisalignedChannel:
    a = np.asarray(make_pam(M_A).points, dtype=float)
    b = np.asarray(make_pam(M_B).points, dtype=float)
    alpha, beta = alpha_beta(p)
    y = (
        (1 - alpha) * a[:, None, None, None]
        + alpha * a[None, :, None, None]
        + (1 - beta) * b[None, None, :, None]
        + beta * b[None, None, None, :]
    )
    return MisalignedChannel(alpha=alpha, beta=beta, observations=y)


def _merge_ids(values: np.ndarray, tol: float) -> np.ndarray:
    """Cluster ids of a flat value array, grouping gaps <= tol in sorted order."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    new_cluster = np.empty(values.size, dtype=bool)
    new_cluster[0] = True
    np.greater(np.diff(sorted_vals), tol, out=new_cluster[1:])
    ids = np.empty(values.size, dtype=np.int64)
    ids[order] = np.cumsum(new_cluster) - 1
    return ids


def _mi_from_ids(ids: np.ndarray, side_idx: np.ndarray, n_side: int) -> float:
    """I(merged observation; side variable) from equiprobable outcome pairs."""
    n_y = int(ids.max()) + 1
    counts = np.bincount(ids * n_side + side_idx, minlength=n_y * n_side)
    return mi_bits(counts.reshape(-1, n_side))


def ub_with_sync(M_A: int, M_B: int, p: SyncParams) -> float:
    """Secrecy-rate upper bound under timing misalignment.

    Current and previous symbols of both users are i.i.d. uniform.  The
    bound is [I(U; X_A) - I(Y; X_A)]^+ where Y is the relay's misaligned
    observation and U = (1 - alpha) X_A + alpha X_A_prev is what remains
    once the legitimate receiver cancels its own (known) current and
    previous contributions.  At zero offset U = X_A and this collapses to
    m_A - I(Y; X_A), the aligned bound.  Observations within
    1e-9 * (M_A + M_B) of each other are treated as a single outcome (they
    are generally irrational combinations).
    """
    _validate_orders(M_A, M_B)
    tol = 1e-9 * (M_A + M_B)
    chan = _misaligned_channel(M_A, M_B, p)
    y = chan.observations
    # axis 0 of `observations` is the current x_A
    xa_idx = np.broadcast_to(np.arange(M_A)[:, None, None, None], y.shape).ravel()
    i_ray = _mi_from_ids(_merge_ids(y.ravel(), tol), xa_idx, M_A)
    a = np.asarray(make_pam(M_A).points, dtype=float)
    u = (1 - chan.alpha) * a[:, None] + chan.alpha * a[None, :]
    xa_u = np.broadcast_to(np.arange(M_A)[:, None], u.shape).ravel()
    i_receiver = _mi_from_ids(_merge_ids(u.ravel(), tol), xa_u, M_A)
    return max(i_receiver - i_ray, 0.0)


def sync_sweep(M_A: int, M_B: int, grid_step: float = 0.05) -> list[tuple[float, float, float]]:
    """Rows (delta_a, delta_b, ub) over the full [0, 1]^2 offset grid, T = 1."""
    if not 0 < grid_step <= 0.5:
        raise ValueError("grid_step must lie in (0, 0.5]")
    n = math.floor(1 / grid_step) + 1
    rows = []
    for i in range(n):
        for j in range(n):
            da = min(i * grid_step, 1.0)
            db = min(j * grid_step, 1.0)
            ub = ub_with_sync(M_A, M_B, SyncParams(da, db))
            rows.append((da, db, ub))
    return rows
