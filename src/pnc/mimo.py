"""Secrecy-constrained MIMO precoding: alignment, zero-forcing, and the optimum.

Both users must present the relay with identical effective channels
(H_A G_A = H_B G_B, equality of matrices, not just column spans), which
confines the stacked precoder G = [G_A; G_B] to the right nullspace of
[H_A  -H_B].  Zero-forcing picks an orthonormal basis B of that nullspace
and rescales to the transmit power cap.  The optimum of the log-det
capacity over the same set is convex in Q = C·C^H (G = B·C) under the two
per-user power constraints; it is found by dual water-filling (Telatar
1999; Yu & Lan 2007), whose root-finding steps search the weight of the two
constraints by safeguarded false position (Anderson & Björck 1973), and
every result carries its duality gap as a certificate of optimality.

`nullspace_basis`, `capacity`, zero-forcing and the solver accept a leading
stack axis, so Monte Carlo evaluates all trials of a request in one pass
through the same code that serves a single instance: `optimize_precoders`
is the better of ZF and the optimum on a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PrecoderProblem",
    "PrecoderPair",
    "OptimizeResult",
    "dof_max",
    "precoder_space_dim",
    "nullspace_basis",
    "zf_precoders",
    "capacity",
    "capacity_gradient",
    "optimize_precoders",
    "ergodic_capacity_mc",
    "draw_channel_pair",
]

_LN2 = math.log(2.0)

# relative tolerance below which a channel counts as rank deficient
# (singular value over the largest) or, for square channels, singular
# (the inverse of the Frobenius condition number)
_RANK_TOL = 1e-10

# the dual solver's budget of root-finding steps per instance, and the
# duality gap (bits) at which an instance counts as solved
_MAX_STEPS = 500
_GAP_TOL = 1e-10


@dataclass(frozen=True)
class PrecoderProblem:
    """Channel pair of one precoding instance and its SNR, finite and > 0.

    Both users share one power cap, so power and noise enter only through `snr`.
    """

    H_A: np.ndarray
    H_B: np.ndarray
    snr: float = 2.0

    def __post_init__(self):
        ha = np.atleast_2d(np.asarray(self.H_A, dtype=complex))
        hb = np.atleast_2d(np.asarray(self.H_B, dtype=complex))
        if ha.shape != hb.shape:
            raise ValueError("channel matrices must share a shape")
        m, n = ha.shape
        _dof(m, n)
        if not 0 < self.snr < math.inf:
            raise ValueError(f"snr must be finite and positive, got {self.snr}")
        object.__setattr__(self, "H_A", ha)
        object.__setattr__(self, "H_B", hb)

    @property
    def M(self) -> int:
        return self.H_A.shape[0]

    @property
    def N(self) -> int:
        return self.H_A.shape[1]

    @property
    def d(self) -> int:
        return 2 * self.N - self.M


@dataclass(frozen=True)
class PrecoderPair:
    """Aligned precoders G_A, G_B (N x d)."""

    g_a: np.ndarray
    g_b: np.ndarray

    def alignment_residual(self, H_A: np.ndarray, H_B: np.ndarray) -> float:
        return float(np.linalg.norm(H_A @ self.g_a - H_B @ self.g_b))

    def powers(self) -> tuple[float, float]:
        return float(np.linalg.norm(self.g_a) ** 2), float(np.linalg.norm(self.g_b) ** 2)

    def stacked(self) -> np.ndarray:
        return np.vstack([self.g_a, self.g_b])


@dataclass(frozen=True)
class OptimizeResult:
    """Precoders found by :func:`optimize_precoders` and their certificate.

    `iterations` counts the dual solver's root-finding steps, and
    `dual_gap` bounds how far `capacity` lies below the optimum;
    `converged` is False when the step budget ran out first.
    """

    pair: PrecoderPair
    capacity: float
    iterations: int
    converged: bool
    dual_gap: float
    trace: list = field(default_factory=list, repr=False)


def dof_max(M: int, N: int) -> int:
    """Interference-free transmit dimensions available to both users."""
    if M < 1 or N < 1:
        raise ValueError("antenna counts must be positive")
    if N > M:
        raise ValueError("require N <= M antennas")
    return max(2 * N - M, 0)


def _dof(M: int, N: int) -> int:
    """:func:`dof_max`, raising when no dimension is interference-free."""
    d = dof_max(M, N)
    if d < 1:
        raise ValueError(f"no interference-free dimensions for (M, N) = ({M}, {N})")
    return d


def precoder_space_dim(M: int, N: int) -> int:
    """Real-manifold dimension of the feasible precoder space, 2(d^2 - 1)."""
    d = _dof(M, N)
    return 2 * (d * d - 1)


def nullspace_basis(H_A: np.ndarray, H_B: np.ndarray) -> np.ndarray:
    """Orthonormal basis (2N x d) of the right nullspace of [H_A  -H_B].

    Computed from the singular value decomposition; raises if the stacked
    channel is rank-deficient relative to `_RANK_TOL` times the largest
    singular value (generic full-rank channels are assumed).  Channels
    with a leading stack axis (T, M, N) give one basis per pair (T, 2N, d).
    """
    H_A = np.atleast_2d(np.asarray(H_A, dtype=complex))
    H_B = np.atleast_2d(np.asarray(H_B, dtype=complex))
    m = H_A.shape[-2]
    block = np.concatenate([H_A, -H_B], axis=-1)
    _, s, vh = np.linalg.svd(block)
    rank = np.sum(s > _RANK_TOL * s[..., :1], axis=-1)
    if np.any(rank < m):
        raise ValueError(f"stacked channel is rank deficient (rank {rank.min()} < {m})")
    return np.swapaxes(vh[..., m:, :].conj(), -1, -2)


def _herm(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return np.swapaxes(x.conj(), -1, -2)


def _inverse(h: np.ndarray) -> np.ndarray:
    """Inverse of each square channel; raises ValueError if any is (near) singular."""
    try:
        inv = np.linalg.inv(h)
    except np.linalg.LinAlgError:
        inv = None
    if inv is None or not np.all(
        np.linalg.norm(h, axis=(-2, -1)) * np.linalg.norm(inv, axis=(-2, -1)) <= 1 / _RANK_TOL
    ):
        raise ValueError("square channel is singular to working precision")
    return inv


def _zf(
    h_a: np.ndarray, h_b: np.ndarray, basis: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Zero-forcing precoders (G_A, G_B) of each channel pair of a stack (T, M, N).

    Square channels use their inverses; otherwise `basis` (from
    :func:`nullspace_basis`) is split into its two N-row blocks.  Either
    pair is rescaled so that the larger of the two powers is N, each norm
    taken of a view into the stack, as `np.linalg.norm` of that matrix alone.
    """
    n = h_a.shape[-1]
    if h_a.shape[-2] == n:
        e_a, e_b = _inverse(h_a), _inverse(h_b)
    else:
        e_a, e_b = basis[..., :n, :], basis[..., n:, :]
    gamma = np.array([max(np.linalg.norm(a), np.linalg.norm(b)) for a, b in zip(e_a, e_b)])
    return math.sqrt(n) * e_a / gamma[:, None, None], math.sqrt(n) * e_b / gamma[:, None, None]


def zf_precoders(problem: PrecoderProblem) -> PrecoderPair:
    """Zero-forcing precoders: nullspace split, rescaled to the power cap.

    For square channels (N = M = d) the channel inverses are used
    directly, and a Frobenius condition number above 1/`_RANK_TOL` raises;
    otherwise the top and bottom N-row blocks of the nullspace basis
    become G_A and G_B.
    """
    h_a, h_b = problem.H_A[None], problem.H_B[None]
    basis = None if problem.M == problem.N else nullspace_basis(h_a, h_b)
    g_a, g_b = _zf(h_a, h_b, basis)
    return PrecoderPair(g_a=g_a[0], g_b=g_b[0])


def capacity(H_A: np.ndarray, G_A: np.ndarray, snr: float | np.ndarray) -> float | np.ndarray:
    """log2 det(I + snr * (H_A G_A)(H_A G_A)^dagger) in bits.

    A float for one channel and precoder; with leading stack axes the
    matrices and `snr` broadcast as numpy does (`snr` against the stack
    shape of H_A G_A), giving one capacity per instance.
    """
    snr = np.asarray(snr, dtype=float)
    if not np.all((snr > 0) & (snr < np.inf)):  # nan fails both
        raise ValueError("snr must be finite and positive")
    hg = np.asarray(H_A, dtype=complex) @ np.asarray(G_A, dtype=complex)
    if not np.all(np.isfinite(hg)):
        raise ValueError("non-finite entries in effective channel")
    m = hg.shape[-2]
    x = np.eye(m) + snr[..., None, None] * (hg @ _herm(hg))
    sign, logdet = np.linalg.slogdet(x)
    if np.any(sign.real <= 0):
        raise ValueError("capacity argument is not positive definite")
    caps = logdet / _LN2
    return float(caps) if caps.ndim == 0 else caps


def capacity_gradient(H_A: np.ndarray, G_A: np.ndarray, snr: float) -> np.ndarray:
    """Matrix D packing the real gradient of :func:`capacity` w.r.t. G_A.

    Re(D[i, j]) and Im(D[i, j]) are the partial derivatives with respect to
    the real and imaginary parts of G_A[i, j].
    """
    hg = H_A @ G_A
    m = hg.shape[0]
    x = np.eye(m) + snr * (hg @ hg.conj().T)
    xinv_hg = np.linalg.solve(x, hg)
    return (2.0 * snr / _LN2) * (H_A.conj().T @ xinv_hg)


def _waterfill(gains: np.ndarray, total: float) -> np.ndarray:
    """Powers max(nu - 1/g, 0) summing to `total`, one water level nu per row.

    `gains` come from `eigh` in ascending order; modes with g <= 0 get none.
    """
    inv = np.full(gains.shape, np.inf)
    np.divide(1.0, gains, out=inv, where=gains > 0)
    ranked = inv[:, ::-1]  # strongest mode first
    levels = (total + np.cumsum(ranked, axis=1)) / np.arange(1, gains.shape[1] + 1)
    # the k strongest modes are all wet iff the level for k clears the k-th 1/g
    wet = np.sum(levels > ranked, axis=1)
    nu = np.take_along_axis(levels, wet[:, None] - 1, axis=1)
    return np.where(inv < nu, nu - inv, 0.0)


def _solve_dual(basis: np.ndarray, h_a: np.ndarray, snrs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Dual water-filling over a batch of T channels times S SNRs.

    With G = B·C and Q = C·C^H the problem is to maximise
    log2 det(I + snr·K·Q), K = E_A^H H_A^H H_A E_A, subject to
    tr(P_A·Q) <= N and tr(P_B·Q) <= N, where E_A, E_B are the two N-row
    blocks of the basis B and P_A = E_A^H E_A = I - P_B.  For a weight
    W = theta·P_A + (1 - theta)·P_B the single constraint tr(W·Q) <= N is
    solved by water-filling the eigenmodes of snr·W^(-1/2)·K·W^(-1/2); its
    value bounds the optimum from above (the dual value), and the same Q
    rescaled to the power cap N / max(t_A, t_B) is feasible (the primal
    value).  A root search on theta for the sign change of
    f(theta) = (t_A - t_B) / N keeps a bracket [lo, hi] with f(lo) > 0 >= f(hi)
    and takes root-finding steps in this order:

    1. the midpoint 1/2;
    2. the end of [0, 1] that step 1 points to, which either certifies an
       end optimum (one power constraint is slack) or gives f at both ends;
    3. Anderson-Björck false position on the bracket's end values, or the
       midpoint when that point leaves the open bracket.

    W(0) = P_B (W(1) = P_A) is singular when P_A has an eigenvalue 1 (0);
    such an end is never evaluated, and step 2 bisects instead.  An
    instance stops once its smallest dual value is within `_GAP_TOL` of its
    best primal value, or after `_MAX_STEPS` steps; where H_A·E_A = 0 the
    capacity is 0 at any precoder, so it stops before step 1.  W shares the
    eigenvectors V of P_A, so the whitening is a diagonal scaling in that
    basis.

    Instance t·S + s pairs channel t with `snrs[s]`.  Returns the stacked
    precoders G = B·C (T·S, 2N, d) of each best primal point, the
    root-finding steps, the best primal and smallest dual values (bits) per
    instance, and the running best primal value after each step (steps, T·S).
    """
    n = h_a.shape[-1]
    e_a = basis[:, :n]
    a, v = np.linalg.eigh(_herm(e_a) @ e_a)
    a = np.clip(a, 0.0, 1.0)  # P_A and I - P_A are PSD; clip rounding
    hv = h_a @ e_a @ v
    count, d = len(snrs), v.shape[-1]
    k = (snrs[:, None, None] * (_herm(hv) @ hv)[:, None]).reshape(-1, d, d)
    a = np.repeat(a, count, axis=0)
    size = len(k)
    zero_end_ok, one_end_ok = np.all(a < 1.0, axis=1), np.all(a > 0.0, axis=1)
    lo, hi = np.zeros(size), np.ones(size)
    f_lo, f_hi = np.full(size, np.nan), np.full(size, np.nan)  # f at the ends, once known
    lo_moved = np.zeros(size, dtype=bool)  # which end the latest step moved
    blind = ~np.any(k, axis=(1, 2))  # H_A·E_A = 0
    primal, dual = np.where(blind, 0.0, -np.inf), np.where(blind, 0.0, np.inf)
    best_c = np.zeros((size, d, d), dtype=complex)
    iterations = np.zeros(size, dtype=int)
    active = ~blind
    trace = []
    for step in range(_MAX_STEPS):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        l, h, fl, fh, up = lo[idx], hi[idx], f_lo[idx], f_hi[idx], lo_moved[idx]
        mid = (l + h) / 2
        if step == 0:
            theta = mid
        elif step == 1:  # the end that step 1 points to, unless W is singular there
            end_ok = np.where(up, one_end_ok[idx], zero_end_ok[idx])
            theta = np.where(end_ok, up.astype(float), mid)
        else:
            theta = l + (h - l) * (fl / (fl - fh))
            theta = np.where((theta > l) & (theta < h), theta, mid)
        th = theta[:, None]
        w_isqrt = 1.0 / np.sqrt(th * a[idx] + (1.0 - th) * (1.0 - a[idx]))
        gains, u = np.linalg.eigh(k[idx] * w_isqrt[:, :, None] * w_isqrt[:, None, :])
        p = _waterfill(gains, n)
        # diagonal of Q = diag(w_isqrt)·U·diag(p)·U^H·diag(w_isqrt) in the basis V
        q_diag = w_isqrt**2 * np.einsum("bik,bk->bi", np.abs(u) ** 2, p)
        t_a = np.sum(a[idx] * q_diag, axis=1)
        t_b = np.sum((1.0 - a[idx]) * q_diag, axis=1)
        scale = n / np.maximum(t_a, t_b)
        value = np.sum(np.log1p(gains * p), axis=1) / _LN2
        feasible = np.sum(np.log1p(scale[:, None] * gains * p), axis=1) / _LN2
        better = feasible > primal[idx]
        primal[idx[better]] = feasible[better]
        # C = diag(w_isqrt)·U·diag(sqrt(scale·p)), so that C·C^H is the rescaled Q
        c = w_isqrt[:, :, None] * u * np.sqrt(scale[:, None] * p)[:, None, :]
        best_c[idx[better]] = c[better]
        dual[idx] = np.minimum(dual[idx], value)
        iterations[idx] += 1
        f = (t_a - t_b) / n
        heavier_a = t_a > t_b
        # Anderson-Björck: when the same end moves twice running, the value
        # kept at the other end shrinks by m = 1 - f(new) / f(previous), or by 1/2
        m = 1.0 - f / np.where(heavier_a, fl, fh)
        shrink = np.where(heavier_a == up, np.where(m > 0, m, 0.5), 1.0)
        lo[idx], f_lo[idx] = np.where(heavier_a, theta, l), np.where(heavier_a, f, fl * shrink)
        hi[idx], f_hi[idx] = np.where(heavier_a, h, theta), np.where(heavier_a, fh * shrink, f)
        lo_moved[idx] = heavier_a
        active[idx] = dual[idx] - primal[idx] > _GAP_TOL
        trace.append(primal.copy())
    g = np.repeat(basis @ v, count, axis=0) @ best_c
    return g, iterations, primal, dual, np.array(trace).reshape(-1, size)


def _best(h_a: np.ndarray, h_b: np.ndarray, snrs: np.ndarray) -> tuple[np.ndarray, ...]:
    """The better of ZF and the dual optimum for a stack of T channel pairs times S SNRs.

    ZF's capacities come first, one precoder per channel for all SNRs.  For
    d = 1 the feasible set is the ZF ray, along which capacity grows with
    the power, so ZF is the optimum: no step is taken and its dual value is
    its capacity.  Otherwise :func:`_solve_dual` runs on ZF's nullspace
    basis, and an instance keeps ZF's pair where its capacity is higher.

    Instance t·S + s pairs channel t with `snrs[s]`.  Returns the stacked
    precoders (T·S, 2N, d) and their capacities (T, S), the root-finding
    steps and smallest dual values (bits) per instance, and the running best
    value after each step, starting at ZF's capacity (steps + 1, T·S).
    """
    _, m, n = h_a.shape
    d = 2 * n - m
    basis = nullspace_basis(h_a, h_b) if d > 1 or m != n else None
    g_a, g_b = _zf(h_a, h_b, basis)
    # ZF is independent of the SNR: one precoder per channel, one capacity per channel x SNR
    caps = capacity(h_a[:, None], g_a[:, None], snrs)
    g = np.repeat(np.concatenate([g_a, g_b], axis=1), len(snrs), axis=0)
    zf = caps.reshape(1, -1)
    if d == 1:
        return g, caps, np.zeros(zf.size, dtype=int), zf[0], zf
    g_opt, steps, _, dual, primal = _solve_dual(basis, h_a, snrs)
    opt = capacity(h_a[:, None], g_opt[:, :n].reshape(*caps.shape, n, d), snrs)
    g = np.where((caps > opt).reshape(-1, 1, 1), g, g_opt)
    return g, np.maximum(caps, opt), steps, dual, np.vstack([zf, np.maximum(zf, primal)])


def optimize_precoders(problem: PrecoderProblem) -> OptimizeResult:
    """Capacity-optimal aligned precoders, certified by the duality gap.

    The better of ZF and the dual water-filling solver (ZF alone for
    d = 1), from the step that Monte Carlo takes on a batch of one, so
    `capacity` is never below ZF's.  `iterations` counts the solver's
    root-finding steps.  `trace` starts at ZF's capacity and holds the
    running best value after each step, and `dual_gap` (the smallest dual
    value minus trace[-1], at most `_GAP_TOL` = 1e-10 bits once converged)
    bounds how far `capacity` lies below the optimum, up to rounding.
    """
    g, caps, steps, dual, trace = _best(
        problem.H_A[None], problem.H_B[None], np.array([problem.snr])
    )
    n, trace = problem.N, trace[:, 0].tolist()
    # trace[-1] and the capacity of its pair agree up to rounding
    gap = max(float(dual[0]) - trace[-1], 0.0)
    return OptimizeResult(
        pair=PrecoderPair(g_a=g[0, :n], g_b=g[0, n:]),
        capacity=float(caps[0, 0]),
        iterations=int(steps[0]),
        converged=gap <= _GAP_TOL,
        dual_gap=gap,
        trace=trace,
    )


def draw_channel_pair(M: int, N: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Channel pair with i.i.d. circularly symmetric entries of variance 1/M."""
    z = math.sqrt(1.0 / (2 * M)) * rng.standard_normal((4, M, N))
    return z[0] + 1j * z[1], z[2] + 1j * z[3]


def ergodic_capacity_mc(
    M: int, N: int, snr_list: list[float], trials: int, seed: int, method: str = "zf"
) -> list[tuple[float, float]]:
    """Monte Carlo mean capacity over random channel pairs, per SNR.

    Raises ValueError when N > M or no dimension is interference-free
    (2N - M < 1).
    Each trial derives its own random stream from (seed, trial index), so
    results are deterministic for a fixed seed regardless of scheduling.
    Returns rows (snr, mean capacity in bits).  The trials are stacked and
    evaluated in one pass: one nullspace SVD (or inverse) per channel for
    ZF and one log-det for all trials x SNRs; the optimized method takes
    the step behind :func:`optimize_precoders` once, on the whole stack.
    """
    _dof(M, N)
    if method not in ("zf", "optimized"):
        raise ValueError("method must be 'zf' or 'optimized'")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    channels = [draw_channel_pair(M, N, np.random.default_rng([seed, t])) for t in range(trials)]
    h_a, h_b = (np.stack(h) for h in zip(*channels))
    snrs = np.asarray(snr_list, dtype=float)
    if method == "optimized":
        caps = _best(h_a, h_b, snrs)[1]
    else:
        g_a = _zf(h_a, h_b, None if M == N else nullspace_basis(h_a, h_b))[0]
        caps = capacity(h_a[:, None], g_a[:, None], snrs)
    # running sums in trial order, as a per-trial loop would add them
    sums = np.cumsum(caps, axis=0)[-1]
    return [(snr, float(total) / trials) for snr, total in zip(snr_list, sums)]
