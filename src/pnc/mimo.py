"""Secrecy-constrained MIMO precoding: alignment, zero-forcing, and ascent.

Both users must present the relay with identical effective channels
(H_A G_A = H_B G_B, equality of matrices, not just column spans), which
confines the stacked precoder G = [G_A; G_B] to the right nullspace of
[H_A  -H_B].  Zero-forcing picks an orthonormal basis of that nullspace
and rescales to the transmit power cap; projected gradient ascent then
climbs the log-det capacity surrogate inside the same feasible set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PrecoderProblem",
    "PrecoderPair",
    "OptimizeOptions",
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


@dataclass(frozen=True)
class PrecoderProblem:
    """Channel pair plus power/noise figures for one precoding instance."""

    H_A: np.ndarray
    H_B: np.ndarray
    p_a: float = 1.0
    p_b: float = 1.0
    sigma_sq: float = 1.0

    def __post_init__(self):
        ha = np.atleast_2d(np.asarray(self.H_A, dtype=complex))
        hb = np.atleast_2d(np.asarray(self.H_B, dtype=complex))
        if ha.shape != hb.shape:
            raise ValueError("channel matrices must share a shape")
        m, n = ha.shape
        if n > m:
            raise ValueError("require N <= M antennas")
        if self.sigma_sq <= 0:
            raise ValueError("noise variance must be positive")
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

    @property
    def snr(self) -> float:
        return (self.p_a + self.p_b) / self.sigma_sq


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
class OptimizeOptions:
    initial_step: float = 1.0
    armijo: float = 1e-4
    max_iters: int = 500
    grad_tol: float = 1e-8


@dataclass(frozen=True)
class OptimizeResult:
    pair: PrecoderPair
    capacity: float
    iterations: int
    converged: bool
    trace: list = field(default_factory=list, repr=False)


def dof_max(M: int, N: int) -> int:
    """Interference-free transmit dimensions available to both users."""
    if M < 1 or N < 1:
        raise ValueError("antenna counts must be positive")
    return max(2 * N - M, 0)


def precoder_space_dim(M: int, N: int) -> int:
    """Real-manifold dimension of the feasible precoder space, 2(d^2 - 1)."""
    d = 2 * N - M
    if d < 1:
        raise ValueError("require d = 2N - M >= 1")
    return 2 * (d * d - 1)


def nullspace_basis(H_A: np.ndarray, H_B: np.ndarray) -> np.ndarray:
    """Orthonormal basis (2N x d) of the right nullspace of [H_A  -H_B].

    Computed from the singular value decomposition; raises if the stacked
    channel is rank-deficient relative to `_RANK_TOL` times the largest
    singular value (generic full-rank channels are assumed).
    """
    H_A = np.atleast_2d(np.asarray(H_A, dtype=complex))
    H_B = np.atleast_2d(np.asarray(H_B, dtype=complex))
    m, n = H_A.shape
    block = np.hstack([H_A, -H_B])
    _, s, vh = np.linalg.svd(block)
    rank = int(np.sum(s > _RANK_TOL * s[0]))
    if rank < m:
        raise ValueError(f"stacked channel is rank deficient (rank {rank} < {m})")
    basis = vh[rank:].conj().T
    if basis.shape[1] != 2 * n - m:
        raise ValueError("unexpected nullspace dimension")
    return basis


def _inverse(h: np.ndarray) -> np.ndarray:
    """Inverse of a square channel; raises ValueError if it is (near) singular."""
    try:
        inv = np.linalg.inv(h)
    except np.linalg.LinAlgError:
        inv = None
    if inv is None or not np.linalg.norm(h) * np.linalg.norm(inv) <= 1 / _RANK_TOL:
        raise ValueError("square channel is singular to working precision")
    return inv


def zf_precoders(problem: PrecoderProblem) -> PrecoderPair:
    """Zero-forcing precoders: nullspace split, rescaled to the power cap.

    For square channels (N = M = d) the channel inverses are used
    directly, and a Frobenius condition number above 1/`_RANK_TOL` raises;
    otherwise the top and bottom N-row blocks of the nullspace basis
    become G_A and G_B.
    """
    n = problem.N
    if problem.d < 1:
        raise ValueError("no interference-free dimensions: d = 2N - M < 1")
    if problem.M == problem.N:
        inv_a = _inverse(problem.H_A)
        inv_b = _inverse(problem.H_B)
        gamma = max(np.linalg.norm(inv_a), np.linalg.norm(inv_b))
        return PrecoderPair(
            g_a=math.sqrt(n) * inv_a / gamma, g_b=math.sqrt(n) * inv_b / gamma
        )
    basis = nullspace_basis(problem.H_A, problem.H_B)
    e_a, e_b = basis[:n], basis[n:]
    gamma = max(np.linalg.norm(e_a), np.linalg.norm(e_b))
    return PrecoderPair(g_a=math.sqrt(n) * e_a / gamma, g_b=math.sqrt(n) * e_b / gamma)


def capacity(H_A: np.ndarray, G_A: np.ndarray, snr: float) -> float:
    """log2 det(I + snr * (H_A G_A)(H_A G_A)^dagger) in bits."""
    if snr <= 0:
        raise ValueError("snr must be positive")
    hg = np.asarray(H_A, dtype=complex) @ np.asarray(G_A, dtype=complex)
    if not np.all(np.isfinite(hg)):
        raise ValueError("non-finite entries in effective channel")
    m = hg.shape[0]
    x = np.eye(m) + snr * (hg @ hg.conj().T)
    sign, logdet = np.linalg.slogdet(x)
    if sign.real <= 0:
        raise ValueError("capacity argument is not positive definite")
    return float(logdet / _LN2)


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


def _reinner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.vdot(a, b)))


def _project_feasible(g: np.ndarray, basis: np.ndarray, n: int) -> np.ndarray:
    """Project a stacked precoder onto the nullspace and the power cap."""
    g = basis @ (basis.conj().T @ g)
    gamma = max(np.linalg.norm(g[:n]), np.linalg.norm(g[n:]))
    return g * (math.sqrt(n) / gamma)


def optimize_precoders(
    problem: PrecoderProblem,
    init: PrecoderPair | None = None,
    opts: OptimizeOptions = OptimizeOptions(),
) -> OptimizeResult:
    """Projected gradient ascent on the log-det capacity surrogate.

    The objective's gradient lives in the G_A block only (alignment makes
    G_B implicit).  After each trial step the iterate is projected back
    onto the nullspace and rescaled to the power cap; steps are accepted
    under an Armijo backtracking rule so the objective never decreases.
    Convergence is declared when the tangent-space gradient (nullspace
    projection with the radial rescaling direction removed) drops below
    `opts.grad_tol`.
    """
    if init is None:
        init = zf_precoders(problem)
    n = problem.N
    snr = problem.snr
    basis = nullspace_basis(problem.H_A, problem.H_B)
    g = _project_feasible(init.stacked(), basis, n)
    best_cap = capacity(problem.H_A, g[:n], snr)
    iters = 0
    converged = False
    trace = [best_cap]
    for iters in range(1, opts.max_iters + 1):
        grad = np.vstack(
            [capacity_gradient(problem.H_A, g[:n], snr), np.zeros((n, g.shape[1]))]
        )
        pg = basis @ (basis.conj().T @ grad)
        tangent = pg - (_reinner(g, pg) / _reinner(g, g)) * g
        if np.linalg.norm(tangent) < opts.grad_tol:
            converged = True
            break
        step = opts.initial_step
        norm_sq = _reinner(tangent, tangent)
        accepted = False
        while step > 1e-14:
            cand = _project_feasible(g + step * tangent, basis, n)
            cand_cap = capacity(problem.H_A, cand[:n], snr)
            if cand_cap >= best_cap + opts.armijo * step * norm_sq:
                g, best_cap = cand, cand_cap
                trace.append(best_cap)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            # no ascent direction yields improvement at machine scale
            converged = True
            break
    pair = PrecoderPair(g_a=g[:n], g_b=g[n:])
    return OptimizeResult(
        pair=pair, capacity=best_cap, iterations=iters, converged=converged, trace=trace
    )


# looser than OptimizeOptions() for throughput over many trials;
# per-instance studies call optimize_precoders with the tighter defaults
_MC_OPTIONS = OptimizeOptions(max_iters=100, grad_tol=1e-6)


def draw_channel_pair(M: int, N: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Channel pair with i.i.d. circularly symmetric entries of variance 1/M."""
    scale = math.sqrt(1.0 / (2 * M))
    ha = scale * (rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N)))
    hb = scale * (rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N)))
    return ha, hb


def ergodic_capacity_mc(
    M: int,
    N: int,
    d: int,
    snr_list: list[float],
    trials: int,
    seed: int,
    method: str = "zf",
) -> list[tuple[float, float]]:
    """Monte Carlo mean capacity over random channel pairs, per SNR.

    Each trial derives its own random stream from (seed, trial index), so
    results are deterministic for a fixed seed regardless of scheduling.
    Returns rows (snr, mean capacity in bits).  The optimized method runs
    :func:`optimize_precoders` with `_MC_OPTIONS`.
    """
    if method not in ("zf", "optimized"):
        raise ValueError("method must be 'zf' or 'optimized'")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if d != 2 * N - M or d < 1:
        raise ValueError("require d = 2N - M >= 1")
    sums = [0.0 for _ in snr_list]
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        ha, hb = draw_channel_pair(M, N, rng)
        pair = zf_precoders(PrecoderProblem(H_A=ha, H_B=hb))  # independent of the SNR
        for i, snr in enumerate(snr_list):
            if method == "optimized":
                problem = PrecoderProblem(H_A=ha, H_B=hb, p_a=snr / 2, p_b=snr / 2, sigma_sq=1.0)
                sums[i] += optimize_precoders(problem, pair, _MC_OPTIONS).capacity
            else:
                sums[i] += capacity(ha, pair.g_a, snr)
    return [(snr, sums[i] / trials) for i, snr in enumerate(snr_list)]
