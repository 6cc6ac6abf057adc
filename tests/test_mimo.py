import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pnc.mimo
from pnc.mimo import (
    PrecoderPair,
    PrecoderProblem,
    capacity,
    capacity_gradient,
    dof_max,
    draw_channel_pair,
    ergodic_capacity_mc,
    nullspace_basis,
    optimize_precoders,
    precoder_space_dim,
    zf_precoders,
)
from pnc.mimo import _solve_dual, _zf

SNRS = np.array([10 ** (db / 10) for db in (0, 5, 10, 15, 20)])


def seeded_problem(M, N, seed, snr=10.0):
    rng = np.random.default_rng(seed)
    ha, hb = draw_channel_pair(M, N, rng)
    return PrecoderProblem(H_A=ha, H_B=hb, snr=snr)


def armijo_ascent(problem, init, max_iters=500, grad_tol=1e-8, initial_step=1.0, armijo=1e-4):
    """Capacity reached by the projected gradient ascent the solver replaced.

    Steps along the nullspace-projected gradient, rescales each trial
    point to the power cap and accepts it under an Armijo rule.
    """
    n, snr = problem.N, problem.snr
    basis = nullspace_basis(problem.H_A, problem.H_B)

    def project(g):
        g = basis @ (basis.conj().T @ g)
        return g * (math.sqrt(n) / max(np.linalg.norm(g[:n]), np.linalg.norm(g[n:])))

    def inner(a, b):
        return float(np.real(np.vdot(a, b)))

    g = project(init.stacked())
    best = capacity(problem.H_A, g[:n], snr)
    for _ in range(max_iters):
        grad = np.vstack([capacity_gradient(problem.H_A, g[:n], snr), np.zeros((n, g.shape[1]))])
        pg = basis @ (basis.conj().T @ grad)
        tangent = pg - (inner(g, pg) / inner(g, g)) * g
        if np.linalg.norm(tangent) < grad_tol:
            break
        step, norm_sq = initial_step, inner(tangent, tangent)
        while step > 1e-14:
            cand = project(g + step * tangent)
            cand_cap = capacity(problem.H_A, cand[:n], snr)
            if cand_cap >= best + armijo * step * norm_sq:
                g, best = cand, cand_cap
                break
            step *= 0.5
        else:
            break
    return best


def kkt_violations(problem, pair):
    """Relative KKT violations of a pair for the problem in Q = C·C^H.

    The problem maximises ln det(I + snr·F·Q·F^H), F = H_A·E_A, subject to
    tr(P_A·Q) <= N and tr(P_B·Q) <= N.  Its gradient is
    Γ = snr·F^H·(I + snr·F·Q·F^H)^-1·F, and at the optimum
    Λ = λ_A·P_A + λ_B·P_B with λ >= 0 satisfies Λ·Q = Γ·Q (every mode with
    power sits at one water level) and Λ - Γ ⪰ 0 (dry modes lie below it),
    where a slack power constraint has λ = 0.  The multipliers of the tight
    constraints are fitted by least squares, the slack ones are held at 0.
    Returns (stationarity, dry modes, negative multiplier), each relative
    to ‖Γ‖.
    """
    n, snr = problem.N, problem.snr
    basis = nullspace_basis(problem.H_A, problem.H_B)
    e_a, e_b = basis[:n], basis[n:]
    c = basis.conj().T @ pair.stacked()
    q = c @ c.conj().T
    f = problem.H_A @ e_a
    gamma = snr * f.conj().T @ np.linalg.solve(np.eye(len(f)) + snr * f @ q @ f.conj().T, f)
    p_a, p_b = e_a.conj().T @ e_a, e_b.conj().T @ e_b
    cols = [(p_a @ q).ravel(), (p_b @ q).ravel()]
    lhs = np.stack([np.concatenate([x.real, x.imag]) for x in cols], axis=1)
    rhs = np.concatenate([(gamma @ q).ravel().real, (gamma @ q).ravel().imag])
    tight = np.array([np.trace(p_a @ q).real, np.trace(p_b @ q).real]) >= n - 1e-6
    lam = np.zeros(2)
    lam[tight] = np.linalg.lstsq(lhs[:, tight], rhs, rcond=None)[0]
    scale = np.linalg.norm(gamma)
    stationarity = np.linalg.norm(lhs @ lam - rhs) / (scale * np.linalg.norm(q))
    dry = max(-np.linalg.eigvalsh(lam[0] * p_a + lam[1] * p_b - gamma).min(), 0.0) / scale
    negative = max(-lam.min(), 0.0) / scale
    return stationarity, dry, negative


class TestDimensions:
    def test_dof_examples(self):
        assert dof_max(3, 2) == 1
        assert dof_max(4, 4) == 4
        assert dof_max(5, 2) == 0

    def test_dof_validation(self):
        with pytest.raises(ValueError):
            dof_max(0, 2)

    def test_more_user_than_relay_antennas_is_rejected(self):
        for dims in (dof_max, precoder_space_dim):
            with pytest.raises(ValueError, match="require N <= M antennas"):
                dims(2, 3)

    def test_space_dim_examples(self):
        assert precoder_space_dim(3, 2) == 0
        assert precoder_space_dim(4, 3) == 6
        assert precoder_space_dim(3, 3) == 16

    def test_space_dim_validation(self):
        with pytest.raises(ValueError):
            precoder_space_dim(5, 2)

    def test_one_geometry_message(self):
        # a problem, its manifold dimension and a Monte Carlo run accept the
        # same antenna counts and refuse the rest with the same message
        def outcome(build):
            try:
                build()
            except ValueError as exc:
                return str(exc)
            return None

        mismatches = {}
        for M in range(1, 9):
            for N in range(1, 9):
                if N > M:
                    expected = "require N <= M antennas"
                elif 2 * N - M < 1:
                    expected = f"no interference-free dimensions for (M, N) = ({M}, {N})"
                else:
                    expected = None
                got = [
                    outcome(lambda: PrecoderProblem(H_A=np.ones((M, N)), H_B=np.ones((M, N)))),
                    outcome(lambda: precoder_space_dim(M, N)),
                    outcome(lambda: ergodic_capacity_mc(M, N, [1.0], trials=1, seed=0)),
                ]
                if got != [expected] * 3:
                    mismatches[M, N] = got
        assert mismatches == {}


class TestNullspace:
    def test_identity_channels(self):
        basis = nullspace_basis(np.eye(2), np.eye(2))
        block = np.hstack([np.eye(2), -np.eye(2)])
        assert np.linalg.norm(block @ basis) < 1e-12
        assert basis.shape == (4, 2)

    def test_seeded_3x2(self):
        rng = np.random.default_rng(11)
        ha, hb = draw_channel_pair(3, 2, rng)
        basis = nullspace_basis(ha, hb)
        assert basis.shape == (4, 1)
        assert np.linalg.norm(basis) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(np.hstack([ha, -hb]) @ basis) < 1e-12

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(12)
        ha, hb = draw_channel_pair(4, 3, rng)
        basis = nullspace_basis(ha, hb)
        np.testing.assert_allclose(
            basis.conj().T @ basis, np.eye(2), atol=1e-12
        )

    def test_rank_deficiency_detected(self):
        ha = np.zeros((3, 2), dtype=complex)
        hb = np.zeros((3, 2), dtype=complex)
        with pytest.raises(ValueError):
            nullspace_basis(ha, hb)


class TestPrecoderProblem:
    def test_default_snr(self):
        assert PrecoderProblem(H_A=np.eye(2), H_B=np.eye(2)).snr == 2.0

    @pytest.mark.parametrize("snr", [0.0, -2.0, math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_or_non_positive_snr(self, snr):
        with pytest.raises(ValueError, match="finite and positive"):
            PrecoderProblem(H_A=np.eye(2), H_B=np.eye(2), snr=snr)

    @pytest.mark.parametrize("name", ["p_a", "p_b", "sigma_sq"])
    def test_no_per_user_power_or_noise(self, name):
        with pytest.raises(TypeError):
            PrecoderProblem(H_A=np.eye(2), H_B=np.eye(2), **{name: 1.0})


class TestZfPrecoders:
    def test_identity_square_case(self):
        prob = PrecoderProblem(H_A=np.eye(2), H_B=np.eye(2))
        pair = zf_precoders(prob)
        np.testing.assert_allclose(pair.g_a, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(pair.g_b, np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("M,N", [(2, 2), (3, 2), (3, 3), (4, 3)])
    def test_invariants(self, M, N):
        for seed in range(5):
            prob = seeded_problem(M, N, 100 + seed)
            pair = zf_precoders(prob)
            hg = prob.H_A @ pair.g_a
            assert pair.alignment_residual(prob.H_A, prob.H_B) <= 1e-10 * max(
                1.0, np.linalg.norm(hg)
            )
            pa, pb = pair.powers()
            assert pa <= N + 1e-9 and pb <= N + 1e-9
            assert max(pa, pb) == pytest.approx(N, abs=1e-9)

    def test_one_sided_equality_3_2(self):
        prob = seeded_problem(3, 2, 7)
        pa, pb = zf_precoders(prob).powers()
        assert abs(pa - 2) < 1e-9 or abs(pb - 2) < 1e-9
        assert not (abs(pa - 2) < 1e-9 and abs(pb - 2) < 1e-9)

    def test_infeasible(self):
        with pytest.raises(ValueError, match=r"dimensions for \(M, N\) = \(5, 2\)"):
            seeded_problem(5, 2, 3)

    def test_near_singular_square_channel_raises(self):
        # condition number 1e13: inverting it would leave user A nearly no power
        prob = PrecoderProblem(H_A=np.eye(2), H_B=np.diag([1.0, 1e-13]))
        with pytest.raises(ValueError, match="singular"):
            zf_precoders(prob)

    @pytest.mark.parametrize("h", [np.ones((2, 2)), np.zeros((3, 3))])
    def test_singular_square_channel_raises_value_error(self, h):
        prob = PrecoderProblem(H_A=h, H_B=np.eye(len(h)))
        with pytest.raises(ValueError, match="singular"):
            zf_precoders(prob)


class TestCapacity:
    def test_zero_precoder(self):
        assert capacity(np.eye(3), np.zeros((3, 3)), snr=5.0) == pytest.approx(0.0)

    def test_identity_effective_channel(self):
        assert capacity(np.eye(4), np.eye(4), snr=1.0) == pytest.approx(4.0, abs=1e-12)

    def test_monotone_in_snr(self):
        prob = seeded_problem(4, 3, 21)
        pair = zf_precoders(prob)
        caps = [capacity(prob.H_A, pair.g_a, s) for s in (0.5, 1, 2, 4, 8)]
        assert all(c2 > c1 for c1, c2 in zip(caps, caps[1:]))

    def test_snr_validation(self):
        for snr in (0.0, -1.0, math.nan, math.inf, [1.0, math.nan]):
            with pytest.raises(ValueError, match="finite and positive"):
                capacity(np.eye(2), np.eye(2), snr=snr)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        h = 1e-6
        worst = 0.0
        for _ in range(8):
            ha, _ = draw_channel_pair(4, 3, rng)
            g = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            g /= np.linalg.norm(g)
            grad = capacity_gradient(ha, g, snr=5.0)
            for i in range(3):
                for j in range(2):
                    for part, delta in (("re", h), ("im", 1j * h)):
                        gp, gm = g.copy(), g.copy()
                        gp[i, j] += delta
                        gm[i, j] -= delta
                        fd = (capacity(ha, gp, 5.0) - capacity(ha, gm, 5.0)) / (2 * h)
                        an = grad[i, j].real if part == "re" else grad[i, j].imag
                        worst = max(worst, abs(an - fd) / max(abs(fd), 1e-12))
        assert worst < 1e-5


class TestOptimize:
    def test_zero_dim_space_no_improvement(self):
        for seed in range(5):
            prob = seeded_problem(3, 2, 40 + seed)
            pair = zf_precoders(prob)
            res = optimize_precoders(prob)
            assert abs(res.capacity - capacity(prob.H_A, pair.g_a, prob.snr)) < 1e-6

    @pytest.mark.parametrize("M,N", [(3, 3), (4, 3)])
    def test_improves_over_zf(self, M, N):
        gains = []
        for seed in range(5):
            prob = seeded_problem(M, N, 50 + seed)
            pair = zf_precoders(prob)
            res = optimize_precoders(prob)
            zf_cap = capacity(prob.H_A, pair.g_a, prob.snr)
            assert res.capacity >= zf_cap - 1e-12
            gains.append(res.capacity - zf_cap)
        assert sum(gains) / len(gains) > 0

    def test_feasibility_of_output(self):
        prob = seeded_problem(4, 3, 61)
        res = optimize_precoders(prob)
        pair = res.pair
        assert pair.alignment_residual(prob.H_A, prob.H_B) <= 1e-10
        pa, pb = pair.powers()
        assert pa <= 3 + 1e-9 and pb <= 3 + 1e-9
        assert max(pa, pb) == pytest.approx(3, abs=1e-9)

    def test_monotone_trace(self):
        prob = seeded_problem(3, 3, 62)
        res = optimize_precoders(prob)
        assert all(b >= a - 1e-12 for a, b in zip(res.trace, res.trace[1:]))

    def test_max_iters_flag(self, monkeypatch):
        monkeypatch.setattr(pnc.mimo, "_MAX_STEPS", 1)
        prob = seeded_problem(4, 3, 63)
        res = optimize_precoders(prob)
        assert res.iterations == 1
        assert not res.converged and res.dual_gap > 1e-10

    def test_d_1_is_zf_without_steps(self):
        prob = seeded_problem(3, 2, 64)
        res = optimize_precoders(prob)
        zf = zf_precoders(prob)
        assert res.iterations == 0 and res.dual_gap == 0.0 and res.converged
        np.testing.assert_array_equal(res.pair.g_a, zf.g_a)
        assert res.capacity == capacity(prob.H_A, zf.g_a, prob.snr)

    def test_never_below_init(self, monkeypatch):
        # a one-step solve falls short of ZF here, so ZF's pair is kept
        monkeypatch.setattr(pnc.mimo, "_MAX_STEPS", 1)
        prob = seeded_problem(2, 2, 69)
        zf = zf_precoders(prob)
        res = optimize_precoders(prob)
        np.testing.assert_array_equal(res.pair.g_a, zf.g_a)
        np.testing.assert_array_equal(res.pair.g_b, zf.g_b)
        assert res.capacity == capacity(prob.H_A, zf.g_a, prob.snr)
        assert res.trace == [res.capacity, res.capacity]

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(2, 2), (3, 3), (4, 3), (5, 4), (3, 2)]),
        seed=st.integers(0, 2**32 - 1),
        snr=st.floats(0.1, 1000.0),
    )
    def test_optimal_certified_and_feasible(self, shape, seed, snr):
        M, N = shape
        prob = seeded_problem(M, N, seed, snr=snr)
        zf = zf_precoders(prob)
        res = optimize_precoders(prob)
        assert res.dual_gap <= 1e-10 and res.converged
        # the ascent's value is feasible, so it lies at most dual_gap above ours
        assert res.capacity >= armijo_ascent(prob, zf) - max(res.dual_gap, 1e-12)
        assert res.pair.alignment_residual(prob.H_A, prob.H_B) <= 1e-10
        pa, pb = res.pair.powers()
        assert pa <= N + 1e-9 and pb <= N + 1e-9
        assert max(pa, pb) == pytest.approx(N, abs=1e-9)
        stationarity, dry, negative = kkt_violations(prob, res.pair)
        assert stationarity <= 1e-6 and dry <= 1e-6 and negative <= 1e-6

    @pytest.mark.parametrize("M,N", [(2, 2), (3, 3), (4, 3), (5, 4), (6, 4)])
    def test_mean_root_finding_steps(self, M, N):
        # bisection alone needs about 32 steps per instance to reach the 1e-10 gap
        channels = [draw_channel_pair(M, N, np.random.default_rng([7, t])) for t in range(40)]
        h_a, h_b = (np.stack(h) for h in zip(*channels))
        _, steps, primal, dual, _ = _solve_dual(nullspace_basis(h_a, h_b), h_a, SNRS)
        assert np.all(dual - primal <= 1e-10)
        assert steps.mean() <= 10

    @pytest.mark.parametrize("slack", ["A", "B"])
    def test_end_optimum_certified_in_two_steps(self, slack):
        # the other user's channel is stronger, so its power constraint is
        # slack at the optimum (theta = 0 or 1), where capacity = d·log2(1 + snr)
        strong, unit = np.diag([2.0, 3.0]), np.eye(2)
        h_a, h_b = (strong, unit) if slack == "A" else (unit, strong)
        prob = PrecoderProblem(H_A=h_a, H_B=h_b, snr=10.0)
        res = optimize_precoders(prob)
        assert res.iterations <= 2 and res.converged and res.dual_gap <= 1e-10
        assert res.capacity == pytest.approx(2 * math.log2(11.0), abs=1e-10)
        pa, pb = res.pair.powers()
        assert (pa, pb)[slack == "A"] == pytest.approx(2, abs=1e-9)
        assert (pa, pb)[slack == "B"] < 2 - 0.1

    def test_blind_channel_stops_before_the_first_step(self):
        # H_A·E_A = 0: every precoder has capacity 0, certified with no step
        h_a, h_b = np.zeros((1, 2, 2)), np.eye(2)[None]
        _, steps, primal, dual, trace = _solve_dual(nullspace_basis(h_a, h_b), h_a, SNRS[:1])
        assert steps.tolist() == [0] and primal.tolist() == dual.tolist() == [0.0]
        assert trace.shape == (0, 1)
        # ZF inverts H_A, so optimize_precoders refuses this channel as zf_precoders does
        prob = PrecoderProblem(H_A=h_a[0], H_B=h_b[0])
        for solve in (zf_precoders, optimize_precoders):
            with pytest.raises(ValueError, match="singular"):
                solve(prob)

    def test_beats_the_ascent_at_20_db(self):
        gains = []
        for seed in range(10):
            prob = seeded_problem(3, 3, 80 + seed, snr=100.0)
            zf = zf_precoders(prob)
            gains.append(optimize_precoders(prob).capacity - armijo_ascent(prob, zf))
        assert min(gains) >= -1e-12 and max(gains) > 0.01


class TestProperties:
    def test_received_power(self):
        # unit-variance symbols sent at a per-user power of snr/2: the relay's
        # mean received power is that power over N times the two channel gains
        rng = np.random.default_rng(71)
        prob = seeded_problem(4, 3, 72, snr=6.0)
        pair = zf_precoders(prob)
        power = prob.snr / 2
        trials = 20000
        s_a = (rng.standard_normal((2, trials)) + 1j * rng.standard_normal((2, trials))) / np.sqrt(2)
        s_b = (rng.standard_normal((2, trials)) + 1j * rng.standard_normal((2, trials))) / np.sqrt(2)
        y = np.sqrt(power / prob.N) * (prob.H_A @ pair.g_a @ s_a + prob.H_B @ pair.g_b @ s_b)
        measured = float(np.mean(np.sum(np.abs(y) ** 2, axis=0)))
        gains = np.linalg.norm(prob.H_A @ pair.g_a) ** 2 + np.linalg.norm(prob.H_B @ pair.g_b) ** 2
        expected = float(power / prob.N * gains)
        assert measured == pytest.approx(expected, rel=0.05)


def stacked_channels(M, N, seed, trials, shrink):
    """`trials` seeded channel pairs, H_A's last column pushed towards its first by `shrink`."""
    rng = np.random.default_rng(seed)
    h_a, h_b = (np.stack(h) for h in zip(*(draw_channel_pair(M, N, rng) for _ in range(trials))))
    h_a[:, :, -1] = h_a[:, :, 0] + shrink * h_a[:, :, -1]
    return h_a, h_b


class TestStacked:
    """A stack of instances gives, bit for bit, what each instance gives alone."""

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from([(2, 2), (3, 3), (4, 3), (5, 4), (3, 2)]),
        seed=st.integers(0, 2**32 - 1),
        shrink=st.sampled_from([1.0, 1e-3, 1e-6]),
    )
    def test_matches_per_instance_and_stays_feasible(self, shape, seed, shrink):
        M, N = shape
        h_a, h_b = stacked_channels(M, N, seed, 4, shrink)
        basis = nullspace_basis(h_a, h_b)
        g_a, g_b = _zf(h_a, h_b)  # builds its own basis for a non-square stack
        caps = capacity(h_a[:, None], g_a[:, None], SNRS)
        for t in range(len(h_a)):
            np.testing.assert_array_equal(basis[t], nullspace_basis(h_a[t], h_b[t]))
            pair = zf_precoders(PrecoderProblem(H_A=h_a[t], H_B=h_b[t]))
            np.testing.assert_array_equal(g_a[t], pair.g_a)
            np.testing.assert_array_equal(g_b[t], pair.g_b)
            assert caps[t].tolist() == [capacity(h_a[t], pair.g_a, snr) for snr in SNRS]
        precoders = [(g_a, g_b, h_a, h_b)]
        if M < 2 * N - 1:
            g = _solve_dual(basis, h_a, SNRS)[0]
            rep = (np.repeat(h, len(SNRS), axis=0) for h in (h_a, h_b))
            precoders.append((g[:, :N], g[:, N:], *rep))
        for ga, gb, ha, hb in precoders:
            for t in range(len(ga)):
                pair = PrecoderPair(ga[t], gb[t])
                assert pair.alignment_residual(ha[t], hb[t]) < 1e-10
                pa, pb = pair.powers()
                assert max(pa, pb) == pytest.approx(N, abs=1e-9)


class TestErgodicMc:
    def test_determinism(self):
        kwargs = dict(M=3, N=2, snr_list=[1.0, 10.0], trials=5, seed=9)
        assert ergodic_capacity_mc(**kwargs) == ergodic_capacity_mc(**kwargs)

    def test_batch_of_one_equals_optimize_precoders(self):
        snr = 10.0
        ha, hb = draw_channel_pair(4, 3, np.random.default_rng([5, 0]))
        prob = PrecoderProblem(H_A=ha, H_B=hb, snr=snr)
        res = optimize_precoders(prob)
        assert ergodic_capacity_mc(4, 3, [snr], trials=1, seed=5, method="optimized") == [
            (snr, res.capacity)
        ]

    @pytest.mark.parametrize("M,N", [(2, 2), (3, 2), (3, 3), (4, 3), (6, 4)])
    def test_batch_equals_per_instance_solves(self, M, N):
        snrs, trials = [1.0, 10.0, 100.0], 4
        rows = ergodic_capacity_mc(M, N, snrs, trials, seed=6, method="optimized")
        for (snr, mean), expected in zip(rows, snrs):
            caps = []
            for t in range(trials):
                ha, hb = draw_channel_pair(M, N, np.random.default_rng([6, t]))
                prob = PrecoderProblem(H_A=ha, H_B=hb, snr=snr)
                caps.append(optimize_precoders(prob).capacity)
            assert snr == expected
            assert mean == pytest.approx(sum(caps) / trials, rel=1e-12)

    def test_optimized_at_least_zf(self):
        zf = ergodic_capacity_mc(4, 3, [10.0], trials=10, seed=5, method="zf")
        opt = ergodic_capacity_mc(4, 3, [10.0], trials=10, seed=5, method="optimized")
        assert opt[0][1] >= zf[0][1]

    def test_validation(self):
        with pytest.raises(ValueError, match=r"dimensions for \(M, N\) = \(4, 1\)"):
            ergodic_capacity_mc(4, 1, [1.0], trials=1, seed=0)
        with pytest.raises(ValueError, match="N <= M"):
            ergodic_capacity_mc(2, 3, [1.0], trials=1, seed=0)
        with pytest.raises(ValueError):
            ergodic_capacity_mc(3, 2, [1.0], trials=0, seed=0)
        with pytest.raises(ValueError):
            ergodic_capacity_mc(3, 2, [1.0], trials=1, seed=0, method="exact")

    @pytest.mark.parametrize("M,N", [(2, 2), (3, 2), (3, 3), (4, 3), (6, 4)])
    def test_draw_equals_four_separate_draws(self, M, N):
        scale = math.sqrt(1.0 / (2 * M))
        for seed in range(20):
            for t in range(5):
                rng = np.random.default_rng([seed, t])
                ha = scale * (rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N)))
                hb = scale * (rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N)))
                ga, gb = draw_channel_pair(M, N, np.random.default_rng([seed, t]))
                np.testing.assert_array_equal(ga, ha)
                np.testing.assert_array_equal(gb, hb)

    def test_channel_variance(self):
        rng = np.random.default_rng(123)
        ha, hb = draw_channel_pair(4, 3, rng)
        samples = []
        for t in range(500):
            a, b = draw_channel_pair(4, 3, np.random.default_rng([1, t]))
            samples.append(np.mean(np.abs(a) ** 2))
        assert np.mean(samples) == pytest.approx(1 / 4, rel=0.05)
