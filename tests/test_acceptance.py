"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see them
interleaved; they also appear in captured output on failure).
"""

import io
from fractions import Fraction

import numpy as np

from pnc.bounds import (
    compute_bounds,
    guaranteed_entropy,
    guaranteed_entropy_pam,
    ub_generic,
    ub_pam,
)
from pnc.cli import run as cli_run
from pnc.constellation import make_pam, pam_sum_profile, preimage_count_pam
from pnc.encoders import (
    BitQueues,
    audit_leakage,
    build_partition,
    coop_level,
    encode_coop,
    encode_stream,
    gaps,
    rate_coop,
    rate_nocoop,
)
from pnc.mimo import (
    capacity,
    capacity_gradient,
    dof_max,
    draw_channel_pair,
    ergodic_capacity_mc,
    optimize_precoders,
    precoder_space_dim,
    zf_precoders,
    PrecoderProblem,
)
from pnc.sync import SyncParams, sync_sweep, ub_with_sync

GRID = [
    (ma, mb)
    for ma in (2, 4, 8, 16, 32, 64)
    for mb in (2 * ma, 4 * ma, 8 * ma, 16 * ma)
    if mb <= 256
]


def report(num: int, ok: bool, label: str):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_preimage_oracle_equivalence():
    ok = True
    for M_A, M_B in GRID:
        profile = pam_sum_profile(M_A, M_B)
        lim = M_A + M_B + 2
        for y in range(-lim, lim + 1):
            if preimage_count_pam(y, M_A, M_B) != profile.count(y):
                ok = False
    report(1, ok, "closed-form preimage counts equal brute-force profile")


def test_criterion_2_shared_bound_closed_form():
    ok = all(
        abs(ub_pam(M_A, M_B) - ub_generic(pam_sum_profile(M_A, M_B))) <= 1e-12
        for M_A, M_B in GRID
    )
    ok = ok and abs(ub_pam(4, 4096) - 2.0) < 0.05
    report(2, ok, "closed-form shared bound matches generic bound; large-M_B limit")


def test_criterion_3_guaranteed_entropy_closed_form():
    ok = True
    for M_A, M_B in GRID:
        profile = pam_sum_profile(M_A, M_B)
        for side, M in (("alice", M_A), ("bob", M_B)):
            for x in make_pam(M).points:
                brute = guaranteed_entropy(x, side, profile)
                closed = guaranteed_entropy_pam(x, side, M_A, M_B)
                if brute != closed:
                    ok = False
    report(3, ok, "closed-form guaranteed entropy equals brute force, exactly")


def test_criterion_4_worked_examples_bit_exact():
    pam16 = make_pam(16)
    ok = pam16.unlabel("0101") == -5 and pam16.unlabel("1011") == 7
    q = BitQueues("00110110", "1001")
    ok = ok and encode_stream(q, build_partition(4, 16, "bob"), count=3) == [-9, 1, 11]
    q = BitQueues("01", "1111011")
    ok = ok and encode_coop(q, [3, 2, 2], make_pam(8)) == [7, -3, 7]
    report(4, ok, "worked encoding examples and label assignments are bit-exact")


def test_criterion_5_rate_formulas_and_stream_simulation():
    ok = True
    for M_A, M_B in GRID:
        r_a, r_b = rate_nocoop(M_A, M_B)
        alice = build_partition(M_A, M_B, "alice")
        bob = build_partition(M_A, M_B, "bob")
        oracle_a = Fraction(
            sum(alice.level_of(x) for x in alice.constellation.points), M_A
        )
        oracle_b = Fraction(sum(bob.level_of(x) for x in bob.constellation.points), M_B)
        oracle_c = Fraction(
            sum(coop_level(x, M_A, M_B) for x in make_pam(M_B).points), M_B
        )
        ok = ok and r_a == oracle_a and r_b == oracle_b
        ok = ok and rate_coop(M_A, M_B) == oracle_c
    ok = ok and rate_nocoop(8, 16)[0] == 0.5
    # stream simulation: 1e5 symbols of Bob's (4,16) non-cooperative encoder
    rng = np.random.default_rng(1)
    bits = lambda n: "".join(map(str, rng.integers(0, 2, n)))
    q = BitQueues(bits(450_000), bits(450_000))
    n = 100_000
    encode_stream(q, build_partition(4, 16, "bob"), count=n)
    empirical = q.secret_cursor / n
    target = rate_nocoop(4, 16)[1]
    ok = ok and abs(empirical - target) <= 0.01 * target
    report(5, ok, "rate formulas equal partition counting oracle; stream rate within 1%")


def test_criterion_6_gap_thresholds():
    ok = True
    for M_A, M_B in GRID:
        bounds = compute_bounds(M_A, M_B)
        d_a, d_b, d_ac = gaps(bounds, *rate_nocoop(M_A, M_B), rate_coop(M_A, M_B))
        ok = ok and d_a < 0.7 and d_b < 0.7
        if M_B >= 4 * M_A:
            ok = ok and d_b < 0.35
        if M_B == 4 * M_A:
            ok = ok and d_ac < 0.9
        if M_B == 8 * M_A:
            ok = ok and d_ac < 0.5
    report(6, ok, "rate-to-bound gaps stay under the stated thresholds")


def test_criterion_7_flat_region_secrecy_audit():
    ok = True
    audit_grid = [(ma, mb) for ma, mb in GRID if ma <= 16 and mb <= 256]
    for M_A, M_B in audit_grid:
        for scheme in ("nocoop_alice", "nocoop_bob", "coop"):
            r = audit_leakage(scheme, M_A, M_B)
            ok = ok and all(abs(v) <= 1e-12 for v in r.flat_suffix_mi)
    r = audit_leakage("nocoop_bob", 4, 16)
    ok = ok and r.semantic_mi > 0  # reported, not asserted zero
    ok = ok and r.suffix_posteriors[2][10] == {
        s: Fraction(1, 4) for s in ("00", "01", "10", "11")
    }
    report(7, ok, "flat-region suffix leakage is zero; semantic metric reported")


def test_criterion_8_sync_consistency():
    ok = abs(ub_with_sync(4, 16, SyncParams(0, 0)) - ub_pam(4, 16)) <= 1e-9
    rows = {(round(da, 4), round(db, 4)): ub for da, db, ub in sync_sweep(4, 16, 0.05)}
    reference = rows[(0.1, 0.1)]
    for pt in ((0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)):
        ok = ok and rows[pt] < reference
    report(8, ok, "aligned limit matches; bound dips at the four quarter-offset points")


def test_criterion_9_mimo_feasibility_and_ascent():
    ok = (
        dof_max(3, 2) == 1
        and dof_max(4, 4) == 4
        and dof_max(5, 2) == 0
        and precoder_space_dim(3, 2) == 0
        and precoder_space_dim(4, 3) == 6
        and precoder_space_dim(3, 3) == 16
    )
    snr = 10.0
    for M, N in ((2, 2), (3, 3), (3, 2), (4, 3)):
        improvements = []
        for t in range(100):
            rng = np.random.default_rng([2026, M, N, t])
            ha, hb = draw_channel_pair(M, N, rng)
            prob = PrecoderProblem(H_A=ha, H_B=hb, snr=snr)
            pair = zf_precoders(prob)
            ok = ok and pair.alignment_residual(ha, hb) <= 1e-10
            pa, pb = pair.powers()
            ok = ok and pa <= N + 1e-9 and pb <= N + 1e-9
            ok = ok and abs(max(pa, pb) - N) <= 1e-9
            zf_cap = capacity(ha, pair.g_a, snr)
            res = optimize_precoders(prob)
            ok = ok and res.capacity >= zf_cap - 1e-12
            improvements.append(res.capacity - zf_cap)
            if (M, N) == (3, 2):
                ok = ok and improvements[-1] < 1e-6
        if (M, N) in ((3, 3), (4, 3)):
            ok = ok and sum(improvements) / len(improvements) > 0
    # analytic gradient vs central finite differences
    rng = np.random.default_rng(314)
    h = 1e-6
    worst = 0.0
    for _ in range(8):
        ha, _ = draw_channel_pair(4, 3, rng)
        g = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        g /= np.linalg.norm(g)
        grad = capacity_gradient(ha, g, snr)
        for i in range(3):
            for j in range(2):
                for delta in (h, 1j * h):
                    gp, gm = g.copy(), g.copy()
                    gp[i, j] += delta
                    gm[i, j] -= delta
                    fd = (capacity(ha, gp, snr) - capacity(ha, gm, snr)) / (2 * h)
                    an = grad[i, j].real if delta == h else grad[i, j].imag
                    worst = max(worst, abs(an - fd) / max(abs(fd), 1e-12))
    ok = ok and worst < 1e-5
    report(9, ok, "precoder feasibility, ascent, zero-dim stasis, gradient check")


def test_criterion_10_determinism_and_capacity_ordering():
    argv = [
        "mimo", "--m", "4", "--n", "3", "--snr-db", "0,10",
        "--trials", "25", "--seed", "123", "--method", "opt",
    ]
    out1, out2 = io.StringIO(), io.StringIO()
    ok = cli_run(argv, out=out1) == 0 and cli_run(argv, out=out2) == 0
    ok = ok and out1.getvalue() == out2.getvalue()
    snr = [10 ** (10 / 10)]  # 10 dB, a moderate operating point
    trials = 1000
    zf_43 = ergodic_capacity_mc(4, 3, snr, trials, seed=77, method="zf")[0][1]
    opt_43 = ergodic_capacity_mc(4, 3, snr, trials, seed=77, method="optimized")[0][1]
    zf_33 = ergodic_capacity_mc(3, 3, snr, trials, seed=77, method="zf")[0][1]
    ok = ok and opt_43 >= zf_43 and opt_43 >= zf_33
    report(10, ok, "seeded runs byte-identical; optimized (4,3) beats both ZF baselines")
