import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pnc.sync
from pnc.bounds import ub_pam
from pnc.constellation import make_pam
from pnc.info import mi_bits
from pnc.sync import (
    _IDENTITY,
    SyncParams,
    _bound,
    _box,
    _classes,
    _exact,
    _forms,
    _interval_lengths,
    _key,
    _offsets,
    _receiver,
    _relay_table,
    _sine,
    alpha_beta,
    sync_sweep,
    ub_with_sync,
)

ALIGNED_4_16 = 1.8360902344426084
GENERIC_4_16 = 1.1534862856359638


def merge_ids(values, tol):
    """Cluster ids of a flat value array, grouping gaps <= tol in sorted order."""
    order = np.argsort(values, kind="stable")
    new_cluster = np.empty(values.size, dtype=bool)
    new_cluster[0] = True
    np.greater(np.diff(values[order]), tol, out=new_cluster[1:])
    ids = np.empty(values.size, dtype=np.int64)
    ids[order] = np.cumsum(new_cluster) - 1
    return ids


def float_mi_from_ids(ids, side_idx, n_side):
    """Reference I(ids; side) from float probabilities, with no exact-zero test."""
    joint = np.zeros((int(ids.max()) + 1, n_side))
    np.add.at(joint, (ids, side_idx), 1.0)
    pj = joint / joint.sum()
    py = pj.sum(axis=1, keepdims=True)
    px = pj.sum(axis=0, keepdims=True)
    mask = pj > 0
    return float(np.sum(pj[mask] * np.log2(pj[mask] / (py @ px)[mask])))


def float_ub_with_sync(M_A, M_B, p):
    """The bound from float observations, merging those within 1e-9 * (M_A + M_B)."""
    tol = 1e-9 * (M_A + M_B)
    alpha, beta = alpha_beta(p)
    a = np.asarray(make_pam(M_A).points, dtype=float)
    b = np.asarray(make_pam(M_B).points, dtype=float)
    # axes (x_A, x_A_prev, x_B, x_B_prev)
    y = (
        (1 - alpha) * a[:, None, None, None]
        + alpha * a[None, :, None, None]
        + (1 - beta) * b[None, None, :, None]
        + beta * b[None, None, None, :]
    )
    xa_idx = np.broadcast_to(np.arange(M_A)[:, None, None, None], y.shape).ravel()
    i_ray = float_mi_from_ids(merge_ids(y.ravel(), tol), xa_idx, M_A)
    u = (1 - alpha) * a[:, None] + alpha * a[None, :]
    xa_u = np.broadcast_to(np.arange(M_A)[:, None], u.shape).ravel()
    i_receiver = float_mi_from_ids(merge_ids(u.ravel(), tol), xa_u, M_A)
    return max(i_receiver - i_ray, 0.0)


def rationals(max_den):
    """Every distinct k/q in [0, 1] with q <= max_den."""
    return sorted({Fraction(k, q) for q in range(1, max_den + 1) for k in range(q + 1)})


def check_sine_classes(sin_pi, close):
    """_sine against sin_pi(r) = sin(pi r) at every offset k/q with q <= 24."""
    offsets = rationals(24)
    sines = [sin_pi(4 * r) for r in offsets]
    classes = [_sine(r) for r in offsets]
    for s, (label, c) in zip(sines, classes):
        assert close(s, c * (sin_pi(label) if label else 1))
        # nonzero labels carry exactly the irrational sines
        assert bool(label) == (not any(close(abs(s), v) for v in (0, 0.5, 1)))
    for s, (label, _) in zip(sines, classes):
        for t, (other, _) in zip(sines, classes):
            if label and other:
                assert (label == other) == close(abs(s), abs(t))


SMALL_ORDERS = [(ma, mb) for ma in (2, 4, 8) for mb in (2 * ma, 4 * ma, 8 * ma) if mb <= 32]
GRID_05 = [_exact(Fraction(i, 20)) for i in range(21)]


def class_kind(M_A, M_B, a, b):
    """How the bound at offsets a, b is evaluated: in closed form or from a table of 1 or 2 forms."""
    y_forms = _classes(M_A, M_B, a, b)
    if y_forms == _IDENTITY and len(_forms([a])) == 2:
        return "generic"
    return f"{len(y_forms)}-form"


class TestAlphaBeta:
    def test_zero_offset(self):
        assert alpha_beta(SyncParams(0, 0)) == (0.0, 0.0)

    def test_half_period(self):
        a, b = alpha_beta(SyncParams(0.5, 0.5))
        assert a == pytest.approx(0.5, abs=1e-15)
        assert b == pytest.approx(0.5, abs=1e-15)

    def test_eighth_period(self):
        a, _ = alpha_beta(SyncParams(0.125, 0.3))
        assert a == pytest.approx(1 / (4 * math.pi) + 0.125, abs=1e-15)

    def test_full_period(self):
        a, b = alpha_beta(SyncParams(1.0, 1.0))
        assert a == pytest.approx(1.0, abs=1e-12)
        assert b == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            SyncParams(-0.1, 0.0)
        with pytest.raises(ValueError):
            SyncParams(0.0, 1.5)


class TestUbWithSync:
    def test_aligned_limit(self):
        assert ub_with_sync(4, 16, SyncParams(0, 0)) == pytest.approx(
            ub_pam(4, 16), abs=1e-9
        )
        assert ub_with_sync(8, 32, SyncParams(0, 0)) == pytest.approx(
            ub_pam(8, 32), abs=1e-9
        )

    def test_generic_small_offset_keeps_aligned_value(self):
        # alpha == beta at equal offsets, so y = s + alpha (d_a + d_b): this is
        # the equal-sine class, which sits on the aligned plateau
        assert ub_with_sync(4, 16, SyncParams(0.1, 0.1)) == pytest.approx(
            ALIGNED_4_16, abs=1e-12
        )

    def test_quarter_point_dips(self):
        assert ub_with_sync(4, 16, SyncParams(0.25, 0.25)) == pytest.approx(
            1.560932010739323, abs=1e-12
        )
        assert ub_with_sync(4, 16, SyncParams(0.75, 0.75)) == pytest.approx(
            1.6113214205156843, abs=1e-12
        )
        for da, db in [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]:
            assert ub_with_sync(4, 16, SyncParams(da, db)) < ALIGNED_4_16 - 0.1

    def test_half_period_valley(self):
        assert ub_with_sync(4, 16, SyncParams(0.5, 0.5)) == pytest.approx(
            0.6298086915085723, abs=1e-12
        )

    def test_peer_offset_flip_symmetry(self):
        # flipping Bob's offset swaps his current/previous symbols, an
        # identically distributed pair independent of Alice's
        for da, db in [(0.1, 0.25), (0.25, 0.3), (0.0, 0.4)]:
            assert ub_with_sync(4, 16, SyncParams(da, db)) == pytest.approx(
                ub_with_sync(4, 16, SyncParams(da, 1 - db)), abs=1e-12
            )

    def test_nonnegative(self):
        assert ub_with_sync(4, 16, SyncParams(1.0, 1.0)) >= 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(SMALL_ORDERS),
        st.sampled_from(rationals(24)),
        st.sampled_from(rationals(24)),
    )
    def test_matches_float_formula(self, orders, da, db):
        # floats merge observations within a tolerance; at rational offsets of
        # small denominator that tolerance resolves exactly the true classes
        oracle = float_ub_with_sync(*orders, SyncParams(float(da), float(db)))
        assert ub_with_sync(*orders, SyncParams(da, db)) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize(
        "orders,da,db,expected",
        [
            # the float tolerance merged these into degenerate classes
            ((2, 4), 0, 1e-300, 0.5625),
            ((4, 16), 1 / 3, 2 / 3, GENERIC_4_16),
            ((4, 16), 0.25, 0.25000000000000006, 1.3897292176190894),
            # alpha + beta == 1 exactly at a third
            ((4, 16), Fraction(1, 3), Fraction(2, 3), ALIGNED_4_16),
        ],
    )
    def test_offsets_are_exact_rationals(self, orders, da, db, expected):
        assert ub_with_sync(*orders, SyncParams(da, db)) == pytest.approx(expected, abs=1e-12)

    def test_large_denominators_stay_exact(self):
        # sin(4 pi r_b) == -sin(4 pi r_a) leaves alpha + beta = 1/4 + 2e-30, too
        # fine to tie any two observations: the generic bound, with no overflow
        eps = Fraction(1, 10**30)
        generic = ub_with_sync(4, 16, SyncParams(0.1, 0.3))
        assert generic == pytest.approx(GENERIC_4_16, abs=1e-12)
        assert ub_with_sync(4, 16, SyncParams(eps, Fraction(1, 4) + eps)) == generic

    def test_sine_classes_match_float_sines(self):
        # distinct |sin(4 pi k/q)| with q <= 24 lie far more than 1e-9 apart
        check_sine_classes(
            lambda r: math.sin(math.pi * r.numerator / r.denominator),
            lambda x, y: abs(x - y) < 1e-9,
        )

    def test_sine_classes_match_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            check_sine_classes(
                lambda r: mpmath.sin(mpmath.pi * mpmath.mpf(r.numerator) / r.denominator),
                lambda x, y: abs(x - y) < mpmath.mpf(10) ** -50,
            )

    def test_order_validation(self):
        with pytest.raises(ValueError):
            ub_with_sync(4, 4, SyncParams(0, 0))


class TestSyncSweep:
    def test_row_count_and_order(self):
        rows = sync_sweep(4, 16, grid_step=0.5)
        assert len(rows) == 9
        assert [(r[0], r[1]) for r in rows[:3]] == [(0.0, 0.0), (0.0, 0.5), (0.0, 1.0)]

    def test_corner_matches_aligned(self):
        rows = sync_sweep(4, 16, grid_step=0.5)
        assert rows[0][2] == pytest.approx(ub_pam(4, 16), abs=1e-9)

    def test_rows_match_pointwise_evaluation(self):
        rows = sync_sweep(4, 16, grid_step=0.25)
        assert len(rows) == 25
        for da, db, ub in rows:
            assert ub == pytest.approx(ub_with_sync(4, 16, SyncParams(da, db)), abs=0)

    def test_offsets_are_exact_multiples_of_the_step(self):
        offsets = [db for _, db, _ in sync_sweep(8, 32, grid_step=0.15)[:7]]
        assert offsets == [0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9]

    def test_each_class_is_evaluated_once(self, monkeypatch):
        calls = []

        def counted(M_A, M_B, y_forms, u_forms, *shared):
            calls.append((y_forms, u_forms))
            return _bound(M_A, M_B, y_forms, u_forms, *shared)

        monkeypatch.setattr(pnc.sync, "_bound", counted)
        rows = sync_sweep(4, 16, grid_step=0.05)
        classes = {(_classes(4, 16, a, b), _forms([a])) for a in GRID_05 for b in GRID_05}
        assert len(rows) == 441
        assert len(calls) == len(set(calls)) == len(classes) < 100

    def test_receiver_term_is_computed_once_per_u(self, monkeypatch):
        calls = []

        def counted(M_A, u_forms):
            calls.append(u_forms)
            return _receiver(M_A, u_forms)

        monkeypatch.setattr(pnc.sync, "_receiver", counted)
        rows = sync_sweep(8, 32, grid_step=0.25)
        assert len(calls) == len(set(calls)) > 0
        assert set(calls) <= {_forms([_exact(Fraction(i, 4))]) for i in range(5)}
        # a sweep's cache ends with it: the next sweep computes each term again
        assert sync_sweep(8, 32, grid_step=0.25) == rows
        assert len(calls) == 2 * len(set(calls))

    @pytest.mark.parametrize("orders", [(4, 16), (8, 32)])
    def test_sweep_matches_float_formula(self, orders):
        kinds = {class_kind(*orders, a, b) for a in GRID_05 for b in GRID_05}
        assert kinds == {"generic", "1-form", "2-form"}
        for da, db, ub in sync_sweep(*orders, grid_step=0.05):
            oracle = float_ub_with_sync(*orders, SyncParams(da, db))
            assert ub == pytest.approx(oracle, abs=1e-12)

    def test_full_offset_at_alice_is_exactly_zero(self):
        # at delta_a = 1 both U and Y carry only the previous symbol of Alice
        rows = [r for r in sync_sweep(4, 16, grid_step=0.05) if r[0] == 1.0]
        assert len(rows) == 21
        assert all(ub == 0.0 for _, _, ub in rows)

    def test_grid_size_comes_from_the_exact_step(self):
        # 1 / 0.11111111111111112 rounds to 9.0 in floats, but nine of these
        # steps pass 1: the grid stops at 8 * step, with no offset capped at 1
        rows = sync_sweep(2, 4, grid_step=0.11111111111111112)
        assert len(rows) == 81
        assert rows[-1][:2] == (float(8 * Fraction("0.11111111111111112")),) * 2

    @pytest.mark.parametrize(
        "grid_step,size",
        [(0.05, 21), (0.15, 7), (0.2, 6), (0.25, 5), (0.5, 3), (0.11111111111111112, 9),
         (0.0005291005291005291, 1891)],
    )
    def test_offsets_are_every_multiple_up_to_1(self, grid_step, size):
        # floor(1 / grid_step) in floats gives one offset more at 0.11111111111111112
        # and one fewer at 0.0005291005291005291, where 1890 * step <= 1
        step = Fraction(str(grid_step))
        assert _offsets(grid_step) == [i * step for i in range(size)]
        assert (size - 1) * step <= 1 < size * step

    def test_step_validation(self):
        with pytest.raises(ValueError):
            sync_sweep(4, 16, grid_step=0.0)
        with pytest.raises(ValueError):
            sync_sweep(4, 16, grid_step=0.6)


class TestRankBox:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 64), st.sampled_from((2, 4, 8)))
    def test_interval_lengths_count_the_box(self, M_A, k):
        *_, lo, hi = _box(M_A, k * M_A)
        assert np.all(lo <= hi)
        # bincount in slices: 64/512 has 37M cells
        h = sum(
            np.bincount(hi[s : s + 2**22] - lo[s : s + 2**22] + 1, minlength=M_A + 1)
            for s in range(0, lo.size, 2**22)
        )
        assert np.array_equal(h, _interval_lengths(M_A, k * M_A))

    def test_box_holds_every_tuple_once(self):
        # summing each cell's interval length counts every four-tuple of ranks
        *_, lo, hi = _box(8, 32)
        assert int(np.sum(hi - lo + 1)) == 8**2 * 32**2

    def test_occupancy_and_sorted_ids_give_equal_tables(self, monkeypatch):
        # a two-form class of the 0.05 grid at 16/64, keyed over a small range
        forms = ((2, 0, 1), (0, 1, -1))
        assert forms in {_classes(16, 64, a, b) for a in GRID_05 for b in GRID_05}
        box = _box(16, 64)
        key = _key(forms, box[:3])
        assert np.ptp(key) < 4 * key.size  # the occupancy path
        table = _relay_table(16, forms, box)
        assert table.flags.c_contiguous
        monkeypatch.setattr(pnc.sync, "_class_ids", lambda k: np.unique(k, return_inverse=True)[1])
        assert np.array_equal(_relay_table(16, forms, box), table)

    @pytest.mark.parametrize("orders", [(2, 4), (4, 16), (8, 32), (16, 64)])
    def test_generic_closed_form_matches_the_table(self, orders):
        M_A, M_B = orders
        u_forms = _forms([_exact(0.1)])
        table = _relay_table(M_A, _IDENTITY, _box(M_A, M_B))
        expected = math.log2(M_A) - mi_bits(table)
        assert _bound(M_A, M_B, _IDENTITY, u_forms) == pytest.approx(expected, abs=1e-12)

    def test_generic_points_need_no_box(self, monkeypatch):
        def no_box(M_A, M_B):
            raise AssertionError("the generic class needs no table")

        monkeypatch.setattr(pnc.sync, "_box", no_box)
        for orders in ((64, 256), (128, 512)):
            assert 0 < ub_with_sync(*orders, SyncParams(0.1, 0.3)) < math.log2(orders[0])

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_generic_loss_tends_to_its_limit(self, k):
        limit = (6 * k * k + 8 * k - 1) / (12 * k * k * math.log(2))
        misses = [
            abs(math.log2(M_A) - ub_with_sync(M_A, k * M_A, SyncParams(0.1, 0.3)) - limit)
            for M_A in (2**8, 2**12, 2**16)
        ]
        assert misses == sorted(misses, reverse=True)
        assert misses[-1] < 1e-8
