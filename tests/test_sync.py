import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnc.bounds import ub_pam
from pnc.constellation import make_pam
from pnc.sync import (
    SyncParams,
    _merge_ids,
    _misaligned_channel,
    alpha_beta,
    sync_sweep,
    ub_with_sync,
)

ALIGNED_4_16 = 1.8360902344426084


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
    """ub_with_sync evaluated with float_mi_from_ids."""
    tol = 1e-9 * (M_A + M_B)
    chan = _misaligned_channel(M_A, M_B, p)
    y = chan.observations
    xa_idx = np.broadcast_to(np.arange(M_A)[:, None, None, None], y.shape).ravel()
    i_ray = float_mi_from_ids(_merge_ids(y.ravel(), tol), xa_idx, M_A)
    a = np.asarray(make_pam(M_A).points, dtype=float)
    u = (1 - chan.alpha) * a[:, None] + chan.alpha * a[None, :]
    xa_u = np.broadcast_to(np.arange(M_A)[:, None], u.shape).ravel()
    i_receiver = float_mi_from_ids(_merge_ids(u.ravel(), tol), xa_u, M_A)
    return max(i_receiver - i_ray, 0.0)


SMALL_ORDERS = [(ma, mb) for ma in (2, 4, 8) for mb in (2 * ma, 4 * ma, 8 * ma) if mb <= 32]


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

    def test_period_scaling(self):
        a1, b1 = alpha_beta(SyncParams(0.125, 0.25))
        a2, b2 = alpha_beta(SyncParams(0.25, 0.5, period=2.0))
        assert (a1, b1) == pytest.approx((a2, b2), abs=1e-15)

    def test_full_period(self):
        a, b = alpha_beta(SyncParams(1.0, 1.0))
        assert a == pytest.approx(1.0, abs=1e-12)
        assert b == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            SyncParams(-0.1, 0.0)
        with pytest.raises(ValueError):
            SyncParams(0.0, 1.5)
        with pytest.raises(ValueError):
            SyncParams(0.1, 0.1, period=0.0)


class TestMisalignedChannel:
    def test_table_shape(self):
        chan = _misaligned_channel(4, 16, SyncParams(0.3, 0.7))
        assert chan.observations.shape == (4, 4, 16, 16)

    def test_collapses_when_aligned(self):
        chan = _misaligned_channel(4, 16, SyncParams(0, 0))
        a = np.array([-3, -1, 1, 3], dtype=float)
        b = np.arange(-15, 16, 2, dtype=float)
        expected = a[:, None] + b[None, :]
        got = chan.observations[:, 0, :, 0]
        np.testing.assert_allclose(got, expected)
        # previous symbols are irrelevant at zero offset
        assert np.ptp(chan.observations, axis=(1, 3)).max() == 0.0


class TestUbWithSync:
    def test_aligned_limit(self):
        assert ub_with_sync(4, 16, SyncParams(0, 0)) == pytest.approx(
            ub_pam(4, 16), abs=1e-9
        )
        assert ub_with_sync(8, 32, SyncParams(0, 0)) == pytest.approx(
            ub_pam(8, 32), abs=1e-9
        )

    def test_generic_small_offset_keeps_aligned_value(self):
        # at irrational coupling coefficients no observations coincide, so the
        # bound sits on the aligned plateau
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

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(SMALL_ORDERS),
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_matches_float_formula(self, orders, da, db):
        p = SyncParams(da, db)
        assert ub_with_sync(*orders, p) == pytest.approx(float_ub_with_sync(*orders, p), abs=1e-12)

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
        for da, db, ub in rows[::6]:
            assert ub == pytest.approx(ub_with_sync(4, 16, SyncParams(da, db)), abs=0)

    def test_full_offset_at_alice_is_exactly_zero(self):
        # at delta_a = 1 both U and Y carry only the previous symbol of Alice
        rows = [r for r in sync_sweep(4, 16, grid_step=0.05) if r[0] == 1.0]
        assert len(rows) == 21
        assert all(ub == 0.0 for _, _, ub in rows)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            sync_sweep(4, 16, grid_step=0.0)
        with pytest.raises(ValueError):
            sync_sweep(4, 16, grid_step=0.6)
