import functools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audit_oracle import mi_from_counts
from pnc.bounds import (
    compute_bounds,
    guaranteed_entropy,
    guaranteed_entropy_pam,
    ub_generic,
    ub_nocoop,
    ub_pam,
)
from pnc.constellation import (
    FiniteAlphabet,
    make_pam,
    pam_sum_profile,
    preimage_count_pam,
    sum_profile,
)
from pnc.encoders import build_partition, coop_level


def aligned_pnc_joint(M_A, M_B):
    """Exact joint pmf (Y, Y_recv, X_A, X_B) for the noiseless aligned sum.

    The legitimate receiver observes the sum and knows its own symbol, so
    Y_recv determines X_A given X_B.
    """
    p = Fraction(1, M_A * M_B)
    return {
        (xa + xb, xa + xb, xa, xb): p
        for xa in make_pam(M_A).points
        for xb in make_pam(M_B).points
    }


GRID = [
    (ma, mb)
    for ma in (2, 4, 8, 16, 32, 64)
    for mb in (2 * ma, 4 * ma, 8 * ma, 16 * ma)
    if mb <= 256
]


class TestSharedBound:
    def test_generic_examples(self):
        assert ub_generic(pam_sum_profile(2, 4)) == pytest.approx(0.75, abs=1e-15)
        assert ub_generic(pam_sum_profile(2, 2)) == pytest.approx(0.5, abs=1e-15)

    def test_all_singleton_counts(self):
        a = FiniteAlphabet(points=(0.0, 1.0))
        b = FiniteAlphabet(points=(0.0, 10.0))
        assert ub_generic(sum_profile(a, b)) == 0.0

    @pytest.mark.parametrize("M_A,M_B", GRID)
    def test_closed_form_matches_generic(self, M_A, M_B):
        assert ub_pam(M_A, M_B) == pytest.approx(
            ub_generic(pam_sum_profile(M_A, M_B)), abs=1e-12
        )

    def test_4_16_value(self):
        assert ub_pam(4, 16) == pytest.approx(1.8360902344426084, abs=1e-12)
        assert ub_pam(2, 4) == pytest.approx(0.75, abs=1e-15)

    def test_large_mb_limit(self):
        assert abs(ub_pam(4, 4096) - 2.0) < 0.05

    @pytest.mark.parametrize("M_A,M_B", GRID)
    def test_monotone_in_mb(self, M_A, M_B):
        assert ub_pam(M_A, 2 * M_B) >= ub_pam(M_A, M_B)

    def test_rejects_small_mb(self):
        with pytest.raises(ValueError):
            ub_pam(4, 4)


class TestGuaranteedEntropy:
    def test_brute_force_examples(self):
        p = pam_sum_profile(4, 16)
        assert guaranteed_entropy(1, "alice", p) == pytest.approx(1.0, abs=1e-15)
        assert guaranteed_entropy(7, "bob", p) == pytest.approx(2.0, abs=1e-15)
        assert guaranteed_entropy(11, "bob", p) == pytest.approx(math.log2(3), abs=1e-15)

    def test_closed_form_examples(self):
        assert guaranteed_entropy_pam(3, "alice", 4, 16) == 0.0
        assert guaranteed_entropy_pam(-3, "alice", 4, 16) == 0.0
        assert guaranteed_entropy_pam(9, "bob", 4, 16) == 2.0
        assert guaranteed_entropy_pam(-9, "bob", 4, 16) == 2.0
        assert guaranteed_entropy_pam(13, "bob", 4, 16) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_foreign_point(self):
        with pytest.raises(ValueError):
            guaranteed_entropy_pam(2, "alice", 4, 16)

    @pytest.mark.parametrize("M_A,M_B", GRID)
    def test_closed_form_matches_brute_force(self, M_A, M_B):
        p = pam_sum_profile(M_A, M_B)
        for x in make_pam(M_A).points:
            assert guaranteed_entropy_pam(x, "alice", M_A, M_B) == pytest.approx(
                guaranteed_entropy(x, "alice", p), abs=1e-13
            )
        for x in make_pam(M_B).points:
            assert guaranteed_entropy_pam(x, "bob", M_A, M_B) == pytest.approx(
                guaranteed_entropy(x, "bob", p), abs=1e-13
            )


class TestNoCoopBounds:
    def test_4_16_values(self):
        r_a, r_b = ub_nocoop(4, 16)
        assert r_a == pytest.approx(0.5, abs=1e-15)
        assert r_b == pytest.approx((2 * 10 + 2 * (math.log2(3) + 1 + 0)) / 16, abs=1e-13)

    def test_2_4_alice_zero(self):
        assert ub_nocoop(2, 4)[0] == 0.0

    @pytest.mark.parametrize("M_A,M_B", GRID)
    def test_never_exceed_shared(self, M_A, M_B):
        r_a, r_b = ub_nocoop(M_A, M_B)
        shared = ub_pam(M_A, M_B)
        m_a = int(math.log2(M_A))
        assert 0 <= r_a <= shared + 1e-12 <= m_a + 1e-12
        assert 0 <= r_b <= shared + 1e-12

    def test_bounds_bundle(self):
        b = compute_bounds(4, 16)
        assert b.ub_shared == ub_pam(4, 16)
        assert (b.ub_alice_nocoop, b.ub_bob_nocoop) == ub_nocoop(4, 16)


def csiszar_ub(joint):
    """[I(Y_recv; X | X_o) - I(Y; X)]^+ from an exact pmf over (y, y_recv, x, x_o) keys.

    Each outcome counts its probability times the common denominator, in
    Python ints; the clamp is applied to the difference, never per term.
    """
    n = math.lcm(*(Fraction(p).denominator for p in joint.values()))
    slices, leak = {}, Counter()
    for (y, y_recv, x, x_o), p in joint.items():
        c = int(Fraction(p) * n)
        slices.setdefault(x_o, Counter())[(x, y_recv)] += c
        leak[(y, x)] += c
    keep = sum(s.total() * mi_from_counts(s, s.total()) for s in slices.values()) / n
    return max(keep - mi_from_counts(leak, n), 0.0)


class TestCsiszarBound:
    @pytest.mark.parametrize("M_A,M_B", GRID)
    def test_noiseless_aligned_equals_closed_form(self, M_A, M_B):
        assert csiszar_ub(aligned_pnc_joint(M_A, M_B)) == pytest.approx(
            ub_pam(M_A, M_B), abs=1e-12
        )

    def test_maximal_case(self):
        # X independent of the eavesdropper's Y; receiver sees X directly
        M = 4
        joint = {}
        for y in range(2):
            for x in range(M):
                joint[(y, x, x, 0)] = Fraction(1, 2 * M)
        assert csiszar_ub(joint) == pytest.approx(2.0, abs=1e-15)

    def test_fully_leaked_clamps_to_zero(self):
        # eavesdropper's Y determines X while the receiver learns nothing
        M = 4
        joint = {(x, 0, x, 0): Fraction(1, M) for x in range(M)}
        assert csiszar_ub(joint) == 0.0

    def test_denominator_2_53_is_exact(self):
        # 0.6 + 0.4 is exactly 1, over the denominator 2**53; the receiver sees
        # X, the eavesdropper nothing, so the bound is h(0.6)
        bound = csiszar_ub({(0, 0, 0, 0): 0.6, (0, 1, 1, 0): 0.4})
        assert bound == pytest.approx(0.9709505944546686, rel=1e-15, abs=0)


def nocoop_reference(M_A, M_B):
    """ub_nocoop as a per-point sum of guaranteed_entropy_pam over each alphabet."""
    r_a = sum(guaranteed_entropy_pam(x, "alice", M_A, M_B) for x in make_pam(M_A).points)
    r_b = sum(guaranteed_entropy_pam(x, "bob", M_A, M_B) for x in make_pam(M_B).points)
    return r_a / M_A, r_b / M_B


cached_profile = functools.lru_cache(maxsize=None)(pam_sum_profile)  # the 32 of the grid below

# the full order grid: M_A = 2 ... 2^8, M_B / M_A in {2, 4, 8, 16}
ORDER_GRID = st.tuples(st.integers(1, 8), st.sampled_from((2, 4, 8, 16))).map(
    lambda t: (1 << t[0], t[1] << t[0])
)


class TestStaircase:
    """Every PAM closed form reads one staircase; each must equal its brute-force reference."""

    @settings(max_examples=150, deadline=None)
    @given(ORDER_GRID, st.data())
    def test_closed_forms_equal_enumeration(self, orders, data):
        M_A, M_B = orders
        profile = cached_profile(M_A, M_B)
        y = data.draw(st.integers(-(M_A + M_B) - 2, M_A + M_B + 2), label="y")
        assert preimage_count_pam(y, M_A, M_B) == profile.count(y)
        for side, M in (("alice", M_A), ("bob", M_B)):
            x = 2 * data.draw(st.integers(0, M - 1), label=f"{side} rank") - (M - 1)
            assert guaranteed_entropy_pam(x, side, M_A, M_B) == guaranteed_entropy(x, side, profile)
        x_b = 2 * data.draw(st.integers(0, M_B - 1), label="coop rank") - (M_B - 1)
        fewest = min(profile.count(x_a + x_b) for x_a in make_pam(M_A).points)
        assert coop_level(x_b, M_A, M_B) == fewest.bit_length() - 1

    @pytest.mark.parametrize(
        "M_A,M_B", [(1 << k, r << k) for k in range(1, 11) for r in (2, 4, 8, 16)]
    )
    def test_nocoop_equals_the_per_point_sum(self, M_A, M_B):
        # the same log2 terms in the same order, so the same floats
        assert ub_nocoop(M_A, M_B) == nocoop_reference(M_A, M_B)

    @pytest.mark.parametrize("side", ["Alice", "ALICE", "carol", "", None])
    def test_unknown_side_raises(self, side):
        # an unknown side once silently meant Bob
        with pytest.raises(ValueError, match="side must be 'alice' or 'bob'"):
            guaranteed_entropy_pam(1, side, 4, 16)
        with pytest.raises(ValueError, match="side must be 'alice' or 'bob'"):
            guaranteed_entropy(1, side, pam_sum_profile(4, 16))
        with pytest.raises(ValueError, match="side must be 'alice' or 'bob'"):
            build_partition(4, 16, side)

    @pytest.mark.parametrize(
        "f",
        [ub_pam, ub_nocoop, compute_bounds, lambda M_A, M_B: preimage_count_pam(0, M_A, M_B)],
        ids=["ub_pam", "ub_nocoop", "compute_bounds", "preimage_count_pam"],
    )
    def test_order_1_is_refused(self, f):
        with pytest.raises(ValueError, match="power of two >= 2, got 1"):
            f(1, 2)

    @pytest.mark.parametrize("orders", [(np.int64(4), np.int64(16)), (4, np.int64(16)), (4.0, 16)])
    def test_an_order_that_is_not_an_int_is_refused_as_such(self, orders):
        # a numpy integer once read as "constellation orders must be powers of two"
        with pytest.raises(ValueError, match="PAM order must be an int, got "):
            ub_pam(*orders)
