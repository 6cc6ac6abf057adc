import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pnc.constellation import (
    FiniteAlphabet,
    PamConstellation,
    SumProfile,
    make_pam,
    pam_sum_profile,
    preimage_count_pam,
    sum_profile,
)

POWERS = (2, 4, 8, 16, 32, 64)


def brute_counts(M_A, M_B):
    a, b = make_pam(M_A), make_pam(M_B)
    counts = {}
    for xa, xb in itertools.product(a.points, b.points):
        counts[xa + xb] = counts.get(xa + xb, 0) + 1
    return counts


class TestMakePam:
    def test_smallest(self):
        pam = make_pam(2)
        assert pam.points == (-1, 1)
        assert pam.label(-1) == "0" and pam.label(1) == "1"

    def test_reference_labels_m16(self):
        pam = make_pam(16)
        assert pam.label(-5) == "0101"
        assert pam.label(7) == "1011"

    def test_rank_arithmetic_m8(self):
        pam = make_pam(8)
        assert pam.points == (-7, -5, -3, -1, 1, 3, 5, 7)
        assert pam.rank(1) == 4
        assert pam.label(1) == "100"

    def test_integral_float_point_has_int_rank(self):
        pam = make_pam(4)
        assert type(pam.rank(1.0)) is int and pam.rank(1.0) == 2
        assert pam.label(1.0) == "10"

    @pytest.mark.parametrize("bad", [0, 1, 3, 6, 12, -4])
    def test_rejects_non_power_of_two(self, bad):
        with pytest.raises(ValueError):
            make_pam(bad)
        with pytest.raises(ValueError, match="power of two"):
            PamConstellation(bad)

    @pytest.mark.parametrize("order", [np.int64(4), 4.0])
    def test_rejects_an_order_that_is_not_an_int(self, order):
        with pytest.raises(ValueError, match="PAM order must be an int, got "):
            make_pam(order)

    @given(st.integers(1, 12))
    def test_points_and_bits_follow_the_order(self, k):
        M = 2**k
        pam = PamConstellation(M)
        assert pam.points == tuple(range(-(M - 1), M, 2))
        assert pam.bits_per_symbol == k
        assert make_pam(M) == pam

    @pytest.mark.parametrize("derived", [{"points": (-1, 1)}, {"bits_per_symbol": 1}])
    def test_derived_fields_cannot_be_set(self, derived):
        with pytest.raises(TypeError):
            PamConstellation(2, **derived)

    @given(st.data())
    def test_membership_rule_matches_point_tuple(self, data):
        M = data.draw(st.sampled_from([2**k for k in range(1, 11)]))
        pam = make_pam(M)
        n = data.draw(st.integers(-2 * M - 1, 2 * M + 1))
        for x in (n, n / 2):  # integers, then integer and half-integer floats
            assert (x in pam) == (x in pam.points)
            if x in pam.points:
                assert pam.rank(x) == pam.points.index(x)
            else:
                with pytest.raises(ValueError, match="is not a point"):
                    pam.rank(x)

    @pytest.mark.parametrize("M", POWERS)
    def test_label_bijection(self, M):
        pam = make_pam(M)
        labels = [pam.label(x) for x in pam.points]
        assert len(set(labels)) == M
        assert all(len(l) == pam.bits_per_symbol for l in labels)
        for x in pam.points:
            assert pam.unlabel(pam.label(x)) == x


class TestSumProfile:
    def test_two_pam_squared(self):
        a = FiniteAlphabet.from_pam(make_pam(2))
        p = sum_profile(a, a)
        assert p.entries == {-2: 1, 0: 2, 2: 1}

    def test_4_16_flat_value(self):
        p = pam_sum_profile(4, 16)
        assert p.count(0) == 4
        assert all(p.count(y) == 0 for y in range(-19, 20, 2))

    def test_2_4_counts(self):
        p = pam_sum_profile(2, 4)
        assert p.entries == {-4: 1, -2: 2, 0: 2, 2: 2, 4: 1}

    @pytest.mark.parametrize("M_A,M_B", [(2, 4), (4, 16), (8, 64)])
    def test_total_and_symmetry(self, M_A, M_B):
        p = pam_sum_profile(M_A, M_B)
        assert sum(p.entries.values()) == M_A * M_B
        assert p.total == M_A * M_B
        for y in p.support():
            assert p.count(y) == p.count(-y)

    def test_total_is_derived(self):
        assert SumProfile(entries={0: 2, 2: 3}).total == 5
        with pytest.raises(TypeError):
            SumProfile(entries={0: 2}, total=2)

    def test_real_alphabet_sums_exactly(self):
        # as floats, 0.1 + 0.2 != 0.0 + 0.3; as shortest decimals they agree
        a = FiniteAlphabet(points=(0.1, 0.0))
        b = FiniteAlphabet(points=(0.2, 0.3))
        p = sum_profile(a, b)
        assert p.entries == {Fraction(1, 5): 1, Fraction(3, 10): 2, Fraction(2, 5): 1}
        assert sorted(p.entries.values()) == [1, 1, 2]
        # the profile is keyed by Fraction, so it is queried by Fraction
        assert p.count(Fraction(str(0.3))) == 2

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            FiniteAlphabet(points=(1.0, 1.0))


class TestPreimageClosedForm:
    def test_branch_values(self):
        assert preimage_count_pam(0, 4, 16) == 4
        assert preimage_count_pam(3, 4, 16) == 0
        assert preimage_count_pam(-18, 4, 16) == 1

    def test_rejects_small_mb(self):
        with pytest.raises(ValueError):
            preimage_count_pam(0, 4, 4)

    @pytest.mark.parametrize("M_A", POWERS)
    def test_matches_enumeration(self, M_A):
        M_B = 2 * M_A
        while M_B <= 256:
            counts = brute_counts(M_A, M_B)
            for y in range(-(M_A + M_B) - 2, M_A + M_B + 3):
                assert preimage_count_pam(y, M_A, M_B) == counts.get(y, 0)
            M_B *= 2
