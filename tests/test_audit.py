import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from audit_oracle import reference_audit
from hypothesis import given, settings
from hypothesis import strategies as st

from pnc.constellation import make_pam
from pnc.encoders import SCHEMES, audit_leakage, build_partition, coop_level
from pnc.info import _balanced_mi_bits


def brute_suffix_mi(M_A, M_B, side, j):
    """Independent I(Y; last-j label bits of one user's symbol)."""
    a, b = make_pam(M_A), make_pam(M_B)
    carrier = a if side == "alice" else b
    joint = Counter()
    for xa in a.points:
        for xb in b.points:
            x = xa if side == "alice" else xb
            joint[(xa + xb, carrier.label(x)[-j:])] += 1
    total = M_A * M_B
    py = Counter()
    ps = Counter()
    for (y, s), c in joint.items():
        py[y] += c
        ps[s] += c
    return sum(
        c / total * math.log2(c * total / (py[y] * ps[s]))
        for (y, s), c in joint.items()
    )


class TestSuffixLeakage:
    def test_nocoop_bob_4_16(self):
        r = audit_leakage("nocoop_bob", 4, 16)
        assert r.suffix_mi == pytest.approx(
            (0.038909765557391604, 0.16390976555739162), abs=1e-14
        )

    def test_matches_independent_enumeration(self):
        for M_A, M_B, side in [(4, 16, "bob"), (4, 16, "alice"), (8, 32, "bob")]:
            r = audit_leakage(f"nocoop_{side}", M_A, M_B)
            m_a = int(math.log2(M_A))
            for j in range(1, m_a + 1):
                assert r.suffix_mi[j - 1] == pytest.approx(
                    brute_suffix_mi(M_A, M_B, side, j), abs=1e-12
                )

    def test_flat_region_is_exactly_zero(self):
        for scheme in SCHEMES:
            for M_A, M_B in [(4, 16), (8, 32), (4, 32)]:
                r = audit_leakage(scheme, M_A, M_B)
                assert all(v == 0.0 for v in r.flat_suffix_mi)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize(
        "M_A,M_B", [(ma, k * ma) for ma in (2, 4, 8, 16, 32, 64) for k in (2, 4, 8)]
    )
    def test_flat_region_is_exactly_zero_over_the_order_grid(self, scheme, M_A, M_B):
        assert audit_leakage(scheme, M_A, M_B).flat_suffix_mi == (0.0,) * (M_A.bit_length() - 1)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_flat_region_is_exactly_zero_at_4096_16384(self, scheme):
        # the figures need no count table, so this order is cheap
        r = audit_leakage(scheme, 4096, 16384)
        assert r.flat_suffix_mi == (0.0,) * 12
        assert (r.flat_semantic_mi == 0.0) == (scheme == "nocoop_alice")

    def test_flat_suffix_posterior_uniform(self):
        r = audit_leakage("nocoop_bob", 4, 16)
        post = r.suffix_posteriors[2][10]
        assert post == {s: Fraction(1, 4) for s in ("00", "01", "10", "11")}


class TestSemanticLeakage:
    def test_nocoop_bob_4_16_values(self):
        r = audit_leakage("nocoop_bob", 4, 16)
        assert r.semantic_mi == pytest.approx(1.1014097655573916, abs=1e-14)
        assert r.flat_semantic_mi == pytest.approx(0.8771177198116035, abs=1e-14)

    def test_rim_observation_pins_secret_bit(self):
        # at y = 14 the secret string, when nonempty, is always "1"
        r = audit_leakage("nocoop_bob", 4, 16)
        assert r.semantic_posteriors[14] == {
            (0, ""): Fraction(2, 3),
            (1, "1"): Fraction(1, 3),
        }

    def test_flat_observation_semantic_posterior(self):
        r = audit_leakage("nocoop_bob", 4, 16)
        assert r.semantic_posteriors[10] == {
            (0, ""): Fraction(1, 4),
            (1, "0"): Fraction(1, 4),
            (1, "1"): Fraction(1, 4),
            (2, "11"): Fraction(1, 4),
        }

    def test_nocoop_alice_semantic_free(self):
        # Alice's scheme at (4, 16) assigns no secret bits, so leaking the
        # (always-empty) secret content is impossible
        r = audit_leakage("nocoop_alice", 4, 16)
        assert r.semantic_mi == 0.0
        assert r.flat_semantic_mi == 0.0

    def test_coop_semantic_nonzero_even_in_flat(self):
        # the secret-bit count is keyed off the peer's symbol, which the
        # observation constrains even in the flat region
        r = audit_leakage("coop", 4, 16)
        assert r.semantic_mi == pytest.approx(0.9627047062527905, abs=1e-14)
        assert r.flat_semantic_mi == pytest.approx(0.6601242422878589, abs=1e-14)
        assert all(v == 0.0 for v in r.flat_suffix_mi)

    def test_coop_8_32(self):
        r = audit_leakage("coop", 8, 32)
        assert r.semantic_mi == pytest.approx(1.0799969723501772, abs=1e-14)
        assert r.flat_semantic_mi == pytest.approx(0.7543388278916858, abs=1e-14)


ORDER_GRID = [(M_A, k * M_A) for M_A in (2, 4, 8, 16) for k in (2, 4, 8)]


class TestAgainstReference:
    @pytest.mark.parametrize("M_A,M_B", ORDER_GRID)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matches_reference(self, scheme, M_A, M_B):
        r = audit_leakage(scheme, M_A, M_B)
        ref = reference_audit(scheme, M_A, M_B)
        for name in ("suffix_mi", "semantic_mi", "flat_suffix_mi", "flat_semantic_mi"):
            got, want = getattr(r, name), getattr(ref, name)
            if isinstance(want, float):
                got, want = (got,), (want,)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert (g == 0.0) == (w == 0.0), name  # exact zeros in the same places
                assert g == pytest.approx(w, rel=1e-12, abs=0), name
        assert r.suffix_posteriors == ref.suffix_posteriors
        assert r.semantic_posteriors == ref.semantic_posteriors

    @settings(max_examples=12, deadline=None)  # the oracle takes about 1 s at 64/512
    @given(st.sampled_from(SCHEMES), st.integers(1, 6), st.sampled_from((2, 4, 8)))
    def test_matches_reference_up_to_64(self, scheme, m_a, ratio):
        self.test_matches_reference(scheme, 1 << m_a, ratio << m_a)


class TestCountTables:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize(
        "M_A,M_B", [(ma, k * ma) for ma in (2, 4, 8, 16, 32, 64, 128, 256) for k in (2, 4, 8, 16)]
    )
    def test_rows_are_reachable_y_and_columns_occurring_keys(self, scheme, M_A, M_B):
        # the contract of a contingency table over the observed pairs
        r = audit_leakage(scheme, M_A, M_B)
        reachable = sorted({xa + xb for xa in make_pam(M_A).points for xb in make_pam(M_B).points})
        for table, ys, keys in (*r.suffix_counts, r.semantic_counts):
            assert ys.tolist() == reachable
            assert table.shape == (ys.size, keys.size)
            assert np.all(np.diff(keys) > 0)
            assert table.any(axis=0).all()  # no all-zero column
            assert table.sum() == M_A * M_B


def level_groups(report):
    """The semantic table's column blocks, one per level k: 2^k columns each."""
    table = report.semantic_counts[0]
    levels = (table.shape[1] + 1).bit_length() - 1
    return [table[:, (1 << k) - 1 : (2 << k) - 1] for k in range(levels)]


class TestBalancedTables:
    """The premise of pnc.info._balanced_mi_bits, read off the count tables."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SCHEMES), st.integers(1, 8), st.sampled_from((2, 4, 8, 16)))
    def test_level_counts_are_balanced(self, scheme, m_a, ratio):
        M_A, M_B = 1 << m_a, ratio << m_a
        r = audit_leakage(scheme, M_A, M_B)
        ys = r.semantic_counts[1]
        groups = level_groups(r) + [table for table, _, _ in r.suffix_counts]
        for rows in (slice(None), np.abs(ys) <= M_B - M_A):  # full, then flat rows
            for group in groups:
                g = group[rows]
                assert (g.max(axis=1) - g.min(axis=1) <= 1).all()  # one row: at most one apart
                assert (g.sum(axis=0) == g.sum(axis=0)[0]).all()  # equal column sums

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("M_A,M_B", [(4, 16), (16, 32), (64, 256), (32, 512)])
    def test_figures_are_the_kernel_on_the_tables_totals(self, scheme, M_A, M_B):
        # the audit's per-level prefix counts are the tables' row sums per level
        r = audit_leakage(scheme, M_A, M_B)
        flat = np.abs(r.semantic_counts[1]) <= M_B - M_A
        totals = np.stack([g.sum(axis=1) for g in level_groups(r)], axis=1)
        widths = 1 << np.arange(totals.shape[1])
        assert float(_balanced_mi_bits(totals, widths)) == r.semantic_mi
        assert float(_balanced_mi_bits(totals[flat], widths)) == r.flat_semantic_mi
        lengths = r.suffix_counts[0][0].sum(axis=1)[:, None]
        suffix_widths = (2 << np.arange(M_A.bit_length() - 1))[:, None]
        assert tuple(_balanced_mi_bits(lengths, suffix_widths).tolist()) == r.suffix_mi
        assert tuple(_balanced_mi_bits(lengths[flat], suffix_widths).tolist()) == r.flat_suffix_mi


def mpmath_mi(mpmath, table):
    """I(A; B) in bits of an integer table, in mpmath at its working precision."""
    t = np.asarray(table, dtype=np.int64)
    rows, cols = t.sum(axis=1), t.sum(axis=0)
    n = int(t.sum())
    cells = np.stack([t.ravel(), np.repeat(rows, t.shape[1]), np.tile(cols, t.shape[0])], axis=1)
    distinct, multiplicity = np.unique(cells[cells[:, 0] > 0], axis=0, return_counts=True)
    total = mpmath.fsum(
        m * c * mpmath.log(mpmath.mpf(c * n) / (r * k))
        for (c, r, k), m in zip(distinct.tolist(), multiplicity.tolist())
    )
    return total / (n * mpmath.log(2))


class TestAccuracy:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("M_A,M_B", [(64, 256), (128, 512)])
    def test_figures_are_within_1e_15_of_mpmath(self, scheme, M_A, M_B):
        mpmath = pytest.importorskip("mpmath")
        r = audit_leakage(scheme, M_A, M_B)
        flat = np.abs(r.semantic_counts[1]) <= M_B - M_A
        tables = [table for table, _, _ in r.suffix_counts] + [r.semantic_counts[0]]
        figures = [*r.suffix_mi, r.semantic_mi]
        flat_figures = [*r.flat_suffix_mi, r.flat_semantic_mi]
        with mpmath.workdps(50):
            for table, figure, flat_figure in zip(tables, figures, flat_figures):
                for got, rows in ((figure, table), (flat_figure, table[flat])):
                    want = mpmath_mi(mpmath, rows)
                    if got == 0.0:
                        assert want == 0  # an exact zero is a factorizing table
                    else:
                        assert abs(got - want) <= 1e-15 * want, (got, want)


class TestValidation:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            audit_leakage("both", 4, 16)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            audit_leakage("coop", 4, 4)

    def test_semantic_count_matches_partition_level(self):
        r = audit_leakage("nocoop_bob", 4, 16)
        part = build_partition(4, 16, "bob")
        for y, post in r.semantic_posteriors.items():
            for (k, s), _ in post.items():
                assert len(s) == k
        # every level occurring in the partition shows up in some posterior
        seen = {k for post in r.semantic_posteriors.values() for (k, _) in post}
        want = {part.level_of(x) for x in part.constellation.points}
        assert seen == want

    def test_coop_counts_match_coop_level(self):
        r = audit_leakage("coop", 4, 16)
        seen = {k for post in r.semantic_posteriors.values() for (k, _) in post}
        want = {coop_level(x, 4, 16) for x in make_pam(16).points}
        assert seen == want
