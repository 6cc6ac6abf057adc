import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pnc.info import _balanced_mi_bits, mi_bits

weights = st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=12)


@st.composite
def big_tables(draw):
    """Tables with entries up to 2**40: outer(u, v) plus a sparse nonnegative offset."""
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
    factors = [
        draw(st.lists(st.integers(0, 2**20 - 1), min_size=size, max_size=size)) for size in shape
    ]
    for f in factors:  # keeps the total above 2**32
        f[0] = draw(st.integers(2**16, 2**20 - 1))
    u, v = factors
    offset = st.one_of(st.just(0), st.integers(0, 2**20))
    return [[a * b + draw(offset) for b in v] for a in u]


@st.composite
def balanced_tables(draw):
    """(table, totals, widths): each group cuts one cyclic run of residues into rows.

    Row y of group g holds the next totals[y, g] residues mod widths[g] of a
    run whose length is a multiple of the width, so each row's counts are at
    most one apart and every column of the group has the same sum.
    """
    n_rows = draw(st.integers(1, 5))
    widths = draw(st.lists(st.sampled_from((1, 2, 4, 8)), min_size=1, max_size=3))
    start = draw(st.integers(0, 7))
    blocks, totals = [], []
    for w in widths:
        cuts = draw(st.lists(st.integers(0, 20), min_size=n_rows - 1, max_size=n_rows - 1))
        cuts.append(-sum(cuts) % w + w * draw(st.integers(0, 2)))
        residues = (start + np.arange(sum(cuts))) % w
        edges = np.cumsum([0, *cuts])
        blocks.append(
            [np.bincount(residues[a:b], minlength=w) for a, b in zip(edges[:-1], edges[1:])]
        )
        totals.append(cuts)
    table = np.hstack([np.array(rows).reshape(n_rows, -1) for rows in blocks])
    return table, np.array(totals).T, widths


class TestBalancedMiBits:
    @given(balanced_tables())
    def test_matches_the_table(self, case):
        table, totals, widths = case
        got, want = float(_balanced_mi_bits(totals, widths)), mi_bits(table)
        assert (got == 0.0) == (want == 0.0)
        assert got >= 0.0
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_empty_rows_and_groups_add_nothing(self):
        # rows 2 and 4 hold every residue of a width-2 group once and twice
        assert _balanced_mi_bits([[2, 0], [0, 0], [4, 0]], [2, 4]) == 0.0
        assert _balanced_mi_bits([[1, 0], [0, 0], [3, 0]], [2, 4]) == pytest.approx(
            mi_bits([[1, 0], [1, 2]]), rel=1e-12
        )

    def test_leading_axes_are_separate_tables(self):
        totals = np.array([[1], [3], [4]])
        widths = np.array([[2], [4], [8]])
        batch = _balanced_mi_bits(totals, widths)
        assert batch.shape == (3,)
        assert batch.tolist() == [float(_balanced_mi_bits(totals, w)) for w in widths]

    def test_refuses_counts_past_int64(self):
        with pytest.raises(ValueError, match="int64"):
            _balanced_mi_bits([[2**31], [2**30]], [2])


class TestMiBits:
    @given(weights, weights)
    def test_product_table_is_exactly_zero(self, u, v):
        assert mi_bits(np.outer(u, v)) == 0.0

    def test_near_product_table_is_not_zero(self):
        # one count off a product table: dependent, however slightly
        assert mi_bits([[10**4, 10**4], [10**4, 10**4 + 1]]) > 0.0

    def test_empty_table_is_zero(self):
        assert mi_bits(np.zeros((2, 3), dtype=np.int64)) == 0.0

    def test_copy_channel_is_one_bit(self):
        assert mi_bits([[1, 0], [0, 1]]) == 1.0

    def test_known_value(self):
        # rows (2, 1), (1, 2): 1 - h(1/3) bits
        h = -(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3)
        assert mi_bits([[2, 1], [1, 2]]) == pytest.approx(1 - h, rel=1e-15)

    def test_large_totals_are_exact(self):
        # total 2**32: n * n does not fit an int64, yet the decision is exact
        assert mi_bits([[2**31, 2**31]]) == 0.0
        assert mi_bits([[2**31, 0], [0, 2**31]]) == 1.0
        assert mi_bits([[2**31, 2**31 - 1], [2**31 - 1, 2**31]]) > 0.0

    @given(big_tables())
    def test_decides_zero_exactly_past_isqrt_int64_max(self, table):
        # every total here exceeds isqrt(int64 max), about 3.04e9
        n = sum(map(sum, table))
        assert n > math.isqrt(2**63 - 1)
        rows = [sum(row) for row in table]
        cols = [sum(col) for col in zip(*table)]
        cells = [(c, r, k) for row, r in zip(table, rows) for c, k in zip(row, cols)]
        if all(c * n == r * k for c, r, k in cells):
            assert mi_bits(table) == 0.0
        else:
            # Python-int ratios, each rounded once; near-product tables cancel
            # to second order, so the float kernel is only good to a few ulps
            reference = math.fsum(c / n * math.log2(c * n / (r * k)) for c, r, k in cells if c)
            assert mi_bits(table) == pytest.approx(reference, rel=1e-12, abs=1e-13)

