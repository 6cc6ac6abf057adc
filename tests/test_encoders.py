import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pnc.bounds
import pnc.constellation
import pnc.encoders
from pnc.bounds import compute_bounds, guaranteed_entropy_pam, ub_pam, ub_nocoop
from pnc.constellation import make_pam
from pnc.encoders import (
    BitQueues,
    QueueUnderflow,
    build_partition,
    coop_level,
    decode_coop,
    decode_stream,
    encode_coop,
    encode_stream,
    gaps,
    rate_coop,
    rate_nocoop,
)

GRID = [
    (ma, mb)
    for ma in (2, 4, 8, 16, 32, 64)
    for mb in (2 * ma, 4 * ma, 8 * ma, 16 * ma)
    if mb <= 256
]


class TestPartition:
    def test_bob_4_16_sets(self):
        part = build_partition(4, 16, "bob")
        assert part.subset(2) == (-7, -5, -3, -1, 1, 3, 5, 7)
        assert part.subset(1) == (-11, -9, 9, 11)
        assert part.subset(0) == (-15, -13, 13, 15)

    def test_alice_4_16_all_level_zero(self):
        part = build_partition(4, 16, "alice")
        assert part.subset(0) == (-3, -1, 1, 3)

    def test_alice_8_sets(self):
        part = build_partition(8, 32, "alice")
        assert part.subset(1) == (-3, -1, 1, 3)
        assert part.subset(0) == (-7, -5, 5, 7)

    @pytest.mark.parametrize("M_A,M_B", GRID)
    def test_cardinalities(self, M_A, M_B):
        m_a = int(math.log2(M_A))
        alice = build_partition(M_A, M_B, "alice")
        bob = build_partition(M_A, M_B, "bob")
        for k in range(1, m_a - 1):
            assert len(alice.subset(k)) == 2 ** (k + 1)
        for k in range(1, m_a):
            assert len(bob.subset(k)) == 2 ** (k + 1)
        assert len(bob.subset(m_a)) == M_B - 2 * M_A
        assert sum(len(alice.subset(k)) for k in range(m_a + 1)) == M_A
        assert sum(len(bob.subset(k)) for k in range(m_a + 1)) == M_B

    @pytest.mark.parametrize("M_A,M_B", GRID)
    def test_level_below_guaranteed_entropy(self, M_A, M_B):
        for side in ("alice", "bob"):
            part = build_partition(M_A, M_B, side)
            for x in part.constellation.points:
                assert part.level_of(x) <= guaranteed_entropy_pam(x, side, M_A, M_B) + 1e-12


def _interval_levels(M_A, M_B, side):
    """Levels by the guaranteed-entropy interval loops, keyed by point (oracle)."""
    m_a = M_A.bit_length() - 1
    M = M_A if side == "alice" else M_B
    points = make_pam(M).points
    level = {}
    for k in range(1, m_a - 1 if side == "alice" else m_a):
        lo, hi = M - 1 - 2 ** (k + 2), M - 1 - 2 ** (k + 1)
        for x in points:
            if lo < abs(x) <= hi:
                level[x] = k
    if side == "bob":
        for x in points:
            if abs(x) <= M - 2 * M_A - 1:
                level[x] = m_a
    return tuple(level.get(x, 0) for x in points)


def _full_grid(M_A):
    """(M_B, side) for every M_B from 2*M_A to 4096 and both sides."""
    return [(1 << j, side) for j in range(M_A.bit_length(), 13) for side in ("alice", "bob")]


class TestRankRule:
    @pytest.mark.parametrize("M_A", [1 << i for i in range(1, 11)])
    def test_levels_equal_interval_oracle(self, M_A):
        for M_B, side in _full_grid(M_A):
            assert build_partition(M_A, M_B, side).levels == _interval_levels(
                M_A, M_B, side
            ), (M_A, M_B, side)

    @pytest.mark.parametrize("M_A", [1 << i for i in range(1, 11)])
    def test_dyadic_block_minimum_at_an_end_leaf(self, M_A):
        for M_B, side in _full_grid(M_A):
            levels = build_partition(M_A, M_B, side).levels
            size = len(levels)
            while size >= 1:
                for lo in range(0, len(levels), size):
                    block = levels[lo : lo + size]
                    assert min(block) == min(block[0], block[-1]), (M_A, M_B, side, lo, size)
                size //= 2

    @pytest.mark.parametrize("x", [0, 2, -16, 17, 1.5])
    def test_level_of_rejects_non_points(self, x):
        with pytest.raises(ValueError):
            build_partition(4, 16, "bob").level_of(x)


class TestTreeEncoder:
    def test_worked_example_4_16(self):
        part = build_partition(4, 16, "bob")
        q = BitQueues("00110110", "1001")
        assert encode_stream(q, part, count=3) == [-9, 1, 11]
        assert q.exhausted

    def test_example_1_first_symbol(self):
        part = build_partition(4, 16, "bob")
        q = BitQueues("001", "1")
        assert encode_stream(q, part, count=1) == [-9]

    def test_all_zero_queues(self):
        part = build_partition(4, 16, "bob")
        q = BitQueues("0000", "0000")
        assert encode_stream(q, part, count=1) == [-15]

    @pytest.mark.parametrize("cursor", ["public_cursor", "secret_cursor"])
    def test_cursors_cannot_be_set(self, cursor):
        with pytest.raises(TypeError):
            BitQueues("0", "1", **{cursor: 1})
        q = BitQueues("0", "1")
        assert (q.public_cursor, q.secret_cursor) == (0, 0)

    def test_underflow_reports_symbol_index(self):
        part = build_partition(4, 16, "bob")
        q = BitQueues("00110110", "1")
        with pytest.raises(QueueUnderflow) as exc:
            encode_stream(q, part, count=3)
        assert exc.value.symbol_index == 1

    @pytest.mark.parametrize("which", ["public", "secret"])
    def test_take_slices_and_underflow_names_the_queue(self, which):
        q = BitQueues("0110", "1001")
        take = getattr(q, f"take_{which}")
        assert take(3, 0) == getattr(q, f"{which}_bits")[:3]
        with pytest.raises(QueueUnderflow) as exc:
            take(2, 5)
        assert (exc.value.which, exc.value.symbol_index) == (which, 5)
        assert f"{which} bit queue exhausted while forming symbol 5" in str(exc.value)
        assert take(1, 6) == getattr(q, f"{which}_bits")[3]
        assert take(0, 7) == ""

    def test_decode_subtraction(self):
        part = build_partition(4, 16, "alice")
        public, _ = decode_stream([-8], [-9], part)
        assert make_pam(4).unlabel(public) == 1
        public, _ = decode_stream([-16], [-15], part)
        assert make_pam(4).unlabel(public) == -1

    def test_decode_float_sums(self):
        # -8.0 - (-9) = 1.0 is the 4-PAM point 1, so it decodes like the int sum
        part = build_partition(4, 16, "alice")
        assert decode_stream([-8.0], [-9], part) == decode_stream([-8], [-9], part)

    def test_example_1_round_trip(self):
        bob_part = build_partition(4, 16, "bob")
        q = BitQueues("00110110", "1001")
        symbols = encode_stream(q, bob_part, count=3)
        alice_symbols = [3, -1, 1]  # whatever Alice sent alongside
        sums = [xb + xa for xb, xa in zip(symbols, alice_symbols)]
        public, secret = decode_stream(sums, alice_symbols, bob_part)
        assert public == "00110110"
        assert secret == "1001"

    def test_decode_integrity_error(self):
        part = build_partition(4, 16, "bob")
        with pytest.raises(ValueError):
            decode_stream([100], [1], part)

    def test_decode_rejects_length_mismatch(self):
        part = build_partition(4, 16, "bob")
        with pytest.raises(ValueError):
            decode_stream([1, 3, 5], [0], part)

    @pytest.mark.parametrize("M_A,M_B", [(4, 16), (8, 32), (16, 64)])
    @pytest.mark.parametrize("side", ["alice", "bob"])
    def test_random_round_trips(self, M_A, M_B, side):
        rng = random.Random(0xC0DE + M_A + M_B + len(side))
        part = build_partition(M_A, M_B, side)
        n = 200
        m = part.constellation.bits_per_symbol
        q = BitQueues(
            "".join(rng.choice("01") for _ in range(n * m)),
            "".join(rng.choice("01") for _ in range(n * m)),
        )
        symbols = encode_stream(q, part, count=n)
        other = make_pam(M_B if side == "alice" else M_A)
        own = [rng.choice(other.points) for _ in range(n)]
        sums = [s + o for s, o in zip(symbols, own)]
        public, secret = decode_stream(sums, own, part)
        assert public == q.public_bits[: q.public_cursor]
        assert secret == q.secret_bits[: q.secret_cursor]


class TestCooperativeScheme:
    def test_coop_levels_8_32(self):
        assert all(coop_level(x, 8, 32) == 3 for x in (1, -1, 17, -17, 9))
        assert all(coop_level(x, 8, 32) == 2 for x in (19, -19, 21, 23, 25))
        assert all(coop_level(x, 8, 32) == 1 for x in (27, -27, 29, -29))
        assert all(coop_level(x, 8, 32) == 0 for x in (31, -31))

    def test_coop_level_4_16_edge(self):
        assert coop_level(15, 4, 16) == 0
        assert coop_level(-15, 4, 16) == 0

    @pytest.mark.parametrize("k", [52, 53, 60])
    def test_coop_level_is_exact_past_2_53(self, k):
        # Bob's point of rank 2^k - 2 keeps c = 2^k - 1 preimages, so its floor
        # log2 is k - 1; a float log2(2^k - 1) rounds up to k
        M_A, M_B = 1 << (k + 1), 1 << (k + 2)
        x_b = 2 * ((1 << k) - 2) - (M_B - 1)
        assert coop_level(x_b, M_A, M_B) == ((1 << k) - 1).bit_length() - 1 == k - 1
        assert coop_level(x_b + 2, M_A, M_B) == k  # the next point keeps 2^k

    def test_worked_example_8_32(self):
        q = BitQueues("01", "1111011")
        symbols = encode_coop(q, [3, 2, 2], make_pam(8))
        assert symbols == [7, -3, 7]
        assert q.exhausted

    def test_levels_all_zero(self):
        q = BitQueues("110100", "1111")
        assert encode_coop(q, [0, 0], make_pam(8)) == [5, 1]
        assert q.secret_cursor == 0

    def test_levels_all_max(self):
        q = BitQueues("", "101011")
        assert encode_coop(q, [3, 3], make_pam(8)) == [3, -1]
        assert q.public_cursor == 0

    def test_coop_round_trip(self):
        rng = random.Random(7)
        M_A, M_B = 8, 32
        n = 100
        own = [rng.choice(make_pam(M_B).points) for _ in range(n)]
        levels = [coop_level(x, M_A, M_B) for x in own]
        q = BitQueues(
            "".join(rng.choice("01") for _ in range(n * 3)),
            "".join(rng.choice("01") for _ in range(n * 3)),
        )
        symbols = encode_coop(q, levels, make_pam(M_A))
        sums = [s + o for s, o in zip(symbols, own)]
        public, secret = decode_coop(sums, own, M_A, M_B)
        assert public == q.public_bits[: q.public_cursor]
        assert secret == q.secret_bits[: q.secret_cursor]

    def test_decode_coop_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            decode_coop([1, 3, 5], [0], 4, 16)

    def test_decode_coop_checks_the_orders_once(self, monkeypatch):
        calls = []

        def counted(M_A, M_B):
            calls.append((M_A, M_B))
            return check(M_A, M_B)

        check = pnc.constellation._validate_orders
        for module in (pnc.constellation, pnc.bounds, pnc.encoders):
            monkeypatch.setattr(module, "_validate_orders", counted)
        rng = random.Random(7)
        own = [rng.choice(make_pam(16).points) for _ in range(1000)]
        sums = [rng.choice(make_pam(4).points) + x for x in own]
        decode_coop(sums, own, 4, 16)
        assert calls == [(4, 16)]

    def test_decode_coop_names_a_foreign_own_symbol(self):
        # 3 - 2 = 1 is an Alice point, but Bob's 2 is no 16-PAM point
        with pytest.raises(ValueError) as excinfo:
            decode_coop([3], [2], 4, 16)
        assert str(excinfo.value) == "2 is not in the 16-PAM constellation"


DECODER_ORDERS = [(ma, k * ma) for ma in (2, 4, 8, 16, 32, 64) for k in (2, 4, 8)]


def queues_and_peers(data, n, m, peer_pam):
    """Queues of n*m random public and n*m random secret bits, and n random peer symbols."""
    bits = st.text("01", min_size=n * m, max_size=n * m)
    queues = BitQueues(data.draw(bits), data.draw(bits))
    peers = data.draw(st.lists(st.sampled_from(peer_pam.points), min_size=n, max_size=n))
    return queues, peers


class TestDecoderProperties:
    """Both decoders return exactly the bit prefixes their encoder consumed."""

    @settings(max_examples=80, deadline=None)
    @given(
        orders=st.sampled_from(DECODER_ORDERS),
        side=st.sampled_from(["alice", "bob"]),
        n=st.integers(0, 16),
        data=st.data(),
    )
    def test_stream_round_trip(self, orders, side, n, data):
        M_A, M_B = orders
        part = build_partition(M_A, M_B, side)
        peer = make_pam(M_B if side == "alice" else M_A)
        q, peers = queues_and_peers(data, n, part.constellation.bits_per_symbol, peer)
        symbols = encode_stream(q, part, count=n)
        sums = [x + p for x, p in zip(symbols, peers)]
        assert decode_stream(sums, peers, part) == (
            q.public_bits[: q.public_cursor],
            q.secret_bits[: q.secret_cursor],
        )

    @settings(max_examples=80, deadline=None)
    @given(orders=st.sampled_from(DECODER_ORDERS), n=st.integers(0, 16), data=st.data())
    def test_coop_round_trip(self, orders, n, data):
        M_A, M_B = orders
        pam = make_pam(M_A)
        q, bob = queues_and_peers(data, n, pam.bits_per_symbol, make_pam(M_B))
        symbols = encode_coop(q, [coop_level(x, M_A, M_B) for x in bob], pam)
        sums = [x + b for x, b in zip(symbols, bob)]
        assert decode_coop(sums, bob, M_A, M_B) == (
            q.public_bits[: q.public_cursor],
            q.secret_bits[: q.secret_cursor],
        )


class TestRates:
    def test_alice_nocoop_m8(self):
        assert rate_nocoop(8, 16)[0] == pytest.approx(0.5, abs=1e-15)

    def test_bob_nocoop_4_16(self):
        assert rate_nocoop(4, 16)[1] == pytest.approx(1.25, abs=1e-15)

    def test_bob_nocoop_8_32(self):
        assert rate_nocoop(8, 32)[1] == pytest.approx(2.125, abs=1e-15)

    def test_coop_values(self):
        assert rate_coop(8, 32) == pytest.approx(2.3125, abs=1e-15)
        assert rate_coop(4, 16) == pytest.approx(1.5, abs=1e-15)

    def test_coop_limit(self):
        assert rate_coop(4, 1 << 16) == pytest.approx(2.0, abs=1e-3)

    @pytest.mark.parametrize("M_A,M_B", GRID)
    def test_rates_match_counting_oracle(self, M_A, M_B):
        m_a = int(math.log2(M_A))
        r_a, r_b = rate_nocoop(M_A, M_B)
        alice = build_partition(M_A, M_B, "alice")
        bob = build_partition(M_A, M_B, "bob")
        assert r_a == pytest.approx(alice.rate(), abs=1e-12)
        assert r_b == pytest.approx(bob.rate(), abs=1e-12)
        # coop: class sizes of floor(guaranteed entropy) over Bob's points
        classes = {}
        for x in make_pam(M_B).points:
            k = coop_level(x, M_A, M_B)
            classes[k] = classes.get(k, 0) + 1
        oracle = sum(k * c for k, c in classes.items()) / M_B
        assert rate_coop(M_A, M_B) == pytest.approx(oracle, abs=1e-12)
        for k in range(m_a):
            assert classes.get(k, 0) == 2 ** (k + 1)
        assert classes.get(m_a, 0) == M_B - 2 * M_A + 2

    def test_empirical_stream_rate(self):
        rng = random.Random(2024)
        M_A, M_B = 4, 16
        part = build_partition(M_A, M_B, "bob")
        n = 100_000
        q = BitQueues(
            "".join(rng.choice("01") for _ in range(n * 4)),
            "".join(rng.choice("01") for _ in range(n * 4)),
        )
        encode_stream(q, part, count=n)
        empirical = q.secret_cursor / n
        assert abs(empirical - rate_nocoop(M_A, M_B)[1]) < 0.01 * rate_nocoop(M_A, M_B)[1]

    def test_symbol_uniformity(self):
        rng = random.Random(99)
        M_A, M_B = 4, 16
        part = build_partition(M_A, M_B, "bob")
        n = 100_000
        q = BitQueues(
            "".join(rng.choice("01") for _ in range(n * 4)),
            "".join(rng.choice("01") for _ in range(n * 4)),
        )
        symbols = encode_stream(q, part, count=n)
        counts = {x: 0 for x in part.constellation.points}
        for s in symbols:
            counts[s] += 1
        expected = n / M_B
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 60  # df = 15, far beyond any plausible quantile


class TestGaps:
    @pytest.mark.parametrize("M_A,M_B", GRID)
    def test_thresholds(self, M_A, M_B):
        bounds = compute_bounds(M_A, M_B)
        d_a, d_b, d_a_coop = gaps(bounds, *rate_nocoop(M_A, M_B), rate_coop(M_A, M_B))
        assert d_a < 0.7
        assert d_b < 0.7
        if M_B >= 4 * M_A:
            assert d_b < 0.35
        if M_B == 4 * M_A:
            assert d_a_coop < 0.9
        if M_B == 8 * M_A:
            assert d_a_coop < 0.5

    def test_definition(self):
        ub_a, ub_b = ub_nocoop(4, 16)
        r_a, r_b = rate_nocoop(4, 16)
        d_a, d_b, d_a_coop = gaps(compute_bounds(4, 16), r_a, r_b, rate_coop(4, 16))
        assert d_a == abs(ub_a - r_a)
        assert d_b == abs(ub_b - r_b)
        assert d_a_coop == abs(ub_pam(4, 16) - rate_coop(4, 16))
