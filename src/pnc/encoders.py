"""Secret-bit encoders, decoders, rate formulas, and an exact secrecy auditor.

Two schemes are implemented on top of the rank bit labeling of
:mod:`pnc.constellation`:

* a non-cooperative scheme where each user independently declares the
  trailing k label bits of a constellation point secret, with k determined
  by which guaranteed-entropy subset the point falls in; and
* a cooperative scheme where the small-constellation user learns
  floor(guaranteed entropy of the peer's next symbol) ahead of time and
  keys the number of secret trailing bits off that.

The auditor counts ranks per secret-bit level on the rank interval behind
each relay observation and reports exact mutual informations; the joint
count and posterior tables behind them are built only when read.  It
reports measured values; in particular the variable-length semantic
metric I(Y; (K, S)) is not assumed to be zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bounds import SecrecyBounds, Side, _guaranteed_count, _side_orders
from .constellation import PamConstellation, _step_at, _validate_orders, make_pam
from .info import _balanced_mi_bits

__all__ = [
    "SecrecyPartition",
    "BitQueues",
    "QueueUnderflow",
    "LeakageReport",
    "build_partition",
    "encode_stream",
    "decode_stream",
    "decode_coop",
    "rate_nocoop",
    "coop_level",
    "encode_coop",
    "rate_coop",
    "gaps",
    "audit_leakage",
]


class QueueUnderflow(RuntimeError):
    """A bit queue ran dry; carries the index of the symbol being formed."""

    def __init__(self, which: str, symbol_index: int):
        super().__init__(f"{which} bit queue exhausted while forming symbol {symbol_index}")
        self.which = which
        self.symbol_index = symbol_index


@dataclass
class BitQueues:
    """Ordered public and secret bit sequences with consumption cursors."""

    public_bits: str
    secret_bits: str
    public_cursor: int = field(init=False, default=0)
    secret_cursor: int = field(init=False, default=0)

    def __post_init__(self):
        for name, bits in (("public", self.public_bits), ("secret", self.secret_bits)):
            if bits.strip("01"):
                raise ValueError(f"{name} bits must be a 0/1 string")

    def take_public(self, n: int, symbol_index: int) -> str:
        bits = self.public_bits[self.public_cursor : self.public_cursor + n]
        if len(bits) < n:
            raise QueueUnderflow("public", symbol_index)
        self.public_cursor += n
        return bits

    def take_secret(self, n: int, symbol_index: int) -> str:
        bits = self.secret_bits[self.secret_cursor : self.secret_cursor + n]
        if len(bits) < n:
            raise QueueUnderflow("secret", symbol_index)
        self.secret_cursor += n
        return bits

    @property
    def exhausted(self) -> bool:
        return self.public_cursor >= len(self.public_bits) and self.secret_cursor >= len(
            self.secret_bits
        )


@dataclass(frozen=True)
class SecrecyPartition:
    """Per-symbol secret-bit level for one user's constellation.

    levels[r] = k means the trailing k bits of the label of the point of
    rank r are secret.
    """

    constellation: PamConstellation
    levels: tuple[int, ...]

    def level_of(self, x: int) -> int:
        """Level of point x; raises ValueError if x is not a point."""
        return self.levels[self.constellation.rank(x)]

    def subset(self, k: int) -> tuple[int, ...]:
        """The points carrying exactly k secret bits, in increasing order."""
        return tuple(x for x, lv in zip(self.constellation.points, self.levels) if lv == k)

    def rate(self) -> float:
        """Average secret bits per symbol under a uniform symbol draw."""
        return sum(self.levels) / self.constellation.order


def build_partition(M_A: int, M_B: int, side: Side) -> SecrecyPartition:
    """Assign secrecy levels by the guaranteed-entropy interval structure.

    The point of rank r, d = min(r, M-1-r) steps from the nearer rim, gets
    level min(max(d.bit_length() - 1, 0), m_A): a level-0 rim, level k for
    2^k <= d < 2^(k+1), and Bob's inner plateau (d >= M_A) at level m_A.
    Levels therefore rise from each rim toward the middle and never dip.
    """
    _validate_orders(M_A, M_B)
    m_a = M_A.bit_length() - 1
    M, _ = _side_orders(side, M_A, M_B)
    levels = tuple(min(max(min(r, M - 1 - r).bit_length() - 1, 0), m_a) for r in range(M))
    return SecrecyPartition(constellation=make_pam(M), levels=levels)


def encode_stream(
    queues: BitQueues,
    partition: SecrecyPartition,
    count: int = 1,
) -> list[int]:
    """Emit `count` symbols by walking the label tree root to leaf.

    At each depth a public bit is consumed unless every leaf of the current
    subtree marks that depth secret (depth d, counted from 0, is secret for
    a leaf of level k iff k >= m - d).  Then every deeper depth is secret
    too, and the rest of the label is taken from the secret queue at once.
    """
    pam, levels = partition.constellation, partition.levels
    m = pam.bits_per_symbol
    symbols = []
    for i in range(count):
        lo, hi = 0, pam.order
        for depth in range(m):
            # levels never dip between the rims: a subtree's lowest sits at an end leaf
            if min(levels[lo], levels[hi - 1]) >= m - depth:
                lo += int(queues.take_secret(m - depth, i), 2)
                break
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if queues.take_public(1, i) == "0" else (mid, hi)
        symbols.append(pam.points[lo])
    return symbols


def decode_stream(
    sums: list,
    own_symbols: list,
    peer_partition: SecrecyPartition,
) -> tuple[str, str]:
    """Recover the peer's public and secret bit streams from noiseless sums.

    The peer's symbol is y - own; its label splits into a public prefix and
    a secret suffix whose length is the peer partition's level at that
    point.
    """
    return _split_labels(
        sums, own_symbols, peer_partition.constellation, lambda x, own: peer_partition.level_of(x)
    )


def _split_labels(sums: list, own_symbols: list, pam: PamConstellation, level) -> tuple[str, str]:
    """Public and secret bits of each peer symbol x = y - own of `pam`.

    The trailing level(x, own) label bits of x are secret, the rest public.
    """
    m = pam.bits_per_symbol
    public, secret = [], []
    for y, own in zip(sums, own_symbols, strict=True):
        x = y - own
        if x not in pam:
            raise ValueError(f"recovered value {x} is not a {pam.order}-PAM point")
        k = level(x, own)
        bits = pam.label(x)
        public.append(bits[: m - k])
        secret.append(bits[m - k :])
    return "".join(public), "".join(secret)


def rate_nocoop(M_A: int, M_B: int) -> tuple[float, float]:
    """Closed-form secret-bit rates of the non-cooperative scheme."""
    _validate_orders(M_A, M_B)
    m_a = M_A.bit_length() - 1
    return m_a - 3 + 4 / M_A, m_a - 4 * (M_A - 1) / M_B


def coop_level(x_B: int, M_A: int, M_B: int) -> int:
    """Secret-bit budget Alice gets from advance knowledge of Bob's symbol.

    The floor of Bob's guaranteed entropy at x_B, in integer arithmetic.
    """
    return _guaranteed_count(x_B, "bob", M_A, M_B).bit_length() - 1


def encode_coop(
    queues: BitQueues,
    levels: list[int],
    labeling: PamConstellation,
) -> list[int]:
    """Cooperative encoding: symbol i carries levels[i] trailing secret bits."""
    m = labeling.bits_per_symbol
    symbols = []
    for i, k in enumerate(levels):
        if not 0 <= k <= m:
            raise ValueError(f"level {k} out of range 0..{m}")
        symbols.append(labeling.unlabel(queues.take_public(m - k, i) + queues.take_secret(k, i)))
    return symbols


def decode_coop(
    sums: list,
    own_symbols: list,
    M_A: int,
    M_B: int,
) -> tuple[str, str]:
    """Bob-side decoder for the cooperative scheme.

    Bob recovers Alice's symbol as y - x_B and recomputes the secret-bit
    count from his own symbol, since that is what Alice keyed it off: the
    :func:`coop_level` of each symbol, with the orders checked once.
    """
    _validate_orders(M_A, M_B)
    return _split_labels(
        sums, own_symbols, make_pam(M_A), lambda x, own: _step_at(own, M_B, M_A).bit_length() - 1
    )


def rate_coop(M_A: int, M_B: int) -> float:
    """Closed-form secrecy rate of the cooperative scheme at Alice."""
    _validate_orders(M_A, M_B)
    m_a = M_A.bit_length() - 1
    return m_a - 4 * (M_A - 1) / M_B + 2 * m_a / M_B


def gaps(b: SecrecyBounds, r_a: float, r_b: float, r_coop: float) -> tuple[float, float, float]:
    """(gap_alice, gap_bob, gap_alice_coop): each rate's distance to its bound in `b`.

    r_a, r_b and r_coop are :func:`rate_nocoop` and :func:`rate_coop` at b's orders.
    """
    return (
        abs(b.ub_alice_nocoop - r_a),
        abs(b.ub_bob_nocoop - r_b),
        abs(b.ub_shared - r_coop),
    )


# ---------------------------------------------------------------------------
# Exact leakage auditing
# ---------------------------------------------------------------------------

SCHEMES = ("nocoop_alice", "nocoop_bob", "coop")


@dataclass(frozen=True)
class LeakageReport:
    """Exact mutual-information figures for a scheme, with its count tables.

    suffix_mi[j-1] is I(Y; suffix_j(X)) over the relay's full observation;
    semantic_mi is I(Y; (K, S)) with K the per-symbol secret-bit count and
    S the secret string.  The flat_* fields restrict to flat-region
    observations |y| <= M_B - M_A.  suffix_counts[j-1] and semantic_counts
    are the (table, y values, secret keys) triples behind those figures, one
    row per reachable y and one column per occurring key, both ascending;
    they and the posterior tables, keyed by observation, are built on each
    read, from the scheme and the orders.
    """

    scheme: str
    suffix_mi: tuple[float, ...]
    semantic_mi: float
    flat_suffix_mi: tuple[float, ...]
    flat_semantic_mi: float
    _orders: tuple[int, int] = field(repr=False, compare=False)

    @property
    def suffix_counts(self) -> tuple:
        """((table, ys, keys) for j = 1..m_A): residues mod 2^j of the carrier's ranks per y."""
        M_A, M_B = self._orders
        ys, lo, hi = _rank_rows(self.scheme, M_A, M_B)
        return tuple(
            (_residues(lo, hi, j), ys, np.arange(1 << j)) for j in range(1, M_A.bit_length())
        )

    @property
    def semantic_counts(self) -> tuple:
        """(table, ys, keys): counts of (K, S) per y, keyed by the integer (1 << K) | S."""
        M_A, M_B = self._orders
        ys, lo, hi = _rank_rows(self.scheme, M_A, M_B)
        M, edges = _level_edges(self.scheme, M_A, M_B)
        s = np.arange(ys.size)
        # the levels run from 0 up with no gap, so every key below 2 << max(K) occurs
        table = np.zeros((ys.size, (2 << (edges.size - 2)) - 1), dtype=np.int64)
        for k, (near, far) in enumerate(zip(edges[:-1], edges[1:])):
            for a, b in ((near, far - 1), (M - far, M - 1 - near)):  # a run at each rim
                first, last = (s - b, s - a) if self.scheme == "coop" else (a, b)
                table[:, (1 << k) - 1 : (2 << k) - 1] += _residues(
                    np.maximum(lo, first), np.minimum(hi, last), k
                )
        return table, ys, np.arange(1, 2 << (edges.size - 2))

    @property
    def suffix_posteriors(self) -> dict:
        """{j: {y: {last j label bits: P(suffix | y)}}} as exact Fractions."""
        return {
            j: _posterior(counts, lambda v, j=j: format(v, f"0{j}b"))
            for j, counts in enumerate(self.suffix_counts, start=1)
        }

    @property
    def semantic_posteriors(self) -> dict:
        """{y: {(K, S): P(K, S | y)}} as exact Fractions."""
        return _posterior(self.semantic_counts, _semantic_content)


def _semantic_content(key: int) -> tuple[int, str]:
    """(K, S) from its key (1 << K) | S, where S holds the trailing K label bits."""
    return key.bit_length() - 1, format(key, "b")[1:]


def _posterior(counts: tuple, decode) -> dict:
    table, ys, keys = counts
    values = [decode(v) for v in keys.tolist()]
    return {
        y: {v: Fraction(c, sum(row)) for v, c in zip(values, row) if c}
        for y, row in zip(ys.tolist(), table.tolist())
    }


def _rank_rows(scheme: str, M_A: int, M_B: int) -> tuple:
    """(ys, lo, hi): each reachable y and the carrier ranks [lo, hi] behind it.

    y = x_A + x_B fixes the rank sum s = i + j, row s of the M_A + M_B - 1.
    """
    own, other = (M_B, M_A) if scheme == "nocoop_bob" else (M_A, M_B)
    s = np.arange(M_A + M_B - 1)
    return 2 * s - (M_A + M_B - 2), np.maximum(s - other + 1, 0), np.minimum(s, own - 1)


def _level_edges(scheme: str, M_A: int, M_B: int) -> tuple:
    """(M, edges) for the M-point alphabet whose rank sets the secret-bit level.

    Level k holds its ranks t whose rim distance d = min(t, M - 1 - t) lies
    in [edges[k], edges[k + 1]).  The non-cooperative level of :func:`build_partition` is k for
    2^k <= d < 2^(k+1), 0 for d < 2 and m_A for d >= M_A; the `coop` level
    is Bob's, log2 of the staircase min(d + 1, M_A), so the edges sit one
    lower.  The last edge is M/2, past every d.
    """
    M = M_B if scheme != "nocoop_alice" else M_A
    m_a = M_A.bit_length() - 1
    edges = [(2 << k) - (scheme == "coop") for k in range(m_a)]
    edges = [0, *(e for e in edges if e < M // 2), M // 2]
    return M, np.array(edges)


def _residues(lo, hi, k: int) -> np.ndarray:
    """Per row, how many ranks in [lo, hi] are c mod 2^k, for each c; 0 if empty."""
    c = np.arange(1 << k)
    return np.maximum(((hi[:, None] - c) >> k) - ((lo[:, None] - 1 - c) >> k), 0)


def audit_leakage(scheme: str, M_A: int, M_B: int) -> LeakageReport:
    """Exact mutual informations of what the relay's observation reveals.

    An observation y = x_A + x_B fixes the rank sum s = i + j, and the ranks
    of the secret-carrying symbol behind it form one interval [lo, hi].  A
    j-bit label suffix is the rank mod 2^j, and the secret content (K, S) is
    a level K and the rank mod 2^K.  Within one level a row's counts are at
    most one apart (see :func:`pnc.info._balanced_mi_bits`), so every figure
    needs only the interval's length and its count of ranks per level: a
    difference of per-level prefix counts over the ranks of the alphabet
    that keys the level (Bob's ranks s - r in `coop`).  Mutual informations
    are reported both unconditionally and restricted to the flat region.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}")
    _validate_orders(M_A, M_B)
    ys, lo, hi = _rank_rows(scheme, M_A, M_B)
    M, edges = _level_edges(scheme, M_A, M_B)
    # the ranks [t_lo, t_hi] that set the level behind each y: Bob's s - r in coop
    s = np.arange(ys.size)
    t_lo, t_hi = (s - hi, s - lo) if scheme == "coop" else (lo, hi)

    def below(i):  # per level edge, how many ranks t < i have d < edge
        i = i[:, None]
        return np.minimum(i, edges) + np.maximum(i - (M - edges), 0)

    per_level = np.diff(below(t_hi + 1) - below(t_lo), axis=1)
    lengths = (hi - lo + 1)[:, None]
    suffix_widths = (2 << np.arange(M_A.bit_length() - 1))[:, None]
    level_widths = 1 << np.arange(edges.size - 1)
    flat = np.abs(ys) <= M_B - M_A
    return LeakageReport(
        scheme=scheme,
        suffix_mi=tuple(_balanced_mi_bits(lengths, suffix_widths).tolist()),
        semantic_mi=float(_balanced_mi_bits(per_level, level_widths)),
        flat_suffix_mi=tuple(_balanced_mi_bits(lengths[flat], suffix_widths).tolist()),
        flat_semantic_mi=float(_balanced_mi_bits(per_level[flat], level_widths)),
        _orders=(M_A, M_B),
    )
