"""PAM constellations, bit labelings, and exact sum-profile enumeration.

The relay in a two-user network-coded link observes real sums y = x_A + x_B
of the two users' amplitudes.  Everything downstream (rate bounds, secrecy
audits) is driven by the preimage counts |{(x_A, x_B) : x_A + x_B = y}|,
so those counts are computed in exact integer arithmetic whenever the
inputs are integer-valued PAM alphabets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

__all__ = [
    "PamConstellation",
    "FiniteAlphabet",
    "SumProfile",
    "make_pam",
    "sum_profile",
    "pam_sum_profile",
    "preimage_count_pam",
]


@dataclass(frozen=True)
class PamConstellation:
    """An M-point PAM alphabet {-(M-1), -(M-3), ..., M-1} with rank labels.

    Point i (in increasing order) carries the big-endian binary expansion
    of i as its bit label, i.e. the label read root-to-leaf off a perfect
    binary tree whose leaves are the points in increasing order.  The
    order, a power of two >= 2, fixes the points and the bits per symbol.
    """

    order: int
    points: tuple[int, ...] = field(init=False)
    bits_per_symbol: int = field(init=False)

    def __post_init__(self):
        M = self.order
        _validate_order(M)
        object.__setattr__(self, "points", tuple(range(-(M - 1), M, 2)))
        object.__setattr__(self, "bits_per_symbol", M.bit_length() - 1)

    def rank(self, x: int) -> int:
        """Index of point x in increasing order; raises if x is not a point."""
        if not _is_pam_point(x, self.order):
            raise ValueError(f"{x} is not a point of the {self.order}-PAM alphabet")
        return int((x + self.order - 1) // 2)

    def label(self, x: int) -> str:
        """Bit label of point x as a string of length bits_per_symbol."""
        return format(self.rank(x), f"0{self.bits_per_symbol}b")

    def unlabel(self, bits: str) -> int:
        """Inverse of :meth:`label`."""
        if len(bits) != self.bits_per_symbol or any(b not in "01" for b in bits):
            raise ValueError(f"expected {self.bits_per_symbol} bits, got {bits!r}")
        return 2 * int(bits, 2) - (self.order - 1)

    def __contains__(self, x) -> bool:
        return _is_pam_point(x, self.order)


@dataclass(frozen=True)
class FiniteAlphabet:
    """A finite real alphabet whose points are used with equal probability."""

    points: tuple[float, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.points)) != len(self.points):
            raise ValueError("alphabet points must be distinct")

    @classmethod
    def from_pam(cls, pam: PamConstellation) -> "FiniteAlphabet":
        return cls(points=tuple(pam.points))


@dataclass(frozen=True)
class SumProfile:
    """Map from each achievable sum y to its preimage count |psi^-1(y)|.

    `orders` is (M_A, M_B) for a profile built by :func:`pam_sum_profile`,
    else None; `total` is the sum of the counts.
    """

    entries: dict
    orders: tuple[int, int] | None = None
    total: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", sum(self.entries.values()))

    def count(self, y) -> int:
        """Preimage count of y; a non-integer profile is keyed by Fraction.

        Query such a profile with Fraction keys, e.g. Fraction(str(0.3)):
        Fraction(3, 10) != 0.3, so a float finds no entry and counts 0.
        """
        return self.entries.get(y, 0)

    def pmf(self, y) -> float:
        return self.count(y) / self.total

    def support(self) -> list:
        return sorted(self.entries)


def _is_pam_point(x, M: int) -> bool:
    """Whether x is a point of the M-PAM alphabet {-(M-1), -(M-3), ..., M-1}."""
    return abs(x) < M and (x + M - 1) % 2 == 0


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _require_int(*orders) -> None:
    """Refuse any order that is not an int, such as a numpy integer or a float."""
    for M in orders:
        if not isinstance(M, int):
            raise ValueError(f"PAM order must be an int, got {type(M).__name__} {M!r}")


def _validate_order(M: int) -> None:
    _require_int(M)
    if not _is_power_of_two(M) or M < 2:
        raise ValueError(f"PAM order must be a power of two >= 2, got {M}")


def make_pam(M: int) -> PamConstellation:
    """Canonical M-PAM alphabet with rank bit labels; M a power of two >= 2."""
    return PamConstellation(M)


def sum_profile(a: FiniteAlphabet, b: FiniteAlphabet) -> SumProfile:
    """Exhaustive enumeration of all |a|*|b| pairwise sums.

    Integer-valued alphabets are summed as ints.  Otherwise each point x is
    read as the rational Fraction(str(x)), a float standing for its shortest
    decimal, and the sums are kept exact, keyed by Fraction (see
    SumProfile.count).
    """
    exact = all(float(p).is_integer() for p in (*a.points, *b.points))
    read = int if exact else lambda x: Fraction(str(x))
    entries: dict = {}
    for xa, xb in itertools.product(a.points, b.points):
        y = read(xa) + read(xb)
        entries[y] = entries.get(y, 0) + 1
    return SumProfile(entries=entries)


def pam_sum_profile(M_A: int, M_B: int) -> SumProfile:
    """Sum profile of an M_A-PAM and an M_B-PAM alphabet, recording the orders."""
    a, b = (FiniteAlphabet.from_pam(make_pam(M)) for M in (M_A, M_B))
    return SumProfile(entries=sum_profile(a, b).entries, orders=(M_A, M_B))


def _validate_orders(M_A: int, M_B: int) -> None:
    _require_int(M_A, M_B)
    if M_B < 2 * M_A:
        raise ValueError(f"require M_B >= 2*M_A, got M_A={M_A}, M_B={M_B}")
    if not _is_power_of_two(M_A) or not _is_power_of_two(M_B):
        raise ValueError("constellation orders must be powers of two")
    _validate_order(M_A)  # the one order left to refuse is M_A = 1


def _step(r: int, M: int, M_A: int) -> int:
    """The staircase min(r + 1, M - r, M_A) at rank r of an M-point alphabet.

    It rises by one per step in from either rim, d = min(r, M - 1 - r) steps,
    up to the plateau M_A.  Every PAM closed form reads it: the preimage count
    of a relay sum (rank r of the M_A + M_B - 1 sums) and the count a user's
    point keeps against every point of the other user (rank r of its own
    alphabet), whose log2 is its guaranteed entropy.
    """
    return min(r + 1, M - r, M_A)


def _step_at(x: int, M: int, M_A: int) -> int:
    """:func:`_step` at the rank of point x of the M-PAM alphabet; raises if x is no point."""
    if not _is_pam_point(x, M):
        raise ValueError(f"{x} is not in the {M}-PAM constellation")
    return _step(int((x + M - 1) // 2), M, M_A)


def preimage_count_pam(y, M_A: int, M_B: int) -> int:
    """Closed-form preimage count of y for M_A-PAM + M_B-PAM, M_B >= 2*M_A.

    The reachable sums y = x_A + x_B form the M-point grid {-(M-1), ..., M-1}
    with M = M_A + M_B - 1, and the sum of rank r has ``_step(r, M, M_A)``
    preimages.  Any other y has none.
    """
    _validate_orders(M_A, M_B)
    if float(y) != int(y):
        return 0
    M = M_A + M_B - 1
    y = int(y)
    return _step((y + M - 1) // 2, M, M_A) if _is_pam_point(y, M) else 0
