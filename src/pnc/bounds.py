"""Upper bounds on the achievable per-symbol perfect-secrecy rates.

Three families of bounds for the noiseless two-user relay channel:

* the shared bound driven by the relay's equivocation, in generic
  (sum-profile) form and in closed form for PAM inputs;
* guaranteed entropy of a single symbol (the equivocation it enjoys
  against the worst-case choice of the other user's symbol), again both
  brute-force and closed-form;
* the per-user no-cooperation bounds obtained by averaging guaranteed
  entropy over each constellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .constellation import SumProfile, _step, _step_at, _validate_orders, make_pam

__all__ = [
    "Side",
    "SecrecyBounds",
    "ub_generic",
    "ub_pam",
    "guaranteed_entropy",
    "guaranteed_entropy_pam",
    "ub_nocoop",
    "compute_bounds",
]

Side = Literal["alice", "bob"]


def _side_orders(side: Side, M_A: int, M_B: int) -> tuple[int, int]:
    """(own order, other user's order) for `side`; any other side raises."""
    if side == "alice":
        return M_A, M_B
    if side == "bob":
        return M_B, M_A
    raise ValueError(f"side must be 'alice' or 'bob', got {side!r}")


@dataclass(frozen=True)
class SecrecyBounds:
    """All perfect-secrecy rate upper bounds for one (M_A, M_B) pair."""

    ub_shared: float
    ub_alice_nocoop: float
    ub_bob_nocoop: float


def ub_generic(profile: SumProfile) -> float:
    """Shared secrecy-rate upper bound from a sum profile of uniform inputs.

    Equals sum_y log2(count(y)) * count(y) / total, the expected
    equivocation at the relay in bits per symbol.
    """
    return sum(
        math.log2(c) * c / profile.total for c in profile.entries.values() if c > 1
    )


def ub_pam(M_A: int, M_B: int) -> float:
    """Closed-form shared upper bound for M_A-PAM + M_B-PAM, M_B >= 2*M_A."""
    _validate_orders(M_A, M_B)
    m_a = M_A.bit_length() - 1
    flat = m_a * (M_B - M_A + 1) / M_B
    edges = sum(math.log2(a) * 2 * a for a in range(2, M_A)) / (M_A * M_B)
    return flat + edges


def guaranteed_entropy(x: int, side: Side, profile: SumProfile) -> float:
    """min over the other user's symbols of log2(preimage count of the sum).

    Brute-force evaluation; `profile` must come from :func:`pam_sum_profile`,
    whose recorded orders rebuild the two constellations.
    """
    if profile.orders is None:
        raise ValueError("profile must carry PAM orders")
    own, other = (make_pam(M) for M in _side_orders(side, *profile.orders))
    if x not in own:
        raise ValueError(f"{x} is not in the {own.order}-PAM constellation")
    return min(math.log2(profile.count(x + xo)) for xo in other.points)


def guaranteed_entropy_pam(x: int, side: Side, M_A: int, M_B: int) -> float:
    """Closed-form guaranteed entropy for PAM constellations.

    One staircase for both sides: log2(min(d + 1, M_A)), where x is a point
    of its side's M-PAM alphabet (M = M_A for Alice, M_B for Bob) and
    d = (M - 1 - |x|) / 2 is its distance in steps from the nearer rim.
    """
    _validate_orders(M_A, M_B)
    M, _ = _side_orders(side, M_A, M_B)
    return math.log2(_step_at(x, M, M_A))


def ub_nocoop(M_A: int, M_B: int) -> tuple[float, float]:
    """No-cooperation upper bounds: guaranteed entropy averaged per user.

    Each user's log2 staircase is summed over its points in rank order.
    """
    _validate_orders(M_A, M_B)
    r_a, r_b = (sum(math.log2(_step(r, M, M_A)) for r in range(M)) / M for M in (M_A, M_B))
    return r_a, r_b


def compute_bounds(M_A: int, M_B: int) -> SecrecyBounds:
    """All three bounds for one pair of PAM orders."""
    r_a, r_b = ub_nocoop(M_A, M_B)
    return SecrecyBounds(ub_shared=ub_pam(M_A, M_B), ub_alice_nocoop=r_a, ub_bob_nocoop=r_b)
