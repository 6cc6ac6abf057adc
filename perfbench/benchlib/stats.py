"""Order statistics used by the benchmark report."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, n) at the highest percentile with TAIL_BEYOND samples above it.

    The value is the (TAIL_BEYOND + 1)-th largest sample; exactly
    TAIL_BEYOND samples rank above it, so it sits at percentile
    100 * (n - TAIL_BEYOND) / n.  None when there are too few samples.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n
