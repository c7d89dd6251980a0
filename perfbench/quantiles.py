"""Percentiles and the tail-percentile reporting rule used by the benchmark."""

from __future__ import annotations

import math
from typing import Sequence

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation between order statistics.

    Matches ``numpy.percentile``'s default method; ``q`` is in ``[0, 100]``.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must lie in [0, 100], got {q}")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int, min_beyond: int = 10) -> float | None:
    """The highest ladder percentile with at least ``min_beyond`` of ``n`` samples above it.

    A percentile ``q`` leaves ``n * (1 - q/100)`` samples beyond it; below
    100 samples not even p90 qualifies, and the result is None.
    """
    for q in TAIL_LADDER:
        # round() keeps 1000 samples at p99 from reading as 9.999... beyond
        if round(n * (100.0 - q) / 100.0, 9) >= min_beyond:
            return q
    return None


def percentile_name(q: float) -> str:
    """``90.0`` -> ``"p90"``, ``99.9`` -> ``"p99.9"``."""
    return f"p{q:g}"
