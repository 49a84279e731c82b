"""Percentiles with their sample counts, and run-to-run spread.

Every timing the benchmark prints is a median and a p95 computed here,
so both carry the number of samples behind them; a p95 resting on
fewer than :data:`MIN_BEYOND` samples beyond it is flagged as thin.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A tail percentile is trustworthy once this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation.

    Matches ``numpy.percentile``'s default method, so a reader can
    check a printed value against the raw samples with any tool.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    weight = position - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def summarize(values: Sequence[float]) -> dict:
    """Median and p95 of ``values`` with the counts behind them.

    ``beyond_p95`` is how many samples are strictly above the p95;
    ``thin`` says the tail rests on fewer than :data:`MIN_BEYOND`.
    """
    p95 = percentile(values, 95.0)
    beyond = sum(1 for value in values if value > p95)
    return {"p50": percentile(values, 50.0), "p95": p95,
            "n": len(values), "beyond_p95": beyond,
            "thin": beyond < MIN_BEYOND}


def quartiles(values: Sequence[float]) -> dict:
    """Median, quartiles and the quartile spread as a share of the median.

    The quartiles are ``statistics.quantiles(values, n=4)`` — the same
    definition used to judge whether two sets of runs agree.
    """
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else math.inf
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values)}
