"""Order statistics shared by the worker and the report."""

from __future__ import annotations

import statistics
from typing import Sequence

__all__ = ["nearest_rank", "tail", "summarize"]


def nearest_rank(values: Sequence[float], percent: int) -> float:
    """Nearest-rank percentile: the ``ceil(percent * n / 100)``-th smallest.

    For 360 ticks, p97 is rank 350: the 11th largest, so ten ticks lie
    beyond it.
    """
    if not values:
        raise ValueError("nearest_rank of an empty sample")
    if not 0 < percent <= 100:
        raise ValueError(f"percent must be in (0, 100], got {percent}")
    ordered = sorted(values)
    rank = -(-percent * len(ordered) // 100)
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> float:
    """The highest percentile with at least ten samples beyond it.

    That is the 11th-largest value, whatever the sample count: p97 by
    nearest rank at 360 ticks, p99.8 at 5400.
    """
    if len(values) < 11:
        raise ValueError(f"tail needs at least 11 samples, got {len(values)}")
    return sorted(values)[-11]


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles and IQR of one metric's samples, with the count.

    The quartiles are ``statistics.quantiles(values, n=4)``; a single
    sample has zero spread.
    """
    if not values:
        raise ValueError("summarize of an empty sample")
    median = statistics.median(values)
    if len(values) == 1:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}
