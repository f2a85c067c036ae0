"""Percentile and spread helpers shared by the benchmark and its tests."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

#: Percentiles the tail metric may report, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 97.5, 98.0, 99.0, 99.5, 99.9)

#: A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the ``pct`` percentile."""
    return int(n * (100.0 - pct) / 100.0 + 1e-9)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ``MIN_BEYOND``
    samples beyond it, for ``n`` samples.

    A workload fixes ``n`` as its guaranteed minimum query count, so the
    reported percentile is the same on every run.
    """
    eligible = [p for p in TAIL_LADDER if samples_beyond(n, p) >= MIN_BEYOND]
    if not eligible:
        raise ValueError(f"{n} samples leave no percentile with "
                         f"{MIN_BEYOND} samples beyond it")
    return eligible[-1]


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= pct <= 100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the quartile distance as a share of the
    median, as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else float("inf")}
