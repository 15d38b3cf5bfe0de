"""Summary statistics for benchmark samples."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: A percentile is trusted only when this many samples lie beyond it.
MIN_BEYOND = 10


@dataclass
class Stat:
    """One reported metric: its value, sample count, IQR and a caveat."""

    value: float
    n: int
    iqr: float | None = None
    note: str = ""


def iqr(samples: list[float]) -> float | None:
    """Distance between the first and third quartile (``None`` below 2 samples)."""
    if len(samples) < 2:
        return None
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q3 - q1


def of_samples(samples: list[float]) -> Stat:
    """The median of ``samples`` with their IQR."""
    return Stat(statistics.median(samples), len(samples), iqr(samples))


def at_percentile(samples: list[float], p: int) -> Stat:
    """The ``p``-th percentile, flagged when fewer than MIN_BEYOND samples lie beyond it."""
    ordered = sorted(samples)
    if len(ordered) == 1:
        value = ordered[0]
    else:
        value = statistics.quantiles(ordered, n=100, method="inclusive")[p - 1]
    beyond = sum(1 for x in ordered if x > value)
    note = "" if beyond >= MIN_BEYOND else f"only {beyond} samples beyond p{p}"
    return Stat(value, len(ordered), iqr(ordered), note)


def geomean(values: list[float]) -> float:
    """Geometric mean of positive values."""
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0
