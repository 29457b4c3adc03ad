"""Order statistics and the pair verdict shared by ``run.py`` and ``compare.py``.

Quartiles follow :func:`statistics.quantiles` with ``n=4`` (its default
"exclusive" method), so a spread printed here is the spread any other reader
of the same values computes.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Percentiles tried, highest first, by :func:`tail_percentile`.
TAIL_PERCENTILES = (99, 95, 90, 75)

#: Samples that must lie strictly beyond a percentile before it is reported.
MIN_BEYOND = 10

#: Parent/change pairs needed before a gain may be claimed.
MIN_PAIRS = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    values = [float(v) for v in values]
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for a zero median)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``q`` % at or below it."""
    ordered = sorted(float(s) for s in samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_percentile(samples: Sequence[float], q: float) -> float | None:
    """The ``q``-th percentile, or ``None`` unless ``MIN_BEYOND`` samples exceed it."""
    if not samples:
        return None
    value = percentile(samples, q)
    beyond = sum(1 for s in samples if s > value)
    return value if beyond >= MIN_BEYOND else None


def tail_percentile(samples: Sequence[float]) -> tuple[int, float] | None:
    """Highest of :data:`TAIL_PERCENTILES` with enough samples beyond it."""
    for q in TAIL_PERCENTILES:
        value = supported_percentile(samples, q)
        if value is not None:
            return q, value
    return None


def verdict(
    base: Sequence[float],
    change: Sequence[float],
    bound: float,
    better: str,
    base_spread: float | None = None,
    change_spread: float | None = None,
) -> str:
    """``better`` / ``worse`` / ``unchanged`` / ``unresolved`` for one metric.

    ``base`` and ``change`` are per-run values of the parent and the change.
    The rules are those of the choosing-metrics guide (sections 6.5 and 8):

    * a side whose run-to-run spread exceeds ``bound`` leaves the pair
      unresolved, unless every change run beats (or loses to) every base run;
    * the change is worse when its median is worse than the base median by
      more than ``bound`` (relative);
    * it is better when, over at least :data:`MIN_PAIRS` run pairs, it wins at
      least nine tenths of them and the medians differ by more than the
      base's own inter-quartile distance;
    * otherwise it is unchanged.

    The spreads default to :func:`spread` of the values; a caller whose
    values are not whole runs passes the run-level spread it estimated.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    base_med, change_med = median(base), median(change)
    base_spread = spread(base) if base_spread is None else base_spread
    change_spread = spread(change) if change_spread is None else change_spread

    def gain(a: float, b: float) -> float:  # positive when b is better than a
        return sign * (a - b)

    pairs = list(zip(base, change))
    enough = len(pairs) >= MIN_PAIRS
    all_better = enough and all(gain(a, b) > 0 for a in base for b in change)
    all_worse = all(gain(a, b) < 0 for a in base for b in change)
    if max(base_spread, change_spread) > bound:
        if all_better:
            return "better"
        if all_worse:
            return "worse"
        return "unresolved"
    scale = abs(base_med) if base_med else 1.0
    if -gain(base_med, change_med) / scale > bound:
        return "worse"
    wins = sum(1 for a, b in pairs if gain(a, b) > 0)
    if enough and wins >= 0.9 * len(pairs) and gain(base_med, change_med) > base_spread * scale:
        return "better"
    return "unchanged"
