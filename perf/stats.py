"""Arithmetic shared by the runner, the comparison tool and the tests."""

from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a
    share ``q`` of the sample at or below it (``q`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def self_times(rungs: list[float]) -> list[float]:
    """Self time of each rung of a replay ladder.

    ``rungs`` lists the mean time of one request sent through ever
    fewer layers, outermost first; each layer's self time is its rung
    minus the rung below, and the innermost rung is its own self time.
    The self times sum to the outermost rung.
    """
    return [
        upper - lower for upper, lower in zip(rungs, rungs[1:] + [0.0])
    ]


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    if better == "lower":
        return (new - base) / base
    return (base - new) / base
