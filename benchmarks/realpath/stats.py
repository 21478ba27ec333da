"""Summary statistics for the realpath benchmark (no program imports).

Everything here is plain arithmetic on lists of numbers, so the unit
tests exercise it without a deployment.
"""

from __future__ import annotations

import statistics

#: A percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values: list[float], q: float, min_tail: int = MIN_TAIL_SAMPLES) -> float:
    """Nearest-rank percentile ``q`` (0 < q < 1) of ``values``.

    Raises :class:`ValueError` when fewer than ``min_tail`` samples lie
    beyond the answer: a p95 of 100 samples rests on five of them and
    does not repeat.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile q must be inside (0, 1), got {q}")
    ordered = sorted(values)
    rank = int(len(ordered) * q)
    beyond = len(ordered) - rank - 1
    if beyond < min_tail or not ordered:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples has {max(beyond, 0)} samples "
            f"beyond it; {min_tail} are needed"
        )
    return ordered[rank]


def median_setup(times: list[float]) -> float:
    """``setup_s`` of one run: the median of its repeated set-ups.

    One run sets the deployment up several times because a single
    bring-up is bimodal (the first one of a process is cold: 0.78 s
    against 0.36 s on the machine this was written on).
    """
    if not times:
        raise ValueError("no set-up was timed")
    return statistics.median(times)


def quartile_spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    first, middle, third = statistics.quantiles(values, n=4)
    return (third - first) / middle


def worsening(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the value ``second`` is worse (< 0: better)."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change
