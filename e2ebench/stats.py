"""Summary statistics: guarded percentiles and run-to-run spread."""

from __future__ import annotations

import statistics

import numpy as np

__all__ = ["MIN_BEYOND", "percentile", "spread", "windowed_percentile"]

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """The *p*-th percentile (linear interpolation) of *values*.

    Refuses, with ``ValueError``, a percentile that fewer than
    :data:`MIN_BEYOND` samples lie beyond: p90 needs 100 samples, p99 1000.
    """
    values = np.asarray(values, dtype=np.float64)
    beyond = values.size * (100.0 - p) / 100.0
    if beyond + 1e-9 < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} needs {MIN_BEYOND} samples beyond it; "
            f"{values.size} samples give {beyond:.2f}"
        )
    return float(np.percentile(values, p))


def windowed_percentile(values, p: float, window: int) -> float:
    """Median, over consecutive windows of *window* samples, of each
    window's guarded *p*-th percentile (a short tail at the end is dropped).

    A few seconds of interference from other tenants of a shared machine
    fill one percent of a run's samples and would set its p99; the median
    over windows reports the tail that most of the run saw.
    """
    values = list(values)
    if len(values) < window:
        raise ValueError(f"one window needs {window} samples, got {len(values)}")
    ends = range(window, len(values) + 1, window)
    return statistics.median(percentile(values[end - window : end], p) for end in ends)


def spread(values) -> float:
    """Interquartile distance as a share of the median.

    Quartiles are ``statistics.quantiles(values, n=4)`` (the exclusive
    method), the rule the benchmark's bounds are checked with.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

