"""Order statistics and metric-name rules shared by the benchmark scripts.

Pure Python on purpose: the steadiness command and the tests import this
module without importing the program under test.
"""

from __future__ import annotations

import math
import re
import statistics

#: A metric or workload name: letter or digit first, at most 64 characters.
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A unit such as ``ms``, ``s``, ``1/s`` or ``count``.
UNIT_PATTERN = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Tail percentiles tried, highest first.
TAIL_PERCENTILES = (99, 95, 90)

#: A tail percentile must leave at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: Below this many samples a percentile beyond the median is no tail.
MIN_SAMPLES = 40


def valid_name(name: str) -> bool:
    return NAME_PATTERN.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_PATTERN.fullmatch(unit) is not None


def tail_percentile(samples: int) -> float:
    """The highest of p99/p95/p90 that leaves >= 10 samples beyond it.

    With 40..99 samples none of the three does; the percentile that leaves
    exactly ten samples beyond it is used instead.  Fewer than 40 samples
    have no tail at all.
    """
    if samples < MIN_SAMPLES:
        raise ValueError(
            f"{samples} samples: a tail needs at least {MIN_SAMPLES}"
        )
    for pct in TAIL_PERCENTILES:
        if samples * (100 - pct) >= MIN_TAIL_SAMPLES * 100:
            return float(pct)
    return 100.0 * (samples - MIN_TAIL_SAMPLES) / samples


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) exactly as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf


def worsening(before: float, after: float, better: str) -> float:
    """How much worse *after* is than *before*, as a share of *before*."""
    if better == "lower":
        return (after - before) / before
    return (before - after) / before
