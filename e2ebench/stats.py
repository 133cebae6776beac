"""Order statistics and process measurements for the benchmark (stdlib only)."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only if at least this many samples lie beyond it.
MIN_BEYOND = 10


def highest_percentile(n: int) -> float:
    """The highest percentile of ``n`` samples with MIN_BEYOND beyond it."""
    if n <= MIN_BEYOND:
        return 0.0
    return 100.0 * (1.0 - MIN_BEYOND / n)


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (NumPy's default method).

    Refuses a percentile the sample cannot support: with fewer than
    MIN_BEYOND samples above it, the figure would rest on an outlier or two.
    """
    n = len(values)
    if p > highest_percentile(n):
        raise ValueError(f"p{p:g} of {n} samples has fewer than {MIN_BEYOND} beyond it")
    ordered = sorted(values)
    pos = (n - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def vmhwm_mb() -> float:
    """This process's peak resident set size (Linux ``VmHWM``), in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def spread(values) -> dict:
    """Median, quartiles and interquartile range over the median.

    Quartiles are ``statistics.quantiles(values, n=4)`` (the exclusive
    method), the rule the steadiness table is judged by.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / med if med else float("inf"),
    }
