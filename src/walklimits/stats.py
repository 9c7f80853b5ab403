"""Empirical-distribution statistics used by the Monte Carlo reports."""

from __future__ import annotations

import math

import numpy as np


def ks_statistic(sample, cdf) -> float:
    """Sup distance between the empirical CDF and a reference CDF.

    Evaluated from both sides of every jump of the empirical CDF, which is
    where the supremum of the difference against a nondecreasing reference
    is attained.
    """
    xs = np.sort(np.asarray(sample, dtype=float))
    m = xs.size
    if m == 0:
        raise ValueError("empty sample")
    ref = np.asarray(cdf(xs), dtype=float)
    hi = np.arange(1, m + 1) / m - ref
    lo = ref - np.arange(0, m) / m
    return float(max(hi.max(), lo.max(), 0.0))


def ks_two_sample(a, b) -> float:
    """Sup distance between the empirical CDFs of two samples."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


# The 99% two-sided standard normal quantile: P(|Z| > Z_99) = 1%.
Z_99 = 2.5758293035489004


def _kolmogorov_c(alpha: float) -> float:
    """c(alpha) = sqrt(-ln(alpha/2)/2) from the Kolmogorov tail bound, so a
    sample genuinely drawn from the reference exceeds c(alpha)/sqrt(m) with
    probability at most alpha."""
    return math.sqrt(-math.log(alpha / 2.0) / 2.0)


def kolmogorov_threshold(m: int, alpha: float = 0.01) -> float:
    """One-sample KS acceptance threshold c(alpha)/sqrt(m)."""
    return _kolmogorov_c(alpha) / math.sqrt(m)


def kolmogorov_threshold_two(m1: int, m2: int, alpha: float = 0.01) -> float:
    """Two-sample analogue with the effective size m1*m2/(m1+m2)."""
    return _kolmogorov_c(alpha) * math.sqrt(1.0 / m1 + 1.0 / m2)


def wilson_interval(successes: int, trials: int, z: float = Z_99):
    """Wilson score interval (z defaults to the 99% two-sided quantile)."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)
