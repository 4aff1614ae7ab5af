"""Empirical-distribution machinery: KS distances, DKW bounds, summaries.

Only the KS statistic is computed, never p-values: acceptance thresholds
throughout the project are set from the DKW inequality plus explicit
slack, which keeps every tolerance transparent and derivable. Ties use
the standard right-continuous ECDF convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError

__all__ = ["Summary", "ks_one_sample", "ks_two_sample", "dkw_bound", "summary"]


def _as_sorted(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise InvalidInputError("empty sample set")
    return np.sort(arr)


def ks_one_sample(samples, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """sup_x |ECDF(x) - F(x)| against a reference CDF."""
    xs = _as_sorted(samples)
    n = xs.size
    f = np.asarray(cdf(xs), dtype=float)
    if f.shape != xs.shape:
        raise InvalidInputError("cdf must evaluate elementwise on arrays")
    i = np.arange(1, n + 1)
    return float(
        max(np.abs(i / n - f).max(), np.abs((i - 1) / n - f).max())
    )


def ks_two_sample(a, b) -> float:
    """sup-norm distance between two ECDFs, evaluated on the pooled points."""
    xa = _as_sorted(a)
    xb = _as_sorted(b)
    pooled = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, pooled, side="right") / xa.size
    fb = np.searchsorted(xb, pooled, side="right") / xb.size
    return float(np.abs(fa - fb).max())


def dkw_bound(n: int, delta: float) -> float:
    """Radius with P(sup |ECDF - F| > radius) <= delta for N = n samples."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if not (0.0 < delta < 1.0):
        raise InvalidInputError("delta must lie in (0, 1)")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


@dataclass(frozen=True)
class Summary:
    mean: float
    variance: float | None
    min: float
    max: float
    n: int


def summary(samples: Sequence[float] | np.ndarray) -> Summary:
    """Mean, unbiased variance, min, max and count of a sample set.

    Mean and variance are NaN when any sample is not finite; min and max
    ignore NaN. The samples are scaled by a power of two, which is exact,
    so that no sum overflows.
    """
    x = np.asarray(samples, dtype=float).ravel()
    n = x.size
    if n == 0:
        raise InvalidInputError("empty sample set")
    lo = float(np.fmin.reduce(x, initial=math.inf))
    hi = float(np.fmax.reduce(x, initial=-math.inf))
    if not np.isfinite(x).all():
        return Summary(math.nan, math.nan if n >= 2 else None, lo, hi, n)
    e = math.frexp(max(-lo, hi))[1]
    x = np.ldexp(x, -e)
    mean = x.mean()
    d = np.square(x - mean)
    variance = float(np.ldexp(d.sum() / (n - 1), 2 * e)) if n >= 2 else None
    return Summary(float(np.ldexp(mean, e)), variance, lo, hi, n)
