"""Empirical-distribution machinery: KS distances, DKW bounds, summaries.

Only the KS statistic is computed, never p-values: acceptance thresholds
throughout the project are set from the DKW inequality plus explicit
slack, which keeps every tolerance transparent and derivable. Ties use
the standard right-continuous ECDF convention. Against a finite law,
``ks_atoms`` reads the ECDF at the atoms alone, which is exact for
samples that are atoms, as every sample of the oracle's R_n is while R
stays inside the normal double range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError

__all__ = ["Summary", "ks_one_sample", "ks_two_sample", "ks_atoms", "dkw_bound", "summary"]


_CHUNK = 2**14  # points per pass of the KS loops


def _as_sorted(samples) -> np.ndarray:
    """A sorted copy of the samples as doubles; the input is left as it is."""
    arr = np.array(samples, dtype=float)
    if arr.size == 0:
        raise InvalidInputError("empty sample set")
    arr.sort()
    return arr


def ks_one_sample(samples, cdf: Callable[[np.ndarray], np.ndarray], upper=None):
    """sup_x |ECDF(x) - F(x)| against a continuous reference law F.

    With ``cdf`` alone, F is ``cdf`` and the result is that distance. With
    ``upper``, F is known only to lie between the CDFs ``cdf`` <= F <=
    ``upper``, and the result is a (lower, upper) pair of bounds on the
    distance: at the i-th of n sorted points x_i, the distance is at most
    max(i/n - cdf(x_i), upper(x_i) - (i-1)/n) and at least
    max(i/n - upper(x_i), cdf(x_i) - (i-1)/n). With one CDF the two agree,
    and equal max(|i/n - F|, |(i-1)/n - F|).

    Beyond the sorted copy, the CDFs and the terms take one chunk's
    buffers at a time.
    """
    xs = _as_sorted(samples)
    n = xs.size
    most, least = [], [0.0]
    for a in range(0, n, _CHUNK):
        x = xs[a : a + _CHUNK]
        lo = np.asarray(cdf(x), dtype=float)
        if lo.shape != x.shape:
            raise InvalidInputError("cdf must evaluate elementwise on arrays")
        hi = lo if upper is None else upper(x)
        i = np.arange(a + 1.0, a + 1.0 + x.size)  # ranks, exact as doubles
        at = i / n  # the ECDF at x_i
        i -= 1.0
        before = np.divide(i, n, out=i)  # and just below it
        d = np.subtract(at, lo)
        most.append(np.maximum(d.max(), np.subtract(hi, before, out=d).max()))
        if upper is not None:
            least.append(np.maximum(np.subtract(at, hi, out=d).max(),
                                    np.subtract(lo, before, out=d).max()))
    ks = float(np.max(most))
    return ks if upper is None else (float(np.max(least)), ks)


def ks_two_sample(a, b) -> float:
    """sup-norm distance between two ECDFs, evaluated on the pooled points:
    those of each sorted copy, a chunk at a time."""
    xa = _as_sorted(a)
    xb = _as_sorted(b)
    gaps = []
    for points in (xa, xb):
        for c in range(0, points.size, _CHUNK):
            x = points[c : c + _CHUNK]
            fa = np.searchsorted(xa, x, side="right") / xa.size
            fa -= np.searchsorted(xb, x, side="right") / xb.size
            gaps.append(np.abs(fa, out=fa).max())
    return float(np.max(gaps))


def ks_atoms(samples, atoms: np.ndarray, probs: np.ndarray) -> float:
    """sup |ECDF - F| against a law F on the sorted ``atoms``, of
    probabilities ``probs``, for samples that are atoms.

    Both CDFs are right-continuous steps at the atoms, 0 left of the
    first, so the sup is met at an atom, where the ECDF is read. A sample
    off the atoms is counted at the next atom up. The oracle's samples are
    atoms of ``limits.exact_laws`` while R stays inside the normal double
    range, where the engine's steps are the enumeration's doubles.
    """
    xs = np.sort(samples)
    ecdf = np.searchsorted(xs, atoms, side="right") / xs.size
    return float(np.abs(ecdf - np.cumsum(probs)).max())


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
    so that no sum overflows; the scaled copy is the one working array.
    A variance past double range, of finite samples, is inf. report.json
    writes a NaN and an inf variance alike as null; checkpoints.csv writes
    ``nan`` or ``inf``.
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
    x -= mean
    np.square(x, out=x)
    with np.errstate(over="ignore"):  # the variance may pass double range: inf
        variance = float(np.ldexp(x.sum() / (n - 1), 2 * e)) if n >= 2 else None
    return Summary(float(np.ldexp(mean, e)), variance, lo, hi, n)
