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

__all__ = ["Summary", "ks_one_sample", "ks_two_sample", "ks_atoms", "dkw_bound", "summary"]


_CHUNK = 2**16  # points per pass of the KS loops


def _as_sorted(samples) -> np.ndarray:
    """A sorted copy of the samples as doubles; the input is left as it is."""
    arr = np.array(samples, dtype=float)
    if arr.size == 0:
        raise InvalidInputError("empty sample set")
    arr.sort()
    return arr


def ks_one_sample(samples, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """sup_x |ECDF(x) - F(x)| against a reference CDF.

    Beyond the sorted copy and F at its points, the i / n - F and
    (i - 1) / n - F terms take one chunk's buffer at a time.
    """
    xs = _as_sorted(samples)
    n = xs.size
    f = np.asarray(cdf(xs), dtype=float)
    if f.shape != xs.shape:
        raise InvalidInputError("cdf must evaluate elementwise on arrays")
    del xs
    above, below = [], []
    for a in range(0, n, _CHUNK):
        fc = f[a : a + _CHUNK]
        i = np.arange(a + 1.0, a + 1.0 + fc.size)  # ranks, exact as doubles
        d = i / n
        d -= fc
        above.append(np.abs(d, out=d).max())
        i -= 1.0
        np.divide(i, n, out=d)
        d -= fc
        below.append(np.abs(d, out=d).max())
    return float(max(np.max(above), np.max(below)))


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
    probabilities ``probs``, for samples on the atoms.

    The ECDF is read a quarter of the smallest atom gap (0.5 for a single
    atom, and 1e-12 at least) to each side of every atom, so a sample that
    lies off its atom by less than that counts as on it.
    """
    xs = np.sort(samples)
    n = xs.size
    gaps = np.diff(atoms)
    eps = float(gaps.min()) / 4.0 if gaps.size else 0.5
    eps = max(eps, 1e-12)
    cum = np.cumsum(probs)
    ecdf_at = np.searchsorted(xs, atoms + eps, side="left") / n
    ecdf_before = np.searchsorted(xs, atoms - eps, side="left") / n
    dev_at = np.abs(ecdf_at - cum)
    dev_before = np.abs(ecdf_before - (cum - probs))
    return float(max(dev_at.max(), dev_before.max()))


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
    variance = float(np.ldexp(x.sum() / (n - 1), 2 * e)) if n >= 2 else None
    return Summary(float(np.ldexp(mean, e)), variance, lo, hi, n)
