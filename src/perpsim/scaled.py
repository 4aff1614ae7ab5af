"""Overflow-free signed arithmetic on batches of sign * mantissa * 2**exponent.

In the expanding regimes the recursion R_n = Q_n + M_n R_{n-1} grows like
e^{mu*n}, which leaves native double range after a few hundred steps. A
``ScaledVector`` keeps a batch of values as exact triples (int8 sign,
int64 base-2 exponent, float mantissa in [1, 2); zero is (0, 0, 1.0)),
so values are safe out to n = 10**6 and far beyond. The draws and the
checkpoint samples of ``perpsim.simulate`` are ScaledVectors; its kernel
steps in native doubles and calls ``vec_mul``/``vec_add`` only for the
steps that doubles cannot do exactly, so these two functions define the
arithmetic of the recursion. Design rules:

* ``vec_from_real`` is exact (frexp decomposition), so feeding native
  draws into the recursion loses nothing.
* ``vec_mul`` rounds the mantissa product once, so it returns the
  correctly rounded product. ``vec_add`` aligns to the larger exponent
  and rounds once. When the exponent gap exceeds the 53-bit mantissa
  precision the smaller operand is absorbed unchanged ("dominated
  addition"), which is within half an ulp of the exact sum.
* No extended-precision mantissa: per-step relative error ~1e-16 is far
  below Monte Carlo noise in every supported experiment.

The tests check these functions against exact ``fractions.Fraction`` and
mpmath arithmetic. Values carry no shared state, so they can move between
worker processes without restriction.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InvalidInputError, NativeRangeError

__all__ = [
    "ScaledVector",
    "EXPONENT_LIMIT",
    "PRECISION_BITS",
    "vec_from_real",
    "vec_from_log",
    "vec_mul",
    "vec_add",
    "vec_log_abs",
    "vec_to_real",
]

# Exponent gap beyond which vec_add absorbs the smaller operand.
PRECISION_BITS = 53

# Supported exponent range is +/- 2**62; beyond that the engine refuses to continue.
EXPONENT_LIMIT = 1 << 62

_LN2 = math.log(2.0)
_LOG2E = 1.0 / _LN2


class ScaledVector(NamedTuple):
    """Batch of scaled values: int8 signs, int64 exponents, float mantissas."""

    sign: np.ndarray
    exponent: np.ndarray
    mantissa: np.ndarray


def vec_from_real(x: np.ndarray) -> ScaledVector:
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("cannot represent non-finite values")
    m, e = np.frexp(x)
    sign = np.sign(x).astype(np.int8)
    zero = sign == 0
    mant = np.where(zero, 1.0, 2.0 * np.abs(m))
    exp = np.where(zero, 0, e.astype(np.int64) - 1)
    return ScaledVector(sign, exp, mant)


def vec_from_log(log_values: np.ndarray, sign: int = 1) -> ScaledVector:
    lv = np.asarray(log_values, dtype=np.float64)
    t = lv * _LOG2E
    e = np.floor(t)
    mant = np.exp2(t - e)
    high = mant >= 2.0
    if np.any(high):
        mant = np.where(high, 0.5 * mant, mant)
        e = e + high
    signs = np.full(lv.shape, sign, dtype=np.int8)
    return ScaledVector(signs, e.astype(np.int64), mant)


def vec_mul(a: ScaledVector, b: ScaledVector) -> ScaledVector:
    s = (a.sign * b.sign).astype(np.int8)
    m = a.mantissa * b.mantissa
    carry = m >= 2.0
    m = np.where(carry, 0.5 * m, m)
    e = a.exponent + b.exponent + carry
    zero = s == 0
    return ScaledVector(s, np.where(zero, 0, e), np.where(zero, 1.0, m))


def vec_add(a: ScaledVector, b: ScaledVector) -> ScaledVector:
    s1, e1, m1 = a
    s2, e2, m2 = b
    swap = (e2 > e1) | ((e2 == e1) & (m2 > m1))
    sa = np.where(swap, s2, s1)
    ea = np.where(swap, e2, e1)
    ma = np.where(swap, m2, m1)
    sb = np.where(swap, s1, s2)
    eb = np.where(swap, e1, e2)
    mb = np.where(swap, m1, m2)

    gap = ea - eb
    dominated = gap > PRECISION_BITS
    total = sa * ma + sb * np.ldexp(mb, -np.minimum(gap, PRECISION_BITS + 1))
    frac, ex = np.frexp(np.abs(total))
    rs = np.sign(total).astype(np.int8)
    re = ea + ex.astype(np.int64) - 1
    rm = 2.0 * frac

    rs = np.where(dominated, sa, rs).astype(np.int8)
    re = np.where(dominated, ea, re)
    rm = np.where(dominated, ma, rm)
    zero = rs == 0
    re = np.where(zero, 0, re)
    rm = np.where(zero, 1.0, rm)

    a_zero = s1 == 0
    b_zero = s2 == 0
    rs = np.where(a_zero, s2, np.where(b_zero, s1, rs)).astype(np.int8)
    re = np.where(a_zero, e2, np.where(b_zero, e1, re))
    rm = np.where(a_zero, m2, np.where(b_zero, m1, rm))
    return ScaledVector(rs, re, rm)


def vec_log_abs(a: ScaledVector) -> np.ndarray:
    if np.any(a.sign == 0):
        raise DomainError("logarithm of a zero element")
    return a.exponent * _LN2 + np.log(a.mantissa)


def vec_to_real(a: ScaledVector) -> np.ndarray:
    nonzero = a.sign != 0
    if np.any(nonzero & ((a.exponent < -1022) | (a.exponent > 1023))):
        raise NativeRangeError("batch holds values outside native float range")
    out = np.ldexp(a.sign * a.mantissa, a.exponent)
    return np.where(nonzero, out, 0.0)
