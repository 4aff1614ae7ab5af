"""Overflow-free arithmetic on batches of mantissa * 2**exponent.

In the expanding regimes the recursion R_n = Q_n + M_n R_{n-1} grows like
e^{mu*n}, which leaves native double range after a few hundred steps. A
``ScaledVector`` keeps a batch of values as pairs of a float64 mantissa,
which carries the sign and has |mantissa| in [1, 2), and an int64 base-2
exponent; zero is (0.0, 0). This is the r * 2**E state that the kernel of
``perpsim.simulate`` steps, so values are safe out to n = 10**6 and far
beyond. The draws and the checkpoint samples are ScaledVectors; the
kernel steps in native doubles and calls ``vec_mul``/``vec_add`` only for
the steps that doubles cannot do exactly, so these two functions define
the arithmetic of the recursion. Design rules:

* ``vec_from_real`` is exact (frexp decomposition), so feeding native
  draws into the recursion loses nothing.
* ``vec_mul`` and ``vec_add`` round once and return the correctly
  rounded product and sum, at any exponent. ``vec_add`` aligns to the
  larger exponent; an operand more than 54 binades below the other
  leaves the larger one unchanged, which is then the correctly rounded
  sum.
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

from .errors import ExponentOverflowError, InvalidInputError, NativeRangeError

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

# An addend more than this many binades below the other rounds away in vec_add.
PRECISION_BITS = 54

# Supported exponent range is +/- 2**62; beyond that the engine refuses to continue.
EXPONENT_LIMIT = 1 << 62

_LN2 = math.log(2.0)
_LOG2E = 1.0 / _LN2


class ScaledVector(NamedTuple):
    """Batch of scaled values: signed float mantissas, int64 exponents."""

    mantissa: np.ndarray
    exponent: np.ndarray


def _outputs(shape, out) -> tuple[np.ndarray, np.ndarray]:
    """``out``, a (mantissa, exponent) pair of float64 and int64 arrays of
    the given shape, or fresh ones."""
    if out is None:
        return np.empty(shape), np.empty(shape, np.int64)
    return tuple(out)


def vec_from_real(x: np.ndarray, out=None) -> ScaledVector:
    """x exactly; into the arrays of ``out`` when given."""
    x = np.asarray(x, dtype=np.float64)
    # NaN and +-inf reach the extremes; no mask of the whole array is made
    if not (np.isfinite(x.min(initial=0.0)) and np.isfinite(x.max(initial=0.0))):
        raise InvalidInputError("cannot represent non-finite values")
    m, e = np.frexp(x, out=_outputs(x.shape, out))
    # -0.0 becomes the canonical zero (0.0, 0): -0.0 + 0.0 is 0.0, and a
    # zero gets back frexp's exponent 0
    m *= 2.0
    m += 0.0
    e -= 1
    if np.count_nonzero(m) < m.size:
        np.copyto(e, 0, where=m == 0.0)
    return ScaledVector(m, e)


def vec_from_log(log_values: np.ndarray, out=None) -> ScaledVector:
    """e**log_values, positive; into the arrays of ``out`` when given.

    Raises ExponentOverflowError, with the position of the first offender
    as its ``index``, if an exponent is beyond +/-2**62 or not finite.
    """
    # t turns from the base-2 log into the mantissa in place
    t, e = _outputs(np.shape(log_values), out)
    np.multiply(log_values, _LOG2E, out=t)
    # floor(t) lies in [-2**62, 2**62] exactly when t does, as 2**62 + 1 is
    # no double; checked before the int64 cast, which would wrap, and NaN
    # fails it too
    if not (-EXPONENT_LIMIT <= t.min(initial=0.0) and t.max(initial=0.0) <= EXPONENT_LIMIT):
        index = np.unravel_index(np.argmin((t >= -EXPONENT_LIMIT) & (t <= EXPONENT_LIMIT)), t.shape)
        raise ExponentOverflowError(
            f"e**{float(log_values[index])!r} has an exponent beyond +/-2**62", index
        )
    np.floor(t, out=e, casting="unsafe")
    t -= e
    np.exp2(t, out=t)
    if t.max(initial=0.0) >= 2.0:
        high = t >= 2.0
        np.multiply(t, 0.5, out=t, where=high)
        e += high
    return ScaledVector(t, e)


def vec_mul(a: ScaledVector, b: ScaledVector) -> ScaledVector:
    m = a.mantissa * b.mantissa
    carry = np.abs(m) >= 2.0
    m = np.where(carry, 0.5 * m, m)
    e = a.exponent + b.exponent + carry
    zero = m == 0.0
    return ScaledVector(np.where(zero, 0.0, m), np.where(zero, 0, e))


def vec_add(a: ScaledVector, b: ScaledVector) -> ScaledVector:
    m1, e1 = a
    m2, e2 = b
    swap = e2 > e1
    ea = np.where(swap, e2, e1)
    ma = np.where(swap, m2, m1)
    eb = np.where(swap, e1, e2)
    mb = np.where(swap, m1, m2)

    # The aligned addend is exact, so the sum rounds once. One further down
    # than PRECISION_BITS rounds away at any size, so its shift stops at
    # one binade past that and the addend stays a normal double.
    shift = np.minimum(ea - eb, PRECISION_BITS + 1)
    frac, ex = np.frexp(ma + np.ldexp(mb, -shift))
    rm = 2.0 * frac
    re = np.where(rm == 0.0, 0, ea + ex.astype(np.int64) - 1)

    a_zero = m1 == 0.0
    b_zero = m2 == 0.0
    rm = np.where(a_zero, m2, np.where(b_zero, m1, rm))
    re = np.where(a_zero, e2, np.where(b_zero, e1, re))
    return ScaledVector(rm, re)


def vec_log_abs(a: ScaledVector) -> np.ndarray:
    """ln|a|, -inf for zero; made in its output and one more array."""
    out = np.multiply(a.exponent, _LN2)
    m = np.abs(a.mantissa)
    with np.errstate(divide="ignore"):
        out += np.log(m, out=m)
    return out


def vec_to_real(a: ScaledVector) -> np.ndarray:
    """As doubles; values below double range underflow gradually to 0."""
    if np.any(a.exponent > 1023):
        raise NativeRangeError("batch holds values above native float range")
    # exponents <= -1100 already round to zero; clamping keeps ldexp happy
    return np.ldexp(a.mantissa, np.maximum(a.exponent, -1100))
