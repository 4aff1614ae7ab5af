"""Map raw scaled samples of R_n to the renormalized values that converge.

Each regime carries its own map:

* Case I    r / rho**(n-1), computed in scaled arithmetic as one multiply
  by rho**-(n-1), itself a squaring chain of ``vec_mul`` and one
  reciprocal (exact when rho is a power of two),
* Case II   sgn(r) |r|**(1/(v sqrt n)) / exp(mu sqrt n / v), with the
  sign kept only in the signed sub-case,
* Case III  |r|**(1/(v sqrt n)) for the random-walk sub-cases and
  |r|**(1/gamma_n) for the extreme-value ones,
* Case IV   r / sqrt(n) as a plain native float.

r = 0 maps to 0 in the power cases: the event has probability zero for
continuous models and is measure-irrelevant for discrete ones at large
n, and a sentinel would pollute sample sets. Results can be inf when a
normalized value genuinely lands past native float range (the
exp-Frechet limits have log-scale tails); downstream KS statistics are
rank-based and unaffected.

Each map makes its result in place in one fresh array, with at most one
more array of the batch's length while it runs, and leaves the input
vectors unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentsError, InvalidInputError, NativeRangeError
from .models import GAMMA_CASES, RegimeReport
from .scaled import ScaledVector, vec_from_real, vec_log_abs, vec_mul, vec_to_real

__all__ = ["normalize_samples"]

_POWER_CASES = {
    "II-abs",
    "II-signed",
    "III-clt",
    "III-boundary-vanishing",
    "III-evt",
    "III-boundary-growing",
}


def _rho_power_factor(rho: float, n: int) -> ScaledVector:
    """rho**-(n-1) as a one-element vector: a squaring chain for
    rho**(n-1) (log2 n roundings), then one rounding for 1 / mantissa."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    k = n - 1
    power = vec_from_real(np.array([1.0]))
    base = vec_from_real(np.array([rho]))
    while k:
        if k & 1:
            power = vec_mul(power, base)
        k >>= 1
        if k:
            base = vec_mul(base, base)
    inv, e = vec_from_real(1.0 / power.mantissa)
    return ScaledVector(inv, e - power.exponent)


def _power_args(regime: RegimeReport, n: int, gamma_n: float | None):
    """Exponent divisor and log-shift for the power-map cases."""
    case = regime.case
    if case in GAMMA_CASES:
        if gamma_n is None:
            raise InvalidArgumentsError(f"{case} normalization needs gamma_n")
        return gamma_n, 0.0
    divisor = regime.v * math.sqrt(n)
    if case in ("II-abs", "II-signed"):
        return divisor, regime.mu * math.sqrt(n) / regime.v
    return divisor, 0.0


def _times_power(values: ScaledVector, factor: ScaledVector) -> np.ndarray:
    """vec_to_real(vec_mul(values, factor)) for a one-element factor, bit
    for bit: the same operations, in the mantissa array of the product and
    one more array, first |mantissa| as doubles, then the exponents."""
    m = np.multiply(values.mantissa, factor.mantissa)
    e = np.abs(m)
    carry = e >= 2.0
    e = e.view(np.int64)
    np.add(values.exponent, factor.exponent, out=e)
    np.multiply(m, 0.5, out=m, where=carry)
    e += carry
    del carry
    zero = m == 0.0
    np.copyto(m, 0.0, where=zero)
    np.copyto(e, 0, where=zero)
    del zero
    if np.any(e > 1023):
        raise NativeRangeError("batch holds values above native float range")
    # exponents <= -1100 already round to zero
    np.maximum(e, -1100, out=e)
    return np.ldexp(m, e, out=m)


def normalize_samples(
    regime: RegimeReport,
    values: ScaledVector,
    n: int,
    gamma_n: float | None = None,
) -> np.ndarray:
    """Normalize a batch of samples of R_n for the given regime."""
    case = regime.case
    if case in ("I-sym", "I-asym"):
        return _times_power(values, _rho_power_factor(regime.rho, n))
    if case == "IV":
        out = vec_to_real(values)
        out /= math.sqrt(n)
        return out
    if case in _POWER_CASES:
        if case.startswith("III") and np.any(values.mantissa < 0):
            raise InvalidArgumentsError(
                "Case III normalization requires positive samples"
            )
        divisor, shift = _power_args(regime, n, gamma_n)
        mag = vec_log_abs(values)
        mag /= divisor
        mag -= shift
        with np.errstate(over="ignore"):
            np.exp(mag, out=mag)
        if case == "II-signed":
            np.copysign(mag, values.mantissa, out=mag)
        return mag
    raise InvalidArgumentsError(f"no normalization for regime {case}")
