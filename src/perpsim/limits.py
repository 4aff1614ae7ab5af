"""Reference limit laws: samplers for all of them, CDFs where closed forms exist.

The renormalized recursion converges to one of:

* BernoulliConvolution(lam, scale): scale times the sum of
  lam**(k-1) * eps_k over k >= 1 with i.i.d. fair signs eps. Uniform on
  [-2 scale, 2 scale] at lam = 1/2; singular for lam < 1/2; no usable
  closed CDF away from 1/2, so verification there falls back to
  two-sample comparison against the truncated-series sampler.
* SymmetrizedPerpetuity(lam, p, pairs): r * X with r an independent fair
  sign and X = sum over k >= 1 of lam**(k-1) * Q_k * prod_{2<=j<=k} eps_j,
  where (Q_k, eps_k) are i.i.d. draws of (Q, sgn M) from the atoms
  ``pairs`` (None: Q = 1 and P(eps = +1) = p).

Case I (|M| = rho a.s.) unrolls to R_n / rho**(n-1) =
sum_k lam**(k-1) Q_k prod_{k<j<=n} eps_j, so its limit is the
SymmetrizedPerpetuity of the model's own (Q, sgn M) law; it reduces to
c * BernoulliConvolution(lam) when P(eps = +1) = 1/2 and Q = c * (a sign
independent of eps).
* LogNormalPositive / LogNormalSymmetric: e^N and r * e^N.
* ExpHalfNormal: e^|N|, CDF 2 Phi(ln x) - 1 on x >= 1.
* ExpFrechet(alpha): e^V with V Frechet, CDF exp(-(ln x)**alpha) on
  x > 1. Heavy enough that samples occasionally exceed native float
  range and come back as inf; rank statistics downstream are fine with
  that.
* Gaussian(beta2).

Series samplers truncate at m terms with error at most
max|Q| * lam**m / (1 - lam), so m is chosen to push lam**m / (1 - lam)
below 1e-9, well under every statistical tolerance in the test battery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidInputError, UnavailableError, UnsupportedError
from .models import DiscreteJoint, PairModel, QConstant, RegimeReport, ScaledRademacher

__all__ = [
    "BernoulliConvolution",
    "SymmetrizedPerpetuity",
    "LogNormalPositive",
    "LogNormalSymmetric",
    "ExpHalfNormal",
    "ExpFrechet",
    "Gaussian",
    "LimitLaw",
    "label",
    "has_cdf",
    "case_one_law",
    "limit_for",
    "sample_limit",
    "cdf",
    "bc_truncation_bound",
    "default_series_terms",
]

_SERIES_TARGET = 1e-9


@dataclass(frozen=True)
class BernoulliConvolution:
    lam: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.lam < 1.0):
            raise InvalidInputError("lam must lie in (0, 1)")
        if not (0.0 < self.scale < math.inf):
            raise InvalidInputError("scale must be positive and finite")


@dataclass(frozen=True)
class SymmetrizedPerpetuity:
    lam: float
    p: float
    pairs: tuple[tuple[float, float, float], ...] | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.lam < 1.0):
            raise InvalidInputError("lam must lie in (0, 1)")
        if not (0.0 < self.p < 1.0):
            raise InvalidInputError("p must lie in (0, 1)")


@dataclass(frozen=True)
class LogNormalPositive:
    pass


@dataclass(frozen=True)
class LogNormalSymmetric:
    pass


@dataclass(frozen=True)
class ExpHalfNormal:
    pass


@dataclass(frozen=True)
class ExpFrechet:
    alpha: float

    def __post_init__(self) -> None:
        if not (self.alpha < 0.0):
            raise InvalidInputError("alpha must be negative")


@dataclass(frozen=True)
class Gaussian:
    beta2: float

    def __post_init__(self) -> None:
        if not (self.beta2 > 0.0):
            raise InvalidInputError("beta2 must be positive")


LimitLaw = Union[
    BernoulliConvolution,
    SymmetrizedPerpetuity,
    LogNormalPositive,
    LogNormalSymmetric,
    ExpHalfNormal,
    ExpFrechet,
    Gaussian,
]


def label(law: LimitLaw) -> str:
    if isinstance(law, BernoulliConvolution):
        if law.scale == 1.0:
            return f"BernoulliConvolution({law.lam:g})"
        return f"BernoulliConvolution({law.lam:g}, scale={law.scale:g})"
    if isinstance(law, SymmetrizedPerpetuity):
        if law.pairs is None:
            return f"SymmetrizedPerpetuity({law.lam:g}, {law.p:g})"
        atoms = ", ".join(f"({q:g},{s:+g}):{w:g}" for q, s, w in law.pairs)
        return f"SymmetrizedPerpetuity({law.lam:g}, {law.p:g}, (Q,sgnM)=[{atoms}])"
    if isinstance(law, ExpFrechet):
        return f"ExpFrechet({law.alpha:g})"
    if isinstance(law, Gaussian):
        return f"Gaussian({law.beta2:g})"
    return type(law).__name__


def has_cdf(law: LimitLaw) -> bool:
    if isinstance(law, BernoulliConvolution):
        return law.lam == 0.5
    return not isinstance(law, SymmetrizedPerpetuity)


def _sign_pairs(model: PairModel) -> tuple[tuple[float, float, float], ...]:
    """Joint law of (Q, sgn M) as sorted (q, s, prob) atoms (Case I families)."""
    if isinstance(model, ScaledRademacher):
        q = model.q_law
        qs = ((q.value, 1.0),) if isinstance(q, QConstant) else ((1.0, q.p), (-1.0, 1.0 - q.p))
        eps = ((1.0, model.p), (-1.0, 1.0 - model.p))
        return tuple(sorted((v, s, a * b) for v, a in qs for s, b in eps))
    if isinstance(model, DiscreteJoint):
        joint: dict[tuple[float, float], float] = {}
        for (q, m), w in model.atoms:
            key = (q, math.copysign(1.0, m))
            joint[key] = joint.get(key, 0.0) + w
        return tuple(sorted((q, s, w) for (q, s), w in joint.items()))
    raise UnsupportedError(f"{type(model).__name__} has no Case I limit law")


def _independent(pairs) -> bool:
    """Whether the (q, s, prob) atoms factor into a Q law times an s law."""
    q_marg = {q: sum(w for x, _, w in pairs if x == q) for q, _, _ in pairs}
    s_marg = {s: sum(w for _, x, w in pairs if x == s) for _, s, _ in pairs}
    joint = {(q, s): w for q, s, w in pairs}
    return all(
        abs(joint.get((q, s), 0.0) - a * b) <= 1e-12
        for q, a in q_marg.items()
        for s, b in s_marg.items()
    )


def case_one_law(case: str, lam: float, p: float, model: PairModel) -> LimitLaw:
    """Case I limit of the model's own (Q, sgn M) law (see module docstring)."""
    pairs = _sign_pairs(model)
    scales = {abs(q) for q, _, _ in pairs}
    if case == "I-sym" and len(scales) == 1 and _independent(pairs):
        return BernoulliConvolution(lam, scales.pop())
    if all(q == 1.0 for q, _, _ in pairs):
        return SymmetrizedPerpetuity(lam, p)
    return SymmetrizedPerpetuity(lam, p, pairs)


def limit_for(regime: RegimeReport, model: PairModel) -> LimitLaw:
    """The law the normalized samples of ``model`` converge to in this regime."""
    case = regime.case
    if case in ("I-sym", "I-asym"):
        return case_one_law(case, regime.lam, regime.p, model)
    if case == "II-abs":
        return LogNormalPositive()
    if case == "II-signed":
        return LogNormalSymmetric()
    if case in ("III-clt", "III-boundary-vanishing"):
        return ExpHalfNormal()
    if case in ("III-evt", "III-boundary-growing"):
        return ExpFrechet(regime.alpha)
    if case == "IV":
        return Gaussian(regime.beta2)
    raise UnsupportedError(f"no limit law for regime {case}")


def bc_truncation_bound(lam: float, m: int) -> float:
    """Worst-case truncation error of the m-term series: lam**m / (1-lam)."""
    return lam**m / (1.0 - lam)


def default_series_terms(lam: float, target: float = _SERIES_TARGET) -> int:
    """Smallest m with bc_truncation_bound(lam, m) < target."""
    m = max(1, math.ceil(math.log(target * (1.0 - lam)) / math.log(lam)))
    while bc_truncation_bound(lam, m) >= target:
        m += 1
    return m


def _atom_indices(u: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Index of the atom each uniform picks, in the smallest integer dtype."""
    idx = np.zeros(u.shape, np.min_scalar_type(len(probs)))
    for c in np.cumsum(probs)[:-1]:
        idx += u >= c
    return idx


_CHUNK_CELLS = 2**17  # uniforms per chunk of a series sampler: 1 MiB of float64
_SIGN_CHUNK = 2**14  # signs r drawn at a time: 128 KiB of uniforms
_FAIR = np.array([0.5, 0.5])
_SIGNS = np.array([1.0, -1.0])  # atom 0 is u < 1/2


def _series_rows(rng, size: int, width: int, lam: float, probs, q, s=None) -> np.ndarray:
    """``size`` values of a series with ``width`` terms, one per row of uniforms.

    Row i of a (size, width) array of uniforms, drawn in row-major order,
    picks atom a_ik of ``probs`` for term k = 0, 1, ...: q[a_ik] * lam**k,
    times s[a_i1] * ... * s[a_ik] when ``s`` is given. The uniforms are
    drawn a chunk of rows at a time, and a chunk's series are built term
    by term from its atom indices, in one term buffer and one running sign
    product of a chunk's length, so memory beyond the output is O(chunk).
    Each row's terms are added in the order k = 0, 1, ..., one numpy add
    per term, so a value depends on neither the chunk size nor the BLAS:
    the order of a matrix product's sums depends on its shape.
    """
    weights = lam ** np.arange(width)
    out = np.empty(size)
    rows = max(1, _CHUNK_CELLS // width)
    term = np.empty(min(rows, size))
    sign = np.empty_like(term)
    for a in range(0, size, rows):
        u = rng.random((min(rows, size - a), width))
        idx = np.ascontiguousarray(_atom_indices(u, probs).T)  # a series per column
        del u
        n = idx.shape[1]
        acc, t, sgn = out[a : a + n], term[:n], sign[:n]
        np.take(q, idx[0], out=acc, mode="clip")  # term 0, made in acc
        acc *= weights[0]
        sgn.fill(1.0)
        for k in range(1, width):
            # the sign products and q times a sign are exact
            if s is not None:
                sgn *= np.take(s, idx[k], out=t, mode="clip")
            np.take(q, idx[k], out=t, mode="clip")
            if s is not None:
                t *= sgn
            t *= weights[k]
            acc += t
    return out


def _frechet_exp(alpha: float, u: np.ndarray) -> np.ndarray:
    # V = (-ln u)^(1/alpha) inverts the Frechet CDF; result is e^V
    with np.errstate(over="ignore"):
        return np.exp((-np.log(u)) ** (1.0 / alpha))


def sample_limit(
    law: LimitLaw,
    rng: np.random.Generator,
    series_terms: int | None = None,
    size: int | None = None,
):
    """Draw from the limit law; scalar when size is None.

    series_terms applies to the series laws only; None means the 1e-9
    truncation target.
    """
    k = 1 if size is None else int(size)
    if k < 1:
        raise InvalidInputError("size must be >= 1")

    if isinstance(law, (BernoulliConvolution, SymmetrizedPerpetuity)):
        m = default_series_terms(law.lam) if series_terms is None else series_terms
        if m < 1:
            raise InvalidInputError("series_terms must be >= 1")
    if isinstance(law, BernoulliConvolution):
        out = _series_rows(rng, k, m, law.lam, _FAIR, _SIGNS)
        out *= law.scale
    elif isinstance(law, SymmetrizedPerpetuity):
        pairs = law.pairs or ((1.0, 1.0, law.p), (1.0, -1.0, 1.0 - law.p))
        q, s, w = (np.array(col) for col in zip(*pairs))
        out = _series_rows(rng, k, m + 1, law.lam, w, q, s)
        # the sign r, drawn a chunk at a time: the uniforms of one rng.random(k)
        for a in range(0, k, _SIGN_CHUNK):
            r = out[a : a + _SIGN_CHUNK]
            r *= np.where(rng.random(r.size) < 0.5, 1.0, -1.0)
    elif isinstance(law, LogNormalPositive):
        out = np.exp(rng.standard_normal(k))
    elif isinstance(law, LogNormalSymmetric):
        x = np.exp(rng.standard_normal(k))
        out = np.where(rng.random(k) < 0.5, 1.0, -1.0) * x
    elif isinstance(law, ExpHalfNormal):
        out = np.exp(np.abs(rng.standard_normal(k)))
    elif isinstance(law, ExpFrechet):
        u = rng.random(k) + 2.0**-54
        out = _frechet_exp(law.alpha, u)
    elif isinstance(law, Gaussian):
        out = math.sqrt(law.beta2) * rng.standard_normal(k)
    else:
        raise InvalidInputError(f"unknown law {law!r}")
    return float(out[0]) if size is None else out


def _ndtr():
    """scipy's normal CDF, a ufunc, imported only by the laws whose CDF uses it."""
    from scipy.special import ndtr

    return ndtr


def cdf(law: LimitLaw, x):
    """Closed-form CDF; raises UnavailableError when none exists.

    Each law's CDF is made in place in one fresh array, the output; x is
    left unchanged. Points outside a law's support start at a value the
    remaining steps take to the CDF there, so the steps run on the whole
    array: scipy's ufuncs are not given numpy's ``where`` masks, which
    corrupt memory in scipy 1.17.
    """
    if not has_cdf(law):
        raise UnavailableError(
            f"{label(law)} has no closed CDF; compare against sample_limit"
        )
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)

    if isinstance(law, BernoulliConvolution):  # lam == 1/2: uniform on [-2c, 2c]
        c = law.scale
        out = np.add(arr, 2.0 * c)
        out /= 4.0 * c
        np.clip(out, 0.0, 1.0, out=out)
    elif isinstance(law, LogNormalPositive):
        # ln x for x > 0, -inf elsewhere, where Phi is 0
        out = np.full_like(arr, -np.inf)
        np.log(arr, out=out, where=arr > 0)
        _ndtr()(out, out=out)
    elif isinstance(law, LogNormalSymmetric):
        # 0.5 + sgn(x) * 0.5 * Phi(ln|x|); ln 0 = -inf gives 0.5 at x = 0
        out = np.abs(arr)
        with np.errstate(divide="ignore"):
            np.log(out, out=out)
        _ndtr()(out, out=out)
        out *= 0.5
        np.copysign(out, arr, out=out)
        out += 0.5
    elif isinstance(law, ExpHalfNormal):
        # 2 Phi(ln x) - 1 for x >= 1; the zeros elsewhere give 2 Phi(0) - 1 = 0
        out = np.zeros_like(arr)
        np.log(arr, out=out, where=arr >= 1.0)
        _ndtr()(out, out=out)
        out *= 2.0
        out -= 1.0
    elif isinstance(law, ExpFrechet):
        # exp(-(ln x)**alpha) for x > 1; the zeros elsewhere go to
        # exp(-inf) = 0, since alpha < 0
        out = np.zeros_like(arr)
        np.log(arr, out=out, where=arr > 1.0)
        with np.errstate(divide="ignore"):
            out **= law.alpha
        np.negative(out, out=out)
        np.exp(out, out=out)
    elif isinstance(law, Gaussian):
        out = np.divide(arr, math.sqrt(law.beta2))
        _ndtr()(out, out=out)
    else:
        raise InvalidInputError(f"unknown law {law!r}")
    return float(out[0]) if scalar else out
