"""Reference limit laws: CDFs, closed where they exist and bracketed where not.

The renormalized recursion converges to one of:

* BernoulliConvolution(lam, scale): scale times the sum of
  lam**(k-1) * eps_k over k >= 1 with i.i.d. fair signs eps. Uniform on
  [-2 scale, 2 scale] at lam = 1/2; singular for lam < 1/2.
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

``cdf`` gives the closed CDFs: every law but the series laws with no
closed form, the SymmetrizedPerpetuity and the BernoulliConvolution at
lam != 1/2. ``bracket`` gives each of those two CDFs F_K(x -/+ eps) below
and above it, from the exact law of its truncated series on a grid (see
``Bracket``), with eps sized to the number of samples it is tested with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidInputError, UnavailableError, UnsupportedError
from .models import DiscreteJoint, PairModel, QConstant, RegimeReport, ScaledRademacher
from .stats import dkw_bound

__all__ = [
    "BernoulliConvolution",
    "SymmetrizedPerpetuity",
    "LogNormalPositive",
    "LogNormalSymmetric",
    "ExpHalfNormal",
    "ExpFrechet",
    "Gaussian",
    "LimitLaw",
    "Bracket",
    "label",
    "case_one_law",
    "limit_for",
    "bracket",
    "sample_limit",
    "cdf",
]


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


_GRID_CAP = 2**20  # points of a binned bracket's grid: 8 MiB of doubles


def _bracketed(law: LimitLaw) -> bool:
    """Whether the law is a Case I series law with no closed CDF."""
    if isinstance(law, BernoulliConvolution):
        return law.lam != 0.5
    return isinstance(law, SymmetrizedPerpetuity)


def _push(p: np.ndarray, atoms, lam: float, step: float, mid: int) -> np.ndarray:
    """The law of s (q + lam Z) on the grid, for Z of law ``p`` and (q, s)
    drawn from the (q, s, prob) ``atoms``: grid point i is (i - mid) * step,
    and each image goes to its nearest grid point."""
    nz = np.flatnonzero(p)
    z = nz - float(mid)
    z *= lam
    mass = p[nz]
    out = np.zeros_like(p)
    for q, s, w in atoms:
        y = z + q / step
        y *= s
        j = np.rint(y, out=y).astype(np.intp)
        j += mid
        out += np.bincount(j, weights=mass * w, minlength=p.size)
    return out


class Bracket:
    """CDFs ``lower`` <= F <= ``upper`` of a Case I series law F.

    X = r (q_0 + lam U) and U = s (q + lam U') in law, for a fair sign r,
    q_0 of Q's law and (q, s) of the (Q, sgn M) law. X_K takes U_K, made
    from U_0 = 0 in K = ``terms`` such steps, so |X - X_K| <= lam**(K+1)
    max|q| / (1 - lam). Each step's image goes to the nearest point of a
    grid of step h, which moves X_K by h / (2 (1 - lam)) at most; eps
    adds twice that, or nothing on a lattice that holds every image (lam =
    1/2 and integer q). F_K, the law of X_K, has sorted atoms a_j with
    F_K(a_j) = cum[j + 1], and lower(x) = F_K(x - eps), upper(x) =
    F_K(x + eps). Both read x against the atoms shifted by eps, which are
    all that is kept of them: exact on a lattice, and off it rounded
    within the spare half of the grid's share.
    ``width`` is the widest gap, sup_x upper(x) - lower(x).
    """

    def __init__(self, atoms: np.ndarray, cum: np.ndarray, eps: float, terms: int):
        self.cum, self.eps, self.terms = cum, eps, terms
        self._up, self._down = atoms + eps, atoms - eps
        self.width = float((cum[1:] - self.lower(self._down)).max())  # upper(atoms - eps)

    def lower(self, x) -> np.ndarray:
        return self.cum[np.searchsorted(self._up, x, side="right")]

    def upper(self, x) -> np.ndarray:
        return self.cum[np.searchsorted(self._down, x, side="right")]


def bracket(law: LimitLaw, samples: int) -> Bracket | None:
    """The bracketed CDF of a Case I law with no closed CDF (None for any
    other law), for a KS test of ``samples`` points: K and the grid keep
    eps within 1 % of DKW(samples, 0.01) max|q|."""
    if not _bracketed(law):
        return None
    lam = law.lam
    if isinstance(law, BernoulliConvolution):  # q_0 + lam U, U = q + lam U'
        pairs = ((-law.scale, 1.0, 0.5), (law.scale, 1.0, 0.5))
    else:
        pairs = law.pairs or ((1.0, 1.0, law.p), (1.0, -1.0, 1.0 - law.p))
    q_max = max(abs(q) for q, _, _ in pairs)
    target = dkw_bound(samples, 0.01) * q_max / 100.0
    lattice = lam == 0.5 and all(float(q).is_integer() for q, _, _ in pairs)
    share = target if lattice else target / 2.0  # the truncation's part of eps
    terms = 0
    while lam ** (terms + 1) * q_max / (1.0 - lam) > share:
        terms += 1
    step = lam**terms  # the lattice of X_K
    if not lattice or 2.0 * q_max / ((1.0 - lam) * step) > _GRID_CAP:
        lattice = False
        step = max((1.0 - lam) * share, 2.0 * q_max / ((1.0 - lam) * _GRID_CAP))
    # each rounding adds half a step, so no index passes (q_max / h + 1/2) / (1 - lam)
    mid = math.ceil((q_max / step + 0.5) / (1.0 - lam))
    p = np.zeros(2 * mid + 1)
    p[mid] = 1.0  # U_0 = 0
    for _ in range(terms):
        p = _push(p, pairs, lam, step, mid)
    q_law: dict[float, float] = {}
    for q, _, w in pairs:
        q_law[q] = q_law.get(q, 0.0) + w
    p = _push(p, [(q, r, w / 2.0) for q, w in q_law.items() for r in (1.0, -1.0)], lam, step, mid)
    nz = np.flatnonzero(p)
    cum = np.zeros(nz.size + 1)
    np.cumsum(p[nz], out=cum[1:])
    cum /= cum[-1]
    eps = lam ** (terms + 1) * q_max / (1.0 - lam) + (0.0 if lattice else step / (1.0 - lam))
    return Bracket((nz - mid) * step, cum, eps, terms)


def _frechet_exp(alpha: float, u: np.ndarray) -> np.ndarray:
    # V = (-ln u)^(1/alpha) inverts the Frechet CDF; result is e^V
    with np.errstate(over="ignore"):
        return np.exp((-np.log(u)) ** (1.0 / alpha))


# no caller in the package: it stays because perfbench/tracing.py wraps it and reads ``size``
def sample_limit(law: LimitLaw, rng: np.random.Generator, size: int | None = None):
    """Draw from a limit law with a closed CDF; scalar when size is None."""
    k = 1 if size is None else int(size)
    if k < 1:
        raise InvalidInputError("size must be >= 1")
    if isinstance(law, LogNormalPositive):
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
        raise UnavailableError(f"no sampler for {label(law)}")
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
    if _bracketed(law):
        raise UnavailableError(f"{label(law)} has no closed CDF; use its bracket")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)

    if isinstance(law, BernoulliConvolution):  # lam = 1/2: uniform on [-2c, 2c]
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
