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

``exact_laws`` gives the exact law of R_n itself for a discrete_joint
model at each checkpoint, the oracle's reference. It and the truncated
series are both laws of an affine recursion X <- a + b X over finitely
many (a, b, prob) maps, and both are built by one step, ``_step``: each
atom's image as a double (rounded to the grid for the series), equal
images merged, no tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (DomainError, InvalidInputError, InvalidModelError, TooLargeError,
                     UnavailableError, UnsupportedError)
from .models import (GAMMA_CASES, DiscreteJoint, PairModel, QConstant, RegimeReport,
                     ScaledRademacher, SignedUnit, analytic_moments)
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
    "ENUMERATION_GUARD",
    "ExactDistribution",
    "exact_laws",
    "enumerate_exact",
    "exact_moments_recursion",
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
    if case in GAMMA_CASES:
        return ExpFrechet(regime.alpha)
    if case == "IV":
        return Gaussian(regime.beta2)
    raise UnsupportedError(f"no limit law for regime {case}")


_GRID_CAP = 2**20  # grid points across a bracket's support, so at most that many atoms


def _bracketed(law: LimitLaw) -> bool:
    """Whether the law is a Case I series law with no closed CDF."""
    if isinstance(law, BernoulliConvolution):
        return law.lam != 0.5
    return isinstance(law, SymmetrizedPerpetuity)


def _firsts(x: np.ndarray) -> np.ndarray:
    """Mask of the first of each run of equal neighbours in ``x``."""
    return np.concatenate(([True], x[1:] != x[:-1]))


def _step(values: np.ndarray, probs: np.ndarray, maps, grid: bool = False):
    """The law of a + b V, for V of the finite law (``values``, ``probs``)
    and (a, b) drawn with probability w from the (a, b, w) ``maps``.

    Images are computed as doubles, a + (b v), and on a ``grid`` (values
    in grid-index units) rounded to the nearest integer. Equal images
    merge; their probabilities are summed in the order of v within a map,
    then map by map in the order of ``maps``, and an atom whose
    probability underflows to 0 is dropped.
    Returns the sorted atoms and their probabilities. The work is
    O(maps x atoms x log): one sort of every map's distinct images, then
    one lookup of each map's images in the result.
    """

    def images(a, b):
        """The distinct images, and the mask of each one's first preimage:
        a + (b v), rounded or not, is monotone in v, so equal images are
        neighbours."""
        x = b * values
        x += a
        if grid:
            np.rint(x, out=x)
        first = _firsts(x)
        return x[first], first

    atoms = np.empty(len(maps) * values.size)
    end = 0
    for a, b, _ in maps:
        run, _ = images(a, b)
        atoms[end:end + run.size] = run
        end += run.size
    atoms = atoms[:end]
    atoms.sort()
    atoms = atoms[_firsts(atoms)]
    mass = np.zeros(atoms.size)
    for a, b, w in maps:
        run, first = images(a, b)
        # each image's probability, summed in the order of v, added to its atom
        mass[np.searchsorted(atoms, run)] += np.bincount(np.cumsum(first) - 1, weights=probs * w)
    live = mass > 0.0
    return atoms[live], mass[live]


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
    q_law: dict[float, float] = {}
    for q, _, w in pairs:
        q_law[q] = q_law.get(q, 0.0) + w
    # s (q + lam Z) is a + b Z with (a, b) = (s q / h, s lam) in units of the step h
    u_maps = [(s * q / step, s * lam, w) for q, s, w in pairs]
    x_maps = [(r * q / step, r * lam, w / 2.0) for q, w in q_law.items() for r in (1.0, -1.0)]
    x, p = np.zeros(1), np.ones(1)  # U_0 = 0
    for maps in [u_maps] * terms + [x_maps]:
        x, p = _step(x, p, maps, grid=True)
    cum = np.zeros(p.size + 1)
    np.cumsum(p, out=cum[1:])
    cum /= cum[-1]
    eps = lam ** (terms + 1) * q_max / (1.0 - lam) + (0.0 if lattice else step / (1.0 - lam))
    return Bracket(x * step, cum, eps, terms)


ENUMERATION_GUARD = 10_000_000  # maps times live atoms of one enumeration step


@dataclass(frozen=True)
class ExactDistribution:
    """Finite law as sorted atoms; probabilities sum to 1 within 1e-12."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.probs <= 0.0):
            raise InvalidInputError("atom probabilities must be positive")
        if abs(float(self.probs.sum()) - 1.0) > 1e-12:
            raise InvalidInputError("atom probabilities must sum to 1")
        if np.any(np.diff(self.values) < 0):
            raise InvalidInputError("atoms must be sorted")

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return list(zip(self.values.tolist(), self.probs.tolist()))

    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))

    def variance(self) -> float:
        mu = self.mean()
        return float(np.dot((self.values - mu) ** 2, self.probs))


def exact_laws(model: PairModel, checkpoints) -> dict[int, ExactDistribution]:
    """Exact law of R_n = Q_n + M_n R_{n-1}, R_0 = 0, at each n of
    ``checkpoints``, for a discrete_joint model: one run of steps over
    its (q, m, prob) atoms, each image the double q + (m r) that
    ``run_batch`` computes, so its samples lie on the atoms while R stays
    inside the double range.

    Raises TooLargeError before a step whose maps times live atoms exceed
    ``ENUMERATION_GUARD``, or after a step that leaves the double range
    (an atom at +/-inf, or NaN).
    """
    if not isinstance(model, DiscreteJoint):
        raise InvalidModelError("exact enumeration needs a DiscreteJoint model")
    if min(checkpoints) < 1:
        raise InvalidInputError("n must be >= 1")
    wanted, last = set(checkpoints), max(checkpoints)
    maps = [(q, m, p) for (q, m), p in model.atoms]
    values, probs = np.zeros(1), np.ones(1)  # R_0 = 0
    laws = {}
    for k in range(1, last + 1):
        if len(maps) * values.size > ENUMERATION_GUARD:
            raise TooLargeError(
                f"step {k} of {last} maps {values.size} live atoms by {len(maps)} (Q, M) atoms, "
                f"past the {ENUMERATION_GUARD} guard"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            values, probs = _step(values, probs, maps)
        if not np.isfinite(values).all():
            raise TooLargeError(f"step {k} of {last} leaves the double range")
        if k in wanted:
            laws[k] = ExactDistribution(values, probs)
    return laws


def enumerate_exact(model: PairModel, n: int) -> ExactDistribution:
    """Exact law of R_n (see ``exact_laws``)."""
    return exact_laws(model, [n])[n]


def exact_moments_recursion(model: PairModel, n: int) -> tuple[float, float]:
    """(E R_n, var R_n) via the moment recursion valid when M**2 = 1.

    m_k = EQ + EM m_{k-1};  s_k = EQ^2 + 2 E(QM) m_{k-1} + s_{k-1}.
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    mom = analytic_moments(model)
    if isinstance(model, DiscreteJoint):
        if not all(abs(abs(m) - 1.0) <= 1e-12 for (_, m), _ in model.atoms):
            raise DomainError("moment recursion requires |M| = 1 a.s.")
    elif not isinstance(model, SignedUnit):
        raise DomainError("moment recursion requires |M| = 1 a.s.")
    if not (-1.0 + 1e-12 < mom.mean_m < 1.0 - 1e-12):
        raise DomainError("moment recursion requires -1 < EM < 1")
    if not math.isfinite(mom.mean_q2):
        raise DomainError("moment recursion requires finite EQ^2")

    m_k = 0.0
    s_k = 0.0
    for _ in range(n):
        s_k = mom.mean_q2 + 2.0 * mom.mean_qm * m_k + s_k
        m_k = mom.mean_q + mom.mean_m * m_k
    return m_k, s_k - m_k * m_k


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
