"""Joint (Q, M) distribution families, analytic moments, regime classification.

The recursion R_n = Q_n + M_n R_{n-1} behaves in one of four ways according
to mu = E ln|M| and the shape of |M|:

* Case I    mu > 0 with |M| a.s. constant (= rho > 1, random sign),
* Case II   mu > 0 with |M| genuinely random,
* Case III  mu = 0, E|M| > 1, M > 0 a.s.,
* Case IV   mu = 0, E|M| = 1 (forces M in {-1, +1}),

plus the convergent regime mu < 0, which carries no renormalization
machinery here. Families are a closed enumeration rather than arbitrary
user distributions: classification needs exact moments and declared tail
behavior, and estimating those from samples would risk silent
misclassification. The starting point is always R_0 = 0.

Every family draws one (q, m) pair from exactly two uniforms (first
feeds Q, second feeds M; jointly-atomic families use the first and
discard the second). Fixed consumption is what makes trajectory streams
reproducible and chunkable. ``scaled_draws`` returns the pairs of a slab
of steps as ``Draws``: each variable as its family made it, the logs Y of
Q = e^Y or the exact values, and for a positive law the logs of both.
The draws are written over the uniforms they are made from (a caller that
keeps its uniforms passes a copy), so the engine draws into its own
buffers; ``reads`` names the uniforms a family reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Union

import numpy as np

from .errors import (
    DomainError,
    InvalidModelError,
    UnsupportedError,
)
from .scaled import ScaledVector, vec_from_log, vec_from_real

__all__ = [
    "QConstant",
    "QRademacher",
    "QLogNormal",
    "QLogPareto",
    "QLogBoundary",
    "QLaw",
    "DiscreteJoint",
    "ScaledRademacher",
    "LogNormalPair",
    "SignedUnit",
    "PairModel",
    "Moments",
    "RegimeReport",
    "analytic_moments",
    "classify",
    "tail_quantile",
    "beta_squared",
    "sign_gap",
]

_ATOL = 1e-12  # tolerance for exact-moment comparisons (mu == 0, E|M| == 1)
_SQRT_E = math.sqrt(math.e)


def _ndtri(u: np.ndarray, out=None) -> np.ndarray:
    """scipy's normal quantile, imported at the first call: only the
    lognormal families draw with it, so building, checking or classifying
    a law never loads scipy, nor does a run that draws no normal.
    ``run_batch`` draws once before it starts a pool, so that its forked
    workers inherit the import."""
    from scipy.special import ndtri

    return ndtri(u, out=out)


def _validate_prob(p: float, name: str) -> None:
    if not (0.0 < p < 1.0):
        raise InvalidModelError(f"{name} must lie strictly in (0, 1), got {p}")


def _signs(u: np.ndarray, p: float, value: float) -> Drawn:
    """value where u < p, else -value (value > 0), as exact doubles, over u.

    -copysign(value, u - p): u - p is below 0 exactly when u < p, and
    +0.0 when u = p.
    """
    s = np.subtract(u, p, out=u)
    np.copysign(value, s, out=s)
    return Drawn(np.negative(s, out=s), "real")


class Drawn(NamedTuple):
    """One variable's draws over a slab of steps, as its family made them.

    ``kind`` "log": ``data`` holds the logs Y of the draws e^Y; "real": the
    draws themselves, exact doubles; "scaled": a ScaledVector (the engine's
    own, for the steps it takes in scaled arithmetic). A law that draws the
    same value at every step gives it broadcast, its rows of stride 0.
    ``scaled`` makes the ScaledVectors, of the given columns only, by the
    functions of ``perpsim.scaled`` that the engine's native form is made
    by too.
    """

    data: object
    kind: str

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.data.mantissa if self.kind == "scaled" else self.data).shape

    def scaled(self, cols=None) -> ScaledVector:
        data = self.data
        if self.kind == "scaled":
            return data if cols is None else ScaledVector(data.mantissa[:, cols], data.exponent[:, cols])
        if cols is not None:
            data = data[:, cols]
        return (vec_from_log if self.kind == "log" else vec_from_real)(data)


class Draws:
    """The (q, m) draws of a slab of steps.

    ``q`` and ``m`` are the ``Drawn`` the family made. ``logs`` is (ln Q,
    ln M) as the family computed them on the way; None for a law that can
    draw Q <= 0 or M <= 0. The engine builds W's max term from them, and
    asks for them (``scaled_draws(..., logs=True)``) only when it tracks W:
    a family whose logs take arrays of their own makes them only then.
    """

    def __init__(self, q: Drawn, m: Drawn, logs=None) -> None:
        self.q, self.m, self.logs = q, m, logs


class _QLaw:
    """Q marginal: ``draw`` gives the draws of a slab of uniforms, written
    over them, and, for Q > 0, their logs."""

    reads = True  # the draws read their uniforms


class _LogLaw(_QLaw):
    """Q = e^Y for a law of Y: draws made from the logs Y."""

    positive = True

    def draw(self, u: np.ndarray):
        y = self.logs(u)
        return Drawn(y, "log"), y


# ---------------------------------------------------------------------------
# Q marginals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QConstant(_QLaw):
    """Q identically equal to ``value``."""

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise InvalidModelError("constant Q must be finite")

    reads = False

    def draw(self, u: np.ndarray):
        """The value and ln Q, broadcast to the shape of u; no log for a
        constant <= 0."""
        logs = np.broadcast_to(math.log(self.value), u.shape) if self.positive else None
        return Drawn(np.broadcast_to(self.value, u.shape), "real"), logs

    def moments(self) -> tuple[float, float]:
        return self.value, self.value * self.value

    @property
    def positive(self) -> bool:
        return self.value > 0.0


@dataclass(frozen=True)
class QRademacher(_QLaw):
    """Q = +1 with probability p, else -1."""

    p: float

    def __post_init__(self) -> None:
        _validate_prob(self.p, "Rademacher p")

    def draw(self, u: np.ndarray):
        return _signs(u, self.p, 1.0), None

    def moments(self) -> tuple[float, float]:
        return 2.0 * self.p - 1.0, 1.0

    positive = False


@dataclass(frozen=True)
class QLogNormal(_LogLaw):
    """Q = e^Y with Y ~ Normal(mean, var)."""

    mean: float
    var: float

    def __post_init__(self) -> None:
        if not (self.var > 0.0) or not math.isfinite(self.var):
            raise InvalidModelError("lognormal Q needs var > 0")
        if not math.isfinite(self.mean):
            raise InvalidModelError("lognormal Q mean must be finite")

    def logs(self, u: np.ndarray) -> np.ndarray:
        """mean + sqrt(var) ndtri(u), over u."""
        y = _ndtri(u, out=u)
        y *= math.sqrt(self.var)
        y += self.mean
        return y

    def moments(self) -> tuple[float, float]:
        return (
            math.exp(self.mean + 0.5 * self.var),
            math.exp(2.0 * self.mean + 2.0 * self.var),
        )


@dataclass(frozen=True)
class QLogPareto(_LogLaw):
    """Q = e^Y with Pareto tail P(Y > t) = (t/t0)**alpha for t >= t0.

    For alpha in (-2, 0), EY^2 is infinite and the running-maximum term
    dominates the recursion (the extreme-value sub-case of Case III).
    alpha = -2 exactly is constructible (its tail quantiles are well
    defined) but classifies as UNSUPPORTED: with a constant
    slowly-varying factor neither normalization is known to apply; use
    QLogBoundary to declare a growing or vanishing factor instead.
    """

    alpha: float
    t0: float

    def __post_init__(self) -> None:
        if not (-2.0 <= self.alpha < 0.0):
            raise InvalidModelError(
                f"Pareto tail index must lie in [-2, 0), got {self.alpha}"
            )
        if not (self.t0 > 0.0) or not math.isfinite(self.t0):
            raise InvalidModelError("Pareto scale t0 must be positive")

    def logs(self, u: np.ndarray) -> np.ndarray:
        # inverse tail: P(Y > t) = (t/t0)^alpha  =>  Y = t0 * u^(1/alpha),
        # over u
        y = np.power(u, 1.0 / self.alpha, out=u)
        y *= self.t0
        return y

    def moments(self) -> tuple[float, float]:
        return math.inf, math.inf

    def tail(self, t: np.ndarray | float):
        return (np.asarray(t, dtype=float) / self.t0) ** self.alpha

    def tail_quantile(self, n: int) -> float:
        return self.t0 * n ** (-1.0 / self.alpha)


@dataclass(frozen=True)
class QLogBoundary(_LogLaw):
    """Q = e^Y with tail t**-2 * ell(t) at the alpha = -2 boundary.

    ell is declared, not estimated: "growing" means ell(t) = ln t (the
    extreme-value normalization still applies), "vanishing" means
    ell(t) = 1/ln t (the random-walk normalization takes over). The
    undeclarable ell ~ const case has no implemented limit and is
    rejected at classification.
    """

    ell: str
    t0: float

    def __post_init__(self) -> None:
        if self.ell not in ("growing", "vanishing"):
            raise InvalidModelError("ell must be 'growing' or 'vanishing'")
        if not math.isfinite(self.t0):
            raise InvalidModelError("t0 must be finite")
        if self.ell == "growing" and self.t0 < _SQRT_E:
            # ln(t)/t^2 only decreases past sqrt(e)
            raise InvalidModelError("growing boundary tail needs t0 >= sqrt(e)")
        if self.ell == "vanishing" and self.t0 * self.t0 * math.log(self.t0) < 1.0:
            raise InvalidModelError(
                "vanishing boundary tail needs t0^2 ln(t0) >= 1"
            )

    def tail(self, t: np.ndarray | float):
        t = np.asarray(t, dtype=float)
        if self.ell == "growing":
            return np.log(t) / (t * t)
        return 1.0 / (t * t * np.log(t))

    def _invert_tail(self, u: np.ndarray) -> np.ndarray:
        """Leftmost t >= t0 with tail(t) <= u, by vectorized bisection."""
        u = np.asarray(u, dtype=float)
        lo = np.full(u.shape, self.t0)
        hi = np.full(u.shape, 2.0 * self.t0)
        while True:
            open_ = self.tail(hi) > u
            if not np.any(open_):
                break
            hi = np.where(open_, hi * 2.0, hi)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            above = self.tail(mid) > u
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        return 0.5 * (lo + hi)

    def logs(self, u: np.ndarray) -> np.ndarray:
        """The logs, written over u."""
        h0 = float(self.tail(self.t0))
        interior = u < h0
        tails = self._invert_tail(u[interior]) if np.any(interior) else 0.0
        u[...] = self.t0
        u[interior] = tails
        return u

    def moments(self) -> tuple[float, float]:
        return math.inf, math.inf


QLaw = Union[QConstant, QRademacher, QLogNormal, QLogPareto, QLogBoundary]

_FINITE_VAR_QLAWS = (QConstant, QRademacher, QLogNormal)


# ---------------------------------------------------------------------------
# Joint (Q, M) families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteJoint:
    """Finite list of ((q, m), probability) atoms; dependence allowed.

    Atoms of probability 0 are dropped at construction, so every reader
    of ``atoms`` sees the law's support.
    """

    atoms: tuple[tuple[tuple[float, float], float], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise InvalidModelError("DiscreteJoint needs at least one atom")
        atoms = tuple(((float(q), float(m)), float(p)) for (q, m), p in self.atoms)
        total = math.fsum(p for _, p in atoms)
        if any(p < 0.0 or p > 1.0 for _, p in atoms):
            raise InvalidModelError("atom probabilities must lie in [0, 1]")
        if abs(total - 1.0) > 1e-9:
            raise InvalidModelError(f"atom probabilities sum to {total}, not 1")
        object.__setattr__(self, "atoms", tuple(a for a in atoms if a[1] > 0.0))

    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        qs = np.array([q for (q, _), _ in self.atoms])
        ms = np.array([m for (_, m), _ in self.atoms])
        cum = np.cumsum([p for _, p in self.atoms])
        cum[-1] = 1.0
        return qs, ms, cum

    reads = (True, False)

    def scaled_draws(self, u_q: np.ndarray, u_m: np.ndarray, logs: bool = False):
        # joint atom chosen by the Q-slot uniform; the M-slot one is unused,
        # and takes the M values. The logs are two fresh (k, B) arrays
        qs, ms, cum = self._tables()
        q, m = u_q, u_m
        tables = [(qs, q), (ms, m)]
        ln = None
        if logs and self.positive:
            ln = (np.empty(q.shape), np.empty(q.shape))
            tables += [(np.log(qs), ln[0]), (np.log(ms), ln[1])]
        # a row at a time, so the atom indices take O(B) memory
        width = q.shape[-1]
        for j, row in enumerate(q.reshape(-1, width)):
            idx = np.searchsorted(cum, row, side="right")
            for table, out in tables:
                np.take(table, idx, out=out.reshape(-1, width)[j], mode="clip")
        return Draws(Drawn(q, "real"), Drawn(m, "real"), ln)

    @property
    def positive(self) -> bool:
        return all(q > 0.0 and m > 0.0 for (q, m), _ in self.atoms)


class _IndependentQ:
    """A family whose Q, of law ``q_law``, is independent of M."""

    @property
    def reads(self) -> tuple[bool, bool]:
        """Whether the draws read the Q and the M uniform of a step."""
        return self.q_law.reads, True


@dataclass(frozen=True)
class ScaledRademacher(_IndependentQ):
    """M = rho * eps with rho > 1 and P(eps = +1) = p; Q independent."""

    rho: float
    p: float
    q_law: QLaw

    def __post_init__(self) -> None:
        if not (self.rho > 1.0) or not math.isfinite(self.rho):
            raise InvalidModelError(f"rho must exceed 1, got {self.rho}")
        _validate_prob(self.p, "sign probability p")
        if not isinstance(self.q_law, (QConstant, QRademacher)):
            raise InvalidModelError(
                "ScaledRademacher supports Q constant or Rademacher"
            )

    def scaled_draws(self, u_q: np.ndarray, u_m: np.ndarray):
        q, _ = self.q_law.draw(u_q)
        return Draws(q, _signs(u_m, self.p, self.rho))

    positive = False


@dataclass(frozen=True)
class LogNormalPair(_IndependentQ):
    """M = e^X with X ~ Normal(mu_x, v2); Q independent of M."""

    mu_x: float
    v2: float
    q_law: QLaw

    def __post_init__(self) -> None:
        if not (self.v2 > 0.0) or not math.isfinite(self.v2):
            raise InvalidModelError("v2 must be positive (M non-constant)")
        if not math.isfinite(self.mu_x):
            raise InvalidModelError("mu_x must be finite")
        if isinstance(self.q_law, QRademacher):
            raise InvalidModelError(
                "LogNormalPair takes a positive or constant Q family"
            )

    def scaled_draws(self, u_q: np.ndarray, u_m: np.ndarray, logs: bool = False):
        # the logs are views of the draws, so they come whether asked or not
        x = _ndtri(u_m, out=u_m)
        x *= math.sqrt(self.v2)
        x += self.mu_x
        q, y = self.q_law.draw(u_q)
        return Draws(q, Drawn(x, "log"), None if y is None else (y, x))

    @property
    def positive(self) -> bool:
        return self.q_law.positive


@dataclass(frozen=True)
class SignedUnit(_IndependentQ):
    """M in {-1, +1} with P(M = +1) = p_m; Q independent, finite variance."""

    p_m: float
    q_law: QLaw

    def __post_init__(self) -> None:
        _validate_prob(self.p_m, "p_m")
        if not isinstance(self.q_law, _FINITE_VAR_QLAWS):
            raise InvalidModelError("SignedUnit requires a finite-variance Q")

    def scaled_draws(self, u_q: np.ndarray, u_m: np.ndarray):
        q, _ = self.q_law.draw(u_q)
        return Draws(q, _signs(u_m, self.p_m, 1.0))

    positive = False


PairModel = Union[DiscreteJoint, ScaledRademacher, LogNormalPair, SignedUnit]


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Moments:
    """Exact moments of (Q, M): mu = E ln|M|, v2 = var(ln|M|), etc."""

    mu: float
    v2: float
    abs_mean_m: float
    mean_m: float
    mean_q: float
    mean_q2: float
    mean_qm: float


def analytic_moments(model: PairModel) -> Moments:
    """Closed-form moments for every supported family."""
    if isinstance(model, DiscreteJoint):
        probs = [p for _, p in model.atoms]
        qs = [q for (q, _), _ in model.atoms]
        ms = [m for (_, m), _ in model.atoms]
        logs = [math.log(abs(m)) if m != 0.0 else -math.inf for m in ms]
        mu = math.fsum(p * lg for p, lg in zip(probs, logs))
        if math.isfinite(mu):
            v2 = math.fsum(p * (lg - mu) ** 2 for p, lg in zip(probs, logs))
        else:
            v2 = math.inf
        return Moments(
            mu=mu,
            v2=v2,
            abs_mean_m=math.fsum(p * abs(m) for p, m in zip(probs, ms)),
            mean_m=math.fsum(p * m for p, m in zip(probs, ms)),
            mean_q=math.fsum(p * q for p, q in zip(probs, qs)),
            mean_q2=math.fsum(p * q * q for p, q in zip(probs, qs)),
            mean_qm=math.fsum(p * q * m for p, q, m in zip(probs, qs, ms)),
        )
    # (mu, v2, E|M|, EM) of each parametric family; Q is independent of M
    if isinstance(model, ScaledRademacher):
        m_moments = (math.log(model.rho), 0.0, model.rho, model.rho * (2.0 * model.p - 1.0))
    elif isinstance(model, LogNormalPair):
        mean_m = math.exp(model.mu_x + 0.5 * model.v2)
        m_moments = (model.mu_x, model.v2, mean_m, mean_m)
    elif isinstance(model, SignedUnit):
        m_moments = (0.0, 0.0, 1.0, 2.0 * model.p_m - 1.0)
    else:
        raise InvalidModelError(f"unknown model family {type(model).__name__}")
    mu, v2, abs_mean_m, mean_m = m_moments
    mean_q, mean_q2 = model.q_law.moments()
    return Moments(mu, v2, abs_mean_m, mean_m, mean_q, mean_q2, mean_q * mean_m)


# ---------------------------------------------------------------------------
# Regime classification
# ---------------------------------------------------------------------------

_NORMALIZATIONS = {
    "I-sym": "r / rho^(n-1)",
    "I-asym": "r / rho^(n-1)",
    "II-abs": "|r|^(1/(v sqrt n)) / exp(mu sqrt n / v)",
    "II-signed": "sgn(r) |r|^(1/(v sqrt n)) / exp(mu sqrt n / v)",
    "III-clt": "|r|^(1/(v sqrt n))",
    "III-boundary-vanishing": "|r|^(1/(v sqrt n))",
    "III-evt": "|r|^(1/gamma_n)",
    "III-boundary-growing": "|r|^(1/gamma_n)",
    "IV": "r / sqrt n",
    "CONVERGENT": "none",
    "UNSUPPORTED": "none",
}


@dataclass(frozen=True)
class RegimeReport:
    """Classification outcome plus the parameters the pipeline needs."""

    case: str
    normalization: str
    limit: str
    mu: float
    v: float
    rho: float | None = None
    lam: float | None = None
    p: float | None = None
    beta2: float | None = None
    alpha: float | None = None
    note: str = ""


def _sign_mix(model: PairModel) -> tuple[bool, bool]:
    """(P(M > 0) > 0, P(M < 0) > 0)."""
    if isinstance(model, DiscreteJoint):
        ms = [m for (_, m), _ in model.atoms]
        return any(m > 0 for m in ms), any(m < 0 for m in ms)
    if isinstance(model, (ScaledRademacher, SignedUnit)):
        return True, True
    if isinstance(model, LogNormalPair):
        return True, False
    raise InvalidModelError(f"unknown model family {type(model).__name__}")


def _m_constant(model: PairModel) -> bool:
    if isinstance(model, DiscreteJoint):
        return len({m for (_, m), _ in model.atoms}) == 1
    return False  # other families force a non-degenerate M at construction


def _abs_m_constant(model: PairModel) -> float | None:
    """rho when |M| is a.s. constant, else None."""
    if isinstance(model, ScaledRademacher):
        return model.rho
    if isinstance(model, SignedUnit):
        return 1.0
    if isinstance(model, DiscreteJoint):
        mags = {abs(m) for (_, m), _ in model.atoms}
        lo, hi = min(mags), max(mags)
        if hi - lo <= _ATOL * max(1.0, hi):
            return 0.5 * (lo + hi)
        return None
    return None


def _q_positive(model: PairModel) -> bool:
    if isinstance(model, DiscreteJoint):
        return all(q > 0 for (q, _), _ in model.atoms)
    return model.q_law.positive


def _report(case: str, model: PairModel, mu: float, v: float, **params) -> RegimeReport:
    """The report of ``case``: its normalization, and the label of the law
    ``limits.limit_for`` gives it ("none" when there is none)."""
    report = RegimeReport(case, _NORMALIZATIONS[case], "none", mu, v, **params)
    if case in ("CONVERGENT", "UNSUPPORTED"):
        return report
    from .limits import label, limit_for  # limits imports this module

    return replace(report, limit=label(limit_for(report, model)))


def classify(moments: Moments, model: PairModel) -> RegimeReport:
    """Map exact moments to the applicable case, sub-case and limit."""
    if _m_constant(model):
        raise InvalidModelError(
            "M is a.s. constant; the recursion reduces to scaled i.i.d. sums "
            "and none of the renormalizations here apply"
        )
    mu, v2 = moments.mu, moments.v2
    v = math.sqrt(v2) if v2 > 0 else 0.0

    if mu < -_ATOL:
        return _report(
            "CONVERGENT",
            model,
            mu,
            v,
            note="E ln|M| < 0: R_n converges in law; no renormalization needed",
        )

    if mu > _ATOL:
        rho = _abs_m_constant(model)
        if rho is not None:
            # Case I: |M| constant, sign random
            if isinstance(model, ScaledRademacher):
                p = model.p
            else:
                p = math.fsum(pr for (_, m), pr in model.atoms if m > 0)
            case = "I-sym" if abs(p - 0.5) <= _ATOL else "I-asym"
            return _report(case, model, mu, 0.0, rho=rho, lam=1.0 / rho, p=p)
        # Case II: |M| random
        has_pos, has_neg = _sign_mix(model)
        return _report("II-signed" if (has_pos and has_neg) else "II-abs", model, mu, v)

    # mu == 0 from here on
    if moments.abs_mean_m <= 1.0 + _ATOL:
        rho = _abs_m_constant(model)
        if rho is None or abs(rho - 1.0) > _ATOL:
            raise InvalidModelError(
                "E ln|M| = 0 with E|M| = 1 requires |M| = 1 a.s."
            )
        return _report("IV", model, 0.0, 0.0, rho=1.0, beta2=beta_squared(moments))

    _, has_neg = _sign_mix(model)
    if has_neg:
        return _report(
            "UNSUPPORTED",
            model,
            0.0,
            v,
            note=(
                "E ln|M| = 0 with E|M| > 1 and sign-mixing M has no known "
                "limit law; not supported"
            ),
        )
    if not _q_positive(model):
        return _report(
            "UNSUPPORTED",
            model,
            0.0,
            v,
            note=(
                "the E ln|M| = 0, E|M| > 1 normalizations require Q > 0 "
                "(Q = e^Y); not supported for this Q"
            ),
        )

    # Case III: positive (Q, M) = (e^Y, e^X) with EX = 0; sub-case by Y tail.
    # A DiscreteJoint has bounded Y, so EY^2 < infinity.
    q_law = model.q_law if isinstance(model, LogNormalPair) else None
    if isinstance(q_law, QLogPareto):
        if q_law.alpha == -2.0:
            return _report(
                "UNSUPPORTED",
                model,
                0.0,
                v,
                note=(
                    "tail index -2 with a constant slowly-varying factor "
                    "has no known limit; declare ell growing or vanishing "
                    "via the log_boundary family"
                ),
            )
        return _report("III-evt", model, 0.0, v, alpha=q_law.alpha)
    if isinstance(q_law, QLogBoundary):
        return _report(f"III-boundary-{q_law.ell}", model, 0.0, v, alpha=-2.0)
    return _report("III-clt", model, 0.0, v)


# ---------------------------------------------------------------------------
# Tail quantiles, the Case IV variance constant, sign-product gap
# ---------------------------------------------------------------------------


def tail_quantile(model: PairModel, n: int) -> float:
    """gamma_n = inf{t : P(Y > t) <= 1/n} for the declared Q tail.

    Closed form for the Pareto family; for the boundary families, the
    same bracketing bisection that draws Q (64 halvings of the bracket).
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    q_law = getattr(model, "q_law", None)
    if isinstance(q_law, QLogPareto):
        return q_law.tail_quantile(n)
    if isinstance(q_law, QLogBoundary):
        if float(q_law.tail(q_law.t0)) <= 1.0 / n:
            return q_law.t0
        return float(q_law._invert_tail(1.0 / n))
    raise UnsupportedError(
        f"{type(model).__name__} declares no tail function for Q"
    )


def beta_squared(moments: Moments) -> float:
    """CLT variance EQ^2 + 2 EQ E(QM) / (1 - EM) for the |M| = 1 regime."""
    if abs(moments.abs_mean_m - 1.0) > _ATOL:
        raise DomainError("beta_squared requires E|M| = 1 (|M| = 1 a.s.)")
    if abs(1.0 - moments.mean_m) <= _ATOL:
        raise DomainError("beta_squared undefined at EM = 1")
    if not math.isfinite(moments.mean_q2):
        raise DomainError("beta_squared requires finite EQ^2")
    value = moments.mean_q2 + 2.0 * moments.mean_q * moments.mean_qm / (
        1.0 - moments.mean_m
    )
    if value < -1e-9:
        raise DomainError(f"inconsistent moments: beta^2 = {value} < 0")
    return max(value, 0.0)


def sign_gap(p: float, n: int) -> float:
    """P(prod eps_j = +1) - P(prod eps_j = -1) = (2p - 1)**n, exactly."""
    return (2.0 * p - 1.0) ** n
