"""Monte Carlo engine for R_n = Q_n + M_n R_{n-1}, plus exact small oracles.

Reproducibility contract
------------------------
Trajectory i of a batch owns a private counter-based random stream:
its Philox key is ``splitmix64(master_seed + (i + 1) * GOLDEN)`` where
GOLDEN = 0x9E3779B97F4A7C15 and splitmix64 is the usual finalizer (the
key with index offset 0 is reserved for reference samplers). Each
recursion step consumes exactly two uniforms from that stream, first
for Q then for M, and every uniform is shifted by 2**-54 into the open
interval (0, 1) before transformation. Batches are processed in fixed
blocks of ``BLOCK`` trajectories regardless of worker count, so output
is bit-identical for any ``workers`` setting; results are gathered in
trajectory order.

The per-trajectory recursion runs entirely in scaled arithmetic, one
``vec_*`` operation per step for a whole block of trajectories. With
``track_w`` it also keeps W_n = ln max_k Q_k prod_{j<k} M_j, a Case III
diagnostic, in native floats. The tests replay single trajectories from
their own streams in exact rational and mpmath arithmetic and compare
them with ``run_batch``.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import (
    DomainError,
    ExponentOverflowError,
    InvalidArgumentsError,
    InvalidInputError,
    InvalidModelError,
    TooLargeError,
)
from .models import DiscreteJoint, PairModel, SignedUnit, analytic_moments
from .scaled import (
    EXPONENT_LIMIT,
    ScaledVector,
    vec_add,
    vec_log_abs,
    vec_mul,
    vec_to_real,
)

__all__ = [
    "BLOCK",
    "CHUNK",
    "ENUMERATION_GUARD",
    "BatchResult",
    "ExactDistribution",
    "trajectory_seed",
    "reference_seed",
    "run_batch",
    "enumerate_exact",
    "exact_moments_recursion",
]

BLOCK = 2048  # trajectories per work unit; fixed so output ignores worker count
CHUNK = 256  # recursion steps drawn per stream refill (sized for cache)

ENUMERATION_GUARD = 10_000_000

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_U_SHIFT = 2.0**-54


def _splitmix64(z: int) -> int:
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def trajectory_seed(master_seed: int, index: int) -> int:
    """Stream key for trajectory ``index`` under ``master_seed``."""
    return _splitmix64(master_seed + (index + 1) * _GOLDEN)


def reference_seed(master_seed: int) -> int:
    """Stream key reserved for limit-law reference samplers."""
    return _splitmix64(master_seed)


class BatchResult:
    """Per-checkpoint sample sets from ``run_batch``, as ScaledVectors."""

    def __init__(
        self,
        checkpoints: tuple[int, ...],
        count: int,
        master_seed: int,
        vectors: dict[int, ScaledVector],
        w_logs: dict[int, np.ndarray] | None,
    ) -> None:
        self.checkpoints = checkpoints
        self.count = count
        self.master_seed = master_seed
        self._vectors = vectors
        self._w_logs = w_logs

    def vectors(self, n: int) -> ScaledVector:
        return self._vectors[n]

    def to_reals(self, n: int) -> np.ndarray:
        return vec_to_real(self._vectors[n])

    def w_log(self, n: int) -> np.ndarray | None:
        if self._w_logs is None:
            return None
        return self._w_logs[n]


def _validate_checkpoints(checkpoints) -> tuple[int, ...]:
    cps = tuple(int(n) for n in checkpoints)
    if not cps:
        raise InvalidInputError("checkpoints must be nonempty")
    if any(n < 1 for n in cps):
        raise InvalidInputError("checkpoints must be >= 1")
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise InvalidInputError("checkpoints must be strictly increasing")
    return cps


def _require_positive_for_w(model: PairModel) -> None:
    if not model.positive:
        raise InvalidArgumentsError(
            "w_log tracking needs Q > 0 and M > 0 almost surely"
        )


def _run_block(
    model: PairModel,
    cps: tuple[int, ...],
    lo: int,
    hi: int,
    master_seed: int,
    track_w: bool,
):
    """Vectorized kernel for trajectories [lo, hi); returns snapshots."""
    B = hi - lo
    gens = [
        Generator(Philox(key=trajectory_seed(master_seed, i)))
        for i in range(lo, hi)
    ]
    r = ScaledVector(
        np.zeros(B, np.int8), np.zeros(B, np.int64), np.ones(B)
    )
    w = np.full(B, -np.inf)
    logprod = np.zeros(B)
    cps_set = set(cps)
    n_max = cps[-1]
    snaps: dict[int, ScaledVector] = {}
    w_snaps: dict[int, np.ndarray] = {}
    u_buf = np.empty((B, CHUNK, 2))

    t = 0
    while t < n_max:
        c = min(CHUNK, n_max - t)
        for j, g in enumerate(gens):
            u_buf[j, :c] = g.random((c, 2))
        u_q = np.ascontiguousarray(u_buf[:, :c, 0].T) + _U_SHIFT
        u_m = np.ascontiguousarray(u_buf[:, :c, 1].T) + _U_SHIFT
        qv, mv = model.scaled_draws(u_q, u_m)  # arrays shaped (c, B)
        if track_w:
            ql = vec_log_abs(qv)
            ml = vec_log_abs(mv)
        for j in range(c):
            q_j = ScaledVector(qv.sign[j], qv.exponent[j], qv.mantissa[j])
            m_j = ScaledVector(mv.sign[j], mv.exponent[j], mv.mantissa[j])
            r = vec_add(q_j, vec_mul(m_j, r))
            if track_w:
                np.maximum(w, ql[j] + logprod, out=w)
                logprod += ml[j]
            t += 1
            if t in cps_set:
                bad = np.abs(r.exponent) > EXPONENT_LIMIT
                if np.any(bad):
                    k = int(np.argmax(bad))
                    raise ExponentOverflowError(
                        f"trajectory {lo + k}: exponent "
                        f"{int(r.exponent[k])} beyond +/-2**62 at n={t}"
                    )
                snaps[t] = ScaledVector(
                    r.sign.copy(), r.exponent.copy(), r.mantissa.copy()
                )
                if track_w:
                    w_snaps[t] = w.copy()
    return snaps, (w_snaps if track_w else None)


def run_batch(
    model: PairModel,
    checkpoints,
    count: int,
    master_seed: int,
    workers: int = 1,
    track_w: bool = False,
) -> BatchResult:
    """N independent trajectories; output independent of worker count."""
    cps = _validate_checkpoints(checkpoints)
    if count < 1:
        raise InvalidInputError("count must be >= 1")
    if track_w:
        _require_positive_for_w(model)

    blocks = [(lo, min(lo + BLOCK, count)) for lo in range(0, count, BLOCK)]
    args = [(model, cps, lo, hi, master_seed, track_w) for lo, hi in blocks]
    if workers <= 1 or len(blocks) == 1:
        results = [_run_block(*a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_block, *a) for a in args]
            results = [f.result() for f in futures]

    vectors: dict[int, ScaledVector] = {}
    w_logs: dict[int, np.ndarray] | None = {} if track_w else None
    for n in cps:
        vectors[n] = ScaledVector(
            np.concatenate([snaps[n].sign for snaps, _ in results]),
            np.concatenate([snaps[n].exponent for snaps, _ in results]),
            np.concatenate([snaps[n].mantissa for snaps, _ in results]),
        )
        if track_w:
            w_logs[n] = np.concatenate([ws[n] for _, ws in results])
    return BatchResult(cps, count, master_seed, vectors, w_logs)


# ---------------------------------------------------------------------------
# Exact oracles for small discrete models
# ---------------------------------------------------------------------------

_MERGE_TOL = 1e-12


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

    def cdf(self, x):
        cum = np.cumsum(self.probs)
        idx = np.searchsorted(self.values, np.asarray(x, dtype=float), side="right")
        out = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
        return float(out) if np.isscalar(x) or np.asarray(x).ndim == 0 else out

    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))

    def variance(self) -> float:
        mu = self.mean()
        return float(np.dot((self.values - mu) ** 2, self.probs))


def _merge_atoms(vals: np.ndarray, probs: np.ndarray):
    order = np.argsort(vals, kind="stable")
    v = vals[order]
    p = probs[order]
    starts = np.empty(len(v), dtype=bool)
    starts[0] = True
    np.greater(np.diff(v), _MERGE_TOL, out=starts[1:])
    idx = np.flatnonzero(starts)
    psum = np.add.reduceat(p, idx)
    vmean = np.add.reduceat(v * p, idx) / psum
    return vmean, psum


def enumerate_exact(model: PairModel, n: int) -> ExactDistribution:
    """Exact law of R_n by full path enumeration (DP over merged atoms).

    Guarded at s**n <= 10**7 paths for s atoms; nearby float path sums
    are merged within 1e-12 spacing.
    """
    if not isinstance(model, DiscreteJoint):
        raise InvalidModelError("exact enumeration needs a DiscreteJoint model")
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    s = len(model.atoms)
    if s**n > ENUMERATION_GUARD:
        raise TooLargeError(
            f"{s}**{n} paths exceed the {ENUMERATION_GUARD} state guard"
        )
    qs = np.array([q for (q, _), _ in model.atoms])
    ms = np.array([m for (_, m), _ in model.atoms])
    ps = np.array([p for _, p in model.atoms])
    keep = ps > 0.0
    qs, ms, ps = qs[keep], ms[keep], ps[keep]

    vals = np.array([0.0])
    probs = np.array([1.0])
    for _ in range(n):
        vals = (qs[:, None] + ms[:, None] * vals[None, :]).ravel()
        probs = (ps[:, None] * probs[None, :]).ravel()
        vals, probs = _merge_atoms(vals, probs)
    return ExactDistribution(vals, probs)


def exact_moments_recursion(model: PairModel, n: int) -> tuple[float, float]:
    """(E R_n, var R_n) via the moment recursion valid when M**2 = 1.

    m_k = EQ + EM m_{k-1};  s_k = EQ^2 + 2 E(QM) m_{k-1} + s_{k-1}.
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    mom = analytic_moments(model)
    if isinstance(model, DiscreteJoint):
        unit = all(
            abs(abs(m) - 1.0) <= 1e-12 for (_, m), p in model.atoms if p > 0
        )
        if not unit:
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
