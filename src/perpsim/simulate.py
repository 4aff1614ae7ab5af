"""Monte Carlo engine for R_n = Q_n + M_n R_{n-1}, plus exact small oracles.

Reproducibility contract
------------------------
Trajectory i of a batch owns a private counter-based random stream:
its Philox key is ``splitmix64(master_seed + (i + 1) * GOLDEN)`` where
GOLDEN = 0x9E3779B97F4A7C15 and splitmix64 is the usual finalizer (the
key with index offset 0 is reserved for reference samplers). Each
recursion step consumes exactly two 64-bit words from that stream, first
for Q then for M, and a word w becomes the uniform
``min((w >> 11) * 2**-53 + 2**-54, 1 - 2**-53)``: ``Generator.random()``
shifted by 2**-54 into the open interval (0, 1). Only the top value of
w >> 11 meets the clamp; its tie would round to 1.0. Philox is
counter-based, so a block keeps one ``Philox`` and re-keys it through its
``state`` for each trajectory and stream refill: after t steps (2t words,
t even) a trajectory's stream sits at counter t/2 with an empty buffer.
The fill reads the raw words of ``TILE`` trajectories at a time and
converts and transposes them to step-major order while they are still in
cache. Batches are processed in fixed blocks of ``BLOCK`` trajectories
regardless of worker count, so output is bit-identical for any
``workers`` setting; results are gathered in trajectory order.

The recursion runs in native doubles for a whole block of trajectories
at once. Each trajectory keeps R = r * 2**E, a float64 r and an int64
exponent E: one step is ``r *= m; r += q * 2**-E``, and |r| is brought
back to [1, 2) every ``RENORM`` steps and at every checkpoint, where
(r, E) is the snapshot, a ``ScaledVector``. A screen after each such
sub-block finds every step whose native result may differ from the
scaled arithmetic of ``perpsim.scaled`` (a state near the ends of double
range, an extreme M, a Q lost to underflow), and only those trajectories
redo those steps with ``vec_add``/``vec_mul``. So every snapshot is
bit-identical to the scaled recursion
``R = vec_add(q, vec_mul(m, R))`` run one step at a time. With
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
# Generator is unused here but stays a module name: perfbench/tracing.py
# wraps both names to count stream setup
from numpy.random import Generator, Philox  # noqa: F401

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
    vec_from_real,
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
# recursion steps per stream refill (sized for cache); even, so that a refill
# ends on a whole Philox counter value
CHUNK = 256
TILE = 128  # trajectories whose uniforms are transposed together (sized for cache)

ENUMERATION_GUARD = 10_000_000

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

RENORM = 32  # native recursion steps between renormalizations

# Native steps stay exact while states lie in 2**+-900 and |M| in 2**+-60.
_STATE_HI = 2.0**900
_STATE_LO = 2.0**-900
_M_EXPONENT_LIMIT = 60


def _splitmix64(z: int) -> int:
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Uniforms (word >> 11) * 2**-53 + 2**-54 of raw Philox words, in place.

    ``Generator.random()`` is (word >> 11) * 2**-53, so each value is that
    uniform shifted into (0, 1), bit for bit, but for the word whose top
    53 bits are all ones: its tie rounds to 1.0, clamped to 1 - 2**-53.
    The result is the float64 view of ``words``.
    """
    words >>= 11
    out = words.view(np.float64)
    np.multiply(words.view(np.int64), 2.0**-53, out=out)
    out += 2.0**-54
    np.minimum(out, 1.0 - 2.0**-53, out=out)
    return out


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


class _Work:
    """Buffers of one sub-block's arithmetic, views of ``space`` if given."""

    def __init__(self, B: int, space: np.ndarray | None = None) -> None:
        n = RENORM * B
        if space is None:
            space = np.empty(3 * n + B)
        self.h = space[: n + B].reshape(RENORM + 1, B)  # states r, from the start state
        self.q = space[n + B : 2 * n + B].reshape(RENORM, B)  # Q * 2**-E
        self.m = space[2 * n + B : 3 * n + B].reshape(RENORM, B)  # M, then scratch


def _native(v: ScaledVector, shift, out: np.ndarray) -> np.ndarray:
    """v * 2**-shift as doubles in out: 0 below 2**-1022, inf above 2**1023.

    The power of two is built from its bits; np.ldexp is several times
    slower.
    """
    bits = out.view(np.int64)
    np.subtract(v.exponent, shift, out=bits)
    np.clip(bits, -1023, 1024, out=bits)
    bits += 1023
    bits <<= 52
    out *= v.mantissa
    return out


def _scaled(r: np.ndarray, E: np.ndarray) -> ScaledVector:
    """r * 2**E as a ScaledVector; zero gets the canonical (0.0, 0)."""
    m, e = vec_from_real(r)
    return ScaledVector(m, np.where(m == 0.0, 0, e + E))


def _take(v: ScaledVector, idx) -> ScaledVector:
    return ScaledVector(v.mantissa[idx], v.exponent[idx])


def _native_pass(r, E, q: ScaledVector, m: ScaledVector, after=None, work=None):
    """States of R = r * 2**E stepped in doubles: h[j + 1] = m_j h[j] + q_j 2**-E.

    With ``after`` (one step index per trajectory), a trajectory holds r
    through its step ``after`` and steps natively past it. Returns the
    states h, shaped (k + 1, B), and the native Q.
    """
    k, B = q.mantissa.shape
    if work is None:
        work = _Work(B)
    h, qn, mn = work.h[: k + 1], work.q[:k], work.m[:k]
    h[0] = r
    # overflow, underflow and 0 * inf are caught by the checks that follow
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        _native(q, E, qn)
        _native(m, 0, mn)
        if after is None:
            for j in range(k):
                np.multiply(mn[j], h[j], out=h[j + 1])
                h[j + 1] += qn[j]
        else:
            for j in range(k):
                h[j + 1] = np.where(j > after, mn[j] * h[j] + qn[j], h[j])
    return h, qn


def _suspect(h: np.ndarray, m: ScaledVector, work: _Work) -> np.ndarray:
    """Per trajectory: may some step differ from the scaled recursion?

    A screen by column extremes for the rules of ``_inexact``. A lost Q
    met by a zero product leaves a zero state, which the lower bound flags.
    """
    a = np.abs(h[1:], out=work.m[: h.shape[0] - 1])
    ok = (a.max(axis=0) <= _STATE_HI) & (a.min(axis=0) >= _STATE_LO)
    ok &= m.exponent.max(axis=0) <= _M_EXPONENT_LIMIT
    ok &= m.exponent.min(axis=0) >= -_M_EXPONENT_LIMIT
    return ~ok


def _inexact(h: np.ndarray, qn: np.ndarray, q: ScaledVector, m: ScaledVector) -> np.ndarray:
    """(k, B) mask of the steps whose native result may differ.

    Both native operations are correctly rounded while every state is 0
    or within 2**+-900 and |M| is 0 or within 2**+-60, since no product
    then leaves the normal range; so they equal the correctly rounded
    vec_mul and vec_add but in one case: a Q that underflows to 0 is
    dominated unless the product it meets is 0.
    """
    a = np.abs(h)
    zero = a == 0.0
    bad = ~((a[1:] <= _STATE_HI) & ((a[1:] >= _STATE_LO) | zero[1:]))
    bad |= np.abs(m.exponent) > _M_EXPONENT_LIMIT  # a zero M has exponent 0
    bad |= (zero[:-1] | (m.mantissa == 0.0)) & (qn == 0.0) & (q.mantissa != 0.0)
    return bad


def _advance(r, E, q: ScaledVector, m: ScaledVector, work: _Work) -> ScaledVector:
    """R = r * 2**E after the steps of draws q, m (shaped (k, B)).

    Bit-identical to k rounds of R = vec_add(q_j, vec_mul(m_j, R)). Every
    trajectory first steps natively. One whose native run may not be exact
    takes its first such step in scaled arithmetic and steps natively again
    from the result: a lone huge Q from a log-tailed law resets the scale
    this way. One that fails again steps in scaled arithmetic from its next
    inexact step to the end.
    """
    k = q.mantissa.shape[0]
    h, qn = _native_pass(r, E, q, m, work=work)
    r_end, E_end = h[-1].copy(), E.copy()
    cols = (slice(None), np.flatnonzero(_suspect(h, m, work)))
    bad = _inexact(h[cols], qn[cols], _take(q, cols), _take(m, cols))
    failed = bad.any(axis=0)
    todo = cols[1][failed]
    if todo.size:
        # one scaled step at the first inexact step, then native again
        cols = (slice(None), todo)
        q, m, h, E = _take(q, cols), _take(m, cols), h[cols], E[todo]
        first = bad[:, failed].argmax(axis=0)
        at = (first, np.arange(todo.size))
        r, E = vec_add(_take(q, at), vec_mul(_take(m, at), _scaled(h[at], E)))
        h, qn = _native_pass(r, E, q, m, after=first)
        r_end[todo], E_end[todo] = h[-1], E

        # scaled steps from the next inexact step, if any, to the end
        bad = _inexact(h, qn, q, m) & (np.arange(k)[:, None] > first)
        rest = np.flatnonzero(bad.any(axis=0))
        if rest.size:
            cols = (slice(None), rest)
            q, m, first = _take(q, cols), _take(m, cols), bad[cols].argmax(axis=0)
            R = _scaled(h[first, rest], E[rest])
            for j in range(int(first.min()), k):
                step = vec_add(_take(q, j), vec_mul(_take(m, j), R))
                R = ScaledVector(*(np.where(j >= first, a, b) for a, b in zip(step, R)))
            r_end[todo[rest]], E_end[todo[rest]] = R
    return _scaled(r_end, E_end)


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
    keys = [trajectory_seed(master_seed, i) for i in range(lo, hi)]
    # one Philox, re-keyed to each trajectory's stream at its counter
    bits = Philox()
    ctr, key = [0, 0, 0, 0], [0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": ctr, "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    # R = r * 2**E, renormalized to |r| in [1, 2) after every sub-block
    r = np.zeros(B)
    E = np.zeros(B, np.int64)
    w = np.full(B, -np.inf)
    logprod = np.zeros(B)
    n_max = cps[-1]
    snaps: dict[int, ScaledVector] = {}
    w_snaps: dict[int, np.ndarray] = {}
    u = np.empty((2, CHUNK, B))  # the uniforms of Q, then of M, by step
    tile = np.empty((TILE, CHUNK, 2), np.uint64)
    # the uniforms' buffer lies idle from the draws, which return new
    # arrays, to the next refill
    work = _Work(B, u.reshape(-1))

    t = 0
    next_cp = iter(cps)
    cp = next(next_cp)
    while t < n_max:
        c = min(CHUNK, n_max - t)
        for b0 in range(0, B, TILE):
            # a tile of trajectories, converted and transposed while in cache
            b1 = min(b0 + TILE, B)
            for j in range(b0, b1):
                key[0] = keys[j]
                bits.state = state
                tile[j - b0, :c] = bits.random_raw(2 * c).reshape(c, 2)
            u[:, :c, b0:b1] = _uniforms(tile[: b1 - b0, :c]).transpose(2, 1, 0)
        ctr[0] += c // 2  # 2c words, four per counter value
        qv, mv = model.scaled_draws(u[0, :c], u[1, :c])  # arrays shaped (c, B)
        if track_w:
            ql = vec_log_abs(qv)
            ml = vec_log_abs(mv)
        j0 = 0
        while j0 < c:
            # sub-blocks of at most RENORM steps, each ending at a checkpoint
            j1 = min(j0 + RENORM, c, j0 + cp - t)
            R = _advance(r, E, _take(qv, slice(j0, j1)), _take(mv, slice(j0, j1)), work)
            r, E = R
            if track_w:
                # ln prod_{j<k} M_j summed one row at a time, as W's roundings need
                lp = work.h[: j1 - j0 + 1]
                lp[0] = logprod
                for j in range(j0, j1):
                    np.add(lp[j - j0], ml[j], out=lp[j - j0 + 1])
                logprod = lp[-1].copy()
                lp[:-1] += ql[j0:j1]
                np.maximum(w, lp[:-1].max(axis=0), out=w)
            t += j1 - j0
            j0 = j1
            if t == cp:
                bad = np.abs(E) > EXPONENT_LIMIT
                if np.any(bad):
                    k = int(np.argmax(bad))
                    raise ExponentOverflowError(
                        f"trajectory {lo + k}: exponent "
                        f"{int(E[k])} beyond +/-2**62 at n={t}"
                    )
                snaps[t] = R
                if track_w:
                    w_snaps[t] = w.copy()
                cp = next(next_cp, n_max + 1)
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
            np.concatenate([snaps[n].mantissa for snaps, _ in results]),
            np.concatenate([snaps[n].exponent for snaps, _ in results]),
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
