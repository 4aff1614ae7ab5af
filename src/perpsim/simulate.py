"""Monte Carlo engine for R_n = Q_n + M_n R_{n-1}.

Reproducibility contract
------------------------
Every trajectory of a batch draws from counter-based Philox4x64 under
one key, ``stream_key(master_seed) = splitmix64(master_seed + GOLDEN)``
with GOLDEN = 0x9E3779B97F4A7C15 and splitmix64 the usual finalizer.
Trajectory i addresses its own part of the stream by counter: steps
2p + 1 and 2p + 2 take the four words of the Philox block at counter
(i + 1, p, 0, 0), in the order Q, M, Q, M. So each recursion step
consumes exactly two 64-bit words, first for Q then for M, and a word w
becomes the uniform ``min((w >> 11) * 2**-53 + 2**-54, 1 - 2**-53)``:
``Generator.random()`` shifted by 2**-54 into the open interval (0, 1).
Only the top value of w >> 11 meets the clamp; its tie would round to
1.0. A block keeps one ``Philox``: for each step pair of a sub-block it
sets the counter to (lo, p), lo the block's first trajectory, and one
``random_raw`` call yields that pair for every trajectory of the block.
A sub-block's words become uniforms in one pass, right before it is
stepped; the words of a uniform the law never reads (a constant Q's) are
neither copied nor converted. A trajectory's stream depends on neither N
nor its block, and every step, screen and fallback acts on each
trajectory alone. So output is bit-identical for any split into blocks
(``BLOCK`` trajectories each) and any ``workers`` setting: each block's
snapshots go to its own trajectories' places in the batch.

The recursion runs in native doubles for a whole block of trajectories
at once. Each trajectory keeps R = r * 2**E, a float64 r and an int64
exponent E: one step is ``r *= m; r += q * 2**-E``, and |r| is brought
back to [1, 2) every ``RENORM`` steps and at every checkpoint, where
(r, E) is the snapshot, a ``ScaledVector``. A block works in one set of
buffers: the family writes its draws over the sub-block's uniforms (the
logs Y and X of Q = e^Y and M = e^X, or the exact values of sign and
atomic laws), and native M and Q * 2**-E are made from them once per
sub-block, by the functions that would make their ScaledVectors, a
constant Q as one row. A screen after each sub-block finds every step
whose native result may differ from the scaled arithmetic of
``perpsim.scaled`` (a state near the ends of double range, an extreme M,
a Q lost to underflow against a zero product). Only a trajectory with
such a step gets ScaledVectors of its draws: it takes the first such
step with ``vec_add``/``vec_mul`` and reruns the sub-block natively from
there, until no inexact step is left. So every snapshot is bit-identical
to the scaled recursion ``R = vec_add(q, vec_mul(m, R))`` run one step at
a time. With ``track_w`` it also keeps W_n = ln max_k Q_k prod_{j<k} M_j,
a Case III diagnostic, in native floats, built from the logs the family
drew (``Draws.logs``), not from the ScaledVectors. The tests replay
single trajectories from their own streams in exact rational and mpmath
arithmetic and compare them with ``run_batch``.
"""

from __future__ import annotations

import math
import os

import numpy as np
# Generator is unused here but stays a module name: perfbench/tracing.py
# wraps both names to count stream setup
from numpy.random import Generator, Philox  # noqa: F401

from .errors import (
    ExponentOverflowError,
    InvalidArgumentsError,
    InvalidInputError,
    PerpsimError,
    WorkerError,
)
from .models import Drawn, PairModel
from .scaled import (
    EXPONENT_LIMIT,
    ScaledVector,
    vec_add,
    vec_from_log,
    vec_from_real,
    vec_mul,
    vec_to_real,
)

__all__ = ["BLOCK", "BatchResult", "stream_key", "run_batch"]

BLOCK = 2048  # trajectories per work unit; output does not depend on it

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

RENORM = 32  # native recursion steps between renormalizations

# Native steps stay exact while states lie in 2**+-900 and |M| in 2**+-60.
_STATE_HI = 2.0**900
_STATE_LO = 2.0**-900
_STATE_LO_BITS = int(np.float64(_STATE_LO).view(np.uint64))
_M_EXPONENT_LIMIT = 60


def _splitmix64(z):
    """The splitmix64 finalizer of a 64-bit word."""
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Uniforms min((word >> 11) * 2**-53 + 2**-54, 1 - 2**-53) of raw
    Philox words, in place in a C-contiguous array; returns them as doubles.

    ``Generator.random()`` is (word >> 11) * 2**-53, so each value is that
    uniform shifted into (0, 1), bit for bit, but for the word whose top
    53 bits are all ones: its tie rounds to 1.0, clamped to 1 - 2**-53.
    Made as float((word >> 10) | 1) * 2**-54: (word >> 10) | 1 is 2k + 1
    for k = word >> 11, below 2**54, so the int64 to float64 cast rounds
    (2k + 1) * 2**-54 once, as the sum above does. A cast of one flat
    array reads each word before it writes the double over it.
    """
    flat = words.reshape(-1)
    flat >>= 10
    flat |= 1
    out = flat.view(np.float64)
    np.copyto(out, flat.view(np.int64), casting="unsafe")
    out *= 2.0**-54
    np.minimum(out, 1.0 - 2.0**-53, out=out)
    return out.reshape(words.shape)


def stream_key(master_seed: int) -> int:
    """Philox key of the trajectory streams of a batch under ``master_seed``."""
    return _splitmix64(master_seed + _GOLDEN)


class BatchResult:
    """Per-checkpoint sample sets from ``run_batch``, as ScaledVectors.

    One mantissa and one exponent array of N values per checkpoint, and
    one W array with ``track_w``: ``run_batch`` allocates each once (with
    a pool, as views of one shared mapping) and copies every block's
    snapshots into it as the block is done.
    """

    def __init__(
        self,
        vectors: dict[int, ScaledVector],
        w_logs: dict[int, np.ndarray] | None,
    ) -> None:
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
    """Buffers of one sub-block's arithmetic for B trajectories: C-contiguous
    views of the front of ``cells`` (``3 * RENORM + 1`` doubles per
    trajectory), or fresh arrays when it is None."""

    def __init__(self, B: int, cells: np.ndarray | None = None) -> None:
        if cells is None:
            cells = np.empty(_WORK_WORDS * B)
        rows = cells[: _WORK_WORDS * B].reshape(_WORK_WORDS, B)
        self.h = rows[: RENORM + 1]  # exponents of the draws, then states r
        self.q = rows[RENORM + 1 : 2 * RENORM + 1]  # Q * 2**-E, then W's sums
        self.m = rows[2 * RENORM + 1 :]  # M, then scratch


# 8-byte words of a block's buffers per trajectory: the raw words of a
# sub-block, then its _Work
_WORK_WORDS = 3 * RENORM + 1
_RAW_WORDS = 2 * (RENORM + 2)
_BLOCK_WORDS = _RAW_WORDS + _WORK_WORDS


def _native(v: ScaledVector, shift, out: np.ndarray, bits: np.ndarray | None = None) -> np.ndarray:
    """v * 2**-shift as doubles in out: 0 below 2**-1022, inf above 2**1023.

    The power of two is built from its bits, in ``bits`` (int64, of out's
    shape; out's own memory when None, or v's exponents when they are
    there); np.ldexp is several times slower.
    """
    if bits is None:
        bits = out.view(np.int64)
    np.subtract(v.exponent, shift, out=bits)
    np.maximum(bits, -1023, out=bits)
    np.minimum(bits, 1024, out=bits)
    bits += 1023
    bits <<= 52
    return np.multiply(v.mantissa, bits.view(np.float64), out=out)


def _native_rows(d: Drawn, shift, out: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The draws of d times 2**-shift as doubles, equal to ``_native`` of
    ``d.scaled()``, in out; bits (int64, out's shape) is scratch, left
    holding per draw x = m * 2**e, as doubles, |x * 2**-shift| or
    2**(e - shift) (1 for x = 0), clamped like ``_native``.

    Made from d's own logs or values by the functions that make
    ``d.scaled()``, without its ScaledVectors. A draw the same at every
    step (a constant law) is made once, as one row, broadcast.
    """
    if d.kind == "scaled":
        v = d.data
    else:
        data = d.data[:1] if d.data.strides[0] == 0 else d.data
        n = data.shape[0]
        if d.kind == "real" and _native_product(data, shift, out[:n], bits[:n]):
            return np.broadcast_to(out[:n], d.shape)
        make = vec_from_log if d.kind == "log" else vec_from_real
        v = make(data, out=(out[:n], bits[:n]))
    n = v.mantissa.shape[0]
    return np.broadcast_to(_native(v, shift, out[:n], bits[:n]), d.shape)


def _native_product(x: np.ndarray, shift, out: np.ndarray, bits: np.ndarray) -> bool:
    """x * 2**-shift as one product of doubles, in out, when it equals
    ``_native`` of ``vec_from_real(x)``; returns whether it does.

    With x = m * 2**e and |shift| <= 1022, 2**-shift is a normal double and
    the product is m * 2**(e - shift) exactly while that lies in normal
    range, inf above it, as ``_native`` gives. Below 2**-1022 ``_native``
    gives 0 and the product does not, so a product of magnitude
    2**-1022 or less (a zero x too) leaves it to ``_native``.
    """
    shift = np.asarray(shift, np.int64)
    if np.abs(shift).max(initial=0) > 1022:
        return False
    np.multiply(x, ((1023 - shift) << 52).view(np.float64), out=out)
    return np.abs(out, out=bits.view(np.float64)).min(initial=np.inf) > 2.0**-1022


def _scaled(r: np.ndarray, E: np.ndarray) -> ScaledVector:
    """r * 2**E as a ScaledVector; zero gets the canonical (0.0, 0)."""
    m, e = vec_from_real(r)
    return ScaledVector(m, np.where(m == 0.0, 0, e + E))


def _take(v: ScaledVector, idx) -> ScaledVector:
    return ScaledVector(v.mantissa[idx], v.exponent[idx])


def _drawn(v) -> Drawn:
    return v if isinstance(v, Drawn) else Drawn(v, "scaled")


def _native_pass(r, E, q, m, work=None):
    """States of R = r * 2**E stepped in doubles: h[j + 1] = m_j h[j] + q_j 2**-E.

    q and m are ``Drawn`` or ScaledVectors, shaped (k, B). Returns the
    states h, shaped (k + 1, B), the native Q, and per trajectory whether
    every |M| has an exponent within +-60 (or M = 0).
    """
    q, m = _drawn(q), _drawn(m)
    k, B = q.shape
    if work is None:
        work = _Work(B)
    h = work.h[: k + 1]
    # the states' rows hold the draws' exponents until the steps fill them
    bits = h[1:].view(np.int64)
    # overflow, underflow and 0 * inf are caught by the checks that follow
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        qn = _native_rows(q, E, work.q[:k], bits)
        mn = _native_rows(m, 0, work.m[:k], bits)
        # |M| or 2**e for M = m * 2**e lies in [2**-60, 2**61) just when e
        # is within +-60, and M = 0 (exponent 0) gives 1
        a = bits[: 1 if mn.strides[0] == 0 else k].view(np.float64)
        m_ok = (a.max(axis=0) < 2.0 ** (_M_EXPONENT_LIMIT + 1)) & (a.min(axis=0) >= 2.0**-_M_EXPONENT_LIMIT)
        h[0] = r
        for j in range(k):
            np.multiply(mn[j], h[j], out=h[j + 1])
            h[j + 1] += qn[j]
    return h, qn, m_ok


def _suspect(h: np.ndarray, qn: np.ndarray, m_ok: np.ndarray, work: _Work) -> np.ndarray:
    """Per trajectory: may some step differ from the scaled recursion?

    A screen by column extremes for the rules of ``_inexact``, with
    ``work.m`` as scratch; ``m_ok`` is its rule on M. A zero state is
    exact, so the lower bound is checked on the bits of |r| less one, as
    unsigned words, where 0 wraps to the top. A Q lost to underflow is 0
    natively, and the zero product it meets leaves a zero state, so a
    column with both is flagged.
    """
    k = h.shape[0] - 1
    a = np.abs(h[1:], out=work.m[:k])
    ok = m_ok & (a.max(axis=0) <= _STATE_HI)
    zero = a.min(axis=0) == 0.0
    # nonnegative doubles order as their bits do
    below = a.view(np.uint64)
    below -= 1
    ok &= below.min(axis=0) >= _STATE_LO_BITS - 1
    q_rows = qn[:1] if qn.strides[0] == 0 else qn
    lost = np.abs(q_rows, out=work.m[: len(q_rows)]).min(axis=0) == 0.0
    return ~ok | (zero & lost)


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


def _advance(r, E, q, m, work: _Work) -> ScaledVector:
    """R = r * 2**E after the steps of draws q, m (``Drawn`` or
    ScaledVectors, shaped (k, B)).

    Bit-identical to k rounds of R = vec_add(q_j, vec_mul(m_j, R)). Every
    trajectory first steps natively. While a trajectory's native run has an
    inexact step, it takes the first one in scaled arithmetic and reruns
    natively from the result, every step through that one held as
    R = 1 * R + 0: a lone huge Q from a log-tailed law resets the scale this
    way. A step with |M| beyond 2**+-60 is inexact whatever the state, so
    after its first inexact step a round goes on in scaled arithmetic while
    the next step of every trajectory in it is such a step, and holds these
    steps too: a law whose every step is inexact (|M| = 2**80) takes one
    round. Each scaled step moves every trajectory of its round forward,
    and a held step is exact in doubles, so the loop takes at most k scaled
    steps. ScaledVectors of the draws are made for the trajectories the
    screen flags, and only for them.
    """
    q, m = _drawn(q), _drawn(m)
    k = q.shape[0]
    h, qn, m_ok = _native_pass(r, E, q, m, work=work)
    r_end, E_end = h[-1].copy(), E.copy()
    todo = np.flatnonzero(_suspect(h, qn, m_ok, work))
    if not todo.size:
        return _scaled(r_end, E_end)
    cols = (slice(None), todo)
    q, m, h, qn, E = q.scaled(todo), m.scaled(todo), h[cols], qn[cols], E[todo]
    while True:
        bad = _inexact(h, qn, q, m)
        failed = np.flatnonzero(bad.any(axis=0))
        if not failed.size:
            return _scaled(r_end, E_end)
        # the rerun starts at the earliest of the first inexact steps
        first = bad.argmax(axis=0)[failed]
        lo = first.min()
        cols = (slice(lo, None), failed)
        todo, q, m, h, E = todo[failed], _take(q, cols), _take(m, cols), h[cols], E[failed]
        k, first = k - lo, first - lo
        at = (first, np.arange(todo.size))
        R = _scaled(h[at], E)
        # the first inexact step, then each next one while every trajectory
        # of the round has |M| out of native range there
        while True:
            R = vec_add(_take(q, at), vec_mul(_take(m, at), R))
            first = first + 1
            at = (first, at[1])
            if first.max() == k or (np.abs(m.exponent[at]) <= _M_EXPONENT_LIMIT).any():
                break
        r, E = R
        # a held Q is 0 * 2**E, so natively 0 * 2**0; with exponent 0 it
        # would be 0 * 2**-E, NaN once 2**-E overflows
        held = np.arange(k)[:, None] < first
        np.copyto(q.mantissa, 0.0, where=held)
        np.copyto(q.exponent, E, where=held)
        np.copyto(m.mantissa, 1.0, where=held)
        np.copyto(m.exponent, 0, where=held)
        h, qn, _ = _native_pass(r, E, q, m)
        r_end[todo], E_end[todo] = h[-1], E


def _run_block(
    model: PairModel,
    cps: tuple[int, ...],
    lo: int,
    hi: int,
    master_seed: int,
    track_w: bool,
    cells: np.ndarray | None = None,
):
    """Vectorized kernel for trajectories [lo, hi); returns snapshots.

    Its buffers are views of the front of ``cells``, a uint64 array of at
    least ``_BLOCK_WORDS * (hi - lo)`` words; fresh when it is None.
    """
    B = hi - lo
    if cells is None:
        cells = np.empty(_BLOCK_WORDS * B, np.uint64)
    # one Philox; from counter (lo, p) it yields step pair p of each trajectory
    bits = Philox()
    ctr = [lo, 0, 0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": ctr, "key": [stream_key(master_seed), 0]},
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
    # the raw words of Q, then of M, by step: a sub-block's pairs, one more
    # row when it starts inside a pair. The family draws over the uniforms
    # of the words it reads; its draws stay there through the sub-block
    raw = cells[: _RAW_WORDS * B].reshape(2, RENORM + 2, B)
    u = raw.view(np.float64)
    work = _Work(B, cells[_RAW_WORDS * B : _BLOCK_WORDS * B].view(np.float64))
    planes = [s for s, read in enumerate(model.reads) if read]
    # W's logs are asked for only when W is tracked, so only of a positive law
    draw_kw = {"logs": True} if track_w else {}

    t = 0
    next_cp = iter(cps)
    cp = next(next_cp)
    while t < n_max:
        # sub-blocks of at most RENORM steps, each ending at a checkpoint,
        # drawn from their own rows: arrays shaped (k, B)
        k = min(RENORM, cp - t)
        p0, p1 = t // 2, (t + k + 1) // 2
        for p in range(p0, p1):
            ctr[1] = p
            bits.state = state
            words = bits.random_raw(4 * B).reshape(B, 2, 2)
            pair = slice(2 * (p - p0), 2 * (p - p0 + 1))
            if len(planes) == 2:
                raw[:, pair] = words.transpose(2, 1, 0)
            else:
                raw[planes[0], pair] = words[:, :, planes[0]].T
        for s in planes:
            _uniforms(raw[s, : 2 * (p1 - p0)])
        rows = slice(t % 2, t % 2 + k)  # after an odd checkpoint, from the second step of pair p0
        try:
            draws = model.scaled_draws(u[0, rows], u[1, rows], **draw_kw)
            R = _advance(r, E, draws.q, draws.m, work)
        except ExponentOverflowError as exc:  # from vec_from_log, at row j, column i
            j, i = exc.index
            raise ExponentOverflowError(
                f"trajectory {lo + i}: draw {exc} at n={t + j + 1}"
            ) from None
        if track_w:
            # W from the logs the draws were made from, with ln prod_{j<k} M_j
            # summed one row at a time, as W's roundings need, in the step's
            # buffer work.q
            ln_q, ln_m = draws.logs
            lp = work.q[:k]
            lp[0] = logprod
            for j in range(k - 1):
                np.add(lp[j], ln_m[j], out=lp[j + 1])
            logprod = lp[-1] + ln_m[-1]
            lp += ln_q
            np.maximum(w, lp.max(axis=0), out=w)
            del ln_q, ln_m
        # let this sub-block's draws go before the next are made: a discrete
        # law's logs are arrays of their own
        del draws
        r, E = R
        t += k
        if t == cp:
            bad = np.abs(E) > EXPONENT_LIMIT
            if np.any(bad):
                i = int(np.argmax(bad))
                raise ExponentOverflowError(
                    f"trajectory {lo + i}: exponent "
                    f"{int(E[i])} beyond +/-2**62 at n={t}"
                )
            snaps[t] = R
            if track_w:
                w_snaps[t] = w.copy()
            cp = next(next_cp, n_max + 1)
    return snaps, (w_snaps if track_w else None)


def _fill(args: list, batch: BatchResult | None = None) -> None:
    """``_run_block`` on each argument tuple, in order, all with one set of
    buffers made for the largest block; each block's snapshots, and its W
    logs, are copied into ``batch`` as soon as the block is done. A pool
    process, sent only ``args``, fills the batch ``_share`` gave it.

    Fresh buffers per block (2.7 MB at ``BLOCK``) would be mmapped and
    faulted in page by page for every block, unless an earlier free of a
    larger array had raised glibc's dynamic mmap threshold: a cost that
    would depend on what ran before. ``_run_block`` is looked up as a
    module name at each call, so a wrapper put in its place (the
    benchmark's tracer) runs once per block, in a pool worker too.
    """
    batch = _shared if batch is None else batch
    cells = np.empty(_BLOCK_WORDS * max(hi - lo for _, _, lo, hi, _, _ in args), np.uint64)
    for a in args:
        snaps, w_snaps = _run_block(*a, cells)
        lo, hi = a[2], a[3]
        for n, v in snaps.items():
            out = batch.vectors(n)
            out.mantissa[lo:hi] = v.mantissa
            out.exponent[lo:hi] = v.exponent
            if w_snaps is not None:
                batch.w_log(n)[lo:hi] = w_snaps[n]


# the batch a pool process fills, set in it by the pool's initializer
_shared: BatchResult | None = None


def _share(batch: BatchResult) -> None:
    """A pool process's initializer: the batch its ``_fill`` calls fill."""
    global _shared
    _shared = batch


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def run_batch(
    model: PairModel,
    checkpoints,
    count: int,
    master_seed: int,
    workers: int = 1,
    track_w: bool = False,
) -> BatchResult:
    """N independent trajectories; output independent of worker count.

    The batch holds one array per checkpoint and quantity, allocated once;
    each block's snapshots are copied in as soon as the block is done, by
    the process that ran it. So no block's snapshots are held next to the
    whole batch's, and memory beyond the batch is one block's per process.
    With a pool, the arrays are views of one anonymous shared mapping made
    before the fork, and the parent reads them once every process is done.
    """
    cps = _validate_checkpoints(checkpoints)
    if count < 1:
        raise InvalidInputError("count must be >= 1")
    if track_w:
        _require_positive_for_w(model)

    blocks = [(lo, min(lo + BLOCK, count)) for lo in range(0, count, BLOCK)]
    args = [(model, cps, lo, hi, master_seed, track_w) for lo, hi in blocks]
    # the executor starts all its processes at once, so start no more than
    # can run: one per CPU, and one per block at most
    procs = min(workers, len(args), _cpu_count())
    if procs <= 1:
        # an array per checkpoint and quantity: freed, one array of the
        # whole batch, mmapped by glibc, would raise its dynamic mmap
        # threshold, and later runs' arrays below the new threshold would
        # grow the heap (2.4 MB of RSS over rounds of Case II-IV verifies)
        batch = BatchResult({n: ScaledVector(np.empty(count), np.empty(count, np.int64)) for n in cps},
                            {n: np.empty(count) for n in cps} if track_w else None)
        _fill(args, batch)
        return batch
    # imported here: a pool's modules are a cost only a pool needs
    import mmap
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

    # the batch in one anonymous shared mapping. Nothing writes it before
    # the fork, so no process counts its pages in its RSS before it touches
    # them. A forked process inherits it, and the initializer's arguments,
    # unpickled: under another start method each would get a copy
    shape = (len(cps), 3 if track_w else 2, count)
    planes = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), np.float64).reshape(shape)
    batch = BatchResult({n: ScaledVector(p[0], p[1].view(np.int64)) for n, p in zip(cps, planes)},
                        {n: p[2] for n, p in zip(cps, planes)} if track_w else None)
    # one cell of the law, drawn before the fork: whatever its draws
    # import (scipy for a normal) is loaded once and inherited, not
    # imported again in each worker
    model.scaled_draws(np.full((1, 1), 0.5), np.full((1, 1), 0.5))
    # each process runs one contiguous range of blocks, in order
    ends = [len(args) * i // procs for i in range(procs + 1)]
    ranges = list(zip(ends, ends[1:]))
    lost, causes = [], {}
    with ProcessPoolExecutor(procs, mp_context=get_context("fork"),
                             initializer=_share, initargs=(batch,)) as pool:
        futures = [pool.submit(_fill, args[a:b]) for a, b in ranges]
        for (a, b), future in zip(ranges, futures):
            try:
                future.result()
                continue
            except BrokenProcessPool:
                # a process that dies breaks the pool, so every range still
                # pending fails with it, the dead process's among them
                causes["a worker process died (killed, or out of memory)"] = None
            except PerpsimError:  # the run's own: its message and exit code stand
                raise
            except Exception as exc:  # MemoryError, say: the run failed, not the law
                causes[f"a worker process raised {type(exc).__name__}"] = None
            lost.append(f"[{blocks[a][0]}, {blocks[b - 1][1]})")
    if lost:
        raise WorkerError(f"{'; '.join(causes)}; trajectories {', '.join(lost)} were not finished")
    return batch
