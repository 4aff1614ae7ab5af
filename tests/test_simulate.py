"""Engine: exact replays of single trajectories, the W_n diagnostic, oracles."""

import concurrent.futures
import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.random import Generator, Philox
from scipy.special import ndtri

from perpsim import simulate
from perpsim.config import load_config
from perpsim.errors import (
    DomainError,
    InvalidArgumentsError,
    InvalidInputError,
    InvalidModelError,
    TooLargeError,
)
from perpsim.models import (
    DiscreteJoint,
    LogNormalPair,
    QConstant,
    QLogNormal,
    QLogPareto,
    QRademacher,
    ScaledRademacher,
    SignedUnit,
    analytic_moments,
    classify,
)
from perpsim.scaled import (
    ScaledVector,
    vec_add,
    vec_from_real,
    vec_log_abs,
    vec_mul,
    vec_to_real,
)
from perpsim.simulate import (
    BLOCK,
    RENORM,
    enumerate_exact,
    exact_moments_recursion,
    reference_seed,
    run_batch,
    stream_key,
)
from perpsim.stats import dkw_bound

POINT_MASS_12 = DiscreteJoint((((1.0, 2.0), 1.0),))
FAIR_SIGN = DiscreteJoint((((1.0, 1.0), 0.5), ((1.0, -1.0), 0.5)))
CASE_II = LogNormalPair(0.5, 1.0, QConstant(1.0))
CASE_I_ASYM = ScaledRademacher(2.0, 0.7, QRademacher(0.7))
CASE_III_CLT = LogNormalPair(0.0, 1.0, QLogNormal(0.0, 1.0))

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# sha256 of run_batch at N = 64 for each bundled config, with its seed, its
# checkpoints and the track_w of verify: the snapshots (per checkpoint the
# mantissa float64 bytes, then the exponent int64 bytes), and apart from them
# w_log where tracked. A change to the streams, the draw transforms or the
# arithmetic of the recursion shows in the first; one to how W is summed, in
# the second alone.
ENGINE_DIGESTS = {
    "case1_asym": ("fe9c62f5d6445e6ce853af4d3e567f4141c07aa4d6a9ff134a396f300e9e3402", None),
    "case1_sym": ("ed348cfb2c8489f3f8b1c5ba6f039a37e2bcb884510446149454bc8195df88af", None),
    "case2_abs": ("60adc2a9fb1a7729db7c4192c65ead86a5e328b40da74a0b62d693d57606ed78", None),
    "case3_clt": (
        "ef49826ee1617047227b13dd8db9db55035cdc6d0b7e178cf2c5d1c57646e649",
        "6c30fe73a5629853d08271970d7e52d766a10bd40d30082a5b95a09cd64706a3",
    ),
    "case3_evt": (
        "02a16ac20eccf85c6326c7f03b785c2124ec5e5af378b04bc8255c40bfaafec4",
        "10ef1e8c3e034a4786950f16838bdf84c40f5d91847a094e54c9c93d50fa4c88",
    ),
    "case4": ("d0177b0bc869c506408a52989b39228f08068994bd3d0f55894540e2e5a1c688", None),
    "oracle_fair_sign": ("f1bf1d5047c2d8d22d8f7931778a39bd2035a2f1bf49f21d65e5e37f6560d306", None),
}


def brute_force_law(model: DiscreteJoint, n: int) -> dict[float, float]:
    """Independent enumeration oracle: walk every atom sequence."""
    law: dict[float, float] = {}
    for path in itertools.product(model.atoms, repeat=n):
        r = 0.0
        prob = 1.0
        for (q, m), p in path:
            r = q + m * r
            prob *= p
        law[r] = law.get(r, 0.0) + prob
    return law


def contract_key(master_seed: int) -> int:
    """splitmix64(master_seed + 0x9E3779B97F4A7C15)."""
    mask = (1 << 64) - 1
    z = (master_seed + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def trajectory_uniforms(master_seed: int, index: int, n: int) -> np.ndarray:
    """The (n, 2) uniforms of one trajectory, by the stream contract:
    Philox keyed as in ``contract_key``; steps 2p + 1 and 2p + 2 take the
    block at counter (index + 1, p), the first that a Philox set to counter
    (index, p) yields; two uniforms per step (Q first, then M), each
    shifted by 2**-54 into (0, 1), at most 1 - 2**-53."""
    key = contract_key(master_seed)
    pairs = [
        Generator(Philox(key=key, counter=index + (p << 64))).random(4)
        for p in range((n + 1) // 2)
    ]
    u = np.concatenate(pairs).reshape(-1, 2)[:n]
    return np.minimum(u + 2.0**-54, 1.0 - 2.0**-53)


def exact_pair(model, u_q: float, u_m: float) -> tuple[Fraction, Fraction]:
    """(Q, M) as Fractions, mapped from the two uniforms by the model's
    definition (not by its scaled_draws)."""
    if isinstance(model, DiscreteJoint):
        # the Q-slot uniform picks the joint atom; the M-slot one is unused
        cum = Fraction(0)
        for (q, m), p in model.atoms:
            cum += Fraction(p)
            if Fraction(float(u_q)) < cum:
                break
        return Fraction(q), Fraction(m)
    q_law = model.q_law
    if isinstance(q_law, QConstant):
        q = Fraction(q_law.value)
    else:
        q = Fraction(1 if u_q < q_law.p else -1)
    if isinstance(model, ScaledRademacher):
        m = Fraction(model.rho) * (1 if u_m < model.p else -1)
    else:
        m = Fraction(1 if u_m < model.p_m else -1)
    return q, m


def exact_paths(model, checkpoints, indices, master_seed) -> dict[int, list[Fraction]]:
    """R_n of each trajectory in ``indices``, iterated in exact rational arithmetic."""
    out = {n: [] for n in checkpoints}
    for i in indices:
        r = Fraction(0)
        u = trajectory_uniforms(master_seed, i, checkpoints[-1])
        for t, (u_q, u_m) in enumerate(u, start=1):
            q, m = exact_pair(model, u_q, u_m)
            r = q + m * r
            if t in out:
                out[t].append(r)
    return out


def engine_paths(model, checkpoints, count, master_seed) -> dict[int, list[Fraction]]:
    batch = run_batch(model, checkpoints, count, master_seed)
    return {n: [Fraction(x) for x in batch.to_reals(n)] for n in checkpoints}


def floor_log2(x: Fraction) -> int:
    """e with 2**e <= |x| < 2**(e + 1)."""
    x = abs(x)
    e = x.numerator.bit_length() - x.denominator.bit_length()
    return e - 1 if Fraction(2) ** e > x else e


def round_double(x: Fraction) -> Fraction:
    """x rounded to 53 significant bits, ties to even, at any exponent."""
    if x == 0:
        return x
    scale = Fraction(2) ** (52 - floor_log2(x))
    return Fraction(round(x * scale)) / scale


def scaled_step(q: Fraction, m: Fraction, r: Fraction) -> Fraction:
    """One step of the documented scaled arithmetic, in exact rationals:
    the product and the sum are each rounded to 53 bits, at any exponent."""
    return round_double(q + round_double(m * r))


def scaled_paths(model, checkpoints, count, master_seed) -> dict[int, list[Fraction]]:
    """R_n of each trajectory under ``scaled_step``, with no exponent limit."""
    out = {n: [] for n in checkpoints}
    for i in range(count):
        r = Fraction(0)
        u = trajectory_uniforms(master_seed, i, checkpoints[-1])
        for t, (u_q, u_m) in enumerate(u, start=1):
            r = scaled_step(*exact_pair(model, u_q, u_m), r)
            if t in out:
                out[t].append(r)
    return out


def engine_values(model, checkpoints, count, master_seed) -> dict[int, list[Fraction]]:
    """run_batch snapshots as exact rationals, also beyond double range."""
    batch = run_batch(model, checkpoints, count, master_seed)
    out = {}
    for n in checkpoints:
        v = batch.vectors(n)
        out[n] = [
            Fraction(m) * Fraction(2) ** e
            for m, e in zip(v.mantissa.tolist(), v.exponent.tolist())
        ]
    return out


class TestRunTrajectory:
    """Single trajectories: run_batch with count = 1."""

    def test_deterministic_doubling(self):
        batch = run_batch(POINT_MASS_12, [1, 2, 3], 1, master_seed=5)
        assert [batch.to_reals(n)[0] for n in (1, 2, 3)] == [1.0, 3.0, 7.0]

    def test_zero_q(self):
        model = DiscreteJoint((((0.0, 2.0), 1.0),))
        assert run_batch(model, [10], 1, master_seed=5).to_reals(10)[0] == 0.0

    @given(st.integers(min_value=0, max_value=2**53 - 1))
    @example(10**6 - 1)
    @example(2**53 - 1)
    def test_pure_accumulation_long(self, k):
        # one step of R = 1 + 1 * R from R = k is exact for every k < 2**53,
        # so 10**6 unit accumulations end exactly at 10**6
        one = vec_from_real(np.array([1.0]))
        r = vec_from_real(np.array([float(k)]))
        out = vec_add(one, vec_mul(one, r))
        m, e = float(out.mantissa[0]), int(out.exponent[0])
        assert Fraction(m) * Fraction(2) ** e == k + 1

    def test_same_seed_same_path(self):
        a = run_batch(CASE_II, [50], 1, master_seed=11).vectors(50)
        b = run_batch(CASE_II, [50], 1, master_seed=11).vectors(50)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_checkpoint_validation(self):
        with pytest.raises(InvalidInputError):
            run_batch(CASE_II, [], 1, master_seed=1)
        with pytest.raises(InvalidInputError):
            run_batch(CASE_II, [5, 5], 1, master_seed=1)
        with pytest.raises(InvalidInputError):
            run_batch(CASE_II, [0], 1, master_seed=1)

    def test_track_w_needs_positive_model(self):
        with pytest.raises(InvalidArgumentsError):
            run_batch(FAIR_SIGN, [5], 1, master_seed=1, track_w=True)


class TestRunBatch:
    def test_n1_matches_trajectory(self):
        cps = [5, 45]
        assert engine_paths(CASE_I_ASYM, cps, 1, 321) == exact_paths(CASE_I_ASYM, cps, range(1), 321)

    def test_every_index_matches_trajectory(self):
        # Case I rho = 2 with +-1 draws keeps R_n an integer below 2**46, so
        # every engine step is exact and must equal the rational recursion
        cps = [1, 20, 45]
        assert engine_paths(CASE_I_ASYM, cps, 300, 77) == exact_paths(CASE_I_ASYM, cps, range(300), 77)

    @pytest.mark.parametrize(
        "model,cps,count",
        [
            # Case IV; checkpoints on both sides of the 32-step native
            # sub-blocks, odd ones inside a step pair of the stream
            (SignedUnit(0.6, QRademacher(0.3)), [1, 2, 5, 31, 32, 33, 64, 97], 40),
            (SignedUnit(0.75, QConstant(3.0)), [600], 20),
            (FAIR_SIGN, [300], 20),
            # dyadic atoms stay exact in doubles for a dozen steps
            (DiscreteJoint((((1.0, 2.0), 0.3), ((-1.0, 0.5), 0.4), ((2.0, -1.5), 0.3))), [6, 12], 100),
        ],
    )
    def test_exact_rational_replay(self, model, cps, count):
        assert engine_paths(model, cps, count, 515) == exact_paths(model, cps, range(count), 515)

    def test_ragged_block_against_exact_replay(self):
        # the second block holds trajectories 2048-2117, 70 of them, and
        # sets its counters from 2048
        model = SignedUnit(0.6, QRademacher(0.3))
        cps, seed = [1, 31, 32, 33, 45], 515
        picks = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 69]
        batch = run_batch(model, cps, BLOCK + 70, seed)
        want = exact_paths(model, cps, picks, seed)
        assert {n: [Fraction(x) for x in batch.to_reals(n)[picks]] for n in cps} == want

    def test_rekeyed_stream_across_chunks(self):
        # one Philox per block is set to each step pair's counter: after an
        # odd checkpoint a sub-block starts inside a pair and draws it again,
        # in both blocks
        model = SignedUnit(0.6, QRademacher(0.3))
        cps, seed = [1, 3, 4, 35, 67, 68, 70], 2718
        picks = [0, 1, BLOCK - 1, BLOCK, BLOCK + 2]
        batch = run_batch(model, cps, BLOCK + 3, seed)
        want = exact_paths(model, cps, picks, seed)
        assert {n: [Fraction(x) for x in batch.to_reals(n)[picks]] for n in cps} == want

    @pytest.mark.parametrize(
        "model",
        [
            # |M| = 2**80 and 2**-80 lie outside the native kernel's range
            # for M, so every step runs in scaled arithmetic, past double range
            DiscreteJoint((((1.0, 2.0**80), 0.5), ((3.0, -(2.0**-80)), 0.5))),
            # after R passes 2**1023, Q = 1 underflows against the scale of R
            # but M = 0 makes R_n = Q_n exactly
            DiscreteJoint((((1.0, 2.0**50), 0.7), ((1.0, 0.0), 0.1), ((-1.0, -0.125), 0.2))),
            # 1 - (1 + 2**-52) 2**-54: an addend 54 binades down that still
            # moves the rounded sum, to 1 - 2**-53
            DiscreteJoint((((1.0, -(1.0 + 2.0**-52) * 2.0**-54), 1.0),)),
            # Q = 0 with M = 2**-1060, below the normal doubles: R_n = M_n R_{n-1}
            DiscreteJoint((((0.0, 2.0**-1060), 0.3), ((1.0, 2.0), 0.7))),
        ],
        ids=["m_2_pm80", "lost_q", "dominated", "tiny_m"],
    )
    def test_scaled_rounding_replay(self, model):
        # the native kernel must match the scaled arithmetic exactly wherever
        # doubles cannot: replayed in rationals with its rounding rules
        cps, count, seed = [1, 31, 32, 33, 63, 64, 65, 144], 20, 5150
        assert engine_values(model, cps, count, seed) == scaled_paths(model, cps, count, seed)

    def test_case_ii_takes_no_scaled_step(self, monkeypatch):
        # renormalized every 32 steps, a Case II block never leaves the range
        # where native steps are exact, so no step falls back to vec_add
        calls = []
        monkeypatch.setattr(simulate, "vec_add", lambda *a: calls.append(a) or vec_add(*a))
        batch = run_batch(CASE_II, [3000], 64, master_seed=3)
        assert calls == []
        assert batch.vectors(3000).exponent.min() > 1500

    def test_log_pareto_replay_against_mpmath(self):
        # III-evt: a log-Pareto Q now and then exceeds M R_{n-1} by more
        # than double range, and R_n = Q_n restarts the native scale
        model = LogNormalPair(0.0, 1.0, QLogPareto(-1.0, 1.0))
        n, count, seed = 2000, 8, 41
        got = vec_log_abs(run_batch(model, [n], count, seed).vectors(n))
        jumps = 0
        for i in range(count):
            u = trajectory_uniforms(seed, i, n)
            x = model.mu_x + math.sqrt(model.v2) * ndtri(u[:, 1])
            y = model.q_law.t0 * u[:, 0] ** (1.0 / model.q_law.alpha)
            with mpmath.workprec(200):
                r = mpmath.mpf(0)
                for y_t, x_t in zip(y.tolist(), x.tolist()):
                    mr = mpmath.exp(x_t) * r
                    jumps += y_t > math.log(2.0) * 1100 + mpmath.log(mr) if r else 0
                    r = mpmath.exp(y_t) + mr
                want = mpmath.log(r)
                assert abs(mpmath.mpf(got[i]) - want) <= 1e-12 * abs(want)
        assert jumps > 0

    @pytest.mark.parametrize("model", [CASE_III_CLT, CASE_II])
    def test_lognormal_replay_against_mpmath(self, model):
        # ln|R_n| at n = 2000 against the recursion in 200-bit arithmetic,
        # Q = e^Y and M = e^X taken from each trajectory's own uniforms
        n, count, seed = 2000, 8, 31
        got = vec_log_abs(run_batch(model, [n], count, seed).vectors(n))
        q_law = model.q_law
        for i in range(count):
            u = trajectory_uniforms(seed, i, n)
            x = model.mu_x + math.sqrt(model.v2) * ndtri(u[:, 1])
            if isinstance(q_law, QLogNormal):
                y = q_law.mean + math.sqrt(q_law.var) * ndtri(u[:, 0])
            else:
                y = np.full(n, math.log(q_law.value))
            with mpmath.workprec(200):
                r = mpmath.mpf(0)
                for y_t, x_t in zip(y.tolist(), x.tolist()):
                    r = mpmath.exp(y_t) + mpmath.exp(x_t) * r
                want = mpmath.log(r)
                assert abs(mpmath.mpf(got[i]) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("name", sorted(ENGINE_DIGESTS))
    def test_output_pinned_across_versions(self, name):
        cfg = load_config(CONFIGS / f"{name}.json")
        track_w = classify(analytic_moments(cfg.model), cfg.model).case.startswith("III")
        batch = run_batch(cfg.model, cfg.checkpoints, 64, cfg.seed, track_w=track_w)
        snapshots, w_logs = hashlib.sha256(), hashlib.sha256()
        for n in cfg.checkpoints:
            v = batch.vectors(n)
            assert (v.mantissa.dtype, v.exponent.dtype) == (np.float64, np.int64)
            snapshots.update(v.mantissa.tobytes())
            snapshots.update(v.exponent.tobytes())
            if track_w:
                w_logs.update(batch.w_log(n).tobytes())
        got = (snapshots.hexdigest(), w_logs.hexdigest() if track_w else None)
        assert got == ENGINE_DIGESTS[name]

    def test_worker_count_invariance(self):
        a = run_batch(CASE_II, [40], 4500, master_seed=13, workers=1)
        b = run_batch(CASE_II, [40], 4500, master_seed=13, workers=3)
        va, vb = a.vectors(40), b.vectors(40)
        assert np.array_equal(va.mantissa, vb.mantissa)
        assert np.array_equal(va.exponent, vb.exponent)

    @pytest.mark.parametrize(
        "workers, cpus, procs", [(9, 64, 5), (3, 64, 3), (8, 2, 2), (1, 64, None)]
    )
    def test_pool_is_bounded(self, workers, cpus, procs, monkeypatch):
        # the executor forks all max_workers processes at its first submit,
        # so run_batch asks for min(workers, blocks, CPUs) and gives each one
        # contiguous range of blocks; a stand-in runs the ranges inline.
        # workers stays small: code that bypassed the stand-in would fork them
        pools = []

        class InlinePool:
            def __init__(self, max_workers, mp_context, initializer, initargs):
                self.max_workers, self.ranges = max_workers, []
                initializer(*initargs)
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, args):
                self.ranges.append([a[2] for a in args])
                future = concurrent.futures.Future()
                future.set_result(fn(args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(simulate, "_shared", None)
        monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(simulate, "BLOCK", 100)
        model = ScaledRademacher(2.0, 0.5, QRademacher(0.5))
        serial = run_batch(model, [1, 40], 450, master_seed=5)
        batch = run_batch(model, [1, 40], 450, master_seed=5, workers=workers)
        for n in (1, 40):
            assert batch.vectors(n).mantissa.tobytes() == serial.vectors(n).mantissa.tobytes()
            assert batch.vectors(n).exponent.tobytes() == serial.vectors(n).exponent.tobytes()
        if procs is None:
            assert pools == []
            return
        [pool] = pools
        assert pool.max_workers == procs
        los = [lo for r in pool.ranges for lo in r]
        assert los == [0, 100, 200, 300, 400]
        assert len(pool.ranges) == procs
        assert max(map(len, pool.ranges)) - min(map(len, pool.ranges)) <= 1

    @pytest.mark.parametrize(
        "model",
        [
            LogNormalPair(0.0, 1.0, QLogPareto(-1.0, 1.0)),
            SignedUnit(0.75, QConstant(1.0)),
            DiscreteJoint((((1.0, 2.0**80), 0.5), ((3.0, -(2.0**-80)), 0.5))),
        ],
        ids=["iii_evt", "case4", "m_2_pm80"],
    )
    def test_output_ignores_block_size(self, model, monkeypatch):
        # a trajectory's stream, steps and fallback do not depend on the
        # other trajectories of its block, so neither does a byte of output
        cps, count, seed = [1, 31, 33, 257, 700], 4500, 61
        runs = []
        for size in (517, 1000, 2048, 4096):
            monkeypatch.setattr(simulate, "BLOCK", size)
            batch = run_batch(model, cps, count, seed, track_w=model.positive)
            out = []
            for n in cps:
                out += [batch.vectors(n).mantissa.tobytes(), batch.vectors(n).exponent.tobytes()]
                if model.positive:
                    out.append(batch.w_log(n).tobytes())
            runs.append(out)
        assert all(run == runs[0] for run in runs[1:])

    @pytest.mark.parametrize("model", [CASE_I_ASYM, CASE_III_CLT], ids=["i_asym", "iii_clt"])
    def test_blocks_sharing_buffers_match_lone_blocks(self, model):
        # _fill gives every block views of one set of buffers, made for its
        # largest block: a block after a longer one, or before one, must
        # read none of the other's words
        cps, seed = (1, 31, 33, 70), 29
        args = [
            (model, cps, lo, hi, seed, model.positive)
            for lo, hi in ((0, 300), (300, 1000), (1000, 1037))
        ]
        batch = simulate.BatchResult(
            {n: ScaledVector(np.full(1037, np.nan), np.zeros(1037, np.int64)) for n in cps},
            {n: np.full(1037, np.nan) for n in cps} if model.positive else None,
        )
        simulate._fill(args, batch)
        for a in args:
            lone, lone_w = simulate._run_block(*a)
            lo, hi = a[2], a[3]
            for n in cps:
                assert batch.vectors(n).mantissa[lo:hi].tobytes() == lone[n].mantissa.tobytes()
                assert batch.vectors(n).exponent[lo:hi].tobytes() == lone[n].exponent.tobytes()
                if model.positive:
                    assert batch.w_log(n)[lo:hi].tobytes() == lone_w[n].tobytes()

    def test_r2_law(self):
        batch = run_batch(FAIR_SIGN, [2], 100_000, master_seed=2024)
        values = batch.to_reals(2)
        assert abs((values == 0.0).mean() - 0.5) < 0.005
        assert set(np.unique(values)) == {0.0, 2.0}

    def test_w_log_nondecreasing(self):
        model = LogNormalPair(0.0, 1.0, QLogNormal(0.0, 1.0))
        cps = [1, 2, 5, 10, 50, 100]
        batch = run_batch(model, cps, 64, master_seed=5, track_w=True)
        w = np.stack([batch.w_log(n) for n in cps])
        assert np.all(np.diff(w, axis=0) >= 0.0)

    def test_w_log_exact_replay(self):
        # W_n = ln max_k Q_k prod_{j<k} M_j, the largest term of the sum form,
        # rebuilt in exact rationals from each trajectory's own stream
        model = DiscreteJoint((((2.0, 2.0), 0.5), ((1.0, 0.5), 0.3), ((3.0, 1.5), 0.2)))
        cps, count, seed = [1, 12, 31, 32, 33, 63, 64, 65, 100], 100, 77
        batch = run_batch(model, cps, count, seed, track_w=True)
        for i in range(count):
            u = trajectory_uniforms(seed, i, cps[-1])
            prod, w = Fraction(1), Fraction(0)
            for t, (u_q, u_m) in enumerate(u, start=1):
                q, m = exact_pair(model, u_q, u_m)
                w = max(w, q * prod)
                prod *= m
                if t in cps:
                    want = math.log(w.numerator) - math.log(w.denominator)
                    assert abs(batch.w_log(t)[i] - want) <= 1e-12

    def test_w_log_replay_iii_clt(self):
        # the same diagnostic for III-clt: Q = e^Y and M = e^X mapped from the
        # stream through ndtri, each prefix sum of X correctly rounded by fsum
        model, q_law = CASE_III_CLT, CASE_III_CLT.q_law
        cps, count, seed = [1, 33, 50, 144], 16, 93
        batch = run_batch(model, cps, count, seed, track_w=True)
        for i in range(count):
            u = trajectory_uniforms(seed, i, cps[-1])
            y = q_law.mean + math.sqrt(q_law.var) * ndtri(u[:, 0])
            x = model.mu_x + math.sqrt(model.v2) * ndtri(u[:, 1])
            log_prod = [math.fsum(x[:k]) for k in range(cps[-1])]
            for n in cps:
                want = max(y[k] + log_prod[k] for k in range(n))
                assert abs(batch.w_log(n)[i] - want) <= 1e-12 * max(1.0, abs(want))

    def test_w_log_replay_iii_evt(self):
        # III-evt: Y = t0 * u**(1/alpha) from the Q-slot uniform, X = ndtri(u)
        # from the M-slot one, and W_n = max_k (Y_k + sum_{j<k} X_j) with each
        # prefix sum correctly rounded by fsum; checkpoints inside a step pair
        # and on both sides of the 32-step sub-blocks
        model = LogNormalPair(0.0, 1.0, QLogPareto(-1.0, 1.0))
        q_law = model.q_law
        cps, count, seed = [1, 2, 31, 32, 33, 64, 65, 97, 144], 16, 95
        batch = run_batch(model, cps, count, seed, track_w=True)
        for i in range(count):
            u = trajectory_uniforms(seed, i, cps[-1])
            y = q_law.t0 * u[:, 0] ** (1.0 / q_law.alpha)
            x = model.mu_x + math.sqrt(model.v2) * ndtri(u[:, 1])
            log_prod = [math.fsum(x[:k]) for k in range(cps[-1])]
            for n in cps:
                want = max(y[k] + log_prod[k] for k in range(n))
                assert abs(batch.w_log(n)[i] - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize(
        "model,track_w",
        [
            (CASE_II, False),
            (CASE_III_CLT, True),
            (LogNormalPair(0.0, 1.0, QLogPareto(-1.0, 1.0)), True),
            (SignedUnit(0.75, QConstant(1.0)), False),
            (CASE_I_ASYM, False),
            (DiscreteJoint((((1.0, 2.0), 0.5), ((3.0, 0.25), 0.5))), False),
            (DiscreteJoint((((1.0, 2.0), 0.5), ((3.0, 0.25), 0.5))), True),
        ],
        ids=["ii", "iii_clt", "iii_evt", "iv", "case_i", "discrete_positive",
             "discrete_positive_w"],
    )
    def test_block_memory_is_refill_plus_slabs(self, model, track_w):
        # a block's buffers (the arena) hold one sub-block's raw words, then
        # its uniforms and draws, and the states (first the draws'
        # exponents), native Q and native M. Beyond them a block takes O(B):
        # one step pair's raw words, a few per-trajectory vectors, numpy's
        # cast buffers and the arrays of the trajectories the screen flags
        # (III-evt's huge Q); no (RENORM, B) slab, and nothing that grows
        # with the horizon. A positive discrete law makes its logs, two
        # (RENORM, B) arrays of their own, only for W, one sub-block's at a time
        arena = 2 * (RENORM + 2) + (RENORM + 1) + 2 * RENORM
        logs = 2 * RENORM if track_w and isinstance(model, DiscreteJoint) else 0
        budget = 8 * BLOCK * (arena + logs + 48)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            simulate._run_block(model, (1024,), 0, BLOCK, 11, track_w)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= budget

    def test_pool_parent_memory_is_the_batch(self, monkeypatch):
        # at workers 2 each process stores its blocks' snapshots in the
        # shared batch itself, so the parent's traced peak grows with N by
        # no more than the batch's 32 B per trajectory (two checkpoints of
        # 16 B) that one process would hold. While each range's snapshots
        # came back pickled, it grew by 67 B. The shared mapping is not
        # traced, so this bounds what the parent allocates beside it
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
        cfg = load_config(CONFIGS / "case1_sym.json")
        run_batch(cfg.model, (10, 40), 2 * BLOCK, cfg.seed, workers=2)
        peaks = []
        for count in (200_000, 400_000):
            tracemalloc.start()
            try:
                run_batch(cfg.model, (10, 40), count, cfg.seed, workers=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 200_000 <= 32

    def test_samples_accessor(self):
        batch = run_batch(FAIR_SIGN, [3], 8, master_seed=1)
        values = batch.vectors(3)
        assert values.mantissa.size == 8
        assert vec_to_real(values).tolist() == batch.to_reals(3).tolist()


class TestAdvance:
    """One sub-block of the kernel against the scaled recursion."""

    def test_matches_scaled_steps(self, monkeypatch):
        k, B = RENORM, 5
        rng = np.random.default_rng(7)
        # |Q| in [1, 2) and |M| in [1/2, 2), both signs: native steps exact
        q, m = (rng.uniform(1.0, 2.0, (k, B)) * rng.choice([-1.0, 1.0], (k, B)) for _ in "qm")
        q = ScaledVector(q, np.zeros((k, B), np.int64))
        m = ScaledVector(m, rng.integers(-1, 1, (k, B)))
        r, E = rng.uniform(1.0, 2.0, B), np.zeros(B, np.int64)
        # column 0: Q = 2**1500 at steps 3 and 20, each past double range
        # against R. M = 0 at step 19 makes R_19 = Q_19, a Q lost against
        # the scale of 2**1500, so the scale restarts at steps 3, 19 and 20
        q.exponent[[3, 20], 0] = 1500
        m.mantissa[19, 0], m.exponent[19, 0] = 0.0, 0
        # column 1: M = 2**80 at every step, beyond the native range of M
        m.exponent[:, 1] = 80
        # column 2: R = 2**-3000 at the start, Q near 2**-2990 and M = 2**80
        # at steps 0 and 10, so each restart lands far below 2**-1023
        E[2], q.exponent[:, 2], m.exponent[[0, 10], 2] = -3000, -2990, 80
        # columns 3 and 4 never flag
        h, qn, _ = simulate._native_pass(r, E, q, m)
        flagged = simulate._inexact(h, qn, q, m).any(axis=0)
        assert flagged.tolist() == [True, True, True, False, False]

        want = ScaledVector(r, E)
        for j in range(k):
            want = vec_add(ScaledVector(q.mantissa[j], q.exponent[j]),
                           vec_mul(ScaledVector(m.mantissa[j], m.exponent[j]), want))
        drawn = [a.copy() for a in (*q, *m)]
        calls = []

        def counted(*a):
            calls.append(a)
            assert len(calls) <= k, "the scaled fallback did not end within k rounds"
            return vec_add(*a)

        monkeypatch.setattr(simulate, "vec_add", counted)
        got = simulate._advance(r, E, q, m, simulate._Work(B))
        assert np.array_equal(got.mantissa, want.mantissa)
        assert np.array_equal(got.exponent, want.exponent)
        # the draws stay as they were: W is taken from them after the step
        assert all(np.array_equal(a, b) for a, b in zip(drawn, (*q, *m)))


    def test_screen_rules_each_needed(self):
        # two trajectories that only one rule of the screen sends to the
        # scaled steps, each staying nonzero within 2**+-900 otherwise.
        # Column 0: M = 2**25 builds the state to about 2**512, then
        # M = 2**-1100, 0 natively, leaves it Q = 2**-600 alone, where the
        # product is 2**-588: only the rule on M flags it. Column 1: Q = 0
        # and M = 1.7 * 2**-50 shrink the state into the subnormals, where
        # its last product rounds: only the states' lower bound flags it
        k, B = 21, 2
        q = ScaledVector(np.full((k, B), 1.25), np.zeros((k, B), np.int64))
        m = ScaledVector(np.full((k, B), 1.5), np.full((k, B), 25, np.int64))
        q.exponent[-1, 0], m.exponent[-1, 0] = -600, -1100
        q.mantissa[:, 1], m.mantissa[:, 1], m.exponent[:, 1] = 0.0, 1.7, -50
        r, E = np.array([1.5, 1.5]), np.zeros(B, np.int64)
        want = ScaledVector(r, E)
        for j in range(k):
            want = vec_add(ScaledVector(q.mantissa[j], q.exponent[j]),
                           vec_mul(ScaledVector(m.mantissa[j], m.exponent[j]), want))
        got = simulate._advance(r, E, q, m, simulate._Work(B))
        assert np.array_equal(got.mantissa, want.mantissa)
        assert np.array_equal(got.exponent, want.exponent)


class TestEnumerateExact:
    def test_fair_sign_r2(self):
        law = enumerate_exact(FAIR_SIGN, 2)
        assert law.atoms == [(0.0, 0.5), (2.0, 0.5)]

    def test_point_mass(self):
        law = enumerate_exact(POINT_MASS_12, 3)
        assert law.atoms == [(7.0, 1.0)]

    def test_n1_is_law_of_q(self):
        model = DiscreteJoint((((1.0, 2.0), 0.25), ((-3.0, 0.5), 0.75)))
        law = enumerate_exact(model, 1)
        assert law.atoms == [(-3.0, 0.75), (1.0, 0.25)]

    def test_guard(self):
        model = DiscreteJoint(
            (((1.0, 2.0), 0.4), ((0.0, 0.5), 0.3), ((-1.0, -1.0), 0.3))
        )
        with pytest.raises(TooLargeError):
            enumerate_exact(model, 20)

    def test_requires_discrete(self):
        with pytest.raises(InvalidModelError):
            enumerate_exact(CASE_II, 3)

    @pytest.mark.parametrize(
        "model",
        [
            FAIR_SIGN,
            DiscreteJoint((((1.0, 2.0), 0.3), ((-1.0, 0.5), 0.4), ((2.0, -1.5), 0.3))),
            DiscreteJoint((((0.5, 1.0), 0.75), ((1.0, -1.0), 0.25))),
        ],
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_against_brute_force(self, model, n):
        law = enumerate_exact(model, n)
        brute = brute_force_law(model, n)
        want = sorted(brute.items())
        got = law.atoms
        assert len(got) == len(want)
        for (gv, gp), (wv, wp) in zip(got, want):
            assert gv == pytest.approx(wv, abs=1e-12)
            assert gp == pytest.approx(wp, abs=1e-12)


class TestExactMomentsRecursion:
    def test_matches_enumeration_small(self):
        assert exact_moments_recursion(FAIR_SIGN, 2) == pytest.approx((1.0, 1.0))

    def test_variance_linear_growth(self):
        mean, var = exact_moments_recursion(FAIR_SIGN, 100)
        assert (mean, var) == pytest.approx((1.0, 99.0))

    def test_n1(self):
        model = SignedUnit(0.5, QRademacher(0.3))
        mean, var = exact_moments_recursion(model, 1)
        assert mean == pytest.approx(-0.4)
        assert var == pytest.approx(1 - 0.4**2)

    @pytest.mark.parametrize(
        "model",
        [
            FAIR_SIGN,
            DiscreteJoint((((1.0, 1.0), 0.75), ((1.0, -1.0), 0.25))),
            DiscreteJoint((((0.5, 1.0), 0.3), ((2.0, -1.0), 0.7))),
            SignedUnit(0.75, QConstant(1.0)),
        ],
    )
    @pytest.mark.parametrize("n", range(1, 11))
    def test_against_enumeration(self, model, n):
        if isinstance(model, SignedUnit):
            model = DiscreteJoint(
                (((model.q_law.value, 1.0), model.p_m), ((model.q_law.value, -1.0), 1 - model.p_m))
            )
        law = enumerate_exact(model, n)
        mean, var = exact_moments_recursion(model, n)
        assert abs(mean - law.mean()) < 1e-10
        assert abs(var - law.variance()) < 1e-10

    def test_rejects_non_unit_m(self):
        with pytest.raises(DomainError):
            exact_moments_recursion(POINT_MASS_12, 5)
        with pytest.raises(DomainError):
            exact_moments_recursion(CASE_II, 5)


class TestDistributionalIdentity:
    def test_batch_matches_enumeration_dkw(self):
        n_samples = 40_000
        bound = dkw_bound(n_samples, 0.01)
        model = DiscreteJoint((((1.0, 2.0), 0.3), ((-1.0, 0.5), 0.7)))
        batch = run_batch(model, list(range(1, 8)), n_samples, master_seed=818)
        for n in range(1, 8):
            law = enumerate_exact(model, n)
            values = np.sort(batch.to_reals(n))
            cum = np.cumsum(law.probs)
            ecdf = np.searchsorted(values, law.values + 1e-9) / n_samples
            assert np.abs(ecdf - cum).max() <= bound


class TestSeedDerivation:
    def test_distinct_keys(self):
        keys = {stream_key(s) for s in range(10_000)}
        assert len(keys) == 10_000

    def test_master_seed_sensitivity(self):
        assert stream_key(1) != stream_key(2)

    @pytest.mark.parametrize("seed", sorted(load_config(p).seed for p in CONFIGS.glob("*.json")))
    def test_stream_key_is_not_reference_seed(self, seed):
        # with one key, pair 0 of every trajectory would repeat the first
        # blocks of the reference sampler's stream
        assert stream_key(seed) == contract_key(seed)
        assert stream_key(seed) != reference_seed(seed)

    def test_trajectory_stream_ignores_count(self):
        # trajectory i draws from counters (i + 1, p) whatever N is, so its
        # snapshots at N = BLOCK + 2 recur at N = 2 * BLOCK + 5
        model, cps, seed = CASE_I_ASYM, [1, 7, 32, 33], 606
        small = run_batch(model, cps, BLOCK + 2, seed)
        large = run_batch(model, cps, 2 * BLOCK + 5, seed)
        picks = [0, BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1]
        for n in cps:
            for a, b in zip(small.vectors(n), large.vectors(n)):
                assert a[picks].tobytes() == b[picks].tobytes()


class TestUniforms:
    """The kernel's word-to-uniform step against ``Generator.random``."""

    def test_matches_generator_random(self):
        key = contract_key(2024)
        words = Philox(key=key).random_raw(10**5)
        want = Generator(Philox(key=key)).random(10**5) + 2.0**-54
        assert np.array_equal(simulate._uniforms(words).view(np.uint64), want.view(np.uint64))

    def test_edge_words(self):
        # with k the top 53 bits, k * 2**-53 + 2**-54 is exact below k = 2**52
        # and a tie from there on, rounded to even: up to 1.0 for k = 2**53 - 1,
        # which is clamped to 1 - 2**-53
        top = [1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1]
        words = [0, 2**64 - 1] + [k << 11 for k in top] + [(k << 11) | 0x7FF for k in top]
        got = simulate._uniforms(np.array(words, np.uint64))
        want = [
            min(float(Fraction(w >> 11, 2**53) + Fraction(1, 2**54)), 1 - 2**-53)
            for w in words
        ]
        assert got.view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()
        assert got[1] == 1 - 2**-53

    def test_python_float_formula(self):
        # each uniform is min((w >> 11) 2**-53 + 2**-54, 1 - 2**-53), its sum
        # rounded once as Python floats round it, whatever the kernel's own
        # arithmetic; on the extreme words, the ties k 2**11 + 2**10 and
        # random words
        ties = [(k << 11) | j for k in (0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 1)
                for j in (0, 2**10 - 1, 2**10, 2**11 - 1)]
        words = [0, 2**11 - 1, 2**64 - 2**11, 2**64 - 1, *ties,
                 *Philox(key=3).random_raw(1000).tolist()]
        got = simulate._uniforms(np.array(words, np.uint64)).tolist()
        assert got == [min((w >> 11) * 2.0**-53 + 2.0**-54, 1.0 - 2.0**-53) for w in words]

    def test_top_word_draws_are_finite(self):
        u = simulate._uniforms(np.array([2**64 - 1], np.uint64))
        model = LogNormalPair(0.0, 1.0, QLogNormal(0.0, 1.0))
        draws = model.scaled_draws(u, u.copy())
        for v in (draws.q.scaled(), draws.m.scaled()):
            assert np.isfinite(v.mantissa).all()
            assert (np.abs(v.exponent) < 2**62).all()

