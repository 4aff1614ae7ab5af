"""Scaled arithmetic against exact references (Fraction and mpmath)."""

import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perpsim.errors import ExponentOverflowError, InvalidInputError, NativeRangeError
from perpsim.models import DiscreteJoint, LogNormalPair, QConstant, QLogPareto, analytic_moments, classify
from perpsim.normalize import _rho_power_factor, normalize_samples
from perpsim.scaled import (
    ScaledVector,
    vec_add,
    vec_from_log,
    vec_from_real,
    vec_log_abs,
    vec_mul,
    vec_to_real,
)
from perpsim.simulate import run_batch
from test_simulate import trajectory_uniforms

# Exclude subnormals: exactness is only promised on the normal range.
normal_floats = st.floats(
    min_value=-1e300,
    max_value=1e300,
    allow_nan=False,
    allow_infinity=False,
    allow_subnormal=False,
)

mantissas = st.floats(min_value=1.0, max_value=2.0, exclude_max=True)

# (signed mantissa, exponent offset); zero is (0.0, 0). Offsets are
# relative to a large shared base exponent, so exact Fractions stay small.
signed_mantissas = st.builds(lambda s, m: s * m, st.sampled_from([-1.0, 1.0]), mantissas)
offset_pairs = st.one_of(
    st.tuples(signed_mantissas, st.integers(-150, 150)),
    st.just((0.0, 0)),
)
base_exponents = st.integers(min_value=-(2**40), max_value=2**40)


def pack(pairs, base=0):
    """ScaledVector from (signed mantissa, exponent offset) pairs."""
    return ScaledVector(
        np.array([m for m, _ in pairs]),
        np.array([e + base if m else 0 for m, e in pairs], dtype=np.int64),
    )


def pair(v: ScaledVector, i: int = 0):
    return float(v.mantissa[i]), int(v.exponent[i])


def exact(mantissa, exponent) -> Fraction:
    """Exact value of mantissa * 2**exponent."""
    return Fraction(mantissa) * Fraction(2) ** exponent


def mp_value(mantissa, exponent):
    return mpmath.ldexp(mpmath.mpf(mantissa), exponent)


def one(x: float) -> ScaledVector:
    return vec_from_real(np.array([x]))


class TestScaledVector:
    def test_replace_any_batch_size(self):
        # a NamedTuple of two fields: its length is 2 whatever the batch size
        v = vec_from_real(np.array([1.0, -2.0, 3.0, 0.5]))
        flipped = v._replace(mantissa=-v.mantissa)
        assert vec_to_real(flipped).tolist() == [-1.0, 2.0, -3.0, -0.5]
        assert len(v) == 2
        assert ScaledVector._fields == ("mantissa", "exponent")


class TestFromReal:
    def test_zero(self):
        # -0.0 too becomes the canonical zero, with a positive mantissa
        v = vec_from_real(np.array([0.0, -0.0]))
        assert [pair(v, 0), pair(v, 1)] == [(0.0, 0), (0.0, 0)]
        assert not np.signbit(v.mantissa).any()

    def test_negative_power_of_two(self):
        assert pair(one(-8.0)) == (-1.0, 3)

    def test_three(self):
        assert pair(one(3.0)) == (1.5, 1)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            vec_from_real(np.array([1.0, bad]))

    @pytest.mark.parametrize(
        "xs",
        [
            [0.0],
            [-0.0],
            [5e-324],
            [-5e-324],
            [1.7976931348623157e308],
            [-1.7976931348623157e308],
            [[0.0, -5e-324, 3.0, -0.0], [1.7976931348623157e308, -1e-310, 0.1, -2.2250738585072014e-308]],
        ],
        ids=["zero", "neg_zero", "min_subnormal", "neg_min_subnormal", "max", "neg_max", "mixed"],
    )
    def test_matches_frexp_where_formula(self, xs):
        # the decomposition as first built: np.where around frexp
        x = np.array(xs)
        m, e = np.frexp(x)
        zero = m == 0.0
        want = (np.where(zero, 0.0, 2.0 * m), np.where(zero, 0, e.astype(np.int64) - 1))
        for part, w in zip(vec_from_real(x), want):
            assert part.dtype == w.dtype and part.shape == w.shape
            assert part.tobytes() == w.tobytes()

    @given(normal_floats)
    def test_round_trip(self, x):
        v = one(x)
        assert exact(*pair(v)) == Fraction(x)
        assert vec_to_real(v)[0] == x


class TestMul:
    def test_plain(self):
        out = vec_mul(pack([(1.5, 10)]), pack([(-1.2, 5)]))
        assert pair(out) == (-1.5 * 1.2, 15)

    def test_zero_annihilates(self):
        zero = pack([(0.0, 0)])
        out = vec_mul(pack([(-1.5, 10)]), zero)
        assert pair(out) == (0.0, 0) and not np.signbit(out.mantissa[0])
        assert pair(vec_mul(zero, zero)) == (0.0, 0)

    def test_mantissa_carry(self):
        out = vec_mul(pack([(1.5, 0)]), pack([(-1.5, 0)]))
        assert pair(out) == (-1.125, 1)

    def test_exponent_overflow(self):
        # vec_mul itself does not check; the engine refuses a checkpoint
        # whose exponent passes 2**62 and names the trajectory and n. M =
        # e**X with X near 1.3e18 adds about 1.9e18 to the exponent a step,
        # so R_3 = Q + M_3 (Q + M_2) stays within 2**62 and R_4 does not
        model = LogNormalPair(1.3e18, 1.0, QConstant(1.0))
        run_batch(model, [3], 1, master_seed=1)
        with pytest.raises(ExponentOverflowError, match=r"trajectory 0: exponent \d+ beyond \+/-2\*\*62 at n=4$"):
            run_batch(model, [4], 1, master_seed=1)

    @given(st.lists(st.tuples(offset_pairs, offset_pairs), min_size=1, max_size=30), base_exponents)
    def test_sign_algebra_exact(self, pairs, base):
        out = vec_mul(pack([a for a, _ in pairs], base), pack([b for _, b in pairs], base))
        assert np.sign(out.mantissa).tolist() == [np.sign(a[0] * b[0]) for a, b in pairs]

    @given(offset_pairs, offset_pairs, base_exponents)
    def test_log_additivity(self, a, b, base):
        # ln|a b| against mpmath's exact ln|a| + ln|b|: no float sum of
        # two large, nearly cancelling logs enters the reference
        if a[0] == 0 or b[0] == 0:
            return
        got = vec_log_abs(vec_mul(pack([a], base), pack([b], base)))[0]
        with mpmath.workprec(200):
            want = mpmath.log(abs(mp_value(a[0], a[1] + base))) + mpmath.log(
                abs(mp_value(b[0], b[1] + base))
            )
            err = abs(mpmath.mpf(got) - want)
        assert err <= 1e-15 * (1.0 + abs(float(want)))


class TestAdd:
    """vec_add returns the correctly rounded sum for every input."""

    def test_dominated(self):
        out = vec_add(pack([(1.0, 100)]), pack([(1.0, 0)]))
        assert pair(out) == (1.0, 100)

    def test_54_binades_down_rounds(self):
        # 1 - (1 + 2**-52) 2**-54 lies below the midpoint 1 - 2**-54, so it
        # rounds to the double below 1, 1 - 2**-53, not back to 1
        a, b = pack([(1.0, 0)]), pack([(-(1.0 + 2.0**-52), -54)])
        for out in (vec_add(a, b), vec_add(b, a)):
            assert pair(out) == (2.0 - 2.0**-52, -1)
        # 55 binades down the addend is below half an ulp of either neighbour
        assert pair(vec_add(a, pack([(-1.999, -55)]))) == (1.0, 0)

    def test_cancellation(self):
        out = vec_add(pack([(1.0, 3)]), pack([(-1.0, 3)]))
        assert pair(out) == (0.0, 0) and not np.signbit(out.mantissa[0])

    def test_three_plus_one(self):
        out = vec_add(pack([(1.5, 1)]), pack([(1.0, 0)]))
        assert pair(out) == (1.0, 2)

    @given(
        st.one_of(st.just(1.0), mantissas),
        signed_mantissas,
        st.integers(50, 57),
        st.sampled_from([-1.0, 1.0]),
        base_exponents,
    )
    def test_correctly_rounded_near_absorption(self, ma, mb, gap, sign, base):
        # an addend 50 to 57 binades down, half the time against mantissa 1.0
        a, b = pack([(sign * ma, 0)], base), pack([(mb, -gap)], base)
        want = Fraction(float(exact(sign * ma, 0) + exact(mb, -gap)))
        for out in (vec_add(a, b), vec_add(b, a)):
            m, e = pair(out)
            assert exact(m, e - base) == want
            assert 1.0 <= abs(m) < 2.0

    @given(st.lists(st.tuples(offset_pairs, offset_pairs), min_size=1, max_size=30), base_exponents)
    def test_commutative_bitwise(self, pairs, base):
        a = pack([x for x, _ in pairs], base)
        b = pack([y for _, y in pairs], base)
        x, y = vec_add(a, b), vec_add(b, a)
        for u, v in zip(x, y):
            assert np.array_equal(u, v)

    @given(st.lists(offset_pairs, min_size=1, max_size=30), base_exponents)
    def test_zero_identity(self, pairs, base):
        a = pack(pairs, base)
        zero = pack([(0.0, 0)] * len(pairs))
        for out in (vec_add(a, zero), vec_add(zero, a)):
            for u, v in zip(out, a):
                assert np.array_equal(u, v)

    @given(normal_floats, normal_floats)
    def test_matches_native_addition(self, x, y):
        # within native range the scaled sum is the native sum, bit for bit
        z = x + y
        if not math.isfinite(z):
            return
        assert vec_to_real(vec_add(one(x), one(y)))[0] == z


class TestSignedPow:
    """The signed power map sgn(r) |r|**t of normalize_samples.

    The II-signed normalization with mu = 0, v = 1/t and n = 1 is exactly
    sgn(r) |r|**t, evaluated through ln|r| so r may lie far outside
    native range.
    """

    MODEL = DiscreteJoint((((1.0, 2.0), 0.5), ((1.0, -4.0), 0.5)))
    REG = classify(analytic_moments(MODEL), MODEL)

    def power(self, values: ScaledVector, t: float) -> np.ndarray:
        reg = dataclasses.replace(self.REG, mu=0.0, v=1.0 / t)
        return normalize_samples(reg, values, 1)

    def test_cube_root(self):
        assert self.power(one(-8.0), 1.0 / 3.0)[0] == pytest.approx(-2.0, rel=1e-14)

    def test_zero_exponent(self):
        out = self.power(vec_from_real(np.array([-3.7, 3.7])), 1e-300)
        assert out.tolist() == [-1.0, 1.0]

    def test_zero_base(self):
        assert self.power(one(0.0), 0.5)[0] == 0.0

    def test_huge_value_small_exponent(self):
        # |a| ~ e**400 (outside native range), a**(1/100) ~ e**4
        a = vec_from_log(np.array([400.0]))
        got = self.power(a, 0.01)[0]
        with mpmath.workprec(200):
            want = mpmath.exp(mpmath.log(mp_value(*pair(a))) / 100)
        assert got == pytest.approx(float(want), rel=1e-13)

    @given(normal_floats.filter(lambda x: x != 0.0))
    def test_identity_exponent(self, x):
        got = self.power(one(x), 1.0)[0]
        assert math.isclose(got, x, rel_tol=4e-16 * (2.0 + abs(math.log(abs(x)))))


class TestLogAbsToReal:
    def test_log_one(self):
        assert vec_log_abs(pack([(1.0, 0)]))[0] == 0.0

    def test_log_eight(self):
        assert vec_log_abs(pack([(-1.0, 3)]))[0] == pytest.approx(
            math.log(8.0), rel=1e-15
        )

    def test_log_large(self):
        assert vec_log_abs(pack([(1.0, 1000)]))[0] == pytest.approx(
            1000 * math.log(2.0), rel=1e-15
        )

    def test_log_zero_is_minus_inf(self):
        logs = vec_log_abs(pack([(1.5, 0), (0.0, 0)]))
        assert logs.tolist() == [math.log(1.5), -math.inf]

    def test_to_real_examples(self):
        assert vec_to_real(pack([(1.5, 1), (0.0, 0)])).tolist() == [3.0, 0.0]

    def test_to_real_range(self):
        # above double range: refused; below it: gradual underflow to 0
        with pytest.raises(NativeRangeError):
            vec_to_real(pack([(1.0, 2000)]))
        with pytest.raises(NativeRangeError):
            vec_to_real(pack([(-1.0, 1024)]))
        low = vec_to_real(pack([(1.5, -1023), (-1.0, -1074), (1.0, -1076), (-1.0, -2000)]))
        assert low.tolist() == [1.5 * 2.0**-1023, -(2.0**-1074), 0.0, -0.0]
        assert vec_to_real(pack([(1.0 + 2.0**-52, 1023)]))[0] == 2.0**1023 * (1.0 + 2.0**-52)


class TestFromLog:
    def test_value_accuracy(self):
        a = vec_from_log(np.array([math.log(8.0)]))
        assert a.mantissa[0] > 0
        assert vec_to_real(a)[0] == pytest.approx(8.0, rel=1e-14)

    @given(st.floats(min_value=-500, max_value=500, allow_nan=False))
    def test_matches_exp(self, y):
        a = vec_from_log(np.array([y]))
        with mpmath.workprec(200):
            rel = abs(mp_value(*pair(a)) / mpmath.exp(y) - 1)
        assert rel <= 4e-16 * (2.0 + abs(y))

    # exponents past +/-2**62 are refused before the int64 cast
    def test_log_pareto_draw_past_limit(self):
        # y = 1e-6 ** -4 = 1e24, so e**y needs the exponent 1.44e24
        with pytest.raises(ExponentOverflowError, match="beyond") as info:
            QLogPareto(-0.25, 1.0).draw(np.array([1e-6])).scaled()
        assert info.value.index == (0,)

    @pytest.mark.parametrize("bad", [-1e19, 1e19, math.inf, -math.inf, math.nan])
    def test_offender_position(self, bad):
        logs = np.array([[0.0, 1.0, 2.0], [3.0, bad, -bad]])
        with pytest.raises(ExponentOverflowError) as info:
            vec_from_log(logs)
        assert info.value.index == (1, 1)

    def test_limit_itself_is_kept(self):
        # y log2 e is exactly +-2**62 here; one ulp further out is refused
        logs = np.array([1.0, -1.0]) * 2.0**62 * math.log(2.0)
        assert vec_from_log(logs).exponent.tolist() == [2**62, -(2**62)]
        for y in np.nextafter(logs, logs * 2.0):
            with pytest.raises(ExponentOverflowError):
                vec_from_log(np.array([y]))

    def test_run_batch_names_trajectory_and_step(self):
        # the first step of any trajectory whose Q = e**(u**-4) passes
        # 2**(2**62), read off each trajectory's own stream; ties in n go
        # to the lower trajectory
        count, horizon, seed = 64, 1000, 5
        first = []
        for i in range(count):
            u_q = trajectory_uniforms(seed, i, horizon)[:, 0]
            past = np.flatnonzero(u_q**-4.0 / math.log(2.0) >= 2.0**62 + 1.0)
            if past.size:
                first.append((int(past[0]) + 1, i))
        n, traj = min(first)
        model = LogNormalPair(0.0, 1.0, QLogPareto(-0.25, 1.0))
        with pytest.raises(ExponentOverflowError, match=rf"^trajectory {traj}: .* at n={n}$"):
            run_batch(model, [100, horizon], count, seed)


class TestHelpers:
    """rho**-(n-1) for the Case I normalization: a squaring chain of
    vec_mul followed by one reciprocal."""

    def test_pow_int(self):
        # 3**-4 = 1/81, within a few roundings of the exact value
        got = exact(*pair(_rho_power_factor(3.0, 5)))
        assert abs(got * 81 - 1) <= Fraction(1, 2**50)
        assert pair(_rho_power_factor(3.0, 1)) == (1.0, 0)

    def test_pow_int_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            _rho_power_factor(3.0, 0)

    def test_reciprocal(self):
        assert vec_to_real(_rho_power_factor(12.0, 2))[0] == float(Fraction(1, 12))
        assert exact(*pair(_rho_power_factor(4.0, 4))) == Fraction(1, 64)

    @pytest.mark.parametrize("n", [1, 2, 10, 40, 60, 1100])
    def test_power_of_two_is_exponent_shift(self, n):
        # at rho = 2 the Case I map r / 2**(n-1) is exact in scaled arithmetic
        assert pair(_rho_power_factor(2.0, n)) == (1.0, -(n - 1))


class TestVectorEquivalence:
    """The batched kernel against exact Fraction and mpmath references."""

    @given(st.lists(normal_floats, min_size=1, max_size=50))
    def test_vec_from_real(self, xs):
        vv = vec_from_real(np.array(xs))
        for i, x in enumerate(xs):
            m, e = pair(vv, i)
            assert exact(m, e) == Fraction(x)
            assert (m, e) == (0.0, 0) or 1.0 <= abs(m) < 2.0

    @given(
        st.lists(st.tuples(offset_pairs, offset_pairs), min_size=1, max_size=50),
        base_exponents,
    )
    @settings(max_examples=200)
    def test_vec_mul_add_bitwise(self, pairs, base):
        # exact values are taken relative to 2**base (2**(2 base) for
        # products), which leaves the roundings unchanged
        av = pack([a for a, _ in pairs], base)
        bv = pack([b for _, b in pairs], base)
        vm, va = vec_mul(av, bv), vec_add(av, bv)
        for i, (a, b) in enumerate(pairs):
            x, y = exact(*a), exact(*b)
            # the product and the sum are the correctly rounded exact ones
            for (m, e), want, shift in ((pair(vm, i), x * y, 2 * base), (pair(va, i), x + y, base)):
                if want == 0:
                    assert (m, e) == (0.0, 0)
                else:
                    assert exact(m, e - shift) == Fraction(float(want))
                    assert 1.0 <= abs(m) < 2.0

    @given(st.lists(st.floats(min_value=-600, max_value=600), min_size=1, max_size=20))
    def test_vec_from_log(self, ys):
        vv = vec_from_log(np.array(ys))
        with mpmath.workprec(200):
            for i, y in enumerate(ys):
                m, e = pair(vv, i)
                assert 1.0 <= m < 2.0
                rel = abs(mp_value(m, e) / mpmath.exp(y) - 1)
                assert rel <= 4e-16 * (2.0 + abs(y))

    @given(st.lists(offset_pairs.filter(lambda t: t[0] != 0), min_size=1, max_size=30), base_exponents)
    def test_vec_log_abs(self, pairs, base):
        logs = vec_log_abs(pack(pairs, base))
        with mpmath.workprec(200):
            for got, (m, e) in zip(logs, pairs):
                want = mpmath.log(abs(mp_value(m, e + base)))
                assert abs(mpmath.mpf(got) - want) <= 1e-15 * (1.0 + abs(float(want)))

    def test_vec_to_real(self):
        vv = vec_from_real(np.array([-3.0, 0.0, 0.5, 1e100]))
        assert vec_to_real(vv).tolist() == [-3.0, 0.0, 0.5, 1e100]
        with pytest.raises(NativeRangeError):
            vec_to_real(pack([(1.0, 2000)]))
