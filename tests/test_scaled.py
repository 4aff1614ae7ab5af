"""Scaled arithmetic against exact references (Fraction and mpmath)."""

import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perpsim.errors import (
    DomainError,
    ExponentOverflowError,
    InvalidInputError,
    NativeRangeError,
)
from perpsim.models import DiscreteJoint, analytic_moments, classify
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

# Exclude subnormals: exactness is only promised on the normal range.
normal_floats = st.floats(
    min_value=-1e300,
    max_value=1e300,
    allow_nan=False,
    allow_infinity=False,
    allow_subnormal=False,
)

mantissas = st.floats(min_value=1.0, max_value=2.0, exclude_max=True)

# (sign, exponent offset, mantissa); zero is (0, 0, 1.0). Offsets are
# relative to a large shared base exponent, so exact Fractions stay small.
offset_triples = st.one_of(
    st.tuples(st.sampled_from([-1, 1]), st.integers(-150, 150), mantissas),
    st.just((0, 0, 1.0)),
)
base_exponents = st.integers(min_value=-(2**40), max_value=2**40)


def pack(triples, base=0):
    """ScaledVector from (sign, exponent offset, mantissa) triples."""
    return ScaledVector(
        np.array([s for s, _, _ in triples], dtype=np.int8),
        np.array([e + base if s else 0 for s, e, _ in triples], dtype=np.int64),
        np.array([m for _, _, m in triples]),
    )


def triple(v: ScaledVector, i: int = 0):
    return int(v.sign[i]), int(v.exponent[i]), float(v.mantissa[i])


def exact(sign, exponent, mantissa) -> Fraction:
    """Exact value of sign * mantissa * 2**exponent."""
    return sign * Fraction(mantissa) * Fraction(2) ** exponent


def mp_value(sign, exponent, mantissa):
    return sign * mpmath.ldexp(mpmath.mpf(mantissa), exponent)


def one(x: float) -> ScaledVector:
    return vec_from_real(np.array([x]))


class TestScaledVector:
    def test_replace_any_batch_size(self):
        # a NamedTuple of three fields: its length is 3 whatever the batch size
        v = vec_from_real(np.array([1.0, -2.0, 3.0, 0.5]))
        flipped = v._replace(sign=-v.sign)
        assert vec_to_real(flipped).tolist() == [-1.0, 2.0, -3.0, -0.5]
        assert len(v) == 3


class TestFromReal:
    def test_zero(self):
        assert triple(one(0.0)) == (0, 0, 1.0)

    def test_negative_power_of_two(self):
        assert triple(one(-8.0)) == (-1, 3, 1.0)

    def test_three(self):
        assert triple(one(3.0)) == (1, 1, 1.5)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            vec_from_real(np.array([1.0, bad]))

    @given(normal_floats)
    def test_round_trip(self, x):
        v = one(x)
        assert exact(*triple(v)) == Fraction(x)
        assert vec_to_real(v)[0] == x


class TestMul:
    def test_plain(self):
        out = vec_mul(pack([(1, 10, 1.5)]), pack([(-1, 5, 1.2)]))
        assert triple(out) == (-1, 15, 1.5 * 1.2)

    def test_zero_annihilates(self):
        zero = pack([(0, 0, 1.0)])
        assert triple(vec_mul(pack([(1, 10, 1.5)]), zero)) == (0, 0, 1.0)
        assert triple(vec_mul(zero, zero)) == (0, 0, 1.0)

    def test_mantissa_carry(self):
        out = vec_mul(pack([(1, 0, 1.5)]), pack([(1, 0, 1.5)]))
        assert triple(out) == (1, 1, 1.125)

    def test_exponent_overflow(self):
        # vec_mul itself does not check; the engine refuses a checkpoint
        # whose exponent passes 2**62 and names the trajectory and n
        class HugeM:
            positive = True

            def scaled_draws(self, u_q, u_m):
                ones = np.ones(u_q.shape)
                q = ScaledVector(np.ones(u_q.shape, np.int8), np.zeros(u_q.shape, np.int64), ones)
                m = ScaledVector(np.ones(u_m.shape, np.int8), np.full(u_m.shape, 2**61), ones)
                return q, m

        with pytest.raises(ExponentOverflowError, match=r"trajectory 0: .* at n=4"):
            run_batch(HugeM(), [4], 1, master_seed=1)

    @given(st.lists(st.tuples(offset_triples, offset_triples), min_size=1, max_size=30), base_exponents)
    def test_sign_algebra_exact(self, pairs, base):
        out = vec_mul(pack([a for a, _ in pairs], base), pack([b for _, b in pairs], base))
        assert out.sign.tolist() == [a[0] * b[0] for a, b in pairs]

    @given(offset_triples, offset_triples, base_exponents)
    def test_log_additivity(self, a, b, base):
        # ln|a b| against mpmath's exact ln|a| + ln|b|: no float sum of
        # two large, nearly cancelling logs enters the reference
        if a[0] == 0 or b[0] == 0:
            return
        got = vec_log_abs(vec_mul(pack([a], base), pack([b], base)))[0]
        with mpmath.workprec(200):
            want = mpmath.log(abs(mp_value(a[0], a[1] + base, a[2]))) + mpmath.log(
                abs(mp_value(b[0], b[1] + base, b[2]))
            )
            err = abs(mpmath.mpf(got) - want)
        assert err <= 1e-15 * (1.0 + abs(float(want)))


class TestAdd:
    def test_dominated(self):
        out = vec_add(pack([(1, 100, 1.0)]), pack([(1, 0, 1.0)]))
        assert triple(out) == (1, 100, 1.0)

    def test_cancellation(self):
        out = vec_add(pack([(1, 3, 1.0)]), pack([(-1, 3, 1.0)]))
        assert triple(out) == (0, 0, 1.0)

    def test_three_plus_one(self):
        out = vec_add(pack([(1, 1, 1.5)]), pack([(1, 0, 1.0)]))
        assert triple(out) == (1, 2, 1.0)

    @given(st.lists(st.tuples(offset_triples, offset_triples), min_size=1, max_size=30), base_exponents)
    def test_commutative_bitwise(self, pairs, base):
        a = pack([x for x, _ in pairs], base)
        b = pack([y for _, y in pairs], base)
        x, y = vec_add(a, b), vec_add(b, a)
        for u, v in zip(x, y):
            assert np.array_equal(u, v)

    @given(st.lists(offset_triples, min_size=1, max_size=30), base_exponents)
    def test_zero_identity(self, triples, base):
        a = pack(triples, base)
        zero = pack([(0, 0, 1.0)] * len(triples))
        for out in (vec_add(a, zero), vec_add(zero, a)):
            for u, v in zip(out, a):
                assert np.array_equal(u, v)

    @given(normal_floats, normal_floats)
    def test_matches_native_addition(self, x, y):
        # within native range the scaled sum must agree to ~1 ulp
        z = x + y
        if not math.isfinite(z) or z == 0.0:
            return
        out = vec_add(one(x), one(y))
        if out.sign[0] == 0:
            assert z == 0.0
            return
        assert math.isclose(vec_to_real(out)[0], z, rel_tol=4e-16)


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
            want = mpmath.exp(mpmath.log(mp_value(*triple(a))) / 100)
        assert got == pytest.approx(float(want), rel=1e-13)

    @given(normal_floats.filter(lambda x: x != 0.0))
    def test_identity_exponent(self, x):
        got = self.power(one(x), 1.0)[0]
        assert math.isclose(got, x, rel_tol=4e-16 * (2.0 + abs(math.log(abs(x)))))


class TestLogAbsToReal:
    def test_log_one(self):
        assert vec_log_abs(pack([(1, 0, 1.0)]))[0] == 0.0

    def test_log_eight(self):
        assert vec_log_abs(pack([(-1, 3, 1.0)]))[0] == pytest.approx(
            math.log(8.0), rel=1e-15
        )

    def test_log_large(self):
        assert vec_log_abs(pack([(1, 1000, 1.0)]))[0] == pytest.approx(
            1000 * math.log(2.0), rel=1e-15
        )

    def test_log_zero_rejected(self):
        with pytest.raises(DomainError):
            vec_log_abs(pack([(1, 0, 1.5), (0, 0, 1.0)]))

    def test_to_real_examples(self):
        assert vec_to_real(pack([(1, 1, 1.5), (0, 0, 1.0)])).tolist() == [3.0, 0.0]

    def test_to_real_range(self):
        with pytest.raises(NativeRangeError):
            vec_to_real(pack([(1, 2000, 1.0)]))
        with pytest.raises(NativeRangeError):
            vec_to_real(pack([(1, -2000, 1.0)]))


class TestFromLog:
    def test_value_accuracy(self):
        a = vec_from_log(np.array([math.log(8.0)]))
        assert a.sign[0] == 1
        assert vec_to_real(a)[0] == pytest.approx(8.0, rel=1e-14)

    def test_sign_passthrough(self):
        assert triple(vec_from_log(np.array([0.0]), sign=-1)) == (-1, 0, 1.0)
        neg = vec_from_log(np.array([123.0, -5.0]), sign=-1)
        pos = vec_from_log(np.array([123.0, -5.0]))
        assert neg.sign.tolist() == [-1, -1]
        assert np.array_equal(neg.exponent, pos.exponent)
        assert np.array_equal(neg.mantissa, pos.mantissa)

    @given(st.floats(min_value=-500, max_value=500, allow_nan=False))
    def test_matches_exp(self, y):
        a = vec_from_log(np.array([y]))
        with mpmath.workprec(200):
            rel = abs(mp_value(*triple(a)) / mpmath.exp(y) - 1)
        assert rel <= 4e-16 * (2.0 + abs(y))


class TestHelpers:
    """rho**-(n-1) for the Case I normalization: a squaring chain of
    vec_mul followed by one reciprocal."""

    def test_pow_int(self):
        # 3**-4 = 1/81, within a few roundings of the exact value
        got = exact(*triple(_rho_power_factor(3.0, 5)))
        assert abs(got * 81 - 1) <= Fraction(1, 2**50)
        assert triple(_rho_power_factor(3.0, 1)) == (1, 0, 1.0)

    def test_pow_int_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            _rho_power_factor(3.0, 0)

    def test_reciprocal(self):
        assert vec_to_real(_rho_power_factor(12.0, 2))[0] == float(Fraction(1, 12))
        assert exact(*triple(_rho_power_factor(4.0, 4))) == Fraction(1, 64)

    @pytest.mark.parametrize("n", [1, 2, 10, 40, 60, 1100])
    def test_power_of_two_is_exponent_shift(self, n):
        # at rho = 2 the Case I map r / 2**(n-1) is exact in scaled arithmetic
        assert triple(_rho_power_factor(2.0, n)) == (1, -(n - 1), 1.0)


class TestVectorEquivalence:
    """The batched kernel against exact Fraction and mpmath references."""

    @given(st.lists(normal_floats, min_size=1, max_size=50))
    def test_vec_from_real(self, xs):
        vv = vec_from_real(np.array(xs))
        for i, x in enumerate(xs):
            s, e, m = triple(vv, i)
            assert exact(s, e, m) == Fraction(x)
            assert s == 0 or 1.0 <= m < 2.0

    @given(
        st.lists(st.tuples(offset_triples, offset_triples), min_size=1, max_size=50),
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
            # the product is the correctly rounded exact product
            s, e, m = triple(vm, i)
            p = x * y
            assert s == (p > 0) - (p < 0)
            if s:
                assert exact(s, e - 2 * base, m) == Fraction(float(p))
                assert 1.0 <= m < 2.0
            # the sum is within one ulp of the exact sum (half an ulp
            # when the smaller operand is dominated, else correctly rounded)
            s, e, m = triple(va, i)
            total = x + y
            if s == 0:
                assert total == 0
                continue
            got = exact(s, e - base, m)
            assert abs(got - total) <= Fraction(2) ** (e - base - 52)
            if a[0] and b[0] and abs(a[1] - b[1]) <= 52:
                assert got == Fraction(float(total))

    @given(st.lists(st.floats(min_value=-600, max_value=600), min_size=1, max_size=20))
    def test_vec_from_log(self, ys):
        vv = vec_from_log(np.array(ys))
        with mpmath.workprec(200):
            for i, y in enumerate(ys):
                s, e, m = triple(vv, i)
                assert s == 1 and 1.0 <= m < 2.0
                rel = abs(mp_value(s, e, m) / mpmath.exp(y) - 1)
                assert rel <= 4e-16 * (2.0 + abs(y))

    @given(st.lists(offset_triples.filter(lambda t: t[0] != 0), min_size=1, max_size=30), base_exponents)
    def test_vec_log_abs(self, triples, base):
        logs = vec_log_abs(pack(triples, base))
        with mpmath.workprec(200):
            for got, (s, e, m) in zip(logs, triples):
                want = mpmath.log(abs(mp_value(s, e + base, m)))
                assert abs(mpmath.mpf(got) - want) <= 1e-15 * (1.0 + abs(float(want)))

    def test_vec_to_real(self):
        vv = vec_from_real(np.array([-3.0, 0.0, 0.5, 1e100]))
        assert vec_to_real(vv).tolist() == [-3.0, 0.0, 0.5, 1e100]
        with pytest.raises(NativeRangeError):
            vec_to_real(pack([(1, 2000, 1.0)]))
