"""Normalization maps: formulas against mpmath, sign handling, monotonicity."""

import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from perpsim.errors import InvalidArgumentsError
from perpsim.models import (
    DiscreteJoint,
    LogNormalPair,
    QConstant,
    QLogBoundary,
    QLogNormal,
    QLogPareto,
    QRademacher,
    ScaledRademacher,
    SignedUnit,
    analytic_moments,
    classify,
)
from perpsim.normalize import normalize_samples
from perpsim.scaled import ScaledVector, vec_from_log, vec_from_real
from perpsim.stats import ks_two_sample


def regime_for(model):
    return classify(analytic_moments(model), model)


REG_I_SYM = regime_for(ScaledRademacher(2.0, 0.5, QRademacher(0.5)))
REG_I_RHO3 = regime_for(ScaledRademacher(3.0, 0.5, QRademacher(0.5)))
REG_II_ABS = regime_for(LogNormalPair(0.5, 1.0, QConstant(1.0)))
REG_III_CLT = regime_for(LogNormalPair(0.0, 1.0, QLogNormal(0.0, 1.0)))
REG_III_EVT = regime_for(LogNormalPair(0.0, 1.0, QLogPareto(-1.0, 1.0)))
REG_III_BG = regime_for(LogNormalPair(0.0, 1.0, QLogBoundary("growing", 2.0)))
REG_IV = regime_for(SignedUnit(0.75, QConstant(1.0)))
REG_II_SIGNED = regime_for(DiscreteJoint((((1.0, 2.0), 0.5), ((1.0, -4.0), 0.5))))


def norm(regime, xs, n, gamma_n=None) -> np.ndarray:
    return normalize_samples(regime, vec_from_real(np.array(xs, dtype=float)), n, gamma_n)


def mp_reference(regime, mantissa, exponent, n, gamma_n=None):
    """The regime's map evaluated in 200-bit arithmetic from the exact input."""
    case = regime.case
    with mpmath.workprec(200):
        r = mpmath.ldexp(mpmath.mpf(mantissa), exponent)
        if case in ("I-sym", "I-asym"):
            return r / mpmath.mpf(regime.rho) ** (n - 1)
        if case == "IV":
            return r / mpmath.sqrt(n)
        if r == 0:
            return mpmath.mpf(0)
        if case in ("III-evt", "III-boundary-growing"):
            divisor, shift = mpmath.mpf(gamma_n), 0
        else:
            divisor = regime.v * mpmath.sqrt(n)
            shift = regime.mu * mpmath.sqrt(n) / regime.v if case.startswith("II") else 0
        mag = mpmath.exp(mpmath.log(abs(r)) / divisor - shift)
        return mpmath.sign(r) * mag if case == "II-signed" else mag


def assert_matches_mpmath(regime, values: ScaledVector, n, gamma_n=None, rel=1e-12):
    got = normalize_samples(regime, values, n, gamma_n)
    for i in range(values.mantissa.size):
        m, e = float(values.mantissa[i]), int(values.exponent[i])
        want = float(mp_reference(regime, m, e, n, gamma_n))
        assert got[i] == pytest.approx(want, rel=rel, abs=1e-300), (regime.case, i)


class TestExamples:
    def test_case_i_power_of_two(self):
        assert norm(REG_I_SYM, [16.0], 5)[0] == 1.0

    def test_case_i_rho3(self):
        assert norm(REG_I_RHO3, [3.0**7 * 1.25], 8)[0] == pytest.approx(1.25, rel=1e-12)

    def test_case_ii_signed(self):
        # mu=0.5, v=1, n=4, r=-e^4 -> -e
        reg = dataclasses.replace(REG_II_SIGNED, mu=0.5, v=1.0)
        m, e = vec_from_log(np.array([4.0]))
        got = normalize_samples(reg, ScaledVector(-m, e), 4)
        assert got[0] == pytest.approx(-math.e, rel=1e-12)

    def test_case_iii_evt(self):
        got = normalize_samples(REG_III_EVT, vec_from_log(np.array([200.0])), 123, gamma_n=100.0)
        assert got[0] == pytest.approx(math.exp(2.0), rel=1e-12)

    def test_case_iv(self):
        assert norm(REG_IV, [5.0], 100)[0] == pytest.approx(0.5, rel=1e-15)

    def test_zero_maps_to_zero(self):
        for reg in (REG_II_ABS, REG_III_CLT, REG_I_SYM, REG_I_RHO3):
            assert norm(reg, [0.0], 10)[0] == 0.0

    def test_missing_gamma_rejected(self):
        with pytest.raises(InvalidArgumentsError):
            norm(REG_III_EVT, [2.0], 10)

    def test_negative_sample_in_case_iii_rejected(self):
        with pytest.raises(InvalidArgumentsError):
            norm(REG_III_CLT, [3.0, -2.0], 10)

    def test_convergent_regime_rejected(self):
        reg = regime_for(LogNormalPair(-0.5, 1.0, QConstant(1.0)))
        with pytest.raises(InvalidArgumentsError):
            norm(reg, [1.0], 10)


class TestScaledPathEquivalence:
    """Computing through ln|r| must agree with a 200-bit evaluation."""

    @given(st.floats(min_value=0.01, max_value=1e12), st.integers(2, 40))
    def test_case_ii_abs(self, x, n):
        assert_matches_mpmath(REG_II_ABS, vec_from_real(np.array([x])), n, rel=1e-10)

    @given(st.floats(min_value=0.01, max_value=1e12), st.integers(2, 40))
    def test_case_iii_clt(self, x, n):
        assert_matches_mpmath(REG_III_CLT, vec_from_real(np.array([x])), n, rel=1e-10)

    @given(st.floats(min_value=-1e9, max_value=1e9), st.integers(2, 60))
    def test_case_i_general_rho(self, x, n):
        want = float(Fraction(x) / 3 ** (n - 1))
        assert norm(REG_I_RHO3, [x], n)[0] == pytest.approx(want, rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("n", [2, 61, 10**6])
    def test_case_i_rho3_long_horizon(self, n):
        # inputs near 3**(n-1) * x, far outside native range at n = 10**6
        xs = [1.25, -0.3, 1.0, -1.9999]
        logs = [math.log(abs(x)) + (n - 1) * math.log(3.0) for x in xs]
        mags = vec_from_log(np.array(logs))
        values = ScaledVector(np.sign(xs) * mags.mantissa, mags.exponent)
        assert_matches_mpmath(REG_I_RHO3, values, n, rel=1e-13)


class TestSignsAndMonotonicity:
    @given(st.floats(min_value=0.01, max_value=1e9))
    def test_ii_signed_preserves_sign(self, x):
        reg = dataclasses.replace(REG_II_SIGNED, mu=0.5, v=1.0)
        pos, neg = norm(reg, [x, -x], 9)
        assert pos > 0 and neg == -pos

    @given(st.floats(min_value=0.01, max_value=1e9))
    def test_ii_abs_positive(self, x):
        assert norm(REG_II_ABS, [-x], 9)[0] > 0

    @given(
        st.lists(
            st.floats(min_value=-1e9, max_value=1e9), min_size=2, max_size=20
        ),
        st.integers(2, 30),
    )
    def test_case_i_monotone(self, xs, n):
        ys = norm(REG_I_SYM, xs, n)
        order = np.argsort(xs, kind="stable")
        assert np.all(np.diff(ys[order]) >= 0)

    def test_ecdf_commutes_with_normalization(self):
        # strictly increasing map: KS between normalized sets equals KS
        # between raw sets mapped through any common grid
        rng = np.random.default_rng(5)
        raw = rng.normal(size=200)
        a = norm(REG_IV, raw, 50)
        b = norm(REG_IV, raw, 50)
        assert ks_two_sample(a, b) == 0.0


class TestVectorParity:
    def test_matches_scalar_all_regimes(self):
        # every regime's map against its 200-bit evaluation, zero included
        rng = np.random.default_rng(11)
        xs = np.concatenate([rng.lognormal(3, 2, 50), [0.0]])
        signed = xs * rng.choice([-1, 1], xs.size)
        cases = [
            (REG_I_SYM, dict(n=12), signed),
            (REG_I_RHO3, dict(n=12), signed),
            (REG_II_ABS, dict(n=25), signed),
            (dataclasses.replace(REG_II_SIGNED, mu=0.5, v=1.0), dict(n=25), signed),
            (REG_III_CLT, dict(n=25), xs),
            (REG_III_EVT, dict(n=25, gamma_n=25.0), xs),
            (REG_III_BG, dict(n=25, gamma_n=7.5), xs),
            (REG_IV, dict(n=25), signed),
        ]
        for reg, kwargs, values in cases:
            assert_matches_mpmath(reg, vec_from_real(values), **kwargs)

    def test_ii_signed_vector(self):
        reg = dataclasses.replace(REG_II_SIGNED, mu=0.5, v=1.0)
        values = vec_from_real(np.array([-3.0, 2.0, -1.5, 8.0]))
        assert_matches_mpmath(reg, values, 16)
        assert (np.sign(normalize_samples(reg, values, 16)) == [-1, 1, -1, 1]).all()
