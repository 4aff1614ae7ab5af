"""Model families: sampling, moments, classification, tails, constants."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from perpsim.errors import (
    DomainError,
    InvalidModelError,
    UnsupportedError,
)
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
    beta_squared,
    classify,
    sign_gap,
    tail_quantile,
)
from perpsim import simulate
from perpsim.scaled import vec_to_real
from perpsim.simulate import RENORM, _uniforms, run_batch
from test_simulate import trajectory_uniforms


def rng(seed=0):
    return Generator(Philox(key=seed))


CASE_I_SYM = ScaledRademacher(2.0, 0.5, QRademacher(0.5))
CASE_I_ASYM = ScaledRademacher(2.0, 0.7, QRademacher(0.7))
CASE_II_ABS = LogNormalPair(0.5, 1.0, QConstant(1.0))
CASE_II_SIGNED = DiscreteJoint(
    (((1.0, 2.0), 0.5), ((1.0, -4.0), 0.5))
)
CASE_III_CLT = LogNormalPair(0.0, 1.0, QLogNormal(0.0, 1.0))
CASE_III_EVT = LogNormalPair(0.0, 1.0, QLogPareto(-1.0, 1.0))
CASE_III_BG = LogNormalPair(0.0, 1.0, QLogBoundary("growing", 2.0))
CASE_III_BV = LogNormalPair(0.0, 1.0, QLogBoundary("vanishing", 2.0))
CASE_IV = SignedUnit(0.75, QConstant(1.0))
CONVERGENT = LogNormalPair(-0.5, 1.0, QConstant(1.0))
# mu = (ln 2 + ln 0.5)/2 = 0 with mixed signs and E|M| = 1.25 > 1
UNSUPPORTED_SIGNED = DiscreteJoint(
    (((1.0, 2.0), 0.5), ((1.0, -0.5), 0.5))
)

ZOO = [
    CASE_I_SYM,
    CASE_I_ASYM,
    CASE_II_ABS,
    CASE_II_SIGNED,
    CASE_III_CLT,
    CASE_III_EVT,
    CASE_III_BG,
    CASE_III_BV,
    CASE_IV,
    CONVERGENT,
    UNSUPPORTED_SIGNED,
]


class TestValidation:
    def test_probabilities_must_sum(self):
        with pytest.raises(InvalidModelError):
            DiscreteJoint((((1.0, 2.0), 0.5), ((1.0, -2.0), 0.6)))

    def test_rho_above_one(self):
        with pytest.raises(InvalidModelError):
            ScaledRademacher(0.9, 0.5, QConstant(1.0))

    def test_sign_probability_open_interval(self):
        with pytest.raises(InvalidModelError):
            ScaledRademacher(2.0, 1.0, QConstant(1.0))
        with pytest.raises(InvalidModelError):
            SignedUnit(0.0, QConstant(1.0))

    def test_lognormal_needs_positive_variance(self):
        with pytest.raises(InvalidModelError):
            LogNormalPair(0.0, 0.0, QConstant(1.0))

    def test_signed_unit_needs_finite_variance_q(self):
        with pytest.raises(InvalidModelError):
            SignedUnit(0.5, QLogPareto(-1.0, 1.0))

    def test_pareto_index_range(self):
        with pytest.raises(InvalidModelError):
            QLogPareto(-2.5, 1.0)
        with pytest.raises(InvalidModelError):
            QLogPareto(0.5, 1.0)
        QLogPareto(-2.0, 1.0)  # boundary index is constructible

    def test_zero_probability_atoms_dropped(self):
        # every reader of atoms sees the support: classify, the draws,
        # positive and the moments alike
        support = (((1.0, 2.0), 0.5), ((1.0, 0.5), 0.5))
        model = DiscreteJoint(support + (((-1.0, 0.0), 0.0),))
        assert model == DiscreteJoint(support)
        assert model.positive
        assert analytic_moments(model).mu == 0.0

    def test_boundary_ell_and_scale(self):
        with pytest.raises(InvalidModelError):
            QLogBoundary("constant", 2.0)
        with pytest.raises(InvalidModelError):
            QLogBoundary("growing", 1.2)  # below sqrt(e)
        with pytest.raises(InvalidModelError):
            QLogBoundary("vanishing", 1.1)  # tail above 1 at t0


def scaled_pair(draws):
    """The ScaledVectors of a family's q and m draws."""
    return draws.q.scaled(), draws.m.scaled()


def draw_pairs(model, g, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k (q, m) draws, two uniforms each, as the engine makes them."""
    u = g.random((k, 2)) + 2.0**-54  # shift into the open interval (0, 1)
    qv, mv = scaled_pair(model.scaled_draws(u[:, 0], u[:, 1]))
    return vec_to_real(qv), vec_to_real(mv)


class TestSamplePair:
    def test_point_mass(self):
        model = DiscreteJoint((((1.0, 2.0), 1.0),))
        q, m = draw_pairs(model, rng(1), 20)
        assert set(q) == {1.0} and set(m) == {2.0}

    def test_scaled_rademacher_marginals(self):
        _, ms = draw_pairs(CASE_I_SYM, rng(2), 40_000)
        assert set(np.unique(ms)) == {-2.0, 2.0}
        assert abs((ms == 2.0).mean() - 0.5) < 0.01

    def test_lognormal_log_mean(self):
        model = LogNormalPair(0.3, 1.0, QConstant(1.0))
        _, m = draw_pairs(model, rng(3), 100_000)
        assert abs(np.log(m).mean() - 0.3) < 0.02

    def test_consumes_two_uniforms(self):
        # step t of a trajectory reads row t of its stream's (n, 2)
        # uniforms, Q from the first column and M from the second
        model = SignedUnit(0.5, QRademacher(0.5))
        r = 0
        for u_q, u_m in trajectory_uniforms(9, 0, 40):
            r = (1 if u_q < 0.5 else -1) + (1 if u_m < 0.5 else -1) * r
        assert run_batch(model, [40], 1, master_seed=9).to_reals(40)[0] == r


# one model of each family and Q law, with ids
DRAW_FAMILIES = pytest.mark.parametrize(
    "model",
    [
        DiscreteJoint((((1.0, 2.0), 0.3), ((-1.0, 0.5), 0.4), ((2.0, -1.5), 0.3))),
        CASE_I_ASYM,
        ScaledRademacher(3.0, 0.4, QConstant(2.0)),
        CASE_II_ABS,
        CASE_III_CLT,
        CASE_III_EVT,
        CASE_III_BG,
        CASE_III_BV,
        SignedUnit(0.6, QLogNormal(0.0, 1.0)),
    ],
    ids=["discrete", "rademacher", "rademacher_const", "ii_abs", "iii_clt",
         "iii_evt", "boundary_growing", "boundary_vanishing", "signed_unit"],
)


def edge_uniforms(B: int = 37, n: int = 16 * RENORM) -> np.ndarray:
    """(2, n, B) uniforms of Q and M from random words, with the lowest and
    the clamped top uniform in the first columns, also on slab edges."""
    words = Philox(key=7).random_raw(2 * n * B).reshape(2, n, B)
    edges = [0, 1, RENORM - 1, RENORM, n - 1]
    words[:, edges, :3] = 0
    words[:, edges, 3:6] = 2**64 - 1
    return _uniforms(words)


class TestDrawsElementwise:
    """The engine draws each sub-block from its own rows of the streams,
    so every family's draws must not depend on the rows drawn with them."""

    @DRAW_FAMILIES
    def test_slabs_concatenate_to_whole(self, model):
        n = 16 * RENORM
        u = edge_uniforms(n=n)
        whole = scaled_pair(model.scaled_draws(*u.copy()))
        rows = sorted({*range(0, n, RENORM), 1, RENORM - 1, RENORM + 1, n - 1, n})
        slabs = [scaled_pair(model.scaled_draws(u[0, a:b], u[1, a:b])) for a, b in zip(rows, rows[1:])]
        for k, v in enumerate(whole):
            for f, part in enumerate(v):
                joined = np.concatenate([s[k][f] for s in slabs])
                assert joined.dtype == part.dtype
                assert joined.tobytes() == part.tobytes()


    @DRAW_FAMILIES
    def test_native_rows_match_native_of_scaled(self, model):
        # the engine makes native Q * 2**-E and native M from the logs or
        # values the family wrote, never from ScaledVectors; they must equal
        # _native of the ScaledVectors of the same draws, bit for bit, at
        # shifts that flush to 0 or reach inf, each alone (2**-E is a double
        # up to |E| = 1022) and all in one row
        u = edge_uniforms()
        k, B = u.shape[1:]
        draws = model.scaled_draws(u[0], u[1])
        if isinstance(getattr(model, "q_law", None), QLogPareto):
            # u = 2**-54 gives Y = 2**54: a Q far beyond double range
            assert draws.q.scaled().exponent.max() > 2**50
        shifts = [0, 1000, -1000, 1022, -1022, 1023, -1023, 1100, -1100, 2**40, -(2**40)]
        for shift in [*shifts, np.resize(np.array(shifts, np.int64), B)]:
            for d in (draws.q, draws.m):
                got = simulate._native_rows(d, shift, np.empty((k, B)), np.empty((k, B), np.int64))
                want = simulate._native(d.scaled(), shift, np.empty((k, B)))
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @staticmethod
    def where_draws(u, p, value):
        """The sign draws as first built: np.where, then frexp with zero
        canonical."""
        m, e = np.frexp(np.where(u < p, value, -value))
        zero = m == 0.0
        return np.where(zero, 0.0, 2.0 * m), np.where(zero, 0, e.astype(np.int64) - 1)

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_sign_draws_match_where_formula(self, p):
        # p's neighbours and p itself decide u < p; then the extreme uniforms
        edge = [np.nextafter(p, 0.0), p, np.nextafter(p, 1.0), 2.0**-54, 1.0 - 2.0**-53]
        u = np.concatenate([edge, rng(11).random(43) + 2.0**-54]).reshape(6, 8)
        q_p = 1.0 - p

        def pair(model):  # the draws are written over the uniforms: copies of u
            return scaled_pair(model.scaled_draws(u.copy(), u.copy()))

        cases = [
            (QRademacher(p).draw(u.copy())[0].scaled(), (p, 1.0)),
            *zip(pair(ScaledRademacher(3.0, p, QRademacher(q_p))), [(q_p, 1.0), (p, 3.0)]),
            *zip(pair(SignedUnit(p, QRademacher(q_p))), [(q_p, 1.0), (p, 1.0)]),
            (pair(ScaledRademacher(1.7976931348623157e308, p, QConstant(1.0)))[1],
             (p, 1.7976931348623157e308)),
        ]
        for got, (prob, value) in cases:
            for part, want in zip(got, self.where_draws(u, prob, value)):
                assert part.dtype == want.dtype and part.shape == want.shape
                assert part.tobytes() == want.tobytes()


class TestAnalyticMoments:
    def test_lognormal(self):
        mom = analytic_moments(LogNormalPair(0.3, 1.0, QConstant(1.0)))
        assert mom.mu == 0.3
        assert mom.v2 == 1.0
        assert mom.abs_mean_m == pytest.approx(math.exp(0.8), rel=1e-15)

    def test_scaled_rademacher(self):
        mom = analytic_moments(CASE_I_SYM)
        assert mom.mu == pytest.approx(math.log(2.0), rel=1e-15)
        assert mom.v2 == 0.0
        assert mom.abs_mean_m == 2.0

    def test_signed_unit(self):
        mom = analytic_moments(CASE_IV)
        assert (mom.mean_m, mom.abs_mean_m, mom.mu) == (0.5, 1.0, 0.0)

    def test_discrete_dependence(self):
        model = DiscreteJoint((((1.0, 1.0), 0.75), ((1.0, -1.0), 0.25)))
        mom = analytic_moments(model)
        assert mom.mean_qm == pytest.approx(0.5)
        assert mom.mean_q2 == 1.0

    @pytest.mark.parametrize("model", ZOO)
    def test_jensen_consistency(self, model):
        mom = analytic_moments(model)
        assert mom.abs_mean_m >= math.exp(mom.mu) - 1e-12

    def test_discrete_against_monte_carlo(self):
        model = DiscreteJoint(
            (((1.0, 2.0), 0.3), ((-1.0, 0.5), 0.4), ((2.0, -1.5), 0.3))
        )
        mom = analytic_moments(model)
        g = rng(7)
        n = 1_000_000
        u = g.random((n, 2)) + 2.0**-54
        qv, mv = scaled_pair(model.scaled_draws(u[:, 0], u[:, 1]))
        q, m = vec_to_real(qv), vec_to_real(mv)
        for sample, target in [
            (q, mom.mean_q),
            (q * q, mom.mean_q2),
            (m, mom.mean_m),
            (np.abs(m), mom.abs_mean_m),
            (q * m, mom.mean_qm),
            (np.log(np.abs(m)), mom.mu),
        ]:
            se = sample.std(ddof=1) / math.sqrt(n)
            assert abs(sample.mean() - target) < 4.0 * se + 1e-12


class TestClassify:
    @pytest.mark.parametrize(
        "model,case",
        [
            (CASE_I_SYM, "I-sym"),
            (CASE_I_ASYM, "I-asym"),
            (CASE_II_ABS, "II-abs"),
            (CASE_II_SIGNED, "II-signed"),
            (CASE_III_CLT, "III-clt"),
            (CASE_III_EVT, "III-evt"),
            (CASE_III_BG, "III-boundary-growing"),
            (CASE_III_BV, "III-boundary-vanishing"),
            (CASE_IV, "IV"),
            (CONVERGENT, "CONVERGENT"),
            (UNSUPPORTED_SIGNED, "UNSUPPORTED"),
        ],
    )
    def test_cases(self, model, case):
        assert classify(analytic_moments(model), model).case == case

    def test_case_i_parameters(self):
        reg = classify(analytic_moments(CASE_I_SYM), CASE_I_SYM)
        assert reg.rho == 2.0 and reg.lam == 0.5
        assert reg.limit == "BernoulliConvolution(0.5)"

    def test_case_iv_has_beta2(self):
        reg = classify(analytic_moments(CASE_IV), CASE_IV)
        assert reg.beta2 == pytest.approx(3.0)
        assert reg.limit == "Gaussian(3)"

    def test_discrete_case_i(self):
        model = DiscreteJoint((((1.0, 2.0), 0.5), ((-1.0, -2.0), 0.5)))
        reg = classify(analytic_moments(model), model)
        assert reg.case == "I-sym" and reg.rho == 2.0

    def test_discrete_case_iii_clt(self):
        # mu = 0 exactly: ln 2 and ln 0.5 negate; Q positive and bounded
        model = DiscreteJoint((((2.0, 2.0), 0.5), ((1.0, 0.5), 0.5)))
        reg = classify(analytic_moments(model), model)
        assert reg.case == "III-clt"

    def test_constant_m_rejected(self):
        model = DiscreteJoint((((1.0, 2.0), 1.0),))
        with pytest.raises(InvalidModelError):
            classify(analytic_moments(model), model)

    def test_atom_relabeling_invariance(self):
        atoms = (((1.0, 2.0), 0.3), ((-1.0, 0.5), 0.4), ((2.0, -1.5), 0.3))
        base = DiscreteJoint(atoms)
        shuffled = DiscreteJoint(atoms[::-1])
        a = classify(analytic_moments(base), base)
        b = classify(analytic_moments(shuffled), shuffled)
        assert a == b

    def test_m_zero_atom_is_convergent(self):
        model = DiscreteJoint((((1.0, 0.0), 0.5), ((1.0, 2.0), 0.5)))
        reg = classify(analytic_moments(model), model)
        assert reg.case == "CONVERGENT"

    def test_nonpositive_q_in_case_iii_unsupported(self):
        model = DiscreteJoint((((-2.0, 2.0), 0.5), ((1.0, 0.5), 0.5)))
        reg = classify(analytic_moments(model), model)
        assert reg.case == "UNSUPPORTED"

    def test_pareto_boundary_index_unsupported(self):
        model = LogNormalPair(0.0, 1.0, QLogPareto(-2.0, 1.0))
        reg = classify(analytic_moments(model), model)
        assert reg.case == "UNSUPPORTED"
        assert "log_boundary" in reg.note


class TestTailQuantile:
    def test_pareto_alpha_one(self):
        assert tail_quantile(CASE_III_EVT, 1000) == pytest.approx(1000.0)

    def test_pareto_alpha_two(self):
        model = LogNormalPair(0.0, 1.0, QLogPareto(-2.0, 1.0))
        assert tail_quantile(model, 100) == pytest.approx(10.0)

    def test_pareto_small_n(self):
        assert tail_quantile(CASE_III_EVT, 1) == pytest.approx(1.0)

    def test_boundary_growing_root(self):
        import mpmath

        gamma = tail_quantile(CASE_III_BG, 10_000)
        # independent root of t**2 / ln t = 10**4
        want = float(
            mpmath.findroot(
                lambda t: t * t / mpmath.log(t) - 10_000, mpmath.mpf(100)
            )
        )
        assert gamma == pytest.approx(want, rel=1e-8)
        h = math.log(gamma) / gamma**2
        assert h == pytest.approx(1e-4, rel=1e-8)

    def test_boundary_vanishing_root(self):
        gamma = tail_quantile(CASE_III_BV, 1000)
        h = 1.0 / (gamma**2 * math.log(gamma))
        assert h == pytest.approx(1e-3, rel=1e-8)

    def test_infimum_property(self):
        q = QLogPareto(-1.5, 2.0)
        model = LogNormalPair(0.0, 1.0, q)
        for n in (10, 1000, 10_000):
            gamma = tail_quantile(model, n)
            assert float(q.tail(gamma)) <= 1.0 / n + 1e-15
            delta = 1e-6 * gamma
            assert float(q.tail(gamma - delta)) >= 1.0 / n

    def test_no_tail_function(self):
        with pytest.raises(UnsupportedError):
            tail_quantile(CASE_III_CLT, 100)
        with pytest.raises(UnsupportedError):
            tail_quantile(CASE_IV, 100)


class TestBetaSquared:
    def test_q_one_p75(self):
        assert beta_squared(analytic_moments(CASE_IV)) == pytest.approx(3.0)

    def test_centered_q(self):
        model = SignedUnit(0.75, QRademacher(0.5))
        assert beta_squared(analytic_moments(model)) == pytest.approx(1.0)

    def test_fair_sign(self):
        model = SignedUnit(0.5, QConstant(1.0))
        assert beta_squared(analytic_moments(model)) == pytest.approx(1.0)

    def test_requires_unit_abs_m(self):
        with pytest.raises(DomainError):
            beta_squared(analytic_moments(CASE_I_SYM))


class TestSignGap:
    def test_symmetric(self):
        assert sign_gap(0.5, 7) == 0.0

    def test_examples(self):
        assert sign_gap(0.7, 3) == pytest.approx(0.4**3)
        assert sign_gap(0.7, 1) == pytest.approx(0.4)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_exact_enumeration(self, p, n):
        # brute-force the law of the n-fold sign product with rationals
        pf = Fraction(p).limit_denominator(10)
        gap = Fraction(0)
        for k in range(n + 1):
            prob = (
                math.comb(n, k) * (1 - pf) ** k * pf ** (n - k)
            )
            gap += prob if k % 2 == 0 else -prob
        assert abs(sign_gap(p, n) - float(gap)) < 1e-12

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.integers(min_value=1, max_value=50),
    )
    def test_bounds(self, p, n):
        assert abs(sign_gap(p, n)) <= 1.0
