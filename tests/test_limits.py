"""Limit laws: mapping, CDF values, sampler consistency, truncation bounds."""

import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

from perpsim import limits as lim
from perpsim.errors import InvalidInputError, UnavailableError, UnsupportedError
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
from perpsim.normalize import normalize_samples
from perpsim.simulate import run_batch
from perpsim.stats import dkw_bound, ks_one_sample, ks_two_sample


def rng(seed=0):
    return Generator(Philox(key=seed))


def regime_for(model):
    return classify(analytic_moments(model), model)


def law_for(model):
    return lim.limit_for(regime_for(model), model)


def case_one_second_moment(lam, p, mean_q, mean_q2):
    """E X**2 of the Case I limit for Q independent of sgn M, e = 2p - 1."""
    e = 2.0 * p - 1.0
    return mean_q2 / (1 - lam**2) + 2 * mean_q**2 * lam * e / ((1 - lam**2) * (1 - lam * e))


class TestLimitFor:
    def test_case_i_sym_rho2(self):
        law = law_for(ScaledRademacher(2.0, 0.5, QRademacher(0.5)))
        assert law == lim.BernoulliConvolution(0.5)
        assert lim.has_cdf(law)

    def test_case_i_sym_rho3_no_cdf(self):
        law = law_for(ScaledRademacher(3.0, 0.5, QRademacher(0.5)))
        assert law == lim.BernoulliConvolution(1.0 / 3.0)
        assert not lim.has_cdf(law)

    def test_case_i_asym(self):
        # Q enters every term of the series, so the law carries (Q, sgn M)
        law = law_for(ScaledRademacher(2.0, 0.7, QRademacher(0.7)))
        assert isinstance(law, lim.SymmetrizedPerpetuity)
        assert (law.lam, law.p) == (0.5, 0.7)
        pairs = {(q, s): w for q, s, w in law.pairs}
        assert pairs.keys() == {(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)}
        assert pairs[(-1.0, 1.0)] == pytest.approx(0.3 * 0.7)
        assert not lim.has_cdf(law)

    def test_case_i_asym_unit_q_keeps_plain_law(self):
        law = law_for(ScaledRademacher(2.0, 0.7, QConstant(1.0)))
        assert law == lim.SymmetrizedPerpetuity(0.5, 0.7)

    def test_case_i_sym_constant_q_scales(self):
        # |Q| = 3 independent of the signs: 3 BC(1/2) = Uniform[-6, 6]
        law = law_for(ScaledRademacher(2.0, 0.5, QConstant(-3.0)))
        assert law == lim.BernoulliConvolution(0.5, 3.0)
        assert lim.cdf(law, [-6.0, -3.0, 0.0, 4.5, 6.0]).tolist() == [0.0, 0.25, 0.5, 0.875, 1.0]

    def test_case_i_dependent_pairs(self):
        # Q tied to the sign of M: not BC even though p = 1/2 and |Q| = 1
        model = DiscreteJoint((((1.0, 2.0), 0.5), ((1.0, -2.0), 0.25), ((-1.0, -2.0), 0.25)))
        law = law_for(model)
        assert regime_for(model).case == "I-sym"
        assert law == lim.SymmetrizedPerpetuity(
            0.5, 0.5, ((-1.0, -1.0, 0.25), (1.0, -1.0, 0.25), (1.0, 1.0, 0.5))
        )

    def test_case_iv_beta2(self):
        law = law_for(SignedUnit(0.75, QConstant(1.0)))
        assert law == lim.Gaussian(3.0)

    def test_case_iii_evt(self):
        law = law_for(LogNormalPair(0.0, 1.0, QLogPareto(-1.0, 1.0)))
        assert law == lim.ExpFrechet(-1.0)

    @pytest.mark.parametrize(
        "model",
        [
            ScaledRademacher(2.0, 0.5, QRademacher(0.5)),
            ScaledRademacher(2.5, 0.3, QRademacher(0.3)),
            ScaledRademacher(2.0, 0.5, QConstant(3.0)),
            ScaledRademacher(2.0, 0.7, QConstant(1.0)),
            DiscreteJoint((((1.0, 2.0), 0.5), ((-1.0, -2.0), 0.5))),
            LogNormalPair(0.5, 1.0, QConstant(1.0)),
            DiscreteJoint((((1.0, 2.0), 0.5), ((1.0, -4.0), 0.5))),
            LogNormalPair(0.0, 1.0, QLogNormal(0.0, 1.0)),
            LogNormalPair(0.0, 1.0, QLogPareto(-1.5, 1.0)),
            SignedUnit(0.6, QConstant(2.0)),
        ],
    )
    def test_label_matches_regime_prediction(self, model):
        reg = regime_for(model)
        assert lim.label(lim.limit_for(reg, model)) == reg.limit

    def test_unsupported_regime(self):
        model = DiscreteJoint((((1.0, 2.0), 0.5), ((1.0, -0.5), 0.5)))
        with pytest.raises(UnsupportedError):
            law_for(model)


class TestCdf:
    def test_uniform_at_one(self):
        assert lim.cdf(lim.BernoulliConvolution(0.5), 1.0) == 0.75

    def test_uniform_clamps(self):
        law = lim.BernoulliConvolution(0.5)
        assert lim.cdf(law, -3.0) == 0.0
        assert lim.cdf(law, 3.0) == 1.0

    def test_exp_half_normal_at_e(self):
        # 2 Phi(1) - 1
        assert lim.cdf(lim.ExpHalfNormal(), math.e) == pytest.approx(
            0.6826894921370859, rel=1e-12
        )

    def test_exp_half_normal_below_support(self):
        assert lim.cdf(lim.ExpHalfNormal(), 0.5) == 0.0

    def test_exp_frechet_at_e(self):
        assert lim.cdf(lim.ExpFrechet(-1.0), math.e) == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )

    def test_lognormal_symmetric_at_zero(self):
        assert lim.cdf(lim.LogNormalSymmetric(), 0.0) == 0.5

    def test_gaussian(self):
        assert lim.cdf(lim.Gaussian(3.0), 0.0) == 0.5

    def test_unavailable(self):
        with pytest.raises(UnavailableError):
            lim.cdf(lim.BernoulliConvolution(0.4), 0.0)
        with pytest.raises(UnavailableError):
            lim.cdf(lim.SymmetrizedPerpetuity(0.5, 0.7), 0.0)

    @pytest.mark.parametrize(
        "law",
        [
            lim.BernoulliConvolution(0.5),
            lim.LogNormalPositive(),
            lim.LogNormalSymmetric(),
            lim.ExpHalfNormal(),
            lim.ExpFrechet(-1.0),
            lim.ExpFrechet(-0.5),
            lim.Gaussian(2.0),
        ],
    )
    def test_grid_properties(self, law):
        grid = np.concatenate(
            [
                np.linspace(-5, 5, 401),
                np.geomspace(1e-3, 1e6, 200),
                [-math.inf, math.inf],
            ]
        )
        grid = np.sort(grid)
        f = lim.cdf(law, grid)
        assert np.all(np.diff(f) >= -1e-15)
        assert np.all((f >= 0) & (f <= 1))
        assert f[0] == 0.0 or f[0] == pytest.approx(0.0, abs=1e-12)
        assert f[-1] == pytest.approx(1.0, abs=1e-12)


class TestTruncationBound:
    def test_half_thirty(self):
        assert lim.bc_truncation_bound(0.5, 30) == pytest.approx(
            2.0 * 2.0**-30, rel=1e-12
        )

    def test_zero_terms(self):
        assert lim.bc_truncation_bound(0.5, 0) == 2.0

    def test_slow_decay(self):
        assert lim.bc_truncation_bound(0.9, 200) == pytest.approx(
            0.9**200 / 0.1, rel=1e-12
        )
        assert lim.bc_truncation_bound(0.9, 200) < 1e-8

    def test_default_series_terms(self):
        for lam in (0.2, 1 / 3, 0.5, 0.9):
            m = lim.default_series_terms(lam)
            assert lim.bc_truncation_bound(lam, m) < 1e-9
            assert lim.bc_truncation_bound(lam, m - 1) >= 1e-9

    def test_shared_stream_truncation(self):
        g = rng(3)
        lam = 0.6
        m = 25
        signs = np.where(g.random((5000, m + 20)) < 0.5, 1.0, -1.0)
        short = lim._bc_from_signs(lam, signs[:, :m])
        long = lim._bc_from_signs(lam, signs)
        assert np.abs(short - long).max() <= lim.bc_truncation_bound(lam, m)


class TestSamplers:
    def test_bc_series_bound(self):
        law = lim.BernoulliConvolution(0.5)
        out = lim.sample_limit(law, rng(1), series_terms=60, size=50_000)
        assert out.min() >= -2.0 and out.max() <= 2.0

    def test_scalar_mode(self):
        x = lim.sample_limit(lim.Gaussian(1.0), rng(2))
        assert isinstance(x, float)

    def test_symmetrized_perpetuity_mean(self):
        law = lim.SymmetrizedPerpetuity(0.5, 0.7)
        out = lim.sample_limit(law, rng(4), size=100_000)
        se = out.std(ddof=1) / math.sqrt(out.size)
        assert abs(out.mean()) < 4 * se

    @pytest.mark.parametrize(
        "model",
        [
            ScaledRademacher(2.0, 0.7, QRademacher(0.7)),  # E X^2 = 1.44
            ScaledRademacher(2.0, 0.7, QConstant(3.0)),  # 18
            ScaledRademacher(3.0, 0.2, QRademacher(0.9)),
            ScaledRademacher(2.0, 0.5, QConstant(3.0)),  # 12, Uniform[-6, 6]
        ],
    )
    def test_case_i_second_moment(self, model):
        mom = analytic_moments(model)
        lam = 1.0 / model.rho
        want = case_one_second_moment(lam, model.p, mom.mean_q, mom.mean_q2)
        out = lim.sample_limit(law_for(model), rng(9), size=200_000)
        se = np.std(out**2, ddof=1) / math.sqrt(out.size)
        assert abs(np.mean(out**2) - want) < 4 * se

    def test_case_i_dependent_pairs_match_simulation(self):
        # the series law of a model with Q tied to sgn M against the
        # normalized recursion itself
        model = DiscreteJoint((((1.0, 2.0), 0.5), ((1.0, -2.0), 0.25), ((-1.0, -2.0), 0.25)))
        reg = regime_for(model)
        batch = run_batch(model, [40], 20_000, master_seed=17)
        values = normalize_samples(reg, batch.vectors(40), 40)
        ref = lim.sample_limit(law_for(model), rng(10), size=20_000)
        assert ks_two_sample(values, ref) < 2 * dkw_bound(20_000, 0.005)
        bc = lim.sample_limit(lim.BernoulliConvolution(0.5), rng(11), size=20_000)
        assert ks_two_sample(values, bc) > 2 * dkw_bound(20_000, 0.005)

    def test_exp_frechet_inverse_cdf_point(self):
        law = lim.ExpFrechet(-1.0)
        out = lim.sample_limit(law, rng(5), size=100_000)
        assert abs((out <= math.e).mean() - math.exp(-1.0)) < 0.006

    @pytest.mark.parametrize(
        "law",
        [
            lim.BernoulliConvolution(0.5),
            lim.LogNormalPositive(),
            lim.LogNormalSymmetric(),
            lim.ExpHalfNormal(),
            lim.ExpFrechet(-1.0),
            lim.Gaussian(3.0),
        ],
    )
    def test_sampler_cdf_consistency(self, law):
        out = lim.sample_limit(law, rng(6), size=100_000)
        ks = ks_one_sample(out, lambda x: lim.cdf(law, x))
        assert ks < 0.007  # dkw(1e5, 0.01) + slack

    @pytest.mark.parametrize(
        "law",
        [lim.LogNormalSymmetric(), lim.SymmetrizedPerpetuity(0.5, 0.7)],
    )
    def test_symmetry(self, law):
        out = lim.sample_limit(law, rng(7), size=100_000)
        assert ks_two_sample(out, -out) < 0.01

    def test_rejects_bad_size(self):
        with pytest.raises(InvalidInputError):
            lim.sample_limit(lim.Gaussian(1.0), rng(8), size=0)
