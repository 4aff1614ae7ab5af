"""End-to-end Monte Carlo checks for the regimes outside the acceptance set.

The acceptance battery pins Cases I, II-abs, III-clt, III-evt and IV.
These tests cover the remaining sub-cases (II-signed and the two
alpha = -2 boundary declarations) at moderate sizes with thresholds
calibrated to their observed convergence speed; the boundary-vanishing
route converges only at a 1/sqrt(ln n) scale, so it gets a direction
check plus a loose cap rather than a tight tolerance.
"""

import numpy as np

from perpsim import limits as lim
from perpsim.models import (
    GAMMA_CASES,
    DiscreteJoint,
    LogNormalPair,
    QLogBoundary,
    analytic_moments,
    classify,
    tail_quantile,
)
from perpsim.normalize import normalize_samples
from perpsim.simulate import run_batch
from perpsim.stats import ks_one_sample, ks_two_sample


def pipeline(model, checkpoints, count, seed):
    reg = classify(analytic_moments(model), model)
    law = lim.limit_for(reg, model)
    batch = run_batch(model, checkpoints, count, seed)
    out = {}
    for n in checkpoints:
        gamma = tail_quantile(model, n) if reg.case in GAMMA_CASES else None
        out[n] = normalize_samples(reg, batch.vectors(n), n, gamma)
    return reg, law, out


class TestCaseIISigned:
    MODEL = DiscreteJoint((((1.0, 2.0), 0.5), ((1.0, -4.0), 0.5)))

    def test_converges_to_symmetric_lognormal(self):
        reg, law, values = pipeline(self.MODEL, [500, 5000], 5000, seed=900)
        assert reg.case == "II-signed"
        assert isinstance(law, lim.LogNormalSymmetric)
        ks = {
            n: ks_one_sample(values[n], lambda x: lim.cdf(law, x))
            for n in (500, 5000)
        }
        assert ks[5000] <= 0.06
        # the sign is genuinely mixing: both half-lines populated evenly
        vals = values[5000]
        assert ks_two_sample(vals, -vals) <= 0.06
        assert 0.45 <= (vals > 0).mean() <= 0.55


class TestBoundaryGrowing:
    MODEL = LogNormalPair(0.0, 1.0, QLogBoundary("growing", 2.0))

    def test_converges_to_exp_frechet_minus_two(self):
        reg, law, values = pipeline(self.MODEL, [500, 3000], 4000, seed=901)
        assert reg.case == "III-boundary-growing"
        assert law == lim.ExpFrechet(-2.0)
        ks = {
            n: ks_one_sample(values[n], lambda x: lim.cdf(law, x))
            for n in (500, 3000)
        }
        assert ks[3000] <= ks[500] + 0.01
        assert ks[3000] <= 0.10

    def test_samples_live_past_one(self):
        _, _, values = pipeline(self.MODEL, [1000], 500, seed=903)
        assert values[1000].min() >= 1.0


class TestBoundaryVanishing:
    MODEL = LogNormalPair(0.0, 1.0, QLogBoundary("vanishing", 2.0))

    def test_drifts_toward_exp_half_normal(self):
        reg, law, values = pipeline(self.MODEL, [500, 3000], 4000, seed=902)
        assert reg.case == "III-boundary-vanishing"
        assert isinstance(law, lim.ExpHalfNormal)
        ks = {
            n: ks_one_sample(values[n], lambda x: lim.cdf(law, x))
            for n in (500, 3000)
        }
        # convergence here is 1/sqrt(ln n)-slow: direction plus loose cap
        assert ks[3000] < ks[500]
        assert ks[3000] <= 0.30


class TestWLogDiagnostic:
    def test_normalized_w_tracks_same_limit(self):
        # in the recursion form W_n is a diagnostic in law: its power
        # map converges to the same limit as the normalized R_n
        model = LogNormalPair(0.0, 1.0, QLogBoundary("growing", 2.0))
        batch = run_batch(model, [2000], 4000, 905, track_w=True)
        gamma = tail_quantile(model, 2000)
        w_norm = np.exp(batch.w_log(2000) / gamma)
        law = lim.ExpFrechet(-2.0)
        assert ks_one_sample(w_norm, lambda x: lim.cdf(law, x)) <= 0.10
