"""Limit laws: mapping, CDF values, sampler consistency, truncation bounds."""

import hashlib
import math
import tracemalloc
from fractions import Fraction

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


class RowFeed:
    """Stands in for a Generator in the series samplers: ``random((r, w))``
    returns the next r rows of the first w columns of ``u``, so that series
    of different lengths read one stream."""

    def __init__(self, u: np.ndarray) -> None:
        self.u = u
        self.at = 0

    def random(self, shape):
        rows, width = shape
        self.at += rows
        return self.u[self.at - rows : self.at, :width]


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

    # each label written out from the paper's limit for its model: lambda =
    # 1/rho and p = P(M > 0) in Case I, with the (Q, sgn M) table when Q is
    # not one constant; beta^2 = EQ^2 + 2 EQ E(QM) / (1 - EM) in Case IV
    @pytest.mark.parametrize(
        "model,label",
        [
            pytest.param(*case, id=f"model{i}")
            for i, case in enumerate([
                (ScaledRademacher(2.0, 0.5, QRademacher(0.5)), "BernoulliConvolution(0.5)"),
                (ScaledRademacher(2.5, 0.3, QRademacher(0.3)),
                 "SymmetrizedPerpetuity(0.4, 0.3, (Q,sgnM)=[(-1,-1):0.49, (-1,+1):0.21, "
                 "(1,-1):0.21, (1,+1):0.09])"),
                (ScaledRademacher(2.0, 0.5, QConstant(3.0)), "BernoulliConvolution(0.5, scale=3)"),
                (ScaledRademacher(2.0, 0.7, QConstant(1.0)), "SymmetrizedPerpetuity(0.5, 0.7)"),
                (DiscreteJoint((((1.0, 2.0), 0.5), ((-1.0, -2.0), 0.5))),
                 "SymmetrizedPerpetuity(0.5, 0.5, (Q,sgnM)=[(-1,-1):0.5, (1,+1):0.5])"),
                (LogNormalPair(0.5, 1.0, QConstant(1.0)), "LogNormalPositive"),
                (DiscreteJoint((((1.0, 2.0), 0.5), ((1.0, -4.0), 0.5))), "LogNormalSymmetric"),
                (LogNormalPair(0.0, 1.0, QLogNormal(0.0, 1.0)), "ExpHalfNormal"),
                (LogNormalPair(0.0, 1.0, QLogPareto(-1.5, 1.0)), "ExpFrechet(-1.5)"),
                # EQ = 2, E(QM) = 2 (2 * 0.6 - 1) = 0.4, EM = 0.2: 4 + 2 * 2 * 0.4 / 0.8
                (SignedUnit(0.6, QConstant(2.0)), "Gaussian(6)"),
            ])
        ],
    )
    def test_label_matches_regime_prediction(self, model, label):
        reg = regime_for(model)
        assert reg.limit == label
        assert lim.label(lim.limit_for(reg, model)) == label

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
        u = rng(3).random((5000, 45))
        lam = 0.6
        m = 25
        short = lim._series_rows(RowFeed(u), 5000, m, lam, lim._FAIR, lim._SIGNS)
        long = lim._series_rows(RowFeed(u), 5000, 45, lam, lim._FAIR, lim._SIGNS)
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


def series_width(law) -> int:
    """Uniforms per value: one per term, and the BC has no Q_1 column."""
    m = lim.default_series_terms(law.lam)
    return m if isinstance(law, lim.BernoulliConvolution) else m + 1


LAWS_AT_HALF = {
    "sp": lim.SymmetrizedPerpetuity(0.5, 0.7),
    "sp_q3": lim.SymmetrizedPerpetuity(0.5, 0.7, ((3.0, -1.0, 0.3), (3.0, 1.0, 0.7))),
    "bc": lim.BernoulliConvolution(0.5),
}
DEPENDENT_PAIRS = ((-1.0, -1.0, 0.25), (1.0, -1.0, 0.25), (1.0, 1.0, 0.5))
NON_DYADIC = [
    lim.SymmetrizedPerpetuity(1.0 / 3.0, 0.5, DEPENDENT_PAIRS),
    lim.BernoulliConvolution(0.4),
]

# sha256 prefixes of sample_limit(law, rng(1400 + size), size=size) as the
# unchunked sampler made them, with one matrix product per sample. At
# lam = 1/2 every partial sum is exact, so any order of the sums gives these
# bytes. The sizes are 1, c - 1, c, c + 1 and 2c + 7 for the c rows of a
# chunk at the default _CHUNK_CELLS: 4096 rows of 32 uniforms, and 4228 of
# 31 for the BC.
PINNED_AT_HALF = [
    ("sp", 1, "1b814f2fff959cde"),
    ("sp", 4095, "6fdb95f9b684760a"),
    ("sp", 4096, "ec36af013ad1777f"),
    ("sp", 4097, "b3257737f21974c8"),
    ("sp", 8199, "947ac7940317f22e"),
    ("sp_q3", 1, "cf3c4f6d1800390b"),
    ("sp_q3", 4095, "331e58666cd63425"),
    ("sp_q3", 4096, "d9eee6f70df8fbfe"),
    ("sp_q3", 4097, "0f996ca177f200b8"),
    ("sp_q3", 8199, "2d46f83f7f448bbe"),
    ("bc", 1, "e6c5a01228fb4ae4"),
    ("bc", 4227, "eb38afadfc52ed74"),
    ("bc", 4228, "adde8e142daed2bb"),
    ("bc", 4229, "497baf4fbe75ec3b"),
    ("bc", 8463, "98e6c3ff660c110c"),
]


class TestSeriesSamplers:
    """The series laws' samplers, drawn a chunk of rows at a time."""

    def test_pinned_sizes_straddle_chunks(self):
        assert [lim._CHUNK_CELLS // series_width(LAWS_AT_HALF[k]) for k in ("sp", "bc")] == [
            4096,
            4228,
        ]

    @pytest.mark.parametrize("name,size,digest", PINNED_AT_HALF)
    def test_exact_at_half_matches_unchunked_sampler(self, name, size, digest):
        out = lim.sample_limit(LAWS_AT_HALF[name], rng(1400 + size), size=size)
        assert hashlib.sha256(out.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("law", NON_DYADIC, ids=["sp_pairs_third", "bc_0.4"])
    def test_output_ignores_chunk_size(self, law, monkeypatch):
        # each row's terms are summed in one fixed order, so no value may
        # depend on how the rows are grouped; a matrix product's sums do
        width = series_width(law)
        runs = [lim.sample_limit(law, rng(21), size=600).tobytes()]
        for rows in (1, 7):
            monkeypatch.setattr(lim, "_CHUNK_CELLS", rows * width)
            runs.append(lim.sample_limit(law, rng(21), size=600).tobytes())
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("law", NON_DYADIC, ids=["sp_pairs_third", "bc_0.4"])
    def test_rows_match_ordered_and_exact_sums(self, law):
        # 20 values rebuilt from the same uniforms by the law's definition.
        # Added as doubles in the order k = 0, 1, ..., they must give the
        # sampler's bits. Summed in exact rationals, they bound its error:
        # at most 1 ulp from each power lam**k, half an ulp from each product
        # and from each of the width - 1 additions, so within
        # (width + 3) * 2**-53 * sum |term|.
        size, width = 20, series_width(law)
        weights = law.lam ** np.arange(width)
        g = rng(33)
        u = g.random((size, width))
        r = np.where(g.random(size) < 0.5, 1, -1)
        got = lim.sample_limit(law, rng(33), size=size)
        lam = Fraction(law.lam)
        if isinstance(law, lim.BernoulliConvolution):
            atoms = ((law.scale, 1.0, 0.5), (-law.scale, 1.0, 0.5))
        else:
            atoms = law.pairs
        for i in range(size):
            sign, signed, exact = 1, [], []
            for k in range(width):
                cum = Fraction(0)
                for q, s, p in atoms:
                    cum += Fraction(p)
                    if Fraction(float(u[i, k])) < cum:
                        break
                if k and isinstance(law, lim.SymmetrizedPerpetuity):
                    sign *= int(s)
                signed.append(q * sign)
                exact.append(Fraction(q) * sign * lam**k)
            r_i = int(r[i]) if isinstance(law, lim.SymmetrizedPerpetuity) else 1
            ordered = 0.0
            for t, w in zip(signed, weights.tolist()):
                ordered += t * w
            assert got[i] == r_i * ordered
            bound = (width + 3) * Fraction(2) ** -53 * sum(map(abs, exact))
            assert abs(Fraction(float(got[i])) - r_i * sum(exact)) <= bound

    def test_memory_is_output_plus_chunk(self):
        # beyond the 1.6 MB output: a chunk's 1 MiB of uniforms, its atom
        # indices and a term and a sign buffer of a chunk's rows, 3.1 MB in
        # all. Holding a chunk's series as (width, rows) matrices of terms
        # and signs peaked at 5.9 MB (sp) and 4.1 MB (bc); the unchunked
        # sampler's (size, m + 1) matrices at 111 MB
        for law in (lim.SymmetrizedPerpetuity(0.5, 0.7), lim.BernoulliConvolution(0.5)):
            # a first call's one-off allocations are not the sampler's
            lim.sample_limit(law, rng(13), size=10)
            tracemalloc.start()
            try:
                lim.sample_limit(law, rng(13), size=200_000)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.6e6 + 2e6, law

    @pytest.mark.parametrize("law", [LAWS_AT_HALF["bc"], LAWS_AT_HALF["sp"]], ids=["bc", "sp"])
    def test_series_terms_default_only_for_none(self, law):
        m = lim.default_series_terms(law.lam)
        default = lim.sample_limit(law, rng(14), size=50)
        assert default.tolist() == lim.sample_limit(law, rng(14), series_terms=None, size=50).tolist()
        assert default.tolist() == lim.sample_limit(law, rng(14), series_terms=m, size=50).tolist()
        for bad in (0, -1):
            with pytest.raises(InvalidInputError, match="series_terms"):
                lim.sample_limit(law, rng(14), series_terms=bad, size=50)
