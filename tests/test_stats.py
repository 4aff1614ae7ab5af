"""KS statistics, DKW bounds, summaries."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from perpsim import stats
from perpsim.errors import InvalidInputError
from perpsim.stats import (
    dkw_bound,
    ks_atoms,
    ks_one_sample,
    ks_two_sample,
    summary,
)

sample_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=60
)


def uniform_cdf(x):
    return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)


class TestKsOneSample:
    def test_hand_enumerated(self):
        # steps at 0.25 and 0.75 against U[0,1]: all four gaps are 0.25
        assert ks_one_sample([0.25, 0.75], uniform_cdf) == pytest.approx(0.25)

    def test_quantile_grid(self):
        n = 99
        samples = [(k + 1) / (n + 1) for k in range(n)]
        assert ks_one_sample(samples, uniform_cdf) <= 1 / (n + 1) + 1e-12

    def test_single_median(self):
        assert ks_one_sample([0.5], uniform_cdf) == pytest.approx(0.5)

    def test_empty(self):
        with pytest.raises(InvalidInputError):
            ks_one_sample([], uniform_cdf)

    def test_dkw_coverage(self):
        # 50 replications at N=1e4: at most 3 exceedances of the 99% radius
        g = Generator(Philox(key=99))
        n = 10_000
        bound = dkw_bound(n, 0.01)
        exceed = sum(
            ks_one_sample(g.random(n), uniform_cdf) > bound for _ in range(50)
        )
        assert exceed <= 3


class TestKsTwoSample:
    def test_identical_sets(self):
        assert ks_two_sample([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]) == 0.0

    def test_disjoint(self):
        assert ks_two_sample([0.0], [1.0]) == 1.0

    def test_interleaved(self):
        assert ks_two_sample([0.0, 2.0], [1.0, 3.0]) == pytest.approx(0.5)

    @given(sample_lists, sample_lists)
    def test_symmetric_and_bounded(self, a, b):
        d = ks_two_sample(a, b)
        assert d == ks_two_sample(b, a)
        assert 0.0 <= d <= 1.0

    @given(sample_lists)
    def test_self_distance_zero(self, a):
        assert ks_two_sample(a, a) == 0.0


# quarters in [-1, 1] repeat often, so samples have ties; uniforms add
# points inside U[0, 1]'s support
tied_lists = st.lists(
    st.one_of(
        st.integers(-4, 4).map(lambda k: k / 4),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    min_size=1,
    max_size=40,
)


def exact_ecdf(sample, x, left=False):
    """ECDF of the sample at x, or its left limit, as a Fraction."""
    hits = sum(v < x if left else v <= x for v in sample)
    return Fraction(hits, len(sample))


@st.composite
def atom_laws(draw):
    """(atoms, probs, samples): one to five sorted atoms, 1 plus a multiple
    of a step of 2**-52 (doubles one or two units in the last place apart:
    enumerate_exact merges only equal ones), 0.25 or 1e6, with
    probabilities; samples on the atoms, with ties, and on every atom at
    least once when the last flag is drawn."""
    step = draw(st.sampled_from([2.0**-52, 0.25, 1e6]))
    ks = sorted(draw(st.lists(st.integers(-8, 8), min_size=1, max_size=5, unique=True)))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(ks), max_size=len(ks)))
    picks = draw(st.lists(st.integers(0, len(ks) - 1), min_size=1, max_size=30))
    if draw(st.booleans()):
        picks += range(len(ks))
    atoms = [1.0 + k * step for k in ks]
    return atoms, [w / sum(weights) for w in weights], [atoms[i] for i in picks]


class TestExactKs:
    """The KS functions against the sup of the ECDF differences taken in
    Fractions, on small samples with ties, with their inputs left
    unchanged; the loops that go a chunk at a time split into chunks of a
    few points."""

    @given(tied_lists, st.integers(1, 5))
    def test_one_sample_is_exact_sup(self, xs, chunk):
        arr = np.array(xs)
        before = arr.tobytes()
        with mock.patch.object(stats, "_CHUNK", chunk):
            got = ks_one_sample(arr, uniform_cdf)
        assert arr.tobytes() == before
        # F is continuous, so the sup is met at a sample point, from the
        # right or the left
        exact = max(
            abs(exact_ecdf(xs, x, left) - Fraction(min(max(x, 0.0), 1.0)))
            for x in xs
            for left in (False, True)
        )
        # i / n and the difference round once each, within 2**-53 of values <= 1
        assert abs(Fraction(got) - exact) <= Fraction(2) ** -52
        # and as doubles, in that order, they give the result bit for bit
        n, f = len(xs), sorted(min(max(x, 0.0), 1.0) for x in xs)
        assert got == max(
            max(abs((i + 1) / n - fi), abs(i / n - fi)) for i, fi in enumerate(f)
        )

    @given(tied_lists, st.integers(1, 5), st.sampled_from([0.0, 2.0**-6, 0.25]))
    def test_one_sample_bracket_bounds_the_sup(self, xs, chunk, shift):
        # F known only between U[0, 1]'s CDF moved right and left by
        # ``shift``: the pair bounds the exact sup against each of the two
        # and against U[0, 1] itself, and with no shift both equal it
        arr = np.array(xs)
        lower = lambda x: uniform_cdf(np.subtract(x, shift))  # noqa: E731
        upper = lambda x: uniform_cdf(np.add(x, shift))  # noqa: E731
        with mock.patch.object(stats, "_CHUNK", chunk):
            low, high = ks_one_sample(arr, lower, upper)
            for cdf in (lower, uniform_cdf, upper):
                ks = ks_one_sample(arr, cdf)
                assert low - 2.0**-52 <= ks <= high + 2.0**-52
        if shift == 0.0:
            assert low == high == ks_one_sample(arr, uniform_cdf)

    @given(atom_laws())
    def test_atoms_is_exact_sup(self, law):
        atoms, probs, xs = law
        arr = np.array(xs)
        before = arr.tobytes()
        got = ks_atoms(arr, np.array(atoms), np.array(probs))
        assert arr.tobytes() == before
        # the ECDF and F are both steps at the atoms, right-continuous and 0
        # left of the first: the sup is met at an atom
        exact = max(
            abs(exact_ecdf(xs, a) - sum(Fraction(p) for p in probs[: j + 1]))
            for j, a in enumerate(atoms)
        )
        # F's cumulative sums, their differences with p, i / n and the
        # differences with F round, within 2**-53 of values <= 1 each time
        assert abs(Fraction(got) - exact) <= (len(atoms) + 3) * Fraction(2) ** -53

    @given(tied_lists, tied_lists, st.integers(1, 5))
    def test_two_sample_is_exact_sup(self, a, b, chunk):
        arr_a, arr_b = np.array(a), np.array(b)
        before = arr_a.tobytes(), arr_b.tobytes()
        with mock.patch.object(stats, "_CHUNK", chunk):
            got = ks_two_sample(arr_a, arr_b)
        assert (arr_a.tobytes(), arr_b.tobytes()) == before
        # both ECDFs are steps at the pooled points, right-continuous
        exact = max(abs(exact_ecdf(a, x) - exact_ecdf(b, x)) for x in a + b)
        assert abs(Fraction(got) - exact) <= Fraction(2) ** -52
        assert got == max(
            abs(sum(v <= x for v in a) / len(a) - sum(v <= x for v in b) / len(b))
            for x in a + b
        )


class TestDkwBound:
    def test_large_n(self):
        assert dkw_bound(100_000, 0.01) == pytest.approx(
            math.sqrt(math.log(200.0) / 200_000.0), rel=1e-12
        )

    def test_unit_radius(self):
        assert dkw_bound(1, 2.0 / math.e**2) == pytest.approx(1.0, rel=1e-12)

    def test_delta_near_one(self):
        assert dkw_bound(2, 0.999999) == pytest.approx(
            math.sqrt(math.log(2.0) / 4.0), rel=1e-4
        )

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            dkw_bound(0, 0.5)
        with pytest.raises(InvalidInputError):
            dkw_bound(10, 0.0)


class TestSummary:
    def test_constant(self):
        s = summary([1.0, 1.0, 1.0])
        assert (s.mean, s.variance) == (1.0, 0.0)

    def test_unbiased(self):
        s = summary([0.0, 2.0])
        assert (s.mean, s.variance) == (1.0, 2.0)

    def test_symmetric(self):
        s = summary([-1.0, 0.0, 1.0])
        assert (s.mean, s.variance, s.min, s.max, s.n) == (0.0, 1.0, -1.0, 1.0, 3)

    def test_single_sample_no_variance(self):
        s = summary([4.0])
        assert s.variance is None

    @given(st.lists(st.floats(min_value=-1e8, max_value=1e8), min_size=2, max_size=200))
    def test_against_numpy(self, xs):
        s = summary(xs)
        assert s.mean == pytest.approx(np.mean(xs), rel=1e-9, abs=1e-9)
        assert s.variance == pytest.approx(np.var(xs, ddof=1), rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize(
        "xs",
        [[1.0, math.inf, 2.0], [1.0, 2.0, math.inf], [-math.inf, 1.0], [1.0, math.nan, 2.0]],
    )
    def test_non_finite_sample_gives_nan_moments(self, xs):
        # in any order; min and max still skip NaN
        s = summary(xs)
        assert math.isnan(s.mean) and math.isnan(s.variance)
        finite = [x for x in xs if not math.isnan(x)]
        assert (s.min, s.max, s.n) == (min(finite), max(finite), len(xs))

    @staticmethod
    def welford(xs):
        """The one-pass streaming mean and variance summary once used."""
        n, mean, m2 = 0, 0.0, 0.0
        for x in xs:
            n += 1
            delta = x - mean
            mean += delta / n
            m2 += delta * (x - mean)
        return mean, m2 / (n - 1)

    @pytest.mark.parametrize("scale", [1e-150, 1e-3, 1.0, 1e5, 1e150])
    def test_matches_welford_on_finite_data(self, scale):
        g = Generator(Philox(key=7))
        xs = (g.standard_normal(20_000) + 3.0) * scale
        mean, variance = self.welford(xs.tolist())
        s = summary(xs)
        assert s.mean == pytest.approx(mean, rel=1e-12)
        assert s.variance == pytest.approx(variance, rel=1e-12)
        assert (s.min, s.max) == (xs.min(), xs.max())

    @pytest.mark.filterwarnings("error")
    def test_variance_past_double_range_is_inf(self):
        # finite samples whose variance overflows, as in a III-evt run at
        # small n: inf, with no warning
        s = summary([1e200, -1e200, 0.0])
        assert (s.mean, s.variance) == (0.0, math.inf)

    def test_sums_do_not_overflow(self):
        s = summary([1.5e308, 1.5e308, 1.5e308])
        assert (s.mean, s.variance) == (1.5e308, 0.0)
