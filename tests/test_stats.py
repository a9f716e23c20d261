"""The per-projection median and MAD that ``fit_rpo_projected`` computes for m = 1.

These two raw statistics (no Gaussian consistency factor; even-length
medians average the two central order statistics) normalize every
projected distance, so they are checked against a full-sort oracle. The
stored MAD is floored at ``eps_floor``.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rpo.data import Dataset
from rpo.projections import ProjectionSet
from rpo.scoring import DEFAULT_EPS_FLOOR, fit_rpo, fit_rpo_projected


def sort_oracle_median(values):
    """Independent full-sort median: exact order statistic / midpoint average."""
    v = sorted(float(x) for x in values)
    n = len(v)
    if n % 2 == 1:
        return v[n // 2]
    return (v[n // 2 - 1] + v[n // 2]) / 2.0


def sort_oracle_mad(values, center):
    return sort_oracle_median([abs(float(x) - center) for x in values])


def fitted(values, eps_floor=DEFAULT_EPS_FLOOR):
    """Median and floored MAD of one projection's coordinates."""
    T = np.asarray(values, dtype=np.float64).reshape(-1, 1, 1)
    stats = fit_rpo_projected(T, eps_floor=eps_floor)
    return float(stats.med[0]), float(stats.mad[0])


def median(values):
    return fitted(values)[0]


def mad(values, eps_floor=DEFAULT_EPS_FLOOR):
    return fitted(values, eps_floor)[1]


def oracle_mad(values, eps_floor=DEFAULT_EPS_FLOOR):
    return max(sort_oracle_mad(values, sort_oracle_median(values)), eps_floor)


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
samples = st.lists(finite_floats, min_size=1, max_size=50)


class TestMedian:
    def test_odd_length(self):
        assert median([1, 2, 3]) == 2

    def test_even_length_midpoint(self):
        assert median([1, 2, 3, 4]) == 2.5

    def test_matches_sort_oracle_on_uniform_draws(self):
        rng = np.random.default_rng(7)
        v = rng.uniform(0, 1, size=1000)
        assert median(v) == sort_oracle_median(v)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty training set"):
            fit_rpo_projected(np.zeros((0, 3, 1)))

    def test_nan_rejected(self):
        # non-finite features are rejected where data enters, before any median
        with pytest.raises(ValueError, match="NaN"):
            Dataset(
                X=np.array([[1.0], [np.nan]]), class_id=np.zeros(2, dtype=np.int64),
                label=np.zeros(2, dtype=np.int64), split=np.array(["train", "train"]),
                sad_flag=np.zeros(2, dtype=bool),
            )

    @given(samples)
    def test_matches_sort_oracle(self, v):
        assert median(v) == sort_oracle_median(v)

    @given(samples, finite_floats)
    def test_translation_equivariance(self, v, t):
        shifted = [x + t for x in v]
        assert median(shifted) == pytest.approx(median(v) + t, abs=1e-6)

    @given(samples, st.floats(min_value=1e-3, max_value=1e3))
    def test_positive_scale_equivariance(self, v, a):
        assert median([a * x for x in v]) == pytest.approx(a * median(v), rel=1e-12)

    @given(samples, st.randoms(use_true_random=False))
    def test_permutation_invariance(self, v, rand):
        shuffled = list(v)
        rand.shuffle(shuffled)
        assert median(shuffled) == median(v)


class TestMad:
    def test_symmetric_deviations(self):
        assert mad([1, 2, 3, 4, 5]) == 1

    def test_constant_sample_is_zero(self):
        # a zero MAD is stored as the floor, so no distance divides by zero
        assert mad([4.2, 4.2, 4.2], eps_floor=1e-3) == 1e-3

    def test_matches_sort_oracle_on_random_sample(self):
        rng = np.random.default_rng(11)
        v = rng.normal(size=501)
        assert mad(v) == oracle_mad(v)

    def test_empty_sample_rejected(self):
        U = ProjectionSet(entries=np.ones((1, 1, 1)), seed=0)
        with pytest.raises(ValueError, match="empty training set"):
            fit_rpo(np.zeros((0, 1)), U)

    @given(samples)
    def test_matches_sort_oracle(self, v):
        assert mad(v) == oracle_mad(v)

    @given(samples, finite_floats)
    def test_translation_equivariance(self, v, t):
        shifted = [x + t for x in v]
        assert mad(shifted) == pytest.approx(mad(v), abs=1e-6)

    @given(samples, st.floats(min_value=1e-3, max_value=1e3))
    def test_positive_scale_equivariance(self, v, a):
        # eps_floor scales with the sample, so the floor scales too
        scaled = mad([a * x for x in v], eps_floor=a * DEFAULT_EPS_FLOOR)
        assert scaled == pytest.approx(a * mad(v), rel=1e-9, abs=1e-12)

    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=20))
    def test_zero_mad_iff_majority_at_median(self, v):
        # strict majority: with exactly half at the median (even n), the
        # upper-middle deviation is positive and so is the MAD; a zero MAD
        # is stored as the floor
        med = median(v)
        at_median = sum(1 for x in v if float(x) == med)
        assert (mad(v) == DEFAULT_EPS_FLOOR) == (2 * at_median > len(v))
