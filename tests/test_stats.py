"""The per-projection median and MAD that ``fit_rpo_projected`` computes.

These two raw statistics (no Gaussian consistency factor; even-length
medians average the two central order statistics) normalize every
projected distance, so they are checked against a full-sort oracle. The
stored MAD is floored at ``EPS_FLOOR``.
``fit_rpo_projected`` reads them from one sorted buffer, the MAD by a
binary search over each sorted row, so ``TestBitExact`` also holds them to
``np.median`` byte for byte on many columns at once, at the sizes deep RPO
refits on (its batches and its 540-row validation set), with long tied
runs through the median, infinite entries and midpoints that overflow.
Where ``np.median`` is NaN they are NaN, of either sign: the sort writes
numpy's positive NaN, where ``np.median`` keeps the input's.

At m > 1 the medians come from a sort below ``MEDIAN_SELECT_MIN_N``
values a coordinate and from a selection from it up, in place on
``project``'s layout; ``TestMedianKernels`` holds both kernels to the same
contract on each side of that crossover, and the fit to permuting each
coordinate's values and nothing else.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rpo.data import Dataset
from rpo.projections import ProjectionSet, generate_projections, project
from rpo.scoring import (
    EPS_FLOOR,
    MEDIAN_SELECT_MIN_N,
    _select_rows_median,
    _sort_rows_median,
    fit_rpo,
    fit_rpo_projected,
)


def sort_oracle_median(values):
    """Independent full-sort median: exact order statistic / midpoint average."""
    v = sorted(float(x) for x in values)
    n = len(v)
    if n % 2 == 1:
        return v[n // 2]
    return (v[n // 2 - 1] + v[n // 2]) / 2.0


def sort_oracle_mad(values, center):
    return sort_oracle_median([abs(float(x) - center) for x in values])


def fit(T):
    """``fit_rpo_projected(T, X, U)`` with rows and maps that project to ``T``.

    Map k picks the m columns k * m .. k * m + m - 1 of the rows.
    """
    n, p, m = T.shape
    maps = np.eye(p * m).reshape(p * m, p, m).transpose(1, 0, 2)
    return fit_rpo_projected(T, T.reshape(n, p * m), ProjectionSet(entries=maps))


def fitted(values):
    """Median and floored MAD of one projection's coordinates."""
    stats = fit(np.asarray(values, dtype=np.float64).reshape(-1, 1, 1))
    return float(stats.med[0]), float(stats.mad[0])


def median(values):
    return fitted(values)[0]


def mad(values):
    return fitted(values)[1]


def oracle_mad(values):
    return max(sort_oracle_mad(values, sort_oracle_median(values)), EPS_FLOOR)


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
            fit(np.zeros((0, 3, 1)))

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
        assert mad([4.2, 4.2, 4.2]) == EPS_FLOOR

    def test_matches_sort_oracle_on_random_sample(self):
        rng = np.random.default_rng(11)
        v = rng.normal(size=501)
        assert mad(v) == oracle_mad(v)

    def test_empty_sample_rejected(self):
        U = ProjectionSet(entries=np.ones((1, 1, 1)))
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
        # the unfloored MAD scales with the sample; the floor stays put
        unfloored = sort_oracle_mad(v, sort_oracle_median(v))
        scaled = mad([a * x for x in v])
        assert scaled == pytest.approx(max(a * unfloored, EPS_FLOOR), rel=1e-9, abs=1e-12)

    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=20))
    def test_zero_mad_iff_majority_at_median(self, v):
        # strict majority: with exactly half at the median (even n), the
        # upper-middle deviation is positive and so is the MAD; a zero MAD
        # is stored as the floor
        med = median(v)
        at_median = sum(1 for x in v if float(x) == med)
        assert (mad(v) == EPS_FLOOR) == (2 * at_median > len(v))


# ties, signed zeros and arbitrary values, so sorted runs hold equal keys
values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), finite_floats)


@st.composite
def projected(draw, m=1, elements=values):
    """Projected coordinates (n, p, m), some with a constant column or in F order."""
    n = draw(st.integers(min_value=1, max_value=24))
    p = draw(st.integers(min_value=1, max_value=5))
    T = draw(arrays(np.float64, (n, p, m), elements=elements))
    if draw(st.booleans()):
        T[:, draw(st.integers(min_value=0, max_value=p - 1)), :] = draw(elements)
    if draw(st.booleans()):
        T = np.asfortranarray(T)  # strided columns, as an einsum may return them
    return T


def np_median_and_mad(T):
    """The ``np.median`` oracle for the m = 1 statistics, MAD floored."""
    coords = T[:, :, 0]
    med = np.median(coords, axis=0)
    return med, np.maximum(np.median(np.abs(coords - med), axis=0), EPS_FLOOR)


def assert_equal_or_both_nan(value, expected):
    """Byte for byte where ``expected`` is a number, NaN exactly where it is NaN."""
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(value), nan)
    assert value[~nan].tobytes() == expected[~nan].tobytes()


def assert_fit_equals_np_median(T):
    """The m = 1 fit equals the ``np.median`` oracle byte for byte.

    Infinite entries and overflowing midpoints warn in both (every warning
    fails a test), so both run with those warnings off.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        stats = fit(T)
        med, mad = np_median_and_mad(T)
    assert stats.med.tobytes() == med.tobytes()
    assert stats.mad.tobytes() == mad.tobytes()


# batch sizes and the validation refit's 540 rows, each side of a power of 2
REFIT_SIZES = [1, 2, 3, 127, 128, 255, 256, 539, 540, 541]
# a few values, so long tied runs pass through the median and its deviations
TIED = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0])
EXTREMES = [np.inf, -np.inf, 1e308, 1.7e308, -1e308, -1.7e308]


def tied_columns(n, p, rng):
    """(n, p, 1) coordinates mostly from ``TIED``, each column with its own weights.

    The rest are normal draws, so that the two middle deviations of an even
    column can differ.
    """
    T = np.empty((n, p, 1))
    for j in range(p):
        tied = rng.choice(TIED, size=n, p=rng.dirichlet(np.ones(len(TIED))))
        T[:, j, 0] = np.where(rng.random(n) < j / p, rng.normal(size=n), tied)
    return T


def extreme_columns(n, rng):
    """(n, 9, 1) coordinates with infinite entries or overflowing midpoints."""
    normal = rng.normal(size=n)
    halves = np.arange(n) < n // 2
    columns = [
        normal,
        np.where(rng.random(n) < 0.2, np.inf, normal),  # a finite median
        np.where(rng.random(n) < 0.6, np.inf, normal),  # mostly a median at inf
        np.where(rng.random(n) < 0.6, -np.inf, normal),
        rng.choice([-np.inf, np.inf], size=n),  # at even n, also -inf + inf
        rng.permutation(np.where(halves, 1e308, 1.7e308)),  # the midpoint overflows
        rng.permutation(np.where(halves, -1.7e308, -1e308)),
        np.full(n, 1e308),  # 1e308 + 1e308 overflows too
        rng.choice([-1.7e308, 0.0, 1.7e308], size=n),  # deviations overflow
    ]
    return np.stack(columns, axis=1)[:, :, np.newaxis]


@st.composite
def refit_sized(draw):
    """Up to 600 rows drawn from a few values, some of them extreme."""
    n = draw(st.integers(min_value=1, max_value=600))
    p = draw(st.integers(min_value=1, max_value=6))
    pool = draw(st.lists(st.one_of(values, st.sampled_from(EXTREMES)), min_size=1, max_size=6))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return np.random.default_rng(seed).choice(pool, size=(n, p, 1))


class TestBitExact:
    @pytest.mark.parametrize("n", [2, 3, 4, 127, 128])
    def test_many_columns_at_fixed_n(self, n):
        T = np.random.default_rng(n).normal(size=(n, 7, 1))
        stats = fit(T)
        med, mad = np_median_and_mad(T)
        assert stats.med.tobytes() == med.tobytes()
        assert stats.mad.tobytes() == mad.tobytes()

    @pytest.mark.parametrize("n", REFIT_SIZES)
    def test_tied_columns_at_refit_sizes(self, n):
        assert_fit_equals_np_median(tied_columns(n, 12, np.random.default_rng(n)))

    @pytest.mark.parametrize("n", REFIT_SIZES + [4])
    def test_infinite_and_overflowing_columns(self, n):
        assert_fit_equals_np_median(extreme_columns(n, np.random.default_rng(n)))

    @given(refit_sized())
    def test_m1_statistics_at_refit_sizes_equal_np_median(self, T):
        assert_fit_equals_np_median(T)

    @given(projected())
    def test_m1_median_and_mad_equal_np_median(self, T):
        before = T.copy()
        stats = fit(T)
        med, mad = np_median_and_mad(T)
        assert stats.med.tobytes() == med.tobytes()
        assert stats.mad.tobytes() == mad.tobytes()
        assert T.tobytes() == before.tobytes()  # the sort runs on a copy

    @given(projected(m=3, elements=st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
        st.floats(min_value=-1e3, max_value=1e3),
    )))
    def test_m3_median_equals_np_median(self, T):
        # bounded values keep the ridge visible, so the covariance inverts
        assert fit(T).med.tobytes() == np.median(T, axis=0).tobytes()

    @given(projected(), st.data())
    def test_nan_column_gives_nan_median_and_mad(self, T, data):
        n, p, _ = T.shape
        j = data.draw(st.integers(min_value=0, max_value=p - 1))
        nan = data.draw(st.sampled_from([np.nan, NEGATIVE_NAN]))
        T[data.draw(st.integers(min_value=0, max_value=n - 1)), j, 0] = nan
        stats = fit(T)
        med, mad = np_median_and_mad(T)
        assert np.isnan(stats.med[j]) and np.isnan(stats.mad[j])
        assert_equal_or_both_nan(stats.med, med)
        assert_equal_or_both_nan(stats.mad, mad)


# the NaN x86 arithmetic makes (inf - inf): sign bit set, 0xfff8...
NEGATIVE_NAN = np.array([0xFFF8_0000_0000_0000], dtype=np.uint64).view(np.float64)[0]
# row lengths for the kernels: 1 and 2, small odd and even ones, and each
# side of the crossover
KERNEL_SIZES = [1, 2, 3, 4, 5, MEDIAN_SELECT_MIN_N - 1, MEDIAN_SELECT_MIN_N,
                MEDIAN_SELECT_MIN_N + 1, 540]
KERNEL_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, 1.7e308, -1.7e308]


@st.composite
def kernel_rows(draw, nan=False):
    """(rows, n) values from a few of ``KERNEL_VALUES`` and normal draws, so ties run long.

    With ``nan``, some rows also hold NaNs of either sign.
    """
    n = draw(st.sampled_from(KERNEL_SIZES))
    rows = draw(st.integers(min_value=1, max_value=6))
    pool = draw(st.lists(st.sampled_from(KERNEL_VALUES), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    A = np.where(rng.random((rows, n)) < draw(st.floats(0.0, 1.0)),
                 rng.choice(pool, size=(rows, n)), rng.normal(size=(rows, n)))
    if nan:
        A[rng.random((rows, n)) < draw(st.floats(0.0, 0.05))] = np.nan
        A[rng.random((rows, n)) < draw(st.floats(0.0, 0.05))] = NEGATIVE_NAN
    return A


def kernel_median(kernel, A):
    """``kernel``'s medians of the rows of a copy of ``A``, with ``np.median``'s."""
    with np.errstate(invalid="ignore", over="ignore"):
        return kernel(A.copy()), np.median(A, axis=1)


KERNELS = pytest.mark.parametrize("kernel", [_sort_rows_median, _select_rows_median])


class TestMedianKernels:
    @KERNELS
    @given(A=kernel_rows())
    def test_equal_np_median_by_bytes(self, kernel, A):
        med, expected = kernel_median(kernel, A)
        assert med.tobytes() == expected.tobytes()

    @KERNELS
    @given(A=kernel_rows(nan=True))
    def test_nan_exactly_where_np_median_is_nan(self, kernel, A):
        med, expected = kernel_median(kernel, A)
        assert_equal_or_both_nan(med, expected)

    @KERNELS
    def test_negative_nan_median_is_nan(self, kernel):
        # the sort gives numpy's positive NaN here, np.median the input's negative one
        A = np.array([[1.0, NEGATIVE_NAN, 2.0], [NEGATIVE_NAN] * 3])
        med, expected = kernel_median(kernel, A)
        assert np.all(np.isnan(med)) and np.all(np.isnan(expected))

    @KERNELS
    def test_signed_zero_and_infinite_midpoints(self, kernel):
        A = np.array([[-0.0, -0.0], [-0.0, 0.0], [-np.inf, np.inf], [np.inf, np.inf], [-0.0, 5.0]])
        med, expected = kernel_median(kernel, A)
        assert med.tobytes() == expected.tobytes()
        assert np.signbit(med[0]) == np.signbit(expected[0]) == False  # noqa: E712

    @given(st.sampled_from(KERNEL_SIZES[2:]), st.integers(min_value=2, max_value=4),
           st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**16))
    def test_m_above_1_fit_permutes_within_each_coordinate(self, n, m, p, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 6))
        X[: n // 4] = rng.choice([0.0, -0.0], size=(n // 4, 6))
        U = generate_projections(6, m, p, seed=seed)
        T = project(X, U)
        before, X_before = T.copy(), X.copy()
        stats = fit_rpo_projected(T, X, U)
        assert stats.med.tobytes() == np.median(before, axis=0).tobytes()
        # the medians ran in place on T's rows: each holds the same bits, reordered
        rows = T.reshape(n, -1).T
        assert rows.flags.c_contiguous
        sorted_bits = [np.sort(np.ascontiguousarray(A.reshape(n, -1).T).view(np.int64), axis=1)
                       for A in (T, before)]
        assert sorted_bits[0].tobytes() == sorted_bits[1].tobytes()
        assert X.tobytes() == X_before.tobytes()

    @given(st.sampled_from(KERNEL_SIZES), st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=2**16))
    def test_m1_fit_leaves_t_unchanged(self, n, p, seed):
        X = np.random.default_rng(seed).normal(size=(n, 6))
        U = generate_projections(6, 1, p, seed=seed)
        T = project(X, U)
        before = T.copy()
        fit_rpo_projected(T, X, U)
        assert T.tobytes() == before.tobytes()

    def test_m_above_1_fit_with_x_sharing_t_copies_first(self):
        # X the rows of T itself: the medians must not permute them before the covariance
        T = project(np.random.default_rng(0).normal(size=(540, 3)),
                    generate_projections(3, 3, 1, seed=0))
        X = T.reshape(540, 3)
        maps = ProjectionSet(entries=np.eye(3).reshape(1, 3, 3))
        before = T.copy()
        stats = fit_rpo_projected(T, X, maps)
        assert T.tobytes() == before.tobytes()
        assert stats.med.tobytes() == np.median(before, axis=0).tobytes()
