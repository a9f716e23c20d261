"""The m > 1 kernels and the deep-rpo gradient, held to the einsum forms they replace.

Two contracts hold here, each against oracles that are the earlier einsum
code, kept verbatim (the earlier fit split into ``oracle_cov`` and
``oracle_fit``, and the earlier loss calling the fit with its rows and maps).

Bit for bit: the medians of ``fit_rpo_projected`` equal ``np.median`` by
``tobytes()``, and its inverse covariances are symmetric to the bit. The
m = 1 loss of
``deep_rpo_loss`` is held to the same bytes, and so is its gradient under
the max estimator, whose latent gradient has one term per row.

The oracles' own sums follow the memory layout of their operands: on an
F-ordered ``T`` the distance einsum reduces in another order. The kernels
copy ``T`` into a fixed layout first or work elementwise, so any layout of
``T`` (``project``'s own at m > 1 is a transposed view of a C-ordered
(p * m, n) array) must give the kernels' result for its C-ordered copy.
The m > 1 fit takes its medians in place on ``project``'s layout, so it
leaves that ``T`` permuted within each coordinate, and any other layout
unchanged (``assert_consumed_as_documented``); a caller that reads ``T``
again fits on a projection of its own.

Within a tolerance: ``project`` at m > 1 is one BLAS product, which sums
over d in its own blocked order; the covariance in ``fit_rpo_projected`` is
``E_p^T S E_p`` from the rows' (d, d) covariance ``S``, not a sum over the
(n, p, m) projection; and a distance is the norm of the whitened residual
``x E'_p - med'_p`` (``whiten``, ``whitened_residuals``), with ``E'_p =
E_p L_p``, ``med'_p = L_p^T med_p`` and ``inv_cov_p = L_p L_p^T``, not the
oracle's quadratic form over ``T - med``. All three are held to a
backward-error bound: each value lies within ``MDIM_RTOL`` of the oracle's,
relative to the same form taken over absolute values (``|X| @ |E|`` for a
projected coordinate, ``|E_p|^T (|X|^T |X|) |E_p| / (n - 1)`` over the
uncentred rows for a covariance entry, ``sum_k (sum_i |L_ik| (|x| |E_p| +
|med_p|)_i)^2`` for a squared distance), through
``assert_within_mdim_tolerance``. The covariance scale takes the rows
uncentred because centring loses the digits of rows far from the origin,
in the kernel and the oracle alike
(``test_fit_within_tolerance_on_offset_latents``). The distance scale takes
the rows and the median, not the residual ``R``: the whitened product
rounds relative to the rows, and a row at the median, with ``R`` = 0, gets
a distance of rounding size. The inverse covariance, which the fit takes
from a batched Cholesky and no LAPACK call, is held to its backward error
against the kernel's covariance plus the ridge, per projection in the
inf-norm: ``||C inv_cov - I||`` within ``MDIM_RTOL`` of ``||C|| ||inv_cov||``
(``inverse_deviation``); ``TestBatchedCholesky`` holds that Cholesky's
refusals to ``np.linalg.cholesky``'s. A whole deep-rpo run with the
oracles patched in must keep its AUCs and best epoch exactly, and its
losses and checkpoint within the same bound.

The m > 1 gradient of ``deep_rpo_loss`` is one product of the weighted
whitened residuals with the maps, where the oracle takes two einsums
through ``inv_cov``. Each weight matrix's gradient must lie within
``GRADIENT_RTOL`` of the oracle's, relative to that matrix's largest oracle
entry (``assert_within_gradient_tolerance``). A row at the median has the
oracle's distance 0 and gradient 0; the kernel gives it a distance of
rounding size and, where it has a gradient, a unit subgradient: the
oracle's gradient on the other rows, and on that row
``sum_p dD_p E'_p r'_p / D_p`` with ``|r'_p| / D_p = 1``. A whole m = 3
run must keep its train losses within the same bound and its AUCs and best
epoch exactly.

The m = 1 gradient of ``deep_rpo_loss`` is one BLAS product of the sign
matrix with the maps, where the oracle takes an einsum; it sums over the
projections in the BLAS's order, and is held to the same ``GRADIENT_RTOL``.
Dropping the 1/MAD scale or taking the sign of ``T`` in place of ``T - med``
breaks that bound by far.
"""

import sys
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rpo import scoring, training
from rpo.encoder import init_encoder
from rpo.errors import NumericError
from rpo.evaluation import ExperimentSpec, run_single_seed
from rpo.model_io import ScoringModel
from rpo.projections import generate_projections, project
from rpo.scoring import (
    EPS_FLOOR,
    RIDGE,
    RpoStats,
    Whitened,
    fit_rpo_projected,
    projected_distances,
    reduce_distances,
    whiten,
    whitened_residuals,
)
from rpo.training import DeepRpoModel, _regularizer, deep_rpo_loss

# the earlier kernels, verbatim


def oracle_project(X, U):
    return np.einsum("nd,pdm->npm", np.asarray(X, dtype=np.float64), U.entries)


def oracle_cov(T):
    n = T.shape[0]
    centered = T - np.mean(T, axis=0)
    return np.einsum("npi,npj->pij", centered, centered) / max(n - 1, 1)


def oracle_fit(T, X=None, U=None, ridge=RIDGE):
    """The earlier fit; ``X`` and ``U`` are taken unread, so it stands in for the kernel."""
    n, p, m = T.shape
    med = np.median(T, axis=0)
    cov = oracle_cov(T) + ridge * np.eye(m)
    inv_cov = np.linalg.inv(cov)
    inv_cov = 0.5 * (inv_cov + np.transpose(inv_cov, (0, 2, 1)))
    return RpoStats(med=med, mad=None, inv_cov=inv_cov)


def oracle_distances(T, stats, out=None):
    R = T - stats.med[np.newaxis]
    quad = np.einsum("npi,pij,npj->np", R, stats.inv_cov, R)
    return np.sqrt(np.maximum(quad, 0.0), out=out)


SHAPES = [
    (m, n, d, p)
    for m in (2, 3, 4)
    for n in (1, 2, 3, 128, 540)
    for d, p in ((m, 1000), (16, 37), ((m + 16) // 2, 1))
]


def shape_id(shape):
    return "m{}-n{}-d{}-p{}".format(*shape)


def instance(m, n, d, p):
    """Rows and projections; a quarter of the rows are +0.0, another -0.0.

    Their projected coordinates tie at zero, which is then often the median.
    """
    rng = np.random.default_rng(1000 * m + n + d + p)
    U = generate_projections(d, m, p, seed=m + d)
    X = rng.normal(size=(n, d))
    X[: n // 4] = 0.0
    if n >= 3:
        X[n // 4 : n // 2] = -0.0
    return X, U


def _bytes_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def coordinate_rows(T):
    """The (p * m, n) rows of an (n, p, m) ``T``: each coordinate's n values."""
    return T.reshape(T.shape[0], -1).T


def assert_permuted_within_coordinates(T, before):
    """Each coordinate of ``T`` holds the bit patterns it held ``before``, in some order.

    Sorted as integers, so +0.0 and -0.0 (and NaNs) are told apart.
    """
    def sorted_bits(A):
        return np.sort(np.ascontiguousarray(coordinate_rows(A)).view(np.int64), axis=1)

    assert _bytes_equal(sorted_bits(T), sorted_bits(before))


def assert_consumed_as_documented(T, before):
    """After an m > 1 fit: ``project``'s layout permuted within each coordinate, any other unchanged."""
    if coordinate_rows(T).flags.c_contiguous:
        assert_permuted_within_coordinates(T, before)
    else:
        assert _bytes_equal(T, before)


# the tolerance contract of the m > 1 projection, covariance and distances

MDIM_RTOL = 1e-12


def mdim_deviation(value, oracle, scale):
    """Largest |value - oracle| / scale; an exact match counts 0 whatever the scale."""
    assert value.shape == oracle.shape
    err = np.abs(value - oracle)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(err == 0.0, 0.0, err / scale)
    return float(np.max(rel, initial=0.0))


# a value below the smallest normal float keeps no relative precision (a
# product that underflows rounds to a multiple of 5e-324); a test whose draws
# reach there passes ``atol=UNDERFLOW``: |value - oracle| <= MDIM_RTOL * scale + atol
UNDERFLOW = np.finfo(np.float64).tiny


def assert_within_mdim_tolerance(value, oracle, scale, atol=0.0):
    assert mdim_deviation(value, oracle, scale + atol / MDIM_RTOL) <= MDIM_RTOL


def project_scale(X, U):
    """``|X| @ |E|``: the projection's sum over absolute values."""
    return np.einsum("nd,pdm->npm", np.abs(X), np.abs(U.entries))


def whitened_scale(X, U, stats):
    """``sum_k (sum_i |L_ik| (|X| |E_p| + |med_p|)_i)^2``: the whitened squared distance over absolute values."""
    L = np.abs(np.linalg.cholesky(stats.inv_cov))
    A = project_scale(X, U) + np.abs(stats.med)
    return np.sum(np.einsum("npi,pik->npk", A, L) ** 2, axis=2)


def whitened_distances(X, U, stats):
    """The kernels' distances of rows ``X``: the norms of their whitened residuals."""
    W = whiten(U, stats)
    return projected_distances(whitened_residuals(X, W), W)


def covariance_scale(X, U):
    """``|E_p|^T (|X|^T |X|) |E_p| / (n - 1)``: the covariance over absolute, uncentred rows."""
    A, E = np.abs(X), np.abs(U.entries)
    return np.einsum("pdi,de,pej->pij", E, A.T @ A, E) / max(X.shape[0] - 1, 1)


def _inf_norm(A):
    return np.abs(A).sum(axis=2).max(axis=1)


def inverse_deviation(inv_cov, cov):
    """The inverses' backward error: the largest, over the projections, of
    ``||cov_p inv_cov_p - I|| / (||cov_p|| ||inv_cov_p||)`` in the inf-norm.

    Not relative to ``|cov_p| |inv_cov_p|``, entry by entry or by its
    largest entry: where a covariance has an eigenvalue near the ridge,
    ``|cov_p|`` and ``|inv_cov_p|`` are large in complementary entries, so
    that product is far below the norms'. LAPACK's own inverse misses the
    per-entry form by 3.4e-12 (``test_fit_equals_einsum_oracle[m4-n2-d4-p1000]``),
    and this fit's inverse the largest-entry form by 5.2e-12 (on a
    ``TestTiesAndSignedZeros`` draw of cond 8e9).
    """
    residual = _inf_norm(cov @ inv_cov - np.eye(cov.shape[-1]))
    return float(np.max(residual / (_inf_norm(cov) * _inf_norm(inv_cov))))


def assert_fit_within_tolerance(stats, T, X, U, atol=0.0):
    """Medians bit for bit; the kernel's covariance and its inverse within MDIM_RTOL.

    The inverse is held to its backward error against the kernel's
    covariance plus the ridge, and must be symmetric to the bit.
    """
    cov = scoring._projected_covariance(X, U)
    assert_within_mdim_tolerance(cov, oracle_cov(T), covariance_scale(X, U), atol)
    assert _bytes_equal(stats.med, np.median(T, axis=0))
    assert inverse_deviation(stats.inv_cov, cov + RIDGE * np.eye(U.m)) <= MDIM_RTOL
    assert _bytes_equal(stats.inv_cov, stats.inv_cov.transpose(0, 2, 1))


def assert_project_within_tolerance(T, X, U):
    assert_within_mdim_tolerance(T, oracle_project(X, U), project_scale(X, U))


def assert_distances_within_tolerance(D, X, U, stats, atol=0.0):
    expected = oracle_distances(oracle_project(X, U), stats)
    assert_within_mdim_tolerance(D**2, expected**2, whitened_scale(X, U, stats), atol)


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_project_equals_einsum_oracle(shape):
    X, U = instance(*shape)
    X_before, E_before = X.copy(), U.entries.copy()
    T = project(X, U)
    assert_project_within_tolerance(T, X, U)
    # a view of the C-ordered (p * m, n) layout the fit sorts
    rows = T.reshape(T.shape[0], -1).T
    assert rows.flags.c_contiguous and np.shares_memory(rows, T)
    assert _bytes_equal(X, X_before) and _bytes_equal(U.entries, E_before)


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_fit_equals_einsum_oracle(shape):
    X, U = instance(*shape)
    X_before = X.copy()
    T = oracle_project(X, U)
    for layout in (T, np.asfortranarray(T)):
        before = layout.copy(order="K")
        stats = fit_rpo_projected(layout, X, U)
        assert_fit_within_tolerance(stats, T, X, U)
        # an F-ordered T with one projection is project's layout
        assert_consumed_as_documented(layout, before)
    assert _bytes_equal(X, X_before)


OFFSET_SHAPES = [(m, n, m, 1000) for m in (2, 3, 4) for n in (3, 540)]


@pytest.mark.parametrize("shape", OFFSET_SHAPES, ids=shape_id)
def test_fit_within_tolerance_on_offset_latents(shape):
    """Latents pulled close together far from the origin: the bound needs uncentred rows.

    Centring loses the offset's digits, in the kernel and in the oracle
    alike, so relative to the centred form the two differ by far more than
    MDIM_RTOL; relative to the uncentred form they stay within it.
    """
    X, U = instance(*shape)
    X = 1e3 + 1e-3 * X
    T = oracle_project(X, U)
    assert_fit_within_tolerance(fit_rpo_projected(T, X, U), T, X, U)
    cov = scoring._projected_covariance(X, U)
    centred_scale = covariance_scale(X - np.mean(X, axis=0), U)
    assert mdim_deviation(cov, oracle_cov(T), centred_scale) > 10 * MDIM_RTOL


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_distances_equal_einsum_oracle(shape):
    X, U = instance(*shape)
    stats = oracle_fit(oracle_project(X, U))
    # queries: the training rows, whose +0.0 and -0.0 rows often sit at a
    # zero median, and their negations (-0.0 for +0.0)
    Q = np.concatenate([X, -X])
    W = whiten(U, stats)
    T = whitened_residuals(Q, W)
    D = projected_distances(T, W)
    assert_distances_within_tolerance(D, Q, U, stats)
    assert _bytes_equal(D, whitened_distances(Q, U, stats))
    for layout in (T, np.asfortranarray(T)):
        before = layout.copy(order="K")
        assert _bytes_equal(projected_distances(layout, W), D)
        assert _bytes_equal(layout, before)
    out = np.full(T.shape[:2], np.nan)
    assert projected_distances(T, W, out=out) is out
    assert _bytes_equal(out, D)


@pytest.mark.parametrize("eps", [1e-4, 1e-7])
@pytest.mark.parametrize("m", [2, 3])
def test_distances_within_tolerance_on_near_singular_latents(m, eps):
    """Latents within ``eps`` of a 2-D subspace: factors ``L_p`` near the ridge's 1e3.

    The kernel and the oracle then differ by more than MDIM_RTOL of the
    largest distance (1.2e-11 to 3.7e-11 of it), and within it relative to
    the whitened scale.
    """
    rng = np.random.default_rng(int(m / eps))
    X = rng.normal(size=(540, 2)) @ rng.normal(size=(2, 8)) + eps * rng.normal(size=(540, 8))
    U = generate_projections(8, m, 500, seed=m)
    T = project(X, U)
    stats = fit_rpo_projected(T, X, U)
    D = whitened_distances(X, U, stats)
    assert_distances_within_tolerance(D, X, U, stats)
    assert np.max(np.linalg.cholesky(stats.inv_cov)) > 1e2
    expected = oracle_distances(oracle_project(X, U), stats)
    assert np.max(np.abs(D - expected)) > MDIM_RTOL * np.max(expected)


def test_rpo_stats_at_m_above_1_are_refused_by_distances():
    X, U = instance(3, 20, 6, 5)
    stats = oracle_fit(oracle_project(X, U))
    with pytest.raises(ValueError, match="whitened residuals"):
        projected_distances(project(X, U), stats)


residual_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(min_value=-1e3, max_value=1e3),
)


@st.composite
def rows_and_maps(draw, max_p=20):
    """Rows ``X`` (n, d) of ``residual_values`` and m > 1 maps for them."""
    m = draw(st.integers(min_value=2, max_value=4))
    d = draw(st.integers(min_value=m, max_value=16))
    p = draw(st.integers(min_value=1, max_value=max_p))
    n = draw(st.integers(min_value=1, max_value=9))
    X = draw(arrays(np.float64, (n, d), elements=residual_values))
    return X, generate_projections(d, m, p, seed=draw(st.integers(0, 2**16)))


class TestTiesAndSignedZeros:
    # few distinct values: many rows tie with the median, residuals of
    # +0.0 and -0.0 are common; bounded values keep the ridge visible, so
    # the covariance inverts
    @settings(max_examples=200, deadline=None)
    @given(rows_and_maps(max_p=5))
    def test_fit_and_distances_equal_oracles(self, rows_maps):
        """Rows as small as 1e-159 give subnormal covariances and squared
        distances, where the kernel and the einsums differ by a few 5e-324:
        these two bounds allow UNDERFLOW absolutely."""
        X, U = rows_maps
        T = project(X, U)
        before, X_before = T.copy(), X.copy()
        stats = fit_rpo_projected(T, X, U)
        assert_fit_within_tolerance(stats, before, X, U, atol=UNDERFLOW)
        D = whitened_distances(X, U, stats)
        assert_distances_within_tolerance(D, X, U, stats, atol=UNDERFLOW)
        assert_permuted_within_coordinates(T, before)
        assert _bytes_equal(X, X_before)

    @settings(max_examples=100, deadline=None)
    @given(rows_and_maps())
    def test_project_equals_oracle(self, rows_maps):
        X, U = rows_maps
        assert_project_within_tolerance(project(X, U), X, U)


def _patched(fn, oracle):
    """``oracle`` on m > 1 inputs, the kernel under test otherwise."""

    def call(*args, **kwargs):
        m = args[1].m if fn is project else args[0].shape[2]
        return (oracle if m > 1 else fn)(*args, **kwargs)

    return call


class _OracleHead(NamedTuple):
    """What the oracles' ``whiten`` returns: the maps and the stats, unfolded."""

    U: object
    stats: RpoStats


def _oracle_head_distances(T, stats, out=None):
    if isinstance(stats, _OracleHead):
        return oracle_distances(T, stats.stats, out=out)
    return projected_distances(T, stats, out=out)


def _install_oracles(monkeypatch):
    """Bind the oracles at every site that imported a kernel by name.

    At m > 1 scoring then takes ``oracle_project`` for the whitened
    residuals and ``oracle_distances`` over them, and the loss is the
    earlier one.
    """
    swaps = {
        project: _patched(project, oracle_project),
        fit_rpo_projected: _patched(fit_rpo_projected, oracle_fit),
        whiten: _OracleHead,
        whitened_residuals: lambda X, head: oracle_project(X, head.U),
        projected_distances: _oracle_head_distances,
        deep_rpo_loss: oracle_deep_rpo_loss,
    }
    for name, module in list(sys.modules.items()):
        if name != "rpo" and not name.startswith("rpo."):
            continue
        for key, value in list(vars(module).items()):
            if any(value is fn for fn in swaps):
                monkeypatch.setattr(module, key, swaps[value])


def _seed_outputs(spec, tmp_path):
    result = run_single_seed(spec, seed=spec.seeds[0], checkpoint_dir=tmp_path)
    with np.load(tmp_path / f"{spec.method}_seed{spec.seeds[0]}.npz") as z:
        members = {k: z[k] for k in z.files}
    return result, members


@pytest.mark.parametrize("method", ["deep-rpo-mean", "deep-rpo-max"])
def test_deep_rpo_run_within_tolerance_of_einsum_oracles(tmp_path, monkeypatch, method):
    """AUCs and best epoch equal; losses and checkpoint floats within MDIM_RTOL."""
    spec = ExperimentSpec(
        method=method, k_modes=2, dim=6, n_per_mode=120, anomaly_n=60,
        n_projections=60, rp_dim=3, epochs=2, batch_size=64, seeds=(3,),
    )
    (tmp_path / "kernels").mkdir()
    (tmp_path / "oracles").mkdir()
    result, ckpt = _seed_outputs(spec, tmp_path / "kernels")
    _install_oracles(monkeypatch)
    for name in ("project", "fit_rpo_projected", "whiten", "whitened_residuals",
                 "projected_distances", "deep_rpo_loss"):
        assert getattr(training, name) is not globals()[name]
    assert scoring.project is not project and scoring.whiten is not whiten
    oracle, o_ckpt = _seed_outputs(spec, tmp_path / "oracles")
    loss = np.array([r.train_loss for r in result.history])
    o_loss = np.array([r.train_loss for r in oracle.history])
    assert loss.shape == (2,)
    assert_within_mdim_tolerance(loss, o_loss, np.abs(o_loss))
    assert [r.val_auc for r in result.history] == [r.val_auc for r in oracle.history]
    assert result.test_auc == oracle.test_auc
    assert result.best_epoch == oracle.best_epoch
    assert sorted(ckpt) == sorted(o_ckpt)
    for key in ckpt:
        if ckpt[key].dtype.kind == "f":
            assert_within_mdim_tolerance(ckpt[key], o_ckpt[key], np.max(np.abs(o_ckpt[key])))
        else:
            assert _bytes_equal(ckpt[key], o_ckpt[key]), key
    assert ckpt["stats_inv_cov"].shape[1:] == (3, 3)


def _m_major_project(X, U):
    """``project`` with the maps reshaped m-major: columns in the wrong order."""
    maps = U.entries.transpose(1, 2, 0).reshape(U.d, U.m * U.p)
    return (X @ maps).reshape(X.shape[0], U.p, U.m)


def _undoubled_distances(T, stats):
    """The Mahalanobis form over distinct pairs without doubling the off-diagonal terms."""
    R = np.array(T.transpose(2, 0, 1), order="C") - stats.med.T[:, np.newaxis, :]
    C = stats.inv_cov.transpose(1, 2, 0)
    m = R.shape[0]
    quad = sum(R[i] * C[i, j] * R[j] for i in range(m) for j in range(i, m))
    return np.sqrt(np.maximum(quad, 0.0))


def _mutated_whiten(U, stats, mutation):
    """``whiten`` with ``L_p^T`` folded in for ``L_p``, or its columns laid p-major.

    ``whitened_residuals`` reads p-major columns as m-major ones.
    """
    L = np.linalg.cholesky(stats.inv_cov)
    if mutation == "transposed-factor":
        L = L.transpose(0, 2, 1)
    order = (1, 0, 2) if mutation == "p-major" else (1, 2, 0)
    maps = np.ascontiguousarray(np.matmul(U.entries, L).transpose(order))
    med = np.matmul(stats.med[:, np.newaxis, :], L)[:, 0, :]  # (p, m)
    med = med.reshape(U.m, U.p) if mutation == "p-major" else med.T
    return Whitened(maps=maps.reshape(U.d, U.m * U.p), med=np.ascontiguousarray(med))


MUTATIONS = ["transposed-factor", "p-major"]


@pytest.mark.parametrize("shape", [(3, 128, 16, 37), (2, 540, 2, 1000)], ids=shape_id)
def test_m_major_maps_break_project_tolerance_by_far(shape):
    X, U = instance(*shape)
    T = _m_major_project(X, U)
    assert mdim_deviation(T, oracle_project(X, U), project_scale(X, U)) > 1e-3


def _uncentred_covariance(X, U):
    """``_projected_covariance`` with ``S`` taken over the rows uncentred."""
    p, d, m = U.entries.shape
    S = (X.T @ X) / max(X.shape[0] - 1, 1)
    Et = np.ascontiguousarray(U.entries.transpose(0, 2, 1)).reshape(p * m, d)
    ES = (Et @ S).reshape(p, m, d)
    return np.matmul(U.entries.transpose(0, 2, 1), ES.transpose(0, 2, 1))


@pytest.mark.parametrize("shape", [(3, 128, 16, 37), (2, 540, 2, 1000)], ids=shape_id)
@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_uncentred_covariance_breaks_fit_tolerance_by_far(shape, offset):
    X, U = instance(*shape)
    X = X + offset
    cov = _uncentred_covariance(X, U)
    assert mdim_deviation(cov, oracle_cov(oracle_project(X, U)), covariance_scale(X, U)) > 1e-3


@pytest.mark.parametrize("shape", [(3, 128, 16, 37), (2, 540, 2, 1000)], ids=shape_id)
@pytest.mark.parametrize("mutation", MUTATIONS)
def test_mutated_whitened_maps_break_distance_tolerance_by_far(shape, mutation):
    X, U = instance(*shape)
    stats = oracle_fit(oracle_project(X, U))
    W = _mutated_whiten(U, stats, mutation)
    D = projected_distances(whitened_residuals(X, W), W)
    expected = oracle_distances(oracle_project(X, U), stats)
    assert mdim_deviation(D**2, expected**2, whitened_scale(X, U, stats)) > 1e-3



@pytest.mark.parametrize("shape", [(3, 128, 16, 37), (2, 540, 2, 1000)], ids=shape_id)
def test_undoubled_pairs_break_distance_tolerance_by_far(shape):
    X, U = instance(*shape)
    T = oracle_project(X, U)
    stats = oracle_fit(T)
    D = _undoubled_distances(T, stats)
    expected = oracle_distances(T, stats)
    assert mdim_deviation(D**2, expected**2, whitened_scale(X, U, stats)) > 1e-3


_LOWER_INVERSE = scoring._lower_inverse

# each breaks the fit's inverse: Li Li^T for Li^T Li, or the covariance without its ridge
INVERSE_MUTATIONS = {
    "transposed-product": ("_lower_inverse", lambda L: _LOWER_INVERSE(L).transpose(0, 2, 1)),
    "no-ridge": ("RIDGE", 0.0),
}


@pytest.mark.parametrize("shape", [(3, 128, 16, 37), (2, 540, 2, 1000), (5, 128, 8, 500)],
                         ids=shape_id)
@pytest.mark.parametrize("mutation", sorted(INVERSE_MUTATIONS))
def test_mutated_inverse_breaks_inverse_tolerance_by_far(monkeypatch, shape, mutation):
    X, U = instance(*shape)
    T = project(X, U)
    cov = scoring._projected_covariance(X, U) + RIDGE * np.eye(U.m)
    assert inverse_deviation(fit_rpo_projected(T, X, U).inv_cov, cov) <= MDIM_RTOL
    monkeypatch.setattr(scoring, *INVERSE_MUTATIONS[mutation])
    assert inverse_deviation(fit_rpo_projected(T, X, U).inv_cov, cov) > 1e5 * MDIM_RTOL


@st.composite
def stacks(draw):
    """One (1, m, m) matrix of a kind whose Cholesky refusal rounding cannot decide.

    ``definite`` is ``B B^T + I`` over small integers; ``singular`` zeroes one
    of its rows and columns, so that pivot is exactly 0; ``indefinite``
    negates one diagonal entry, so that pivot is below 0; ``nan``, ``inf``
    and ``-inf`` put that value at one entry, and sometimes at its mirror
    too. A value in the upper triangle alone is never read.
    """
    m = draw(st.sampled_from([2, 3, 5]))
    B = draw(arrays(np.float64, (m, m), elements=st.integers(-4, 4).map(float)))
    A = B @ B.T + np.eye(m)
    kind = draw(st.sampled_from(["definite", "singular", "indefinite", "nan", "inf", "-inf"]))
    k = draw(st.integers(0, m - 1))
    if kind == "singular":
        A[k, :] = A[:, k] = 0.0
    elif kind == "indefinite":
        A[k, k] = -A[k, k]
    elif kind != "definite":
        i, j = k, draw(st.integers(0, m - 1))
        A[i, j] = float(kind)
        if draw(st.booleans()):
            A[j, i] = float(kind)
    return A[np.newaxis]


def _refused(fn, *args):
    """``fn(*args)`` raises ``NumericError``; an infinite entry may make NaN on the way."""
    try:
        with np.errstate(invalid="ignore"):
            fn(*args)
    except NumericError:
        return True
    return False


def lapack_refuses(A):
    """``np.linalg.cholesky`` refuses ``A``, or gives it a factor holding a NaN.

    numpy's OpenBLAS ``potrf`` refuses a pivot <= 0 only, so a NaN pivot,
    from a NaN entry or from ``inf - inf``, passes there as a NaN factor;
    reference LAPACK refuses it, and so does ``scoring.cholesky``.
    """
    try:
        return bool(np.any(np.isnan(np.linalg.cholesky(A))))
    except np.linalg.LinAlgError:
        return True


class TestBatchedCholesky:
    """``scoring.cholesky`` refuses exactly the stacks ``lapack_refuses``.

    So do the fit (which factors its covariance plus the ridge) and
    ``whiten`` (which factors the inverse), with ``NumericError``, and a
    scorer, which names ``stats.inv_cov`` in a ``ValueError``.
    """

    @settings(max_examples=300, deadline=None)
    @given(stacks())
    def test_refuses_what_lapack_refuses(self, A):
        refused = lapack_refuses(A)
        assert _refused(scoring.cholesky, A, "stack") == refused
        if not refused and np.all(np.isfinite(A)):
            L = scoring.cholesky(A, "stack")
            assert np.array_equal(L, np.tril(L))
            # the symmetric matrix of A's lower triangle, the one it reads
            read = np.tril(A) + np.tril(A, -1).transpose(0, 2, 1)
            assert np.max(np.abs(L @ L.transpose(0, 2, 1) - read)) <= MDIM_RTOL * np.max(np.abs(A))

    @settings(max_examples=200, deadline=None)
    @given(stacks())
    def test_fit_and_whiten_refuse_with_numeric_error(self, A):
        m = A.shape[1]
        U = generate_projections(m, m, 1, seed=m)
        X = np.arange(3.0 * m).reshape(3, m)
        stats = RpoStats(med=np.zeros((1, m)), mad=None, inv_cov=A)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scoring, "_projected_covariance", lambda X, U: A)
            fit_refused = _refused(fit_rpo_projected, project(X, U), X, U)
        assert fit_refused == lapack_refuses(A + RIDGE * np.eye(m))
        assert _refused(whiten, U, stats) == lapack_refuses(A)

    @settings(max_examples=200, deadline=None)
    @given(stacks())
    def test_scorer_names_stats_inv_cov(self, A):
        m = A.shape[1]
        U = generate_projections(m, m, 1, seed=m)
        stats = RpoStats(med=np.zeros((1, m)), mad=None, inv_cov=A)
        width = dict(scaler_mean=np.zeros(m), scaler_std=np.ones(m))
        usable = (np.all(np.isfinite(A)) and np.array_equal(A, A.transpose(0, 2, 1))
                  and not lapack_refuses(A))
        if usable:
            ScoringModel("rpo-mean", **width, projections=U, stats=stats)
        else:
            with pytest.raises(ValueError, match="stats.inv_cov"):
                ScoringModel("rpo-mean", **width, projections=U, stats=stats)

# the gradient contract: GRADIENT_RTOL at every m, the loss bit for bit at m = 1

GRADIENT_RTOL = 1e-12


def oracle_deep_rpo_loss(
    model: DeepRpoModel,
    batch: np.ndarray,
    sad_flags: np.ndarray | None = None,
    stats: RpoStats | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Projection-outlyingness training objective and its weight gradient.

    ``sad_flags`` (bool, one per batch row) marks the labeled anomalies.
    With ``stats=None``, location/spread are computed from the batch
    itself; either way the statistics are constants in the gradient.

    The earlier loss: it reads ``project`` and ``fit_rpo_projected`` from
    ``training``, as it did there, so the oracles patched in there apply,
    and takes its m > 1 distances from ``oracle_distances`` over ``T``. It
    fits on a projection of its own, as the m > 1 fit consumes the one it
    is given.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[0] == 0:
        raise ValueError("empty batch")
    n = batch.shape[0]
    if stats is None and n < 2:
        raise ValueError("insufficient batch for robust stats")

    flags = None
    if sad_flags is not None:
        flags = np.asarray(sad_flags, dtype=bool)
        if flags.shape != (n,):
            raise ValueError(f"SAD flags shape {flags.shape} does not match batch size {n}")

    Z, cache = model.encoder.forward(batch)
    T = training.project(Z, model.projections)  # (n, p, m)
    if stats is None:
        stats = training.fit_rpo_projected(
            training.project(Z, model.projections), Z, model.projections)

    D = (projected_distances if stats.mad is not None else oracle_distances)(T, stats)  # (n, p)
    scores = reduce_distances(D, model.estimator)

    # dLoss/dscore_i, with the SAD inversion applied where flagged
    contrib = scores.copy()
    dscore = np.full(n, 1.0 / n)
    if flags is not None and np.any(flags):
        clamped = np.maximum(scores[flags], EPS_FLOOR)
        contrib[flags] = 1.0 / clamped
        inv_grad = np.where(scores[flags] > EPS_FLOOR, -1.0 / clamped**2, 0.0)
        dscore[flags] = inv_grad / n

    loss = float(np.mean(contrib)) + _regularizer(model.encoder, model.lam)
    if not np.isfinite(loss):
        raise NumericError("non-finite outlyingness loss")

    # dLoss/dD_ij; the mean's is one value per row, an (n, 1) column that broadcasts
    if model.estimator == "mean":
        dD = (dscore / model.projections.p)[:, np.newaxis]
    else:
        dD = np.zeros_like(D)
        dD[np.arange(n), np.argmax(D, axis=1)] = dscore

    # dLoss/dT, statistics held constant
    if stats.mad is not None:
        sign = np.sign(T[:, :, 0] - stats.med)
        dT = (dD * sign / stats.mad)[:, :, np.newaxis]
    else:
        R = T - stats.med[np.newaxis]  # (n, p, m)
        PR = np.einsum("pij,npj->npi", stats.inv_cov, R)
        safe = np.where(D > 0.0, D, 1.0)
        dT = dD[:, :, np.newaxis] * PR / safe[:, :, np.newaxis]
        dT[D == 0.0] = 0.0

    dZ = np.einsum("npm,pdm->nd", dT, model.projections.entries)
    grads = model.encoder.backward(cache, dZ)
    for g, W in zip(grads, model.encoder.weights):
        g += model.lam * W
    return loss, grads


def gradient_deviation(grads, oracle_grads):
    """Largest per-layer max |g - oracle| / max |oracle| over the weight matrices."""
    worst = 0.0
    for g, o in zip(grads, oracle_grads, strict=True):
        assert g.shape == o.shape
        scale = np.max(np.abs(o))
        err = np.max(np.abs(g - o))
        worst = max(worst, err / scale if scale > 0 else (0.0 if err == 0 else np.inf))
    return worst


def assert_within_gradient_tolerance(grads, oracle_grads):
    assert gradient_deviation(grads, oracle_grads) <= GRADIENT_RTOL


def gradient_instance(m, n, p, estimator, sad, given_stats, seed=0):
    """A model, a batch, SAD flags and (optionally) stats for ``deep_rpo_loss``.

    With ``given_stats`` the stats are fitted on the batch, then the median
    is moved onto row 5's projections, so row 5 has the oracle's D == 0
    everywhere. At m = 1 a quarter of the rows are +0.0 and another -0.0:
    zero latents, whose residuals often tie with a zero median (always with
    ``given_stats``, as row 5 is one of them).
    """
    rng = np.random.default_rng(seed + 100 * m + n + p)
    enc = init_encoder([6, 16, 8], rng)
    U = generate_projections(8, m, p, seed=seed + m)
    model = DeepRpoModel(enc, U, estimator=estimator, lam=1e-3)
    batch = rng.normal(size=(n, 6))
    if m == 1:
        batch[: n // 4] = 0.0
        batch[n // 4 : n // 2] = -0.0
    flags = None
    if sad:
        flags = np.zeros(n, dtype=bool)
        flags[[5, 17]] = True
    stats = None
    if given_stats:
        Z = enc.forward(batch)[0]
        T = project(Z, U)
        fitted = fit_rpo_projected(project(Z, U), Z, U)  # consumes its T at m > 1
        med = T[5, :, 0].copy() if m == 1 else T[5].copy()
        stats = RpoStats(med=med, mad=fitted.mad, inv_cov=fitted.inv_cov)
        D = projected_distances(T, stats) if m == 1 else oracle_distances(T, stats)
        assert np.all(D[5] == 0.0)
    return model, batch, flags, stats


def _with_latent_gradient(monkeypatch, loss_fn, model, *args, **kwargs):
    """``loss_fn``'s loss and weight gradient, and the latent gradient it backpropagates."""
    seen = []
    backward = model.encoder.backward

    def recording(cache, dZ):
        seen.append(dZ.copy())
        return backward(cache, dZ)

    with monkeypatch.context() as patch:
        patch.setattr(model.encoder, "backward", recording)
        loss, grads = loss_fn(model, *args, **kwargs)
    return loss, grads, seen[0]


@pytest.mark.parametrize("given_stats", [False, True], ids=["batch-stats", "D0-row"])
@pytest.mark.parametrize("sad", [False, True], ids=["plain", "sad"])
@pytest.mark.parametrize("estimator", ["mean", "max"])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_mdim_gradient_within_tolerance_of_einsum_oracle(
    monkeypatch, m, estimator, sad, given_stats
):
    """Loss within GRADIENT_RTOL; gradient within it, but on a row at the median.

    That row (row 5 of ``D0-row``) has the oracle's distance 0 and gradient
    0; the kernel gives it a distance of rounding size and a unit
    subgradient ``sum_p dD_p E'_p r'_p / D_p``. A flagged row at the median
    scores below ``EPS_FLOOR``, so it has no gradient in either.
    """
    model, batch, flags, stats = gradient_instance(m, 128, 200, estimator, sad, given_stats)
    loss, grads, dZ = _with_latent_gradient(
        monkeypatch, deep_rpo_loss, model, batch, sad_flags=flags, stats=stats)
    o_loss, o_grads, o_dZ = _with_latent_gradient(
        monkeypatch, oracle_deep_rpo_loss, model, batch, sad_flags=flags, stats=stats)
    assert abs(loss - o_loss) <= GRADIENT_RTOL * abs(o_loss)
    if not given_stats:
        assert_within_gradient_tolerance(grads, o_grads)
        return
    # row 5 at the median: its distances are of rounding size, not 0
    U = model.projections
    Z = model.encoder.forward(batch)[0]
    W = whiten(U, stats)
    R = whitened_residuals(Z, W)[5]  # (p, m)
    D = projected_distances(whitened_residuals(Z, W), W)[5]
    assert np.all(D <= np.sqrt(MDIM_RTOL * whitened_scale(Z[5:6], U, stats)[0]))
    others = np.arange(128) != 5
    scale = np.max(np.abs(o_dZ))
    assert np.max(np.abs(dZ[others] - o_dZ[others])) <= GRADIENT_RTOL * scale
    assert np.all(o_dZ[5] == 0.0)
    # its gradient is a unit subgradient of each distance, weighted by dLoss/dD
    if sad or not np.any(D > 0.0):
        assert np.all(dZ[5] == 0.0)
        return
    if estimator == "mean":
        dD = np.full(U.p, 1.0 / (128 * U.p))
    else:
        dD = np.zeros(U.p)
        dD[np.argmax(D)] = 1.0 / 128
    unit = np.divide(R, D[:, np.newaxis], out=np.zeros_like(R), where=D[:, np.newaxis] > 0.0)
    assert np.all(np.abs(np.linalg.norm(unit[D > 0.0], axis=1) - 1.0) <= 1e-15 * U.m)
    maps = W.maps.reshape(U.d, U.m, U.p)
    expected = np.einsum("p,dmp,pm->d", dD, maps, unit)
    assert np.max(np.abs(dZ[5] - expected)) <= GRADIENT_RTOL * np.max(np.abs(expected))
    assert np.max(np.abs(dZ[5])) > 0.0


def _assert_m1_gradient(instance):
    """The loss by bytes, each weight gradient within GRADIENT_RTOL, and by bytes under max."""
    model, batch, flags, stats = instance
    loss, grads = deep_rpo_loss(model, batch, sad_flags=flags, stats=stats)
    o_loss, o_grads = oracle_deep_rpo_loss(model, batch, sad_flags=flags, stats=stats)
    assert np.float64(loss).tobytes() == np.float64(o_loss).tobytes()
    assert_within_gradient_tolerance(grads, o_grads)
    if model.estimator == "max":
        for g, o in zip(grads, o_grads, strict=True):
            assert _bytes_equal(g, o)


@pytest.mark.parametrize("given_stats", [False, True], ids=["batch-stats", "D0-row"])
@pytest.mark.parametrize("estimator", ["mean", "max"])
@pytest.mark.parametrize("p", [500, 1000])
@pytest.mark.parametrize("n", [128, 28, 540])
def test_m1_gradient_equals_einsum_oracle(n, p, estimator, given_stats):
    """Loss bit for bit; gradient within GRADIENT_RTOL, bit for bit under max.

    The sign matrix times the maps sums over p in the BLAS's order. A max
    row has one nonzero term, so its sum has nothing to reorder.
    """
    _assert_m1_gradient(gradient_instance(1, n, p, estimator, True, given_stats))


@pytest.mark.parametrize("given_stats", [False, True], ids=["batch-stats", "D0-row"])
@pytest.mark.parametrize("estimator", ["mean", "max"])
@pytest.mark.parametrize("p", [500, 1000])
@pytest.mark.parametrize("n", [128, 28, 540])
def test_m1_unflagged_gradient_within_tolerance_of_einsum_oracle(n, p, estimator, given_stats):
    """No flagged row: the mean's dD / mad is folded into the maps before the product."""
    _assert_m1_gradient(gradient_instance(1, n, p, estimator, False, given_stats))


_sign_gradient = training._sign_gradient
_residual_signs = training._residual_signs


def _signs_of_T(T1, med, mad):
    """The signs of ``T1`` itself, with the distances of ``T1 - med``."""
    S = np.sign(T1)
    return S, _residual_signs(T1, med, mad)[1]


# each mutation: the seam of training it replaces, and its replacement
M1_MUTATIONS = {
    "no-mad-scale": ("_sign_gradient", lambda S, mad, *rest, **kwargs: _sign_gradient(
        S, np.ones_like(mad), *rest, **kwargs)),
    "sign-of-T": ("_residual_signs", _signs_of_T),
}


@pytest.mark.parametrize("sad", [False, True], ids=["plain", "sad"])
@pytest.mark.parametrize("estimator", ["mean", "max"])
@pytest.mark.parametrize("mutation", list(M1_MUTATIONS))
def test_mutated_m1_gradient_breaks_gradient_tolerance_by_far(monkeypatch, mutation, estimator,
                                                              sad):
    """The 1/MAD scale dropped, or the sign taken of T in place of T - med.

    The batch has no zero rows, and is offset by 2 so the medians lie away
    from 0: on ``gradient_instance``'s m = 1 batch, half zero rows, every
    median is 0 and the sign of T is the sign of T - med.
    """
    model, _, flags, _ = gradient_instance(1, 128, 500, estimator, sad, False)
    batch = np.random.default_rng(7).normal(size=(128, 6)) + 2.0
    _, o_grads = oracle_deep_rpo_loss(model, batch, sad_flags=flags)
    monkeypatch.setattr(training, *M1_MUTATIONS[mutation])
    _, grads = deep_rpo_loss(model, batch, sad_flags=flags)
    assert gradient_deviation(grads, o_grads) > 1e-3


def int8_sign_gradient(T1, med, mad, dD, E, one_dD):
    """The m = 1 latent gradient as it was before the shared residual pass.

    The sign is the comparison difference ``(T1 > med) - (T1 < med)`` in
    int8, and ``dD`` is the dense (n, p) matrix under max, the (n, 1) column
    under the mean; ``one_dD`` folds its one value into the maps.
    """
    S = np.subtract(T1 > med, T1 < med, dtype=np.int8).astype(np.float64)
    if one_dD:
        return S @ (E * (dD[0, 0] / mad)[:, np.newaxis])
    S *= dD
    S /= mad
    return S @ E


def tied_m1_instance(seed=0, n=128, p=500, d=8):
    """(n, p, 1) coordinates with ties at the median, medians, MADs and maps.

    The first 50 medians are +0.0, with a quarter of the rows +0.0 and a
    quarter -0.0 there; 200 entries elsewhere equal their column's median;
    row 7 sits at the median in every column and row 9 too, but with -0.0
    against the +0.0 medians.
    """
    rng = np.random.default_rng(seed)
    T = rng.normal(size=(n, p, 1))
    med = rng.normal(size=p)
    med[:50] = 0.0
    mad = rng.uniform(0.5, 2.0, size=p)
    T[: n // 4, :50, 0] = 0.0
    T[n // 4 : n // 2, :50, 0] = -0.0
    rows, cols = rng.integers(n, size=200), rng.integers(50, p, size=200)
    T[rows, cols, 0] = med[cols]
    T[7, :, 0] = med
    T[9, :, 0] = med
    T[9, :50, 0] = -0.0
    return T, med, mad, rng.normal(size=(p, d))


class TestSharedResidual:
    """The m = 1 residual pass and gradient, by bytes against the int8 sign form.

    ``_residual_signs`` takes the sign from ``T - med`` itself, where the
    earlier form compared ``T`` with ``med``; the two differ at most in the
    sign of a zero, which adds nothing to a product's sum.
    """

    def test_distances_and_signs(self):
        T, med, mad, _ = tied_m1_instance()
        expected = projected_distances(T, RpoStats(med=med, mad=mad, inv_cov=None))
        signs = np.subtract(T[:, :, 0] > med, T[:, :, 0] < med, dtype=np.int8)
        S, D = training._residual_signs(T[:, :, 0], med, mad)
        assert _bytes_equal(D, expected)
        assert np.shares_memory(D, T)  # the pass overwrote its input
        assert np.array_equal(S, signs)
        assert np.all(S[7] == 0.0) and np.all(S[9] == 0.0)

    @pytest.mark.parametrize("case", ["mean-folded", "mean-flagged", "max", "max-sad"])
    def test_gradient_equals_int8_sign_form(self, case):
        T, med, mad, E = tied_m1_instance(seed=1)
        n, p = T.shape[:2]
        dscore = np.full(n, 1.0 / n)
        if case.endswith(("flagged", "sad")):
            # two flagged rows push away; one scores below the floor and has no gradient
            dscore[[5, 17]] = [-3.0 / n, -0.5 / n]
            dscore[[7, 40]] = 0.0
        oracle_T1 = T[:, :, 0].copy()
        S, D = training._residual_signs(T[:, :, 0], med, mad)
        if case.startswith("max"):
            hit = np.argmax(D, axis=1)
            dD = np.zeros_like(D)
            dD[np.arange(n), hit] = dscore
            expected = int8_sign_gradient(oracle_T1, med, mad, dD, E, False)
            dZ = training._sign_gradient(S, mad, dscore, E, hit=hit)
            # rows 7 and 9 tie at the argmax, and row 40 of max-sad has no
            # dLoss/dscore: their terms are zero, and their rows +0.0
            assert hit[7] == hit[9] == 0 and S[7, 0] == S[9, 0] == 0.0
            zero_rows = [7, 9, 40] if case == "max-sad" else [7, 9]
            assert _bytes_equal(dZ[zero_rows], np.zeros((len(zero_rows), E.shape[1])))
        else:
            dD = (dscore / p)[:, np.newaxis]
            folded = case == "mean-folded"
            expected = int8_sign_gradient(oracle_T1, med, mad, dD, E, folded)
            dZ = training._sign_gradient(S, mad, dscore[0] / p if folded else dD, E)
        assert _bytes_equal(dZ, expected)


def test_wrong_transpose_breaks_gradient_tolerance_by_far(monkeypatch):
    """``L_p^T`` folded into the maps in place of ``L_p``."""
    monkeypatch.setattr(
        training, "whiten", lambda U, stats: _mutated_whiten(U, stats, "transposed-factor"))
    model, batch, flags, stats = gradient_instance(3, 128, 200, "mean", True, False)
    _, grads = deep_rpo_loss(model, batch, sad_flags=flags, stats=stats)
    _, o_grads = oracle_deep_rpo_loss(model, batch, sad_flags=flags, stats=stats)
    assert gradient_deviation(grads, o_grads) > 1e-3


@pytest.mark.parametrize("rp_dim", [1, 3])
def test_deep_rpo_run_against_einsum_gradient_oracle(monkeypatch, rp_dim):
    """AUCs and best epoch equal; train losses bit for bit at m = 1, within GRADIENT_RTOL at m = 3."""
    spec = ExperimentSpec(
        method="deep-rpo-mean", k_modes=3, dim=12, n_per_mode=80, anomaly_n=60,
        n_projections=60, rp_dim=rp_dim, epochs=4, batch_size=64, seeds=(3,),
        sad_ratio=0.05,
    )
    result = run_single_seed(spec, seed=3)
    monkeypatch.setattr(training, "deep_rpo_loss", oracle_deep_rpo_loss)
    oracle = run_single_seed(spec, seed=3)
    loss = np.array([r.train_loss for r in result.history])
    o_loss = np.array([r.train_loss for r in oracle.history])
    assert loss.shape == (4,)
    # no AUC at the ceiling, where a drifting score could not move it
    assert max(r.val_auc for r in result.history) < 1.0 and result.test_auc < 1.0
    if rp_dim == 1:
        assert _bytes_equal(loss, o_loss)
    else:
        assert np.max(np.abs(loss - o_loss) / np.abs(o_loss)) <= GRADIENT_RTOL
    assert [r.val_auc for r in result.history] == [r.val_auc for r in oracle.history]
    assert result.test_auc == oracle.test_auc
    assert result.best_epoch == oracle.best_epoch
