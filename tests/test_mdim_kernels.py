"""The m > 1 kernels, held bit for bit to the einsum forms they replace.

``project``, the covariance in ``fit_rpo_projected`` and the Mahalanobis
form in ``projected_distances`` each take their sums in an order fixed by
their loops rather than by einsum's layout-dependent inner reduction. The
oracles below are the earlier einsum formulas, kept verbatim: every result
must equal theirs by ``tobytes()``, and a whole deep-rpo run with the
oracles patched in must reproduce its losses, AUCs and checkpoint.

The oracles' own sums follow the memory layout of their operands: on an
F-ordered ``T`` the covariance and distance einsums reduce in another
order. The program only ever passes C-ordered projections, and the kernels
copy ``T`` into a fixed layout first, so an F-ordered ``T`` must give the
kernels' (and the oracles') result for its C-ordered copy.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rpo import scoring, training
from rpo.evaluation import ExperimentSpec, run_single_seed
from rpo.projections import generate_projections, project
from rpo.scoring import (
    DEFAULT_EPS_FLOOR,
    RIDGE,
    RpoStats,
    fit_rpo_projected,
    projected_distances,
)

# the earlier kernels, verbatim


def oracle_project(X, U):
    return np.einsum("nd,pdm->npm", np.asarray(X, dtype=np.float64), U.entries)


def oracle_fit(T, eps_floor=DEFAULT_EPS_FLOOR, ridge=RIDGE):
    n, p, m = T.shape
    med = np.median(T, axis=0)
    centered = T - np.mean(T, axis=0)
    cov = np.einsum("npi,npj->pij", centered, centered) / max(n - 1, 1)
    cov = cov + ridge * np.eye(m)
    inv_cov = np.linalg.inv(cov)
    inv_cov = 0.5 * (inv_cov + np.transpose(inv_cov, (0, 2, 1)))
    return RpoStats(med=med, mad=None, inv_cov=inv_cov, eps_floor=eps_floor)


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


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_project_equals_einsum_oracle(shape):
    X, U = instance(*shape)
    X_before, E_before = X.copy(), U.entries.copy()
    T = project(X, U)
    assert _bytes_equal(T, oracle_project(X, U))
    assert T.flags.c_contiguous
    assert _bytes_equal(X, X_before) and _bytes_equal(U.entries, E_before)


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_fit_equals_einsum_oracle(shape):
    X, U = instance(*shape)
    T = oracle_project(X, U)
    expected = oracle_fit(T)
    for layout in (T, np.asfortranarray(T)):
        before = layout.copy(order="K")
        stats = fit_rpo_projected(layout)
        assert _bytes_equal(stats.med, expected.med)
        assert _bytes_equal(stats.inv_cov, expected.inv_cov)
        assert _bytes_equal(layout, before)


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_distances_equal_einsum_oracle(shape):
    m, n, d, p = shape
    X, U = instance(*shape)
    stats = oracle_fit(oracle_project(X, U))
    # queries: the training rows, plus rows at the median of every
    # coordinate (residual +0.0) and at its negation (-0.0 where med is 0)
    T = np.concatenate([oracle_project(X, U), stats.med[np.newaxis], -stats.med[np.newaxis]])
    expected = oracle_distances(T, stats)
    for layout in (T, np.asfortranarray(T)):
        before = layout.copy(order="K")
        assert _bytes_equal(projected_distances(layout, stats), expected)
        assert _bytes_equal(layout, before)
    out = np.full(T.shape[:2], np.nan)
    assert projected_distances(T, stats, out=out) is out
    assert _bytes_equal(out, expected)


residual_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(min_value=-1e3, max_value=1e3),
)


@st.composite
def projected(draw):
    m = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=1, max_value=9))
    p = draw(st.integers(min_value=1, max_value=5))
    return draw(arrays(np.float64, (n, p, m), elements=residual_values))


class TestTiesAndSignedZeros:
    # few distinct values: many rows tie with the median, residuals of
    # +0.0 and -0.0 are common; bounded values keep the ridge visible, so
    # the covariance inverts
    @settings(max_examples=200, deadline=None)
    @given(projected())
    def test_fit_and_distances_equal_oracles(self, T):
        before = T.copy()
        expected = oracle_fit(T)
        stats = fit_rpo_projected(T)
        assert _bytes_equal(stats.med, expected.med)
        assert _bytes_equal(stats.inv_cov, expected.inv_cov)
        assert _bytes_equal(projected_distances(T, stats), oracle_distances(T, expected))
        assert _bytes_equal(T, before)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_project_equals_oracle(self, data):
        m = data.draw(st.integers(min_value=2, max_value=4))
        d = data.draw(st.integers(min_value=m, max_value=16))
        p = data.draw(st.integers(min_value=1, max_value=20))
        n = data.draw(st.integers(min_value=1, max_value=9))
        X = data.draw(arrays(np.float64, (n, d), elements=residual_values))
        U = generate_projections(d, m, p, seed=data.draw(st.integers(0, 2**16)))
        assert _bytes_equal(project(X, U), oracle_project(X, U))


def _patched(fn, oracle):
    """``oracle`` on m > 1 inputs, the kernel under test otherwise."""

    def call(*args, **kwargs):
        m = args[1].m if fn is project else args[0].shape[2]
        return (oracle if m > 1 else fn)(*args, **kwargs)

    return call


def _install_oracles(monkeypatch):
    """Bind the oracles at every site that imported a kernel by name."""
    swaps = {
        project: _patched(project, oracle_project),
        fit_rpo_projected: _patched(fit_rpo_projected, oracle_fit),
        projected_distances: _patched(projected_distances, oracle_distances),
    }
    for name, module in list(sys.modules.items()):
        if name != "rpo" and not name.startswith("rpo."):
            continue
        for key, value in list(vars(module).items()):
            if any(value is fn for fn in swaps):
                monkeypatch.setattr(module, key, swaps[value])


def _seed_outputs(spec, tmp_path):
    result = run_single_seed(spec, seed=spec.seeds[0], checkpoint_dir=tmp_path)
    history = np.array([[r.train_loss, r.val_auc] for r in result.history])
    with np.load(tmp_path / f"{spec.method}_seed{spec.seeds[0]}.npz") as z:
        members = {k: z[k] for k in z.files}
    return history, result.test_auc, members


@pytest.mark.parametrize("method", ["deep-rpo-mean", "deep-rpo-max"])
def test_deep_rpo_run_bit_identical_to_einsum_oracles(tmp_path, monkeypatch, method):
    spec = ExperimentSpec(
        method=method, k_modes=2, dim=6, n_per_mode=120, anomaly_n=60,
        n_projections=60, rp_dim=3, epochs=2, batch_size=64, seeds=(3,),
    )
    (tmp_path / "kernels").mkdir()
    (tmp_path / "oracles").mkdir()
    history, test_auc, ckpt = _seed_outputs(spec, tmp_path / "kernels")
    _install_oracles(monkeypatch)
    for name in ("project", "fit_rpo_projected", "projected_distances"):
        assert getattr(training, name) is not globals()[name]
    assert scoring.project is not project
    o_history, o_test_auc, o_ckpt = _seed_outputs(spec, tmp_path / "oracles")
    assert history.shape == (2, 2)
    assert _bytes_equal(history, o_history)
    assert np.float64(test_auc).tobytes() == np.float64(o_test_auc).tobytes()
    assert sorted(ckpt) == sorted(o_ckpt)
    for key in ckpt:
        assert _bytes_equal(ckpt[key], o_ckpt[key]), key
    assert ckpt["stats_inv_cov"].shape[1:] == (3, 3)
