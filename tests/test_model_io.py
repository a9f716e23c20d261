import tracemalloc

import numpy as np
import pytest

from rpo import data as datamod
from rpo import evaluation
from rpo.encoder import init_encoder
from rpo.errors import DataError
from rpo.evaluation import ExperimentSpec, run_single_seed
from rpo.metrics import roc_auc
from rpo.model_io import ScoringModel, load_model_checkpoint, save_model_checkpoint
from rpo.projections import generate_projections
from rpo.scoring import METHODS, RpoStats, fit_rpo, score_batch
from rpo.seeding import sub_seed


def round_trip(tmp_path, model: ScoringModel) -> ScoringModel:
    path = tmp_path / "model.npz"
    save_model_checkpoint(path, model)
    return load_model_checkpoint(path)


def test_shallow_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    U = generate_projections(d=5, m=1, p=20, seed=1)
    X_train = rng.normal(size=(40, 5))
    stats = fit_rpo(X_train, U)
    mean, std = X_train.mean(axis=0), X_train.std(axis=0)
    model = round_trip(
        tmp_path, ScoringModel("rpo-max", mean, std, projections=U, stats=stats)
    )
    assert model.method == "rpo-max"
    assert model.encoder is None and model.center is None
    assert np.array_equal(model.projections.entries, U.entries)
    assert np.array_equal(model.stats.med, stats.med)
    assert np.array_equal(model.stats.mad, stats.mad)

    X_raw = rng.normal(size=(7, 5))
    expected = score_batch((X_raw - mean) / std, U, stats, "max")
    assert np.array_equal(model.score_rows(X_raw), expected)


def test_deep_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    enc = init_encoder([5, 4, 3], rng)
    saved = ScoringModel(
        "deep-svdd", np.zeros(5), np.ones(5), encoder=enc, center=rng.normal(size=3)
    )
    model = round_trip(tmp_path, saved)
    assert model.encoder.layer_dims == enc.layer_dims
    assert all(np.array_equal(a, b) for a, b in zip(model.encoder.weights, enc.weights))
    assert np.array_equal(model.center, saved.center)
    assert model.projections is None and model.stats is None
    X = rng.normal(size=(6, 5))
    scores = model.score_rows(X)
    assert np.all(scores >= 0.0)
    assert np.array_equal(scores, saved.score_rows(X))


def test_deep_rpo_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    enc = init_encoder([6, 5, 4], rng)
    U = generate_projections(d=4, m=3, p=9, seed=5)
    stats = fit_rpo(enc.forward(rng.normal(size=(30, 6)))[0], U)
    mean, std = rng.normal(size=6), rng.uniform(0.5, 2.0, size=6)
    saved = ScoringModel("deep-rpo-max", mean, std, encoder=enc, projections=U, stats=stats)
    model = round_trip(tmp_path, saved)
    assert model.estimator == "max"
    assert all(np.array_equal(a, b) for a, b in zip(model.encoder.weights, enc.weights))
    assert np.array_equal(model.projections.entries, U.entries)
    assert np.array_equal(model.stats.med, stats.med)
    assert np.array_equal(model.stats.inv_cov, stats.inv_cov)
    assert model.stats.mad is None
    assert np.array_equal(model.scaler_mean, mean) and np.array_equal(model.scaler_std, std)
    X = rng.normal(size=(8, 6))
    assert np.array_equal(model.score_rows(X), saved.score_rows(X))


def test_width_mismatch_message(tmp_path):
    U = generate_projections(d=4, m=1, p=3, seed=0)
    stats = fit_rpo(np.random.default_rng(0).normal(size=(10, 4)), U)
    model = round_trip(
        tmp_path, ScoringModel("rpo-mean", np.zeros(4), np.ones(4), projections=U, stats=stats)
    )
    with pytest.raises(DataError, match="expected 4"):
        model.score_rows(np.zeros((2, 6)))


def test_a_scorer_checks_its_parts_when_built():
    rng = np.random.default_rng(3)
    enc = init_encoder([4, 3], rng)
    X = rng.normal(size=(20, 4))
    U1 = generate_projections(d=4, m=1, p=5, seed=0)
    U2 = generate_projections(d=3, m=2, p=5, seed=0)
    stats1, stats2 = fit_rpo(X, U1), fit_rpo(enc.forward(X)[0], U2)
    width4 = dict(scaler_mean=np.zeros(4), scaler_std=np.ones(4))
    ScoringModel("rpo-max", **width4, projections=U1, stats=stats1)
    ScoringModel("deep-rpo-mean", **width4, encoder=enc, projections=U2, stats=stats2)
    bad = [
        ("rpo-max", width4, dict(encoder=enc, projections=U1, stats=stats1), "takes no encoder"),
        ("deep-rpo-max", width4, dict(projections=U2, stats=stats2), "needs encoder"),
        ("deep-svdd", width4, dict(encoder=enc, center=np.zeros(3), projections=U2, stats=stats2),
         "takes no projections"),
        ("deep-rpo-max", width4, dict(encoder=enc, projections=U1, stats=stats1),
         "map 4 dimensions, not 3"),
        ("deep-rpo-max", dict(scaler_mean=np.zeros(6), scaler_std=np.ones(6)),
         dict(encoder=enc, projections=U2, stats=stats2), "reads 4 features, not 6"),
        ("rpo-mean", width4, dict(projections=U1, stats=stats2), "need stats.mad"),
        ("rpo-mean", width4,
         dict(projections=U1, stats=RpoStats(med=np.zeros(1), mad=np.ones(5), inv_cov=None)),
         "stats.med must have shape"),
        ("rpo-mean", width4,
         dict(projections=U1, stats=RpoStats(med=np.zeros(5), mad=np.zeros(5), inv_cov=None)),
         "stats.mad must be > 0"),
        ("deep-svdd", width4, dict(encoder=enc, center=np.full(3, np.inf)), "center holds"),
    ]
    for method, scaler, parts, problem in bad:
        with pytest.raises(ValueError, match=problem):
            ScoringModel(method, **scaler, **parts)


def test_a_scorer_rejects_an_unusable_inverse_covariance():
    # a negated inverse would score every row 0.0: the distance clamps
    # negative quadratic forms to 0; the other is off symmetric by one ulp
    X = np.random.default_rng(4).normal(size=(30, 4))
    U = generate_projections(d=4, m=2, p=5, seed=0)
    stats = fit_rpo(X, U)
    asymmetric = stats.inv_cov.copy()
    asymmetric[0, 0, 1] = np.nextafter(asymmetric[0, 0, 1], np.inf)
    width4 = dict(scaler_mean=np.zeros(4), scaler_std=np.ones(4))
    for problem, inv_cov in (("positive definite", -stats.inv_cov), ("symmetric", asymmetric)):
        bad = RpoStats(med=stats.med, mad=None, inv_cov=inv_cov)
        with pytest.raises(ValueError, match=f"stats.inv_cov must be {problem}"):
            ScoringModel("rpo-mean", **width4, projections=U, stats=bad)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("rows", ["normal", "offset", "duplicated", "rank-1", "two"])
def test_every_fitted_inverse_covariance_passes(m, rows):
    rng = np.random.default_rng(m)
    X = rng.normal(size=(60, 6))
    if rows == "offset":
        X = 1e3 + 1e-3 * X
    elif rows == "duplicated":
        X = np.repeat(X[:6], 10, axis=0)
    elif rows == "rank-1":
        X = np.outer(rng.normal(size=60), rng.normal(size=6))
    elif rows == "two":
        X = X[:2]
    U = generate_projections(d=6, m=m, p=200, seed=m)
    stats = fit_rpo(X, U)
    ScoringModel("rpo-mean", np.zeros(6), np.ones(6), projections=U, stats=stats)


@pytest.mark.parametrize("method, n_projections, rp_dim, bound", [
    ("deep-rpo-mean", 500, 1, 6e6),
    ("rpo-max", 1000, 1, 6e6),
    # the whitened residuals of a 416-row block take 5.0 MB at p = 500,
    # m = 3, and one squared plane 1.7 MB; a copy of the residuals would
    # add another 5.0 MB (10.3 MB measured)
    ("rpo-mean", 500, 3, 8.5e6),
], ids=["deep-rpo-mean-500", "rpo-max-1000", "rpo-mean-500-m3"])
def test_scoring_memory_is_one_block_not_all_rows(method, n_projections, rp_dim, bound):
    # all 20,000 rows standardized take 2.6 MB, and the encoder's layers for
    # all of them 18 MB; the largest block here has 416 rows, whose
    # projection takes 3.3 MB at p = 1000
    rng = np.random.default_rng(6)
    d = 16
    X = rng.normal(size=(20_000, d))
    enc = init_encoder([d, 32, 16, 8], rng) if METHODS[method].encoder else None
    U = generate_projections(d=8 if enc else d, m=rp_dim, p=n_projections, seed=0)
    train = rng.normal(size=(200, d))
    stats = fit_rpo(enc.forward(train)[0] if enc else train, U)
    model = ScoringModel(method, np.zeros(d), np.ones(d), encoder=enc, projections=U, stats=stats)
    tracemalloc.start()
    try:
        model.score_rows(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_missing_checkpoint(tmp_path):
    with pytest.raises(DataError):
        load_model_checkpoint(tmp_path / "nope.npz")


CASES = [(m, r) for m in METHODS for r in (1, 3) if not (METHODS[m].center and r == 3)]


@pytest.mark.parametrize("method, rp_dim", CASES)
def test_checkpoint_scores_equal_in_run_test_scores(tmp_path, monkeypatch, method, rp_dim):
    """A saved checkpoint rescores the raw test rows exactly as the run did."""
    seed = 4
    spec = ExperimentSpec(
        method=method, k_modes=2, dim=8, n_per_mode=150, anomaly_n=100,
        n_projections=40, rp_dim=rp_dim, epochs=2, batch_size=64, seeds=(seed,),
    )
    auc_inputs = []

    def recording_auc(scores, labels):
        auc_inputs.append((scores, labels))
        return roc_auc(scores, labels)

    monkeypatch.setattr(evaluation, "roc_auc", recording_auc)
    result = run_single_seed(spec, seed, checkpoint_dir=tmp_path)
    in_run_scores, labels = auc_inputs[-1]  # the test AUC is the last one taken
    assert result.test_auc == roc_auc(in_run_scores, labels)

    raw = datamod.generate_multimodal(
        spec.k_modes, spec.dim, spec.n_per_mode, spec.anomaly_n,
        seed=sub_seed(seed, "datagen"), test_fraction=spec.test_fraction,
    )
    ds = datamod.split(raw, spec.val_fraction, sub_seed(seed, "split"))
    test_mask = ds.mask(datamod.TEST)
    assert np.array_equal(ds.label[test_mask], labels)

    model = load_model_checkpoint(tmp_path / f"{method}_seed{seed}.npz")
    assert np.array_equal(model.score_rows(ds.X[test_mask]), in_run_scores)
