import numpy as np
import pytest

from rpo import data as datamod
from rpo import evaluation
from rpo.encoder import init_encoder
from rpo.errors import DataError
from rpo.evaluation import METHODS, ExperimentSpec, run_single_seed
from rpo.metrics import roc_auc
from rpo.model_io import ScoringModel, load_model_checkpoint, save_model_checkpoint
from rpo.projections import generate_projections
from rpo.scoring import fit_rpo, score_batch
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
    enc = init_encoder([6, 5, 4], rng, slope=0.3)
    U = generate_projections(d=4, m=3, p=9, seed=5)
    stats = fit_rpo(enc.forward(rng.normal(size=(30, 6)))[0], U, eps_floor=1e-4)
    mean, std = rng.normal(size=6), rng.uniform(0.5, 2.0, size=6)
    saved = ScoringModel("deep-rpo-max", mean, std, encoder=enc, projections=U, stats=stats)
    model = round_trip(tmp_path, saved)
    assert model.estimator == "max"
    assert model.encoder.slope == enc.slope
    assert all(np.array_equal(a, b) for a, b in zip(model.encoder.weights, enc.weights))
    assert np.array_equal(model.projections.entries, U.entries)
    assert model.projections.seed == U.seed
    assert np.array_equal(model.stats.med, stats.med)
    assert np.array_equal(model.stats.inv_cov, stats.inv_cov)
    assert model.stats.mad is None and model.stats.eps_floor == stats.eps_floor
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


def test_missing_checkpoint(tmp_path):
    with pytest.raises(DataError):
        load_model_checkpoint(tmp_path / "nope.npz")


CASES = [(m, r) for m in METHODS for r in (1, 3) if not (m == "deep-svdd" and r == 3)]


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
