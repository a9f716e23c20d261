import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpo import scoring, training
from rpo.data import generate_multimodal, split, standardize
from rpo.encoder import Encoder, init_encoder
from rpo.errors import EXIT_NUMERIC, NumericError, classify
from rpo.projections import ProjectionSet, generate_projections, project
from rpo.scoring import (
    EPS_FLOOR,
    RpoStats,
    fit_rpo_projected,
    projected_distances,
    reduce_distances,
    whiten,
    whitened_residuals,
)
from rpo.training import (
    DeepRpoModel,
    SvddModel,
    deep_rpo_loss,
    fit_eval_stats,
    init_center,
    latent_scores,
    svdd_loss,
    train,
)

from test_encoder import fd_gradients, relative_error


def toy_dataset(seed=0, k=2, d=6):
    ds = generate_multimodal(k, d, n_per_mode=60, anomaly_n=60, seed=seed)
    ds = split(ds, val_fraction=0.2, seed=seed)
    ds, _, _ = standardize(ds)
    return ds


class TestInitCenter:
    def test_zero_encoder(self):
        enc = Encoder([np.zeros((3, 2))])
        c = init_center(enc, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.array_equal(c, np.zeros(2))

    def test_identity_encoder_mean(self):
        enc = Encoder([np.eye(2)])
        c = init_center(enc, np.array([[1.0, 1.0], [3.0, 3.0]]))
        assert np.allclose(c, [2.0, 2.0])

    def test_matches_two_pass_mean_oracle(self):
        rng = np.random.default_rng(1)
        enc = init_encoder([4, 3, 2], rng)
        X = rng.normal(size=(17, 4))
        Z, _ = enc.forward(X)
        oracle = np.array([sum(Z[:, k]) / len(Z) for k in range(Z.shape[1])])
        assert np.allclose(init_center(enc, X), oracle, atol=1e-10)

    def test_empty_train_rejected(self):
        enc = Encoder([np.eye(2)])
        with pytest.raises(ValueError):
            init_center(enc, np.zeros((0, 2)))


class TestSvddLoss:
    def test_zero_at_center(self):
        enc = Encoder([np.eye(2)])
        batch = np.tile([1.5, -0.5], (4, 1))
        model = SvddModel(enc, center=np.array([1.5, -0.5]), lam=0.0)
        loss, grad = svdd_loss(model, batch)
        assert loss == 0.0
        assert grad.shape == enc.buffer.shape
        assert np.allclose(grad, 0.0)

    def test_squared_norm_example(self):
        model = SvddModel(Encoder([np.eye(2)]), center=np.zeros(2), lam=0.0)
        loss, _ = svdd_loss(model, np.array([[3.0, 4.0]]))
        assert loss == 25.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        enc = init_encoder([4, 3, 2], rng)
        c = rng.normal(size=2)
        model = SvddModel(enc, center=c, lam=1e-3)
        batch = rng.normal(size=(9, 4))
        loss, _ = svdd_loss(model, batch)
        Z, _ = enc.forward(batch)
        oracle = sum(
            sum((Z[i, k] - c[k]) ** 2 for k in range(2)) for i in range(9)
        ) / 9.0
        oracle += 0.5 * 1e-3 * sum(float(np.sum(W**2)) for W in enc.weights)
        assert loss == pytest.approx(oracle, abs=1e-8)

    def test_center_not_trained(self):
        rng = np.random.default_rng(3)
        enc = init_encoder([3, 2], rng)
        c = rng.normal(size=2)
        model = SvddModel(enc, center=c, lam=0.0)
        before = c.copy()
        svdd_loss(model, rng.normal(size=(5, 3)))
        assert np.array_equal(model.center, before)

    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    def test_gradient_matches_finite_differences(self, lam):
        rng = np.random.default_rng(4)
        enc = init_encoder([3, 4, 2], rng)
        model = SvddModel(enc, center=rng.normal(size=2), lam=lam)
        batch = rng.normal(size=(6, 3))
        _, analytic = svdd_loss(model, batch)
        numeric = fd_gradients(enc, lambda: svdd_loss(model, batch)[0], step=1e-5)
        assert relative_error(analytic, numeric) < 1e-4


def _fd_safe_instance(seed, estimator, m=1, sad_flags=None, lam=0.0, min_margin=1e-3):
    """Random tiny model/batch kept away from the loss's non-smooth seams.

    Even batch size keeps samples off the exact median; instances are
    redrawn until sign and argmax margins are comfortable for the FD step.
    """
    rng = np.random.default_rng(seed)
    for attempt in range(200):
        enc = init_encoder([3, 4, 3], rng)
        U = generate_projections(d=3, m=m, p=3, seed=int(rng.integers(1 << 30)))
        model = DeepRpoModel(enc, U, estimator=estimator, lam=lam)
        batch = rng.normal(size=(6, 3))
        Z = enc.forward(batch)[0]
        T = project(Z, U)
        stats = fit_rpo_projected(T, Z, U)
        if m == 1:
            D = projected_distances(T, stats)
        else:
            W = whiten(U, stats)
            D = projected_distances(whitened_residuals(Z, W), W)
        if m == 1 and np.min(np.abs(T[:, :, 0] - stats.med)) < min_margin:
            continue
        if m > 1 and np.min(D) < min_margin:
            continue
        if estimator == "max":
            top2 = np.sort(D, axis=1)[:, -2:]
            if np.min(top2[:, 1] - top2[:, 0]) < min_margin:
                continue
        scores = reduce_distances(D, estimator)
        if sad_flags is not None and np.any(sad_flags) and np.min(scores[sad_flags]) < 0.05:
            continue
        return model, batch, stats
    raise AssertionError("could not build an FD-safe instance")


class TestDeepRpoLoss:
    def test_identical_latents_leave_only_regularizer(self):
        rng = np.random.default_rng(5)
        enc = init_encoder([3, 2], rng)
        U = generate_projections(d=2, m=1, p=4, seed=1)
        model = DeepRpoModel(enc, U, estimator="mean", lam=1e-3)
        batch = np.tile([0.3, -1.2, 0.7], (5, 1))
        loss, _ = deep_rpo_loss(model, batch)
        reg = 0.5 * 1e-3 * sum(float(np.sum(W**2)) for W in enc.weights)
        assert loss == pytest.approx(reg, abs=1e-12)

    @pytest.mark.parametrize("estimator", ["mean", "max"])
    def test_hand_checked_one_projection(self, estimator):
        # identity encoder on 1-D batch {-1, 0, 1, 5}: MED=0.5, MAD=1,
        # distances {1.5, 0.5, 0.5, 4.5}; with p=1 both estimators give 1.75
        enc = Encoder([np.eye(1)])
        U = ProjectionSet(entries=np.array([[[1.0]]]))
        model = DeepRpoModel(enc, U, estimator=estimator, lam=0.0)
        batch = np.array([[-1.0], [0.0], [1.0], [5.0]])
        Z = enc.forward(batch)[0]
        stats = fit_rpo_projected(project(Z, U), Z, U)
        assert stats.med[0] == 0.5
        assert stats.mad[0] == 1.0
        loss, _ = deep_rpo_loss(model, batch)
        assert loss == pytest.approx(1.75, abs=1e-12)

    def test_max_loss_dominates_mean_loss(self):
        rng = np.random.default_rng(6)
        enc = init_encoder([4, 3], rng)
        U = generate_projections(d=3, m=1, p=5, seed=2)
        batch = rng.normal(size=(8, 4))
        loss_max, _ = deep_rpo_loss(DeepRpoModel(enc, U, estimator="max", lam=0.0), batch)
        loss_mean, _ = deep_rpo_loss(DeepRpoModel(enc, U, estimator="mean", lam=0.0), batch)
        assert loss_max >= loss_mean

    def test_insufficient_batch_rejected(self):
        enc = Encoder([np.eye(2)])
        U = generate_projections(d=2, m=1, p=3, seed=3)
        model = DeepRpoModel(enc, U, estimator="mean", lam=1e-6)
        with pytest.raises(ValueError, match="insufficient batch"):
            deep_rpo_loss(model, np.ones((1, 2)))

    def test_sad_flag_flips_only_that_sample(self):
        rng = np.random.default_rng(7)
        enc = init_encoder([3, 4, 2], rng)
        U = generate_projections(d=2, m=1, p=4, seed=4)
        model = DeepRpoModel(enc, U, estimator="mean", lam=0.0)
        batch = rng.normal(size=(6, 3))
        Z, _ = enc.forward(batch)
        stats = fit_rpo_projected(project(Z, U), Z, U)

        scores = reduce_distances(projected_distances(project(Z, U), stats), "mean")
        base, _ = deep_rpo_loss(model, batch)
        flags = np.zeros(6, dtype=bool)
        flags[2] = True
        flagged, _ = deep_rpo_loss(model, batch, sad_flags=flags)
        s = scores[2]
        expected_delta = (1.0 / max(s, EPS_FLOOR) - s) / 6.0
        assert flagged - base == pytest.approx(expected_delta, rel=1e-10)

    @pytest.mark.parametrize("estimator", ["mean", "max"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    def test_gradient_matches_finite_differences(self, estimator, m, lam):
        seed = 1000 * len(estimator) + 100 * m + (7 if lam else 3)
        model, batch, stats = _fd_safe_instance(seed=seed, estimator=estimator, m=m, lam=lam)
        _, analytic = deep_rpo_loss(model, batch)
        numeric = fd_gradients(
            model.encoder,
            lambda: deep_rpo_loss(model, batch, stats=stats)[0],
            step=1e-6,
        )
        assert relative_error(analytic, numeric) < 1e-4

    def test_sad_flags_shape_checked(self):
        enc = Encoder([np.eye(2)])
        model = DeepRpoModel(enc, generate_projections(d=2, m=1, p=3, seed=5), "mean", 1e-6)
        with pytest.raises(ValueError, match="SAD flags shape"):
            deep_rpo_loss(model, np.ones((4, 2)), sad_flags=np.zeros(3, dtype=bool))

    def test_gradient_with_sad_matches_finite_differences(self):
        flags = np.zeros(6, dtype=bool)
        flags[1] = flags[4] = True
        model, batch, stats = _fd_safe_instance(seed=88, estimator="mean", sad_flags=flags)
        _, analytic = deep_rpo_loss(model, batch, sad_flags=flags)
        numeric = fd_gradients(
            model.encoder,
            lambda: deep_rpo_loss(model, batch, sad_flags=flags, stats=stats)[0],
            step=1e-6,
        )
        assert relative_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("estimator", ["mean", "max"])
    def test_gradient_with_sad_matches_finite_differences_m3(self, estimator):
        flags = np.zeros(6, dtype=bool)
        flags[0] = flags[3] = True
        model, batch, stats = _fd_safe_instance(
            seed=93, estimator=estimator, m=3, sad_flags=flags, lam=1e-3
        )
        _, analytic = deep_rpo_loss(model, batch, sad_flags=flags)
        numeric = fd_gradients(
            model.encoder,
            lambda: deep_rpo_loss(model, batch, sad_flags=flags, stats=stats)[0],
            step=1e-6,
        )
        assert relative_error(analytic, numeric) < 1e-4


def masked_weights(dD, D):
    """The m > 1 mean's residual weights as a divide masked to ``D > 0``, into zeros."""
    return np.divide(dD, D, out=np.zeros_like(D), where=D > 0.0)


class TestDistanceWeights:
    """The plain divide with zeros filled in keeps the masked divide's bytes.

    Past the loss's finiteness check each distance is finite or +inf and
    >= 0; a flagged row's dLoss/dD is negative, or -0.0 where its score is
    infinite.
    """

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_equal_the_masked_divide_by_bytes(self, seed):
        rng = np.random.default_rng(seed)
        n, p = (int(v) for v in rng.integers(1, 40, size=2))
        D = np.abs(rng.normal(size=(n, p))) * 10.0 ** rng.uniform(-150, 150, size=(n, p))
        D[rng.random((n, p)) < 0.2] = 0.0
        D[rng.random((n, p)) < 0.05] = -0.0
        D[rng.random(n) < 0.3] = np.inf  # a flagged row far out
        dD = np.full((n, 1), 1.0 / (n * p))
        flagged = rng.random(n) < 0.4
        dD[flagged, 0] = rng.choice([-0.0, -1.0 / (n * p), -3e5], size=int(flagged.sum()))
        with np.errstate(over="ignore"):
            assert training._distance_weights(dD, D).tobytes() == masked_weights(dD, D).tobytes()

    def test_loss_with_zero_and_infinite_distances_keeps_the_masked_gradient(self, monkeypatch):
        rng = np.random.default_rng(4)
        enc = init_encoder([4, 6, 3], rng)
        U = generate_projections(d=3, m=3, p=20, seed=4)
        model = DeepRpoModel(enc, U, estimator="mean", lam=1e-3)
        Z = enc.forward(rng.normal(size=(30, 4)))[0]
        fitted = fit_rpo_projected(project(Z, U), Z, U)
        # a median at 0: the bias-free encoder maps a zero row to distance 0 exactly
        stats = RpoStats(med=np.zeros_like(fitted.med), mad=None, inv_chol=fitted.inv_chol)
        batch = rng.normal(size=(8, 4))
        batch[2] = 0.0
        batch[5] = 1e200  # flagged: its distances square to inf, its contribution to 0
        flags = np.zeros(8, dtype=bool)
        flags[[1, 5]] = True
        with np.errstate(over="ignore"):
            W = whiten(U, stats)
            D = projected_distances(whitened_residuals(enc.forward(batch)[0], W), W)
            assert np.all(D[2] == 0.0) and np.all(np.isinf(D[5]))
            loss, grad = deep_rpo_loss(model, batch, sad_flags=flags, stats=stats)
            monkeypatch.setattr(training, "_distance_weights", masked_weights)
            masked_loss, masked_grad = deep_rpo_loss(model, batch, sad_flags=flags, stats=stats)
        assert np.isfinite(loss) and loss == masked_loss
        assert np.all(np.isfinite(grad))
        assert grad.tobytes() == masked_grad.tobytes()


class TestRegularizer:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_per_layer_sums_by_bytes(self, seed):
        rng = np.random.default_rng(seed)
        dims = [int(v) for v in rng.integers(1, 70, size=int(rng.integers(2, 6)))]
        enc = Encoder([rng.normal(size=(a, b)) * 10.0 ** rng.uniform(-5, 5)
                       for a, b in zip(dims, dims[1:])])
        lam = float(rng.uniform(0.0, 1.0))
        per_layer = 0.5 * lam * sum(float(np.sum(W * W)) for W in enc.weights)
        assert training._regularizer(enc, lam) == per_layer


class TestTrain:
    def _deep_rpo_model(self, ds, seed=0, estimator="mean", **kwargs):
        rng = np.random.default_rng(seed)
        enc = init_encoder([ds.dim, 8, 4], rng)
        U = generate_projections(d=4, m=1, p=20, seed=seed)
        return DeepRpoModel(enc, U, estimator=estimator, lam=1e-6, **kwargs)

    def test_zero_epochs_identity(self):
        ds = toy_dataset()
        model = self._deep_rpo_model(ds)
        before = [W.copy() for W in model.encoder.weights]
        result = train(model, ds, epochs=0, batch_size=16, seed=1, learning_rate=1e-4)
        assert result.history == []
        assert result.best_epoch == -1
        assert all(np.array_equal(a, b) for a, b in zip(before, model.encoder.weights))

    def test_improves_on_separable_synthetic(self):
        ds = toy_dataset(seed=3)
        model = self._deep_rpo_model(ds, seed=3)
        result = train(model, ds, epochs=10, batch_size=16, seed=3, learning_rate=1e-4)
        assert result.best_val_auc >= result.history[0].val_auc
        assert result.best_epoch >= 1

    def test_deterministic_history(self):
        ds = toy_dataset(seed=4)
        histories = []
        for _ in range(2):
            model = self._deep_rpo_model(ds, seed=4)
            result = train(model, ds, epochs=4, batch_size=16, seed=9, learning_rate=1e-4)
            histories.append([(r.train_loss, r.val_auc) for r in result.history])
        assert histories[0] == histories[1]

    def test_projections_and_center_frozen(self):
        ds = toy_dataset(seed=5)
        model = self._deep_rpo_model(ds, seed=5)
        entries_before = model.projections.entries.copy()
        train(model, ds, epochs=3, batch_size=16, seed=2, learning_rate=1e-4)
        assert np.array_equal(model.projections.entries, entries_before)

        rng = np.random.default_rng(6)
        enc = init_encoder([ds.dim, 8, 4], rng)
        svdd = SvddModel(enc, init_center(enc, ds.X[ds.mask("train")]), lam=1e-6)
        center_before = svdd.center.copy()
        train(svdd, ds, epochs=3, batch_size=16, seed=2, learning_rate=1e-4)
        assert np.array_equal(svdd.center, center_before)

    def test_restores_the_best_epochs_exact_bytes(self, monkeypatch):
        # epoch 2 of 4 scores best, so the last two epochs' updates are undone
        ds = toy_dataset(seed=6)
        model = self._deep_rpo_model(ds, seed=6)
        aucs = iter([0.5, 0.9, 0.7, 0.9])
        seen = []

        def recording(model, *args):
            seen.append((model.encoder.buffer.copy(), [W.copy() for W in model.encoder.weights]))
            return next(aucs)

        monkeypatch.setattr(training, "_validation_auc", recording)
        buffer = model.encoder.buffer
        result = train(model, ds, epochs=4, batch_size=16, seed=2, learning_rate=1e-3)
        assert result.best_epoch == 2
        best, best_layers = seen[1]
        assert seen[-1][0].tobytes() != best.tobytes()
        assert model.encoder.buffer is buffer and buffer.tobytes() == best.tobytes()
        for W, expected in zip(model.encoder.weights, best_layers, strict=True):
            assert np.shares_memory(W, buffer) and W.tobytes() == expected.tobytes()

    def test_validation_needs_both_labels(self):
        ds = generate_multimodal(1, 4, n_per_mode=40, anomaly_n=0, seed=0)
        model = DeepRpoModel(
            Encoder([np.eye(4)]), generate_projections(4, 1, 5, seed=0), estimator="mean",
            lam=1e-6,
        )
        with pytest.raises(ValueError, match="validation AUC undefined"):
            train(model, ds, epochs=1, batch_size=8, seed=0, learning_rate=1e-4)

    def test_svdd_training_descends(self):
        ds = toy_dataset(seed=8)
        rng = np.random.default_rng(8)
        enc = init_encoder([ds.dim, 8, 4], rng)
        model = SvddModel(enc, init_center(enc, ds.X[ds.mask("train")]), lam=1e-6)
        result = train(model, ds, epochs=8, batch_size=16, seed=3, learning_rate=1e-4)
        assert result.history[-1].train_loss < result.history[0].train_loss

    def test_latent_scores_need_stats_for_projection_models(self):
        ds = toy_dataset(seed=9)
        model = self._deep_rpo_model(ds, seed=9)
        with pytest.raises(ValueError):
            latent_scores(model, ds.X[:3])
        stats = fit_eval_stats(model, ds.X[ds.mask("train")])
        assert np.all(latent_scores(model, ds.X[:3], stats) >= 0.0)


_PROJECTED_COVARIANCE = scoring._projected_covariance


def _negated_covariance(X, U):
    """Every projected covariance negated: symmetric, not positive definite."""
    return -_PROJECTED_COVARIANCE(X, U)


class TestUnusableFactor:
    """An m > 1 fit whose ridged covariance has no Cholesky factor fails with exit 3.

    The fit's ``cholesky`` raises ``NumericError`` naming the projected
    covariance, where the whitened maps would take its inverse factor.
    """

    @staticmethod
    def _m3_model(ds, seed=0):
        enc = init_encoder([ds.dim, 8, 4], np.random.default_rng(seed))
        return DeepRpoModel(enc, generate_projections(d=4, m=3, p=20, seed=seed),
                            estimator="mean", lam=1e-6)

    def test_batch_fit(self, monkeypatch):
        ds = toy_dataset(seed=10)
        model = self._m3_model(ds)
        monkeypatch.setattr(scoring, "_projected_covariance", _negated_covariance)
        with pytest.raises(NumericError, match="projected covariance") as failure:
            deep_rpo_loss(model, ds.X[:32])
        assert classify(failure.value)[1] == EXIT_NUMERIC

    def test_validation_fit(self, monkeypatch):
        # the batch fits are usable; only the validation refit is not
        ds = toy_dataset(seed=11)
        model = self._m3_model(ds, seed=11)

        def unusable_refit(model, X):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(scoring, "_projected_covariance", _negated_covariance)
                return fit_eval_stats(model, X)

        monkeypatch.setattr(training, "fit_eval_stats", unusable_refit)
        with pytest.raises(NumericError, match="projected covariance") as failure:
            train(model, ds, epochs=1, batch_size=16, seed=0, learning_rate=1e-4)
        assert classify(failure.value)[1] == EXIT_NUMERIC
