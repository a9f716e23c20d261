"""Training objectives and loops for the one-class encoders.

Two objectives share the encoder machinery. The hypersphere objective
pulls every latent toward a fixed center computed from an initial forward
pass of the training data (the center is never trained). The projection
objective replaces the single-center distance with the per-projection
MAD-normalized distance to the projected median, reduced across the frozen
random projections by either ``mean`` or ``max``; multidimensional
projections use the robust Mahalanobis distance with a ridge-regularized
batch covariance.

Medians, MADs, and covariances are treated as per-batch constants in the
gradient (stop-gradient): they are piecewise-constant or non-smooth in the
weights, so differentiating through them would make the update ill-defined.
The finite-difference checks in the test suite freeze them the same way.

Both loss functions return the full objective value, regularizer included,
and the gradient of that full objective (data term plus ``lam * W``). The
training loop therefore runs the optimizer with its own decay disabled, so
the penalty is applied exactly once.

Semi-supervision: a train row flagged as a labeled anomaly contributes the
inverse of its normalized distance, pushing it away from the normality
location estimators while normal rows are pulled in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import ANOMALY, NORMAL, TRAIN, VAL, Dataset
from .encoder import Encoder, init_adam, adam_step
from .errors import NumericError
from .metrics import roc_auc
from .projections import ProjectionSet, project
from .scoring import (
    DEFAULT_EPS_FLOOR,
    DEFAULT_RIDGE,
    RpoStats,
    center_distances,
    fit_rpo_projected,
    projected_distances,
    reduce_distances,
    score_batch,
    validate_estimator,
)
from .seeding import sub_rng


@dataclass
class SvddModel:
    """Encoder plus a frozen normality center in latent space."""

    encoder: Encoder
    center: np.ndarray
    lam: float = 1e-6

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        if self.center.shape != (self.encoder.latent_dim,):
            raise ValueError(
                f"center shape {self.center.shape} does not match latent dim "
                f"{self.encoder.latent_dim}"
            )
        if not np.all(np.isfinite(self.center)):
            raise ValueError("center must be finite")
        self.center.setflags(write=False)


@dataclass
class DeepRpoModel:
    """Encoder plus frozen latent-space projections and the score estimator."""

    encoder: Encoder
    projections: ProjectionSet
    estimator: str = "mean"
    lam: float = 1e-6
    stats_mode: str = "batch"  # or "full-set"
    eps_floor: float = DEFAULT_EPS_FLOOR
    ridge: float = DEFAULT_RIDGE

    def __post_init__(self):
        validate_estimator(self.estimator)
        if self.stats_mode not in ("batch", "full-set"):
            raise ValueError(f"stats_mode must be 'batch' or 'full-set', got {self.stats_mode!r}")
        if self.projections.d != self.encoder.latent_dim:
            raise ValueError(
                f"projections expect d={self.projections.d} but encoder latent dim "
                f"is {self.encoder.latent_dim}"
            )


@dataclass
class SadConfig:
    """Per-sample labeled-anomaly flags for semi-supervised training."""

    enabled: bool = False
    labeled_anomaly_flags: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=bool)
    )

    def __post_init__(self):
        self.labeled_anomaly_flags = np.asarray(self.labeled_anomaly_flags, dtype=bool)
        if not self.enabled and np.any(self.labeled_anomaly_flags):
            raise ValueError("flags set while SAD is disabled")


def init_center(enc: Encoder, X_train: np.ndarray) -> np.ndarray:
    """Mean latent coordinates of one forward pass; frozen afterwards."""
    X_train = np.asarray(X_train, dtype=np.float64)
    if X_train.ndim != 2 or X_train.shape[0] == 0:
        raise ValueError("empty train set")
    Z, _ = enc.forward(X_train)
    return Z.mean(axis=0)


def _regularizer(enc: Encoder, lam: float) -> float:
    return 0.5 * lam * sum(float(np.sum(W * W)) for W in enc.weights)


def svdd_loss(model: SvddModel, batch: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """Mean squared distance to the center plus the weight penalty.

    Returns the loss and the gradient of the full objective with respect to
    every weight matrix; the center receives no gradient.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[0] == 0:
        raise ValueError("empty batch")
    n = batch.shape[0]
    Z, cache = model.encoder.forward(batch)
    loss = float(np.mean(center_distances(Z, model.center))) + _regularizer(
        model.encoder, model.lam
    )
    grads = model.encoder.backward(cache, (2.0 / n) * (Z - model.center))
    for g, W in zip(grads, model.encoder.weights):
        g += model.lam * W
    if not np.isfinite(loss):
        raise NumericError("non-finite hypersphere loss")
    return loss, grads


def deep_rpo_loss(
    model: DeepRpoModel,
    batch: np.ndarray,
    sad: SadConfig | None = None,
    stats: RpoStats | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Projection-outlyingness training objective and its weight gradient.

    With ``stats=None`` and batch mode, location/spread are computed from
    the batch itself; in full-set mode the caller must supply ``stats``
    (recomputed once per epoch over all training latents). Either way the
    statistics are constants in the gradient.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[0] == 0:
        raise ValueError("empty batch")
    n = batch.shape[0]
    if stats is None:
        if model.stats_mode == "full-set":
            raise ValueError("full-set stats_mode requires precomputed stats")
        if n < 2:
            raise ValueError("insufficient batch for robust stats")

    flags = None
    if sad is not None and sad.enabled:
        if sad.labeled_anomaly_flags.shape != (n,):
            raise ValueError(
                f"SAD flags shape {sad.labeled_anomaly_flags.shape} does not match batch size {n}"
            )
        flags = sad.labeled_anomaly_flags

    Z, cache = model.encoder.forward(batch)
    T = project(Z, model.projections)  # (n, p, m)
    if stats is None:
        stats = fit_rpo_projected(T, eps_floor=model.eps_floor, ridge=model.ridge)

    D = projected_distances(T, stats)  # (n, p)
    scores = reduce_distances(D, model.estimator)

    # dLoss/dscore_i, with the SAD inversion applied where flagged
    contrib = scores.copy()
    dscore = np.full(n, 1.0 / n)
    if flags is not None and np.any(flags):
        clamped = np.maximum(scores[flags], model.eps_floor)
        contrib[flags] = 1.0 / clamped
        inv_grad = np.where(scores[flags] > model.eps_floor, -1.0 / clamped**2, 0.0)
        dscore[flags] = inv_grad / n

    loss = float(np.mean(contrib)) + _regularizer(model.encoder, model.lam)
    if not np.isfinite(loss):
        raise NumericError("non-finite outlyingness loss")

    # dLoss/dD_ij
    if model.estimator == "mean":
        dD = (dscore / model.projections.p)[:, np.newaxis] * np.ones_like(D)
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


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_auc: float


@dataclass
class TrainResult:
    model: SvddModel | DeepRpoModel
    history: list[EpochRecord]
    best_epoch: int
    best_val_auc: float


def latent_scores(model: SvddModel | DeepRpoModel, X: np.ndarray,
                  train_stats: RpoStats | None = None) -> np.ndarray:
    """Anomaly scores for rows of ``X`` under a frozen model.

    Hypersphere models score by squared distance to the center. Projection
    models require ``train_stats`` refit on the full training set's latents.
    """
    Z, _ = model.encoder.forward(np.asarray(X, dtype=np.float64))
    if isinstance(model, SvddModel):
        return center_distances(Z, model.center)
    if train_stats is None:
        raise ValueError("projection model scoring needs stats fitted on train latents")
    return score_batch(Z, model.projections, train_stats, model.estimator)


def fit_eval_stats(model: DeepRpoModel, X_train: np.ndarray) -> RpoStats:
    """Refit location/spread on the full training set's latents for scoring."""
    Z, _ = model.encoder.forward(np.asarray(X_train, dtype=np.float64))
    T = project(Z, model.projections)
    return fit_rpo_projected(T, eps_floor=model.eps_floor, ridge=model.ridge)


def _validation_auc(model, X_train, X_val, y_val) -> float:
    if isinstance(model, SvddModel):
        scores = latent_scores(model, X_val)
    else:
        scores = latent_scores(model, X_val, fit_eval_stats(model, X_train))
    return roc_auc(scores, y_val)


def train(
    model: SvddModel | DeepRpoModel,
    data: Dataset,
    epochs: int,
    batch_size: int = 128,
    seed: int = 0,
    learning_rate: float = 1e-4,
) -> TrainResult:
    """Shuffled mini-batch training with best-validation-epoch selection.

    Validation AUC is recorded each epoch (projection models rescore with
    statistics refit on the full training set) and the weights from the
    best epoch are restored into the returned model. The fixed center and
    the frozen projections are never touched.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {batch_size}")
    train_mask = data.mask(TRAIN)
    X_train = data.X[train_mask]
    if X_train.shape[0] < 2:
        raise ValueError("need at least 2 train rows")
    sad_flags = data.sad_flag[train_mask]
    sad_enabled = bool(np.any(sad_flags)) and isinstance(model, DeepRpoModel)
    # unflagged train rows are treated as nominal regardless of audit label
    val_mask = data.mask(VAL)
    X_val = data.X[val_mask]
    y_val = data.label[val_mask]
    if not (np.any(y_val == NORMAL) and np.any(y_val == ANOMALY)):
        raise ValueError("validation AUC undefined")

    opt = init_adam(model.encoder, learning_rate=learning_rate, weight_decay=0.0)
    rng = sub_rng(seed, "shuffle")
    history: list[EpochRecord] = []
    best_epoch = -1
    best_val_auc = -np.inf
    best_weights = [W.copy() for W in model.encoder.weights]

    n = X_train.shape[0]
    for epoch in range(1, epochs + 1):
        epoch_stats = None
        if isinstance(model, DeepRpoModel) and model.stats_mode == "full-set":
            epoch_stats = fit_eval_stats(model, X_train)
        perm = rng.permutation(n)
        total_loss = 0.0
        total_rows = 0
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            if idx.size < 2:
                continue  # robust stats need >= 2 rows
            batch = X_train[idx]
            if isinstance(model, SvddModel):
                loss, grads = svdd_loss(model, batch)
            else:
                sad = None
                if sad_enabled:
                    sad = SadConfig(enabled=True, labeled_anomaly_flags=sad_flags[idx])
                loss, grads = deep_rpo_loss(model, batch, sad=sad, stats=epoch_stats)
            adam_step(model.encoder, grads, opt)
            total_loss += loss * idx.size
            total_rows += idx.size
        train_loss = total_loss / max(total_rows, 1)
        val_auc = _validation_auc(model, X_train, X_val, y_val)
        history.append(EpochRecord(epoch=epoch, train_loss=train_loss, val_auc=val_auc))
        if val_auc > best_val_auc:
            best_val_auc = val_auc
            best_epoch = epoch
            best_weights = [W.copy() for W in model.encoder.weights]

    model.encoder.weights = best_weights
    if not history:
        best_val_auc = float("nan")
    return TrainResult(
        model=model,
        history=history,
        best_epoch=best_epoch,
        best_val_auc=float(best_val_auc),
    )
