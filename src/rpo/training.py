"""Training objectives and loops for the one-class encoders.

Two objectives share the encoder machinery. The hypersphere objective
pulls every latent toward a fixed center computed from an initial forward
pass of the training data (the center is never trained). The projection
objective replaces the single-center distance with the per-projection
MAD-normalized distance to the projected median, reduced across the frozen
random projections by either ``mean`` or ``max``; multidimensional
projections use the robust Mahalanobis distance with a ridge-regularized
batch covariance. ``fit_rpo_projected`` takes that covariance from the
batch latents and the maps, not from their projection, so both callers here
pass the latents ``Z`` with ``T = project(Z, projections)``; it is within a
stated 1e-12 of the sum over the projection, not bit for bit (see the
README's "Numerics" section).

Every batch refits its own medians, MADs, and covariances, as the paper's
objective does, and they are treated as per-batch constants in the
gradient (stop-gradient): they are piecewise-constant or non-smooth in the
weights, so differentiating through them would make the update ill-defined.
The finite-difference checks in the test suite freeze them the same way.

Both loss functions return the full objective value, regularizer included,
and the gradient of that full objective (data term plus ``lam * W``) as one
flat array laid out as the encoder's weight buffer: the penalty is one
``grad += lam * buffer``, with the bits of the per-layer sum. The optimizer
has no decay term of its own, so the penalty is applied exactly once.

The one-dimensional objective takes its distances and its sign matrix
from one residual pass over the batch's projection, which the loss owns
(the fit sorts a copy of it): ``R = T - med`` in place, ``S = sign(R)``,
then ``|R| / mad`` in place (``_residual_signs``). The latent gradient is
one BLAS product of ``S``, scaled by ``dLoss/dD / mad``, with the maps
(``_sign_gradient``). It sums over the projections in the BLAS's order,
not in the einsum form's (``einsum("npm,pdm->nd", dT, entries)``), so the
two agree to a relative 1e-12 per weight matrix. A zero of ``S`` may be
-0.0 where the earlier comparison form gave +0.0; either adds nothing to
the product's sum. Under the max estimator a row has one term, at its
argmax, and its gradient is taken from that term alone, with the einsum
form's bits.

The robust Mahalanobis objective (m > 1) takes its distances through the
whitened maps of ``scoring.whiten`` (``E'_p = E_p Li_p^T``, with ``Li_p``
the fit's inverse Cholesky factor of the ridged covariance, so the
inverse covariance is ``Li_p^T Li_p``): a distance is the norm of the
whitened residual ``r'_p = z E'_p - med'_p``, and its gradient
``E'_p r'_p / D_p``. The latent gradient is
then one matrix product of the residuals, each weighted by ``dLoss/dD /
D``, with the maps. That weight is a plain divide with a 0 filled in where
``D`` is 0, which gives the bits of a divide masked to ``D > 0``: past the
loss's finiteness check every ``D`` is finite or +inf, and >= 0. Under
the max estimator a row's one term, at its argmax projection, is taken
alone (``_argmax_whitened_gradient``). It
sums in another order than the einsum form through ``Li_p^T Li_p``, so the
two agree to a relative 1e-12 per weight matrix, not bit for bit. A row
at the median has a distance of rounding size, not 0, and so a unit
subgradient where the einsum form gives it none (see the README's
"Numerics" section).

Semi-supervision: a train row flagged as a labeled anomaly contributes the
inverse of its normalized distance, floored at ``scoring.EPS_FLOOR``,
pushing it away from the normality location estimators while normal rows
are pulled in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ANOMALY, NORMAL, TRAIN, VAL, Dataset
from .encoder import Encoder, init_adam, adam_step
from .errors import NumericError
from .metrics import roc_auc
from .projections import ProjectionSet, project
from .scoring import (
    EPS_FLOOR,
    RpoStats,
    center_distances,
    fit_rpo_projected,
    projected_distances,
    reduce_distances,
    score_batch,
    whiten,
    whitened_residuals,
)
from .seeding import sub_rng


@dataclass
class SvddModel:
    """Encoder plus a frozen normality center in latent space."""

    encoder: Encoder
    center: np.ndarray
    lam: float

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
    estimator: str
    lam: float


def init_center(enc: Encoder, X_train: np.ndarray) -> np.ndarray:
    """Mean latent coordinates of one forward pass; frozen afterwards."""
    X_train = np.asarray(X_train, dtype=np.float64)
    if X_train.ndim != 2 or X_train.shape[0] == 0:
        raise ValueError("empty train set")
    Z, _ = enc.forward(X_train)
    return Z.mean(axis=0)


def _regularizer(enc: Encoder, lam: float) -> float:
    """``0.5 * lam`` times the sum over layers of ``np.sum(W * W)``, with its bits.

    The buffer is squared once, and each layer's view of the squares is
    summed as ``W * W`` was: the same C-ordered values, so the same
    pairwise sums.
    """
    squares = enc.layer_views(np.square(enc.buffer))
    return 0.5 * lam * sum(float(np.sum(s)) for s in squares)


def svdd_loss(model: SvddModel, batch: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared distance to the center plus the weight penalty.

    Returns the loss and the gradient of the full objective with respect to
    the weights, one flat array laid out as ``encoder.buffer``; the center
    receives no gradient.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[0] == 0:
        raise ValueError("empty batch")
    n = batch.shape[0]
    Z, cache = model.encoder.forward(batch)
    loss = float(np.mean(center_distances(Z, model.center))) + _regularizer(
        model.encoder, model.lam
    )
    grad = model.encoder.backward(cache, (2.0 / n) * (Z - model.center))
    grad += model.lam * model.encoder.buffer
    if not np.isfinite(loss):
        raise NumericError("non-finite hypersphere loss")
    return loss, grad


def _residual_signs(T1, med, mad):
    """The sign matrix ``sign(T1 - med)`` and the distances ``|T1 - med| / mad``.

    One residual pass over the (n, p) coordinates ``T1``, which it
    overwrites: ``T1 - med`` in place, its sign into a new array, then
    ``abs`` and the division by ``mad`` in place, so ``T1`` ends up holding
    the distances, bit for bit those of ``projected_distances``.
    """
    R = np.subtract(T1, med, out=T1)
    S = np.sign(R)
    np.abs(R, out=R)
    return S, np.divide(R, mad, out=R)


def _sign_gradient(S, mad, dD, E, hit=None):
    """dLoss/dZ at m = 1: the sign matrix ``S`` times ``dD / mad`` times the maps ``E``.

    Three forms:
    - ``hit`` given (max): ``dD`` is dLoss/dscore, and row i's one term sits
      at column ``hit[i]``: ``(S_ij dD_i) / mad_j``, then times ``E_j``, as
      the dense form rounds it. The ``+ 0.0`` turns a zero term's -0.0 into
      the +0.0 that a BLAS sum, which starts at +0.0, gives such a row.
    - ``dD`` one value (an unflagged mean): ``dD / mad`` is folded into the
      (p, d) maps, so each term is the einsum form's rounded product, and
      one BLAS product sums the +-1 and 0 entries of ``S`` against them.
    - ``dD`` per row (a flagged mean): ``S`` is scaled in place and summed
      against ``E`` in one BLAS product, whose FMA adds each product
      unrounded.
    A BLAS product sums over p in its own order, not the einsum's.
    """
    if hit is not None:
        term = S[np.arange(S.shape[0]), hit] * dD / mad[hit]
        return term[:, np.newaxis] * E[hit] + 0.0
    if np.ndim(dD) == 0:
        return S @ (E * (dD / mad)[:, np.newaxis])
    S *= dD
    S /= mad
    return S @ E


def _distance_weights(dD, D):
    """``dD / D``, and 0 where ``D`` is 0: the m > 1 mean's residual weights.

    Past the loss's finiteness check every ``D`` is finite or +inf, and
    >= 0, so this has the bits of ``np.divide(dD, D, where=D > 0.0)`` into
    zeros; a plain divide is vectorised where the masked one is not.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        w = dD / D
    np.copyto(w, 0.0, where=D == 0.0)
    return w


def _argmax_whitened_gradient(R, D, dscore, maps):
    """dLoss/dZ at m > 1 under max: each row's one term, at its argmax projection.

    ``R`` holds the (n, m, p) whitened residuals, ``D`` their (n, p) norms
    and ``maps`` the (d, m * p) whitened maps. Row i's gradient is
    ``E'_k r'_k * dscore_i / D_k`` at ``k = argmax_p D``, and 0 where that
    distance is 0; no (n, p) array is built.
    """
    rows = np.arange(D.shape[0])
    hit = np.argmax(D, axis=1)
    top = D[rows, hit]
    w = np.divide(dscore, top, out=np.zeros_like(top), where=top > 0.0)
    r = R[rows, :, hit] * w[:, np.newaxis]  # (n, m)
    E = maps.reshape(maps.shape[0], -1, D.shape[1])[:, :, hit]  # (d, m, n)
    return np.einsum("nm,dmn->nd", r, E)


def deep_rpo_loss(
    model: DeepRpoModel,
    batch: np.ndarray,
    sad_flags: np.ndarray | None = None,
    stats: RpoStats | None = None,
) -> tuple[float, np.ndarray]:
    """Projection-outlyingness training objective and its weight gradient.

    ``sad_flags`` (bool, one per batch row) marks the labeled anomalies.
    Location/spread are fitted on the batch itself, as the paper's
    objective does, unless ``stats`` supplies them; either way they are
    constants in the gradient. The gradient is one flat array laid out as
    ``encoder.buffer``.
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
    U = model.projections
    T = project(Z, U) if stats is None or U.m == 1 else None  # (n, p, m)
    if stats is None:
        # at m = 1 the fit sorts a copy, never T; at m > 1 it permutes T's
        # values in place, and T is read no more: the whitened residuals replace it
        stats = fit_rpo_projected(T, Z, U)
    if U.m == 1:
        # T is this call's own: the residual pass overwrites it with the distances
        S, D = _residual_signs(T[:, :, 0], stats.med, stats.mad)
    else:
        # distances and gradient both read the whitened residuals, not T
        head = whiten(U, stats)
        T = whitened_residuals(Z, head)
        D = projected_distances(T, head)  # (n, p)
    scores = reduce_distances(D, model.estimator)

    # dLoss/dscore_i, with the SAD inversion applied where flagged
    contrib = scores.copy()
    dscore = np.full(n, 1.0 / n)
    flagged = flags is not None and bool(np.any(flags))
    if flagged:
        clamped = np.maximum(scores[flags], EPS_FLOOR)
        contrib[flags] = 1.0 / clamped
        inv_grad = np.where(scores[flags] > EPS_FLOOR, -1.0 / clamped**2, 0.0)
        dscore[flags] = inv_grad / n

    loss = float(np.mean(contrib)) + _regularizer(model.encoder, model.lam)
    if not np.isfinite(loss):
        raise NumericError("non-finite outlyingness loss")

    # dLoss/dZ through dLoss/dD and dLoss/dT, statistics held constant. The
    # mean's dLoss/dD is one value per row, and the max's sits at each row's argmax.
    if U.m == 1:
        E = U.entries[:, :, 0]
        if model.estimator == "max":
            dZ = _sign_gradient(S, stats.mad, dscore, E, hit=np.argmax(D, axis=1))
        else:
            # without a flagged row, every row shares one dLoss/dD
            dD = (dscore / U.p)[:, np.newaxis] if flagged else dscore[0] / U.p
            dZ = _sign_gradient(S, stats.mad, dD, E)
    else:
        # dD/dx = E'_p r'_p / D: the residuals, weighted by dLoss/dD / D
        R = T.transpose(0, 2, 1)  # the C-ordered (n, m, p) residuals
        if model.estimator == "max":
            dZ = _argmax_whitened_gradient(R, D, dscore, head.maps)
        else:
            # weighted in place, in one product with the maps
            R *= _distance_weights((dscore / U.p)[:, np.newaxis], D)[:, np.newaxis, :]
            dZ = R.reshape(n, -1) @ head.maps.T
    grad = model.encoder.backward(cache, dZ)
    grad += model.lam * model.encoder.buffer
    return loss, grad


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_auc: float


@dataclass
class TrainResult:
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
    return fit_rpo_projected(project(Z, model.projections), Z, model.projections)


def _validation_auc(model, X_train, X_val, y_val) -> float:
    if isinstance(model, SvddModel):
        scores = latent_scores(model, X_val)
    else:
        scores = latent_scores(model, X_val, fit_eval_stats(model, X_train))
    return roc_auc(scores, y_val)


def train(model: SvddModel | DeepRpoModel, data: Dataset, epochs: int, batch_size: int,
          seed: int, learning_rate: float) -> TrainResult:
    """Shuffled mini-batch training with best-validation-epoch selection.

    Validation AUC is recorded each epoch (projection models rescore with
    statistics refit on the full training set) and the weights from the
    best epoch are restored into ``model.encoder``. The fixed center and
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

    opt = init_adam(model.encoder, learning_rate=learning_rate)
    rng = sub_rng(seed, "shuffle")
    history: list[EpochRecord] = []
    best_epoch = -1
    best_val_auc = -np.inf
    best_weights = model.encoder.buffer.copy()

    n = X_train.shape[0]
    for epoch in range(1, epochs + 1):
        perm = rng.permutation(n)
        total_loss = 0.0
        total_rows = 0
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            if idx.size < 2:
                continue  # robust stats need >= 2 rows
            batch = X_train[idx]
            if isinstance(model, SvddModel):
                loss, grad = svdd_loss(model, batch)
            else:
                flags = sad_flags[idx] if sad_enabled else None
                loss, grad = deep_rpo_loss(model, batch, sad_flags=flags)
            adam_step(model.encoder, grad, opt)
            total_loss += loss * idx.size
            total_rows += idx.size
        train_loss = total_loss / max(total_rows, 1)
        val_auc = _validation_auc(model, X_train, X_val, y_val)
        history.append(EpochRecord(epoch=epoch, train_loss=train_loss, val_auc=val_auc))
        if val_auc > best_val_auc:
            best_val_auc = val_auc
            best_epoch = epoch
            best_weights = model.encoder.buffer.copy()

    model.encoder.buffer[...] = best_weights
    if not history:
        best_val_auc = float("nan")
    return TrainResult(
        history=history,
        best_epoch=best_epoch,
        best_val_auc=float(best_val_auc),
    )
