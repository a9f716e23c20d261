"""Shallow outlyingness scoring on top of a frozen projection set.

Fit stage (training data only): for 1-D projections, store the median and
MAD of each projection's coordinates; the MAD is clamped from below by
``eps_floor`` so degenerate projections cannot divide by ~0. For
multidimensional projections, store the componentwise median and the
inverse of the ridge-regularized sample covariance of the projected
training points.

Score stage: a query's per-projection normalized distance is
``|u^T x - med| / mad`` in the 1-D case and the robust Mahalanobis
distance ``sqrt((u^T x - med)^T C^-1 (u^T x - med))`` otherwise. The
estimator reduces across projections with either ``max`` (worst-case
outlyingness) or ``mean``. Scores map to a center-outward depth in (0, 1]
via ``1 / (1 + score)``.

This module holds every score head: the projection outlyingness above
(``score_batch``) and the deep-svdd squared distance to a latent center
(``center_distances``). Validation, test scoring and saved checkpoints all
score through them; the training loss reuses their parts, because its
gradient needs the projected coordinates.

Note the two spread measures are intentionally distinct: for m = 1 the
Mahalanobis form would divide by a standard deviation, not a MAD, so no
equivalence between the paths is claimed anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import NumericError
from .projections import ProjectionSet, project

Estimator = Literal["max", "mean"]

DEFAULT_EPS_FLOOR = 1e-6
DEFAULT_RIDGE = 1e-6


def validate_estimator(kind: str) -> str:
    if kind not in ("max", "mean"):
        raise ValueError(f"estimator must be 'max' or 'mean', got {kind!r}")
    return kind


def method_estimator(method: str) -> Estimator:
    """The estimator a method name selects: ``*-max`` methods reduce with max."""
    return "max" if method.endswith("max") else "mean"


@dataclass(frozen=True, eq=False)
class RpoStats:
    """Per-projection robust location/spread fitted on training data.

    ``med`` has shape (p,) when m = 1 and (p, m) otherwise. Exactly one of
    ``mad`` (shape (p,), already floored) and ``inv_cov`` (shape (p, m, m),
    symmetric positive definite) is set.
    """

    med: np.ndarray
    mad: np.ndarray | None
    inv_cov: np.ndarray | None
    eps_floor: float

    def __post_init__(self):
        if (self.mad is None) == (self.inv_cov is None):
            raise ValueError("exactly one of mad and inv_cov must be set")
        if self.eps_floor <= 0:
            raise ValueError(f"eps_floor must be positive, got {self.eps_floor}")

    @property
    def p(self) -> int:
        return self.med.shape[0]


def fit_rpo(
    X_train: np.ndarray,
    U: ProjectionSet,
    eps_floor: float = DEFAULT_EPS_FLOOR,
    ridge: float = DEFAULT_RIDGE,
) -> RpoStats:
    """Fit per-projection robust statistics on the training set.

    Raises ``ValueError`` on an empty training set and ``NumericError`` if a
    ridge-regularized covariance still fails to invert.
    """
    X_train = np.asarray(X_train, dtype=np.float64)
    if X_train.ndim != 2 or X_train.shape[0] == 0:
        raise ValueError("empty training set")
    T = project(X_train, U)  # (n, p, m)
    return fit_rpo_projected(T, eps_floor=eps_floor, ridge=ridge)


def fit_rpo_projected(
    T: np.ndarray,
    eps_floor: float = DEFAULT_EPS_FLOOR,
    ridge: float = DEFAULT_RIDGE,
) -> RpoStats:
    """Fit statistics from already-projected coordinates of shape (n, p, m)."""
    n, p, m = T.shape
    if n == 0:
        raise ValueError("empty training set")
    if m == 1:
        coords = T[:, :, 0]  # (n, p)
        med = np.median(coords, axis=0)
        mad = np.median(np.abs(coords - med), axis=0)
        mad = np.maximum(mad, eps_floor)
        return RpoStats(med=med, mad=mad, inv_cov=None, eps_floor=eps_floor)

    med = np.median(T, axis=0)  # (p, m)
    centered = T - np.mean(T, axis=0)
    denom = max(n - 1, 1)
    cov = np.einsum("npi,npj->pij", centered, centered) / denom
    cov = cov + ridge * np.eye(m)
    try:
        inv_cov = np.linalg.inv(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"projected covariance not invertible: {exc}") from exc
    if not np.all(np.isfinite(inv_cov)):
        raise NumericError("projected covariance inverse is not finite")
    inv_cov = 0.5 * (inv_cov + np.transpose(inv_cov, (0, 2, 1)))
    return RpoStats(med=med, mad=None, inv_cov=inv_cov, eps_floor=eps_floor)


def projected_distances(T: np.ndarray, stats: RpoStats) -> np.ndarray:
    """Per-projection normalized distances, shape (n, p), from projected coords."""
    if T.shape[1] != stats.p:
        raise ValueError(f"stats fitted for p={stats.p}, got p={T.shape[1]}")
    if stats.mad is not None:
        if T.shape[2] != 1:
            raise ValueError("1-D stats applied to multidimensional projections")
        return np.abs(T[:, :, 0] - stats.med) / stats.mad
    if T.shape[2] != stats.med.shape[1]:
        raise ValueError(
            f"stats fitted for m={stats.med.shape[1]}, got m={T.shape[2]}"
        )
    R = T - stats.med[np.newaxis]  # (n, p, m)
    quad = np.einsum("npi,pij,npj->np", R, stats.inv_cov, R)
    return np.sqrt(np.maximum(quad, 0.0))


def reduce_distances(D: np.ndarray, est: Estimator) -> np.ndarray:
    validate_estimator(est)
    return D.max(axis=1) if est == "max" else D.mean(axis=1)


def score_batch(
    X: np.ndarray, U: ProjectionSet, stats: RpoStats, est: Estimator
) -> np.ndarray:
    """Outlyingness of each row of ``X``; nonnegative, one score per row."""
    return reduce_distances(projected_distances(project(X, U), stats), est)


def center_distances(Z: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of each latent row to the hypersphere center."""
    return np.sum((Z - center) ** 2, axis=1)


def score(x: np.ndarray, U: ProjectionSet, stats: RpoStats, est: Estimator) -> float:
    """Outlyingness of a single d-vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a d-vector, got shape {x.shape}")
    return float(score_batch(x[np.newaxis, :], U, stats, est)[0])


def depth(outlyingness):
    """Center-outward depth ``1 / (1 + outlyingness)`` in (0, 1]."""
    o = np.asarray(outlyingness, dtype=np.float64)
    if np.any(o < 0):
        raise ValueError("outlyingness must be nonnegative")
    result = 1.0 / (1.0 + o)
    return float(result) if result.ndim == 0 else result
