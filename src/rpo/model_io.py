"""The scorer of a trained method and its checkpoint, the one persisted format.

A :class:`ScoringModel` is everything needed to score new rows: the
standardizer fitted on the train split, the encoder weights (deep methods),
and the score head, which is either the hypersphere center (deep-svdd) or
the frozen projection set with its fitted statistics (projection methods).
A checkpoint is one ``.npz`` archive of those arrays plus a format version
and the method name. Arrays are stored raw, so save/load round-trips
bit-exactly.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass

import numpy as np

from .encoder import Encoder
from .errors import DataError
from .projections import ProjectionSet
from .scoring import RpoStats, center_distances, method_estimator, score_batch

CHECKPOINT_VERSION = 1


@dataclass(frozen=True, eq=False)
class ScoringModel:
    """Standardizer -> optional encoder -> score head.

    The head is ``center`` when it is set, otherwise ``projections`` with
    ``stats`` reduced by the method's estimator.
    """

    method: str
    scaler_mean: np.ndarray
    scaler_std: np.ndarray
    encoder: Encoder | None = None
    center: np.ndarray | None = None
    projections: ProjectionSet | None = None
    stats: RpoStats | None = None

    @property
    def input_dim(self) -> int:
        return self.scaler_mean.shape[0]

    @property
    def estimator(self) -> str:
        return method_estimator(self.method)

    def score_standardized(self, Z: np.ndarray) -> np.ndarray:
        """Outlyingness per row already standardized with this model's scaler."""
        if self.encoder is not None:
            Z, _ = self.encoder.forward(Z)
        if self.center is not None:
            return center_distances(Z, self.center)
        return score_batch(Z, self.projections, self.stats, self.estimator)

    def score_rows(self, X: np.ndarray) -> np.ndarray:
        """Outlyingness per raw input row (standardization applied here)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise DataError(
                f"expected {self.input_dim} feature columns, got "
                f"{X.shape[1] if X.ndim == 2 else 'non-2D input'}"
            )
        if X.shape[0] == 0:
            return np.zeros(0)
        return self.score_standardized((X - self.scaler_mean) / self.scaler_std)


def save_model_checkpoint(path, model: ScoringModel) -> None:
    payload: dict[str, np.ndarray] = {
        "version": np.int64(CHECKPOINT_VERSION),
        "method": np.str_(model.method),
        "scaler_mean": model.scaler_mean,
        "scaler_std": model.scaler_std,
    }
    if model.encoder is not None:
        payload["layer_dims"] = np.asarray(model.encoder.layer_dims, dtype=np.int64)
        payload["slope"] = np.float64(model.encoder.slope)
        for l, W in enumerate(model.encoder.weights):
            payload[f"W{l}"] = W
    if model.center is not None:
        payload["center"] = model.center
    if model.projections is not None:
        payload["proj_entries"] = model.projections.entries
        payload["proj_seed"] = np.int64(model.projections.seed)
    if model.stats is not None:
        payload["stats_med"] = model.stats.med
        payload["eps_floor"] = np.float64(model.stats.eps_floor)
        if model.stats.mad is not None:
            payload["stats_mad"] = model.stats.mad
        else:
            payload["stats_inv_cov"] = model.stats.inv_cov
    np.savez(path, **payload)


def load_model_checkpoint(path) -> ScoringModel:
    try:
        # np.load leaves a file it opened itself open when the archive is
        # damaged, and returns a plain .npy file as an array, not an archive
        with open(path, "rb") as fh, np.lib.npyio.NpzFile(fh) as data:
            return _unpack(data)
    except KeyError as exc:  # a member the format requires is missing
        raise DataError(f"checkpoint {path} lacks {exc}") from exc
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        # BadZipFile: not an archive (an empty or .npy file), a truncated
        # archive, or a member that fails its CRC; ValueError: a member that
        # is not a whole .npy array; EOFError: a member cut short
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc


def _unpack(data) -> ScoringModel:
    version = int(data["version"])
    if version != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    encoder = None
    if "layer_dims" in data:
        dims = data["layer_dims"].tolist()
        weights = [data[f"W{l}"] for l in range(len(dims) - 1)]
        encoder = Encoder(weights, slope=float(data["slope"]))
    projections = None
    if "proj_entries" in data:
        projections = ProjectionSet(entries=data["proj_entries"], seed=int(data["proj_seed"]))
    stats = None
    if "stats_med" in data:
        stats = RpoStats(
            med=data["stats_med"],
            mad=data["stats_mad"] if "stats_mad" in data else None,
            inv_cov=data["stats_inv_cov"] if "stats_inv_cov" in data else None,
            eps_floor=float(data["eps_floor"]),
        )
    return ScoringModel(
        method=str(data["method"]),
        scaler_mean=data["scaler_mean"],
        scaler_std=data["scaler_std"],
        encoder=encoder,
        center=data["center"] if "center" in data else None,
        projections=projections,
        stats=stats,
    )
