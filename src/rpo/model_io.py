"""The scorer of a trained method and its checkpoint, the one persisted format.

A :class:`ScoringModel` is everything needed to score new rows: the
standardizer fitted on the train split, the encoder weights (deep methods),
and the score head, which is either the hypersphere center (deep-svdd) or
the frozen projection set with its fitted statistics (projection methods).
A scorer checks its parts when it is built, so one that exists fits its
method and scores every finite row to a finite value.

A scorer has one loop: for each block of ``scoring.row_blocks`` (384 to
767 rows; fewer rows are one block) it standardizes the block's rows, runs
``Encoder.forward`` on them and scores them with the head into one
preallocated (n,) array. Only one block's standardized rows, encoder
activations and projections exist at a time, so memory does not grow with
n. Each step but the encoder's matrix products works row by row. On one
BLAS thread the products of a block equal those of one call over all rows
bit for bit at the shipped encoder shapes ([16, 32, 16, 8] and
[36, 32, 16, 8], checked at every block edge), so those scores equal the
whole-input form bit for bit; at other layer shapes a block's product may
round differently, and the scores stay within a relative 1e-10 of it
(README "Numerics").

A checkpoint is one ``.npz`` archive of format version 2, holding only what
scoring reads: ``version``, ``method``, ``scaler_mean`` and ``scaler_std``;
``layer_dims`` and ``W0`` .. ``W{L-1}`` for an encoder; ``center`` for
deep-svdd; otherwise ``proj_entries``, ``stats_med`` and either
``stats_mad`` (m = 1) or ``stats_inv_cov`` (m > 1). Arrays are stored raw,
so save/load round-trips bit-exactly. A file of another version is refused;
rerunning the ``rpo bench`` config that wrote it writes the same model in
this format.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .encoder import Encoder
from .errors import DataError, NumericError
from .projections import ProjectionSet
from .scoring import (
    METHODS,
    RpoStats,
    Whitened,
    center_distances,
    row_blocks,
    score_batch,
    whiten,
)

CHECKPOINT_VERSION = 2


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
    # what the projection head scores with: ``stats`` at m = 1, their
    # whitened maps at m > 1, built once when the scorer is
    _head: RpoStats | Whitened | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        """Reject parts that do not fit the method or each other, or cannot score.

        Raises ``ValueError`` naming the part; ``load_model_checkpoint`` adds
        the file.
        """
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {tuple(METHODS)}")
        parts = METHODS[self.method]
        for part, needed in (("encoder", parts.encoder), ("center", parts.center),
                             ("projections", not parts.center), ("stats", not parts.center)):
            if (getattr(self, part) is not None) != needed:
                raise ValueError(
                    f"method {self.method!r} {'needs' if needed else 'takes no'} {part}"
                )
        width = self.scaler_mean.size
        space = width if self.encoder is None else self.encoder.latent_dim
        if self.encoder is not None and self.encoder.input_dim != width:
            raise ValueError(f"the encoder reads {self.encoder.input_dim} features, not {width}")
        # every array in the shape scoring reads it in, so none broadcasts
        shapes = {"scaler_mean": (width,), "scaler_std": (width,), "center": (space,)}
        if not parts.center:
            p, d, m = self.projections.entries.shape
            if d != space:
                raise ValueError(f"the projections map {d} dimensions, not {space}")
            if (self.stats.mad is None) != (m > 1):
                raise ValueError(f"m = {m} projections need stats.{'inv_cov' if m > 1 else 'mad'}")
            shapes.update({"stats.med": (p,) if m == 1 else (p, m), "stats.mad": (p,),
                           "stats.inv_cov": (p, m, m)})
        for name, shape in shapes.items():
            a = attrgetter(name)(self)
            if a is None:
                continue
            if a.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} holds a non-finite value")
            if name in ("scaler_std", "stats.mad") and not np.all(a > 0):
                raise ValueError(f"{name} must be > 0")
            if name == "stats.inv_cov" and not np.array_equal(a, a.transpose(0, 2, 1)):
                # the fit's 0.5 * (A + A^T) is symmetric to the bit
                raise ValueError(f"{name} must be symmetric")
        head = self.stats
        if head is not None and head.inv_cov is not None:
            # the scorer scores with the Cholesky factor that checks the inverse
            try:
                head = whiten(self.projections, head)
            except NumericError:
                raise ValueError("stats.inv_cov must be positive definite") from None
        object.__setattr__(self, "_head", head)

    @property
    def input_dim(self) -> int:
        return self.scaler_mean.shape[0]

    @property
    def estimator(self) -> str | None:
        return METHODS[self.method].estimator

    def score_standardized(self, Z: np.ndarray) -> np.ndarray:
        """Outlyingness per row already standardized with this model's scaler."""
        return self._score_blocks(Z, standardize=False)

    def score_rows(self, X: np.ndarray) -> np.ndarray:
        """Outlyingness per raw input row (standardization applied here)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise DataError(
                f"expected {self.input_dim} feature columns, got "
                f"{X.shape[1] if X.ndim == 2 else 'non-2D input'}"
            )
        return self._score_blocks(X, standardize=True)

    def _score_blocks(self, X: np.ndarray, standardize: bool) -> np.ndarray:
        """The one scoring loop: each block of rows runs the whole pipeline (module docstring)."""
        scores = np.empty(X.shape[0])
        for rows in row_blocks(X.shape[0]):
            Z = (X[rows] - self.scaler_mean) / self.scaler_std if standardize else X[rows]
            if self.encoder is not None:
                Z, _ = self.encoder.forward(Z)
            if self.center is not None:
                scores[rows] = center_distances(Z, self.center)
            else:
                scores[rows] = score_batch(Z, self.projections, self._head, self.estimator)
        return scores


def save_model_checkpoint(path, model: ScoringModel) -> None:
    payload: dict[str, np.ndarray] = {
        "version": np.int64(CHECKPOINT_VERSION),
        "method": np.str_(model.method),
        "scaler_mean": model.scaler_mean,
        "scaler_std": model.scaler_std,
    }
    if model.encoder is not None:
        payload["layer_dims"] = np.asarray(model.encoder.layer_dims, dtype=np.int64)
        for l, W in enumerate(model.encoder.weights):
            payload[f"W{l}"] = W
    if model.center is not None:
        payload["center"] = model.center
    if model.projections is not None:
        payload["proj_entries"] = model.projections.entries
    if model.stats is not None:
        payload["stats_med"] = model.stats.med
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
            version = int(data["version"])
            if version != CHECKPOINT_VERSION:
                raise DataError(
                    f"checkpoint {path} has format version {version}; this rpo reads "
                    f"version {CHECKPOINT_VERSION} (rerun the rpo bench config that wrote it)"
                )
            return _unpack(data)
    except KeyError as exc:  # a member the format requires is missing
        raise DataError(f"checkpoint {path} lacks {exc}") from exc
    except (OSError, ValueError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        # BadZipFile: not an archive (an empty or .npy file), a truncated
        # archive, or a member that fails its CRC; ValueError: a member that
        # is not a whole .npy array, or parts that make no scorer; TypeError:
        # a member of the wrong kind (text where numbers belong); EOFError: a
        # member cut short
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc


def _unpack(data) -> ScoringModel:
    encoder = None
    if "layer_dims" in data:
        dims = data["layer_dims"].tolist()
        encoder = Encoder([data[f"W{l}"] for l in range(len(dims) - 1)])
    entries = data.get("proj_entries")
    stats = None
    if "stats_med" in data:
        stats = RpoStats(
            med=data["stats_med"], mad=data.get("stats_mad"), inv_cov=data.get("stats_inv_cov")
        )
    return ScoringModel(
        method=str(data["method"]),
        scaler_mean=data["scaler_mean"],
        scaler_std=data["scaler_std"],
        encoder=encoder,
        center=data.get("center"),
        projections=None if entries is None else ProjectionSet(entries=entries),
        stats=stats,
    )
