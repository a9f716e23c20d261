"""Random projection sets: generation, application, dropout.

A projection set holds ``p`` maps from the ``d``-dimensional input (or
latent) space to an ``m``-dimensional output. Entries are drawn i.i.d.
standard normal; each output column is rescaled to unit Euclidean norm so
that for ``m = 1`` every projection vector lies on the unit sphere. The set
is frozen after construction: nothing here is ever trained.

Two dropout flavors exist. Projections dropout removes whole maps along the
p-channel; components dropout zeroes the same input dimensions in every
retained map (one selection along the d-channel), after which vectors are
re-normalized when ``m = 1``. Both use floor counts, so tiny rate*count is
a no-op. A dropout mask is drawn once, from the stream seed the caller
passes (a run passes its own ``dropout`` sub-seed), and stays fixed for the
whole run.
A set is persisted only as part of a scoring checkpoint (``model_io``), as
its raw entries: the seed that drew them is not kept, because no score
reads it.

``project`` is one matmul at every m. For m > 1 the maps are laid out as
one (p * m, d) matrix, projection-major (``ProjectionSet.maps_pm``: row
``k * m + i`` is ``E_k[:, i]``), built once per set. The product
``maps_pm @ X.T`` is a C-ordered (p * m, n) array, the layout in which
``scoring.fit_rpo_projected`` takes each coordinate's median over its n
values, and ``project`` returns its transpose as an (n, p, m) view, so the
fit takes the medians in place on contiguous rows and copies nothing. BLAS
sums over d in its own blocked order, not one product at a time in order
of d as the earlier ``einsum("nd,pdm->npm")`` did, so the last bits
differ. The contract is a backward-error bound: each coordinate lies
within 1e-12 of the einsum's value, relative to the same sum over absolute
values, ``|X| @ |E|`` (``MDIM_RTOL`` in ``tests/test_mdim_kernels.py``,
which keeps the einsum as its oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError
from .seeding import sub_rng

_UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ProjectionSet:
    """Immutable stack of ``p`` projection maps of shape (d, m)."""

    entries: np.ndarray  # (p, d, m) float64

    def __post_init__(self):
        e = self.entries
        if e.ndim != 3:
            raise ValueError(f"entries must have shape (p, d, m), got {e.shape}")
        p, d, m = e.shape
        if p < 1 or d < 1 or m < 1:
            raise ValueError(f"p, d, m must all be >= 1, got {e.shape}")
        if m > d:
            raise ValueError(f"projection output dim m={m} exceeds input dim d={d}")
        if not np.all(np.isfinite(e)):
            raise ValueError("projection entries must be finite")
        if m == 1:
            norms = np.linalg.norm(e[:, :, 0], axis=1)
            if np.any(np.abs(norms - 1.0) > _UNIT_NORM_TOL):
                raise ValueError("1-D projection vectors must have unit norm")
        e.setflags(write=False)

    @property
    def p(self) -> int:
        return self.entries.shape[0]

    @property
    def d(self) -> int:
        return self.entries.shape[1]

    @property
    def m(self) -> int:
        return self.entries.shape[2]

    @cached_property
    def maps_pm(self) -> np.ndarray:
        """The maps as one C-ordered (p * m, d) matrix; row ``k * m + i`` is ``E_k[:, i]``."""
        p, d, m = self.entries.shape
        maps = np.ascontiguousarray(self.entries.transpose(0, 2, 1)).reshape(p * m, d)
        maps.setflags(write=False)
        return maps


@dataclass(frozen=True)
class DropoutSpec:
    """Fixed-per-run dropout rates; rates strictly below 1."""

    components_rate: float = 0.0
    projections_rate: float = 0.0

    def __post_init__(self):
        for name in ("components_rate", "projections_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {rate}")


def generate_projections(d: int, m: int, p: int, seed: int) -> ProjectionSet:
    """Draw ``p`` standard-normal projection maps and normalize their columns.

    Drawing fills the (p, d, m) tensor in C order from one stream, so sets
    generated with the same seed are prefix-nested in ``p``.
    """
    if d < 1 or m < 1 or p < 1:
        raise ValueError(f"d, m, p must all be >= 1, got d={d}, m={m}, p={p}")
    rng = sub_rng(seed, "projections")
    entries = rng.standard_normal((p, d, m))
    return ProjectionSet(entries=_normalize_columns(entries))


def _normalize_columns(entries: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(entries, axis=1, keepdims=True)  # (p, 1, m)
    if np.any(norms == 0.0):
        raise DataError("degenerate dropout")
    return entries / norms


def project(X: np.ndarray, U: ProjectionSet) -> np.ndarray:
    """Project rows of ``X`` (n, d) through every map: output (n, p, m).

    C-ordered at m = 1; at m > 1 the transposed view of a C-ordered
    (p * m, n) product (see the module docstring).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if X.shape[1] != U.d:
        raise ValueError(f"X has {X.shape[1]} columns but projections expect d={U.d}")
    if U.m == 1:
        return (X @ U.entries[:, :, 0].T)[:, :, np.newaxis]
    # one product with projection-major rows (see the module docstring)
    return (U.maps_pm @ X.T).T.reshape(X.shape[0], U.p, U.m)


def apply_dropout(U: ProjectionSet, spec: DropoutSpec, seed: int) -> ProjectionSet:
    """Apply projections then components dropout, re-normalizing when m = 1.

    The dropped maps and dimensions are drawn from ``seed``.

    Raises ``DataError("degenerate dropout")`` if no projection would remain
    or some retained vector would become all-zero.
    """
    n_proj_drop = int(np.floor(spec.projections_rate * U.p))
    n_comp_drop = int(np.floor(spec.components_rate * U.d))
    if n_proj_drop == 0 and n_comp_drop == 0:
        return U
    if U.p - n_proj_drop < 1:
        raise DataError("degenerate dropout")

    rng = sub_rng(seed, "dropout")
    keep = np.ones(U.p, dtype=bool)
    if n_proj_drop > 0:
        keep[rng.choice(U.p, size=n_proj_drop, replace=False)] = False
    entries = U.entries[keep].copy()

    if n_comp_drop > 0:
        dropped_dims = rng.choice(U.d, size=n_comp_drop, replace=False)
        entries[:, dropped_dims, :] = 0.0
        if np.any(np.all(entries == 0.0, axis=1)):
            raise DataError("degenerate dropout")
        if U.m == 1:
            entries = _normalize_columns(entries)

    return ProjectionSet(entries=entries)
