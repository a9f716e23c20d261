"""Shallow outlyingness scoring on top of a frozen projection set.

Fit stage (training data only): for 1-D projections, store the median and
MAD of each projection's coordinates; the MAD is clamped from below by
``EPS_FLOOR`` so degenerate projections cannot divide by ~0. For
multidimensional projections, store the componentwise median and the
inverse of the ridge-regularized sample covariance of the projected
training points. Deep RPO refits these every batch, so the medians come
from one in-place sort of a C-ordered (projections, rows) buffer, which the
MAD then reuses for the absolute deviations and a second sort; the results
equal ``np.median`` bit for bit.

Score stage: a query's per-projection normalized distance is
``|u^T x - med| / mad`` in the 1-D case and the robust Mahalanobis
distance ``sqrt((u^T x - med)^T C^-1 (u^T x - med))`` otherwise. The
estimator reduces across projections with either ``max`` (worst-case
outlyingness) or ``mean``. Scores map to a center-outward depth in (0, 1]
via ``1 / (1 + score)``.

Scoring runs over row blocks, and ``row_blocks`` is the one place that
sets them: ``SCORE_BLOCK_ROWS`` = 384 rows each, and a remainder of fewer
rows joins the last block, so every block has 384 to 767 rows and any n
below 768 is one block. ``score_batch`` projects, takes distances and
reduces one block of rows at a time into a preallocated (n,) score array,
so it never holds the (n, p, m) projection of all n rows. A checkpoint's
scorer (``model_io.ScoringModel``) runs its whole pipeline over the same
blocks, so each block it hands to ``score_batch`` is one block there. On
one BLAS thread the ``score_batch`` scores equal the one-call form
``reduce_distances(projected_distances(project(X, U), stats), est)`` bit
for bit. Every step but the projection's matmul works row by row; OpenBLAS
(measured with 0.3.31's x86-64 Haswell kernels) gives that matmul the same
bits for a block of 192 * k rows as for one call over all rows, at m = 1
and m > 1, and 384 = 2 * 192. A short block (a remainder left on its own)
takes its small-row path and changes bits, and so do blocks of 1,000,
1,024 or 4,096 rows. On more BLAS threads the one-call matmul splits its
rows among the threads, not as the blocks do, so no bit equality is
claimed there.
``projected_distances`` takes an ``out=`` array: for m = 1 it subtracts,
takes ``abs`` and divides in that one array, so ``score_batch``, which owns
each block's projection and reads it only once, passes the projection
itself: a block then holds one (rows, p) float64 array, not the
projection plus three temporaries. The training loss reads its projection
again for the gradient, so it passes no ``out``.

At m > 1 each projection's covariance is ``E_p^T S E_p``, with ``E_p``
the (d, m) map and ``S = X_c^T X_c / (n - 1)`` the (d, d) covariance of the
rows ``X`` that ``T = project(X, U)`` projects. That is O(n d^2 + p d^2 m)
work, where a sum over the (n, p, m) projection is O(n p m^2), and it makes
no copy of ``T``. It is the faster form while d is small: the deep-rpo
latents (d = 8 by default), and shallow inputs up to about d = 128 at
n = 540, p = 1000. From about d = 256 the ``E_p^T S`` product outweighs
the sum over the projection, and the fit is slower (measured in
CHANGES.md). ``X_c^T X_c`` and ``E_p^T S`` are BLAS products, so the
last bits differ from the plain einsum ``"npi,npj->pij"`` over the centred
``T``, which the tests keep as the oracle. The contract is a
backward-error bound: each covariance entry lies within 1e-12 of the
oracle's, relative to ``|E_p|^T (|X|^T |X|) |E_p| / (n - 1)``, the same
form over absolute, uncentred rows (``MDIM_RTOL`` in
``tests/test_mdim_kernels.py``). A bound relative to the centred form
would not hold for rows far from the origin: centring loses the offset's
digits in both forms. On rows 1e3 from the origin with a spread of 1e-3
the two differ by up to 4.5e-10 of the centred form, and 2e-22 of the
uncentred one. The medians are still read from ``T`` and equal
``np.median`` bit for bit; the ridge, the inverse and the symmetrization
act on the covariance as before.

The quadratic form copies the residuals once to (m, n, p), so each R[i] is
a contiguous (n, p) plane, and adds into one (n, p) sum, i-major, the
diagonal term ``(R[i] * C[i, i]) * R[i]`` and then ``(R[i] * (2 * C[i, j]))
* R[j]`` for each j > i (``C`` the (m, m, p) inverse covariances, symmetric
to the bit): m(m + 1) / 2 terms instead of the m * m of the plain form
``"npi,pij,npj->np"``. Its last bits differ from that form's, so it is held
to the same kind of bound: each squared distance lies within 1e-12 of the
einsum's, relative to ``sum |R[i]| |C[i, j]| |R[j]|`` over all i, j. Its
result does not depend on the layout of ``T``, and it never writes ``T``.

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

from collections.abc import Iterator
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from .errors import NumericError
from .projections import ProjectionSet, project

Estimator = Literal["max", "mean"]

EPS_FLOOR = 1e-6  # lower bound of each m = 1 MAD
RIDGE = 1e-6  # added to each m > 1 projected covariance before inverting
SCORE_BLOCK_ROWS = 384  # rows per scoring block (see the module docstring)


class Method(NamedTuple):
    """What a method is made of; every rule that tells methods apart reads this."""

    encoder: bool  # trains an encoder and scores its latents
    center: bool  # scores by distance to a latent center, not by projections
    estimator: Estimator | None  # reduces projection distances; None with a center


METHODS = {
    "rpo-max": Method(encoder=False, center=False, estimator="max"),
    "rpo-mean": Method(encoder=False, center=False, estimator="mean"),
    "deep-svdd": Method(encoder=True, center=True, estimator=None),
    "deep-rpo-max": Method(encoder=True, center=False, estimator="max"),
    "deep-rpo-mean": Method(encoder=True, center=False, estimator="mean"),
}


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

    def __post_init__(self):
        if (self.mad is None) == (self.inv_cov is None):
            raise ValueError("exactly one of mad and inv_cov must be set")

    @property
    def p(self) -> int:
        return self.med.shape[0]


def fit_rpo(X_train: np.ndarray, U: ProjectionSet) -> RpoStats:
    """Fit per-projection robust statistics on the training set.

    Raises ``ValueError`` on an empty training set and ``NumericError`` if a
    ridge-regularized covariance still fails to invert.
    """
    X_train = np.asarray(X_train, dtype=np.float64)
    if X_train.ndim != 2 or X_train.shape[0] == 0:
        raise ValueError("empty training set")
    return fit_rpo_projected(project(X_train, U), X_train, U)


def fit_rpo_projected(T: np.ndarray, X: np.ndarray, U: ProjectionSet) -> RpoStats:
    """Fit statistics from ``T = project(X, U)``, shape (n, p, m).

    The medians (and m = 1 MADs) are read from ``T``; at m > 1 each
    projection's covariance is taken from the rows ``X`` and the maps of
    ``U`` (see the module docstring). Raises ``ValueError`` when ``X`` or
    ``U`` does not fit ``T``.
    """
    n, p, m = T.shape
    if (U.p, U.m) != (p, m):
        raise ValueError(f"T holds {p} projections to m={m}, the maps {U.p} to m={U.m}")
    if X.shape != (n, U.d):
        raise ValueError(f"X must have shape {(n, U.d)} to fit T and the maps, got {X.shape}")
    if n == 0:
        raise ValueError("empty training set")
    if m == 1:
        # a C-ordered (p, n) copy: every sort runs along contiguous rows, and
        # sorting it in place never writes to T
        buf = np.array(T[:, :, 0].T, order="C")
        med = _sort_rows_median(buf)
        # the MAD is order-free, so it reuses the sorted buffer in place
        np.subtract(buf, med[:, np.newaxis], out=buf)
        np.abs(buf, out=buf)
        mad = np.maximum(_sort_rows_median(buf), EPS_FLOOR)
        return RpoStats(med=med, mad=mad, inv_cov=None)

    med = _sort_rows_median(np.array(T.reshape(n, p * m).T, order="C")).reshape(p, m)
    cov = _projected_covariance(X, U) + RIDGE * np.eye(m)
    try:
        inv_cov = np.linalg.inv(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"projected covariance not invertible: {exc}") from exc
    if not np.all(np.isfinite(inv_cov)):
        raise NumericError("projected covariance inverse is not finite")
    inv_cov = 0.5 * (inv_cov + np.transpose(inv_cov, (0, 2, 1)))
    return RpoStats(med=med, mad=None, inv_cov=inv_cov)


def _projected_covariance(X: np.ndarray, U: ProjectionSet) -> np.ndarray:
    """Each projection's covariance ``E_p^T S E_p``, shape (p, m, m).

    ``S`` is the (d, d) covariance of the rows of ``X`` (module docstring).
    ``E_p^T S`` for every p is one BLAS product of the maps stacked m-major,
    (p * m, d), with ``S``; its transpose is ``S E_p``, as ``S`` is symmetric.
    (Multiplying the C-ordered ``E_p^T S`` by ``E_p`` instead raised the
    benchmark's peak RSS by 1 MB.)
    """
    p, d, m = U.entries.shape
    Xc = X - np.mean(X, axis=0)
    S = (Xc.T @ Xc) / max(X.shape[0] - 1, 1)
    Et = np.ascontiguousarray(U.entries.transpose(0, 2, 1)).reshape(p * m, d)
    ES = (Et @ S).reshape(p, m, d)
    return np.matmul(U.entries.transpose(0, 2, 1), ES.transpose(0, 2, 1))


def _sort_rows_median(buf: np.ndarray) -> np.ndarray:
    """Median of each row of ``buf``, shape (rows, n); sorts ``buf`` in place.

    Equals ``np.median(buf, axis=1)`` bit for bit: the ``np.mean`` of the
    middle one or two order statistics (``np.mean`` even for one, because it
    turns -0.0 into +0.0 as ``np.median`` does), and a row holding a NaN,
    which sorts last, takes that NaN as its median.
    """
    buf.sort(axis=1)
    n = buf.shape[1]
    med = np.mean(buf[:, (n - 1) // 2 : n // 2 + 1], axis=1)
    last = buf[:, -1]
    np.copyto(med, last, where=np.isnan(last))
    return med


def projected_distances(
    T: np.ndarray, stats: RpoStats, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-projection normalized distances, shape (n, p), from projected coords.

    With ``out`` (float64, shape (n, p)) the distances are written into it
    and it is returned; it may be ``T[:, :, 0]`` of an m = 1 ``T`` the caller
    no longer needs. Without ``out``, ``T`` is never written.
    """
    if T.shape[1] != stats.p:
        raise ValueError(f"stats fitted for p={stats.p}, got p={T.shape[1]}")
    if stats.mad is not None:
        if T.shape[2] != 1:
            raise ValueError("1-D stats applied to multidimensional projections")
        D = np.subtract(T[:, :, 0], stats.med, out=out)
        np.abs(D, out=D)
        return np.divide(D, stats.mad, out=D)
    if T.shape[2] != stats.med.shape[1]:
        raise ValueError(
            f"stats fitted for m={stats.med.shape[1]}, got m={T.shape[2]}"
        )
    # each distinct pair once, off-diagonal terms doubled (see the module docstring)
    R = np.array(T.transpose(2, 0, 1), order="C")
    R -= stats.med.T[:, np.newaxis, :]
    C = np.ascontiguousarray(stats.inv_cov.transpose(1, 2, 0))  # (m, m, p)
    quad = np.zeros(T.shape[:2])
    term = np.empty_like(quad)
    m = R.shape[0]
    for i in range(m):
        for j in range(i, m):
            np.multiply(R[i], C[i, j] if i == j else 2.0 * C[i, j], out=term)
            term *= R[j]
            quad += term
    np.maximum(quad, 0.0, out=quad)
    return np.sqrt(quad, out=quad if out is None else out)


def reduce_distances(D: np.ndarray, est: Estimator) -> np.ndarray:
    if est not in ("max", "mean"):
        raise ValueError(f"estimator must be 'max' or 'mean', got {est!r}")
    return D.max(axis=1) if est == "max" else D.mean(axis=1)


def row_blocks(n: int) -> Iterator[slice]:
    """The scoring blocks of ``n`` rows, in order: ``SCORE_BLOCK_ROWS`` rows each.

    A remainder of fewer rows joins the last block, so every block has 384
    to 767 rows and any n below 768 (0 included) is one block.
    """
    blocks = max(1, n // SCORE_BLOCK_ROWS)
    for i in range(blocks):
        start = i * SCORE_BLOCK_ROWS
        yield slice(start, n if i == blocks - 1 else start + SCORE_BLOCK_ROWS)


def score_batch(
    X: np.ndarray, U: ProjectionSet, stats: RpoStats, est: Estimator
) -> np.ndarray:
    """Outlyingness of each row of ``X``; nonnegative, one score per row.

    Rows are projected and reduced one block at a time, so no (n, p, m)
    projection of all rows is held. On one BLAS thread the scores equal the
    one-call form bit for bit (see the module docstring).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    scores = np.empty(X.shape[0])
    for rows in row_blocks(X.shape[0]):
        T = project(X[rows], U)
        # T is a fresh array no caller sees, so for m = 1 the distances may
        # overwrite it: the only (rows, p) array then is the projection itself
        out = T[:, :, 0] if U.m == 1 else None
        scores[rows] = reduce_distances(projected_distances(T, stats, out=out), est)
    return scores


def center_distances(Z: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of each latent row to the hypersphere center."""
    return np.sum((Z - center) ** 2, axis=1)


def depth(outlyingness):
    """Center-outward depth ``1 / (1 + outlyingness)`` in (0, 1]."""
    o = np.asarray(outlyingness, dtype=np.float64)
    if np.any(o < 0):
        raise ValueError("outlyingness must be nonnegative")
    result = 1.0 / (1.0 + o)
    return float(result) if result.ndim == 0 else result
