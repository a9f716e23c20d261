"""Shallow outlyingness scoring on top of a frozen projection set.

Fit stage (training data only): for 1-D projections, store the median and
MAD of each projection's coordinates; the MAD is clamped from below by
``EPS_FLOOR`` so degenerate projections cannot divide by ~0. For
multidimensional projections, store the componentwise median and the
inverse Cholesky factor of the ridge-regularized sample covariance of the
projected training points. Deep RPO refits these every batch, so the medians come
from one in-place sort of a C-ordered (projections, rows) buffer, and the
MAD is selected from the same sorted rows without a second sort. On a
sorted row x of n values with ``c = n // 2``, the deviations below the
median, ``a_i = med - x[c-1-i]``, and above it, ``b_j = x[c+j] - med``, are
two ascending runs, and they equal ``|x - med|`` bit for bit, because IEEE
subtraction is sign-symmetric: ``med - x`` rounds to ``-(x - med)``. The
MAD needs order statistics (n - 1) // 2 and n // 2 of the two runs merged,
and both follow from one split point, found by a binary search of
``ceil(log2(c))`` + 1 steps over all projections at once; each step takes
two entries per row from the sorted buffer and compares their deviations.
The MAD is then the order statistic, or the mean of the two, as
``np.median`` takes it, so the medians and MADs equal ``np.median``'s bit for
bit, ties, signed zeros and infinities included, and are NaN wherever
``np.median`` is NaN. A NaN's bits are not kept: the sort writes numpy's
positive NaN, where ``np.median`` returns the input's NaN, which is
negative when x86 arithmetic made it (``inf - inf``).

Score stage: a query's per-projection normalized distance is
``|u^T x - med| / mad`` in the 1-D case and the robust Mahalanobis
distance ``sqrt((u^T x - med)^T C^-1 (u^T x - med))`` otherwise, taken
through whitened maps (below). The
estimator reduces across projections with either ``max`` (worst-case
outlyingness) or ``mean``. Scores map to a center-outward depth in (0, 1]
via ``1 / (1 + score)``.

Scoring runs over row blocks, and ``row_blocks`` is the one place that
sets them: ``SCORE_BLOCK_ROWS`` = 384 rows each, and a remainder of fewer
rows joins the last block, so every block has 384 to 767 rows and any n
below 768 is one block. ``score_batch`` projects (at m > 1 through the
whitened maps, which it builds once per call), takes distances and
reduces one block of rows at a time into a preallocated (n,) score array,
so it never holds the (n, p, m) projection of all n rows. A checkpoint's
scorer (``model_io.ScoringModel``) runs its whole pipeline over the same
blocks, so each block it hands to ``score_batch`` is one block there. On
one BLAS thread the ``score_batch`` scores equal the one-call form bit for
bit: ``reduce_distances(projected_distances(project(X, U), stats), est)``
at m = 1 and, with ``W = whiten(U, stats)``,
``reduce_distances(projected_distances(whitened_residuals(X, W), W), est)``
at m > 1. Every step but the projection's matmul works row by row; OpenBLAS
0.3.31 gives that matmul the same bits for a block of 192 * k rows as for
one call over all rows, at m = 1 and m > 1, and 384 = 2 * 192. That was
measured with its SkylakeX kernels, the ones it picks on an AVX-512 host;
the block tests pass under its Haswell kernels (``OPENBLAS_CORETYPE=Haswell``)
too. A short block (a remainder left on its own)
takes its small-row path and changes bits, and so do blocks of 1,000,
1,024 or 4,096 rows. On more BLAS threads the one-call matmul splits its
rows among the threads, not as the blocks do, so no bit equality is
claimed there.
``projected_distances`` takes an ``out=`` array: for m = 1 it subtracts,
takes ``abs`` and divides in that one array, and for m > 1 it adds the
squares there, so ``score_batch``, which owns each block's projection and
reads it only once, passes the projection's first plane itself: at m = 1 a
block then holds one (rows, p) float64 array, not the projection plus
three temporaries. The training loss reads its projection again for the
gradient, so it passes no ``out``.

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
``np.median`` bit for bit (NaN wherever it is NaN). ``project``'s ``T`` is
a view of a C-ordered (p * m, n) array (see ``projections``), whose rows
are the coordinates, so the fit takes the medians in place on those rows
and copies nothing: it consumes ``T``, permuting each coordinate's n values
among themselves. A ``T`` in another layout, or sharing memory with
``X``, is copied into that layout first. Below ``MEDIAN_SELECT_MIN_N``
values a row the medians come from one sort of all rows
(``_sort_rows_median``); from it up, from one ``partition`` at ``n // 2``
(``_select_rows_median``), which is faster there though it leaves the rows
unsorted; the m > 1 fit needs no sorted row for a MAD. The selection finds
a NaN median by one more pass, a max over the right half of each row. The
fit skips that pass when its own inputs prove ``T`` NaN-free
(``_projects_finite``): ``X`` is finite and ``d * max|X| * max|E|`` stays
below half the largest float64, so no product or sum of d products
overflows. Rows that fail the bound (a NaN, an infinity, or values near
the float64 maximum) keep the pass, so the medians are the same on every
input.

The whitening factor takes no LAPACK call. ``cholesky`` factors the
ridged covariances ``C_p = L_p L_p^T``, vectorised over the p projections
with a loop over the m(m+1)/2 entries, and ``_lower_inverse`` inverts each
factor by forward substitution. The fit keeps ``Li_p = L_p^-1``, lower
triangular with a positive diagonal, as ``RpoStats.inv_chol``; the inverse
covariance it stands for, ``Li_p^T Li_p``, is never formed. The contract
is a backward-error bound, per projection, in the inf-norm:
``||Li_p C_p Li_p^T - I|| <= 1e-12 ||Li_p|| ||C_p|| ||Li_p^T||``
(``factor_deviation`` in ``tests/test_mdim_kernels.py``), and the implied
inverse keeps the bound the formed inverse was held to,
``||C_p Li_p^T Li_p - I|| <= 1e-12 ||C_p|| ||Li_p^T Li_p||``
(``inverse_deviation``). A bound relative to ``|C_p| |Li_p^T Li_p|``
would not hold: where ``C_p`` has an eigenvalue near the ridge, the two
are large in complementary entries, and LAPACK's own inverse misses that
bound entry by entry by 3.4e-12. ``cholesky`` refuses a pivot that is not
> 0, so a covariance that is not positive definite, or holds a NaN that
reaches a pivot, raises ``NumericError``. That is what reference
LAPACK's ``potrf`` refuses; numpy's OpenBLAS ``potrf`` lets a NaN pivot
through as a NaN factor.

At m > 1 a distance is taken through whitened maps. ``whiten`` folds each
factor into its map and median once per fit: ``E'_p = E_p Li_p^T`` and
``med'_p = Li_p med_p``. The distance is then ``|x E'_p - med'_p|``,
which is ``|Li_p (E_p^T x - med_p)|``, the Mahalanobis distance under
``Li_p^T Li_p``; it is the same kind of work as at m = 1:
``whitened_residuals`` takes one BLAS product of the rows with the maps,
laid out m-major as one (d, m * p) matrix (column ``i * p + k`` is
``E'_k[:, i]``), and subtracts ``med'`` in place from that fresh product;
``projected_distances`` adds the squares of its m planes, one (n, p)
plane at a time. The training loss reads the same residuals again for its
gradient. The fit's factor and a checkpoint's are folded in as they are:
a checkpoint's scorer checks that its factor is finite, lower triangular
and positive on the diagonal (so ``Li_p^T Li_p`` is positive definite)
and builds its whitened maps once, when it is loaded.

The whitened distance rounds differently from the plain quadratic form
``"npi,pij,npj->np"`` over ``T - med`` with ``Li_p^T Li_p``, which the
tests keep as the oracle, and a row at the median gets a distance of
rounding size, not 0. The contract is a backward-error bound: each
squared distance lies within 1e-12 of the oracle's, relative to the
whitened form over absolute values,
``sum_k (sum_i |Li_ki| (|x| |E_p| + |med_p|)_i)^2`` (``MDIM_RTOL`` and
``whitened_scale`` in ``tests/test_mdim_kernels.py``). A bound relative
to ``sum |R_i| |(Li_p^T Li_p)_ij| |R_j|`` over the residuals ``R`` would
not hold: it
is 0 at the median, and the whitened product rounds relative to the rows,
not to their residuals. A bound relative to the largest distance would not
hold either: on latents within 1e-7 to 1e-4 of a 2-D subspace, where
``Li`` is large, the two forms differ by 9.3e-12 to 7.2e-11 of it.

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
MEDIAN_SELECT_MIN_N = 448  # from this many values a row, m > 1 medians select, not sort


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
    ``mad`` (shape (p,), already floored) and ``inv_chol`` (shape (p, m, m))
    is set. ``inv_chol[k]`` is ``Li_k = L_k^-1`` for the Cholesky factor
    ``L_k`` of projection k's ridged covariance: lower triangular with a
    positive diagonal, so ``Li_k^T Li_k`` is that covariance's inverse.
    """

    med: np.ndarray
    mad: np.ndarray | None
    inv_chol: np.ndarray | None

    def __post_init__(self):
        if (self.mad is None) == (self.inv_chol is None):
            raise ValueError("exactly one of mad and inv_chol must be set")

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
    ``U`` (see the module docstring). At m = 1 ``T`` is left as it was; at
    m > 1 the fit consumes it, permuting each coordinate's values in place
    when ``T`` is ``project``'s layout. ``X`` is never written. Raises
    ``ValueError`` when ``X`` or ``U`` does not fit ``T``.
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
        mad = np.maximum(_sorted_rows_mad(buf, med), EPS_FLOOR)
        return RpoStats(med=med, mad=mad, inv_chol=None)

    # the medians permute the rows of the (p * m, n) layout in place: they
    # are T itself when T is ``project``'s view of that layout
    rows = T.reshape(n, p * m).T
    if not rows.flags.c_contiguous or np.may_share_memory(rows, X):
        rows = np.array(rows, order="C")
    if n >= MEDIAN_SELECT_MIN_N:
        med = _select_rows_median(rows, nan_free=_projects_finite(X, U))
    else:
        med = _sort_rows_median(rows)
    med = med.reshape(p, m)
    Li = _lower_inverse(cholesky(_projected_covariance(X, U) + RIDGE * np.eye(m)))
    if not np.all(np.isfinite(Li)):
        raise NumericError("projected covariance inverse is not finite")
    return RpoStats(med=med, mad=None, inv_chol=Li)


def _projects_finite(X: np.ndarray, U: ProjectionSet) -> bool:
    """Whether ``project(X, U)`` is sure to hold no NaN, read from ``X`` and the maps alone.

    Each coordinate is a sum of d products of an entry of ``X`` and one of
    a map, so while ``d * max|X| * max|E|`` stays below half the largest
    float64 no product or partial sum can overflow, and a finite ``X``
    projects to finite values. A NaN or infinite entry makes the bound NaN
    or infinite, and it fails.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        bound = U.d * np.max(np.abs(X)) * np.max(np.abs(U.entries))
    return bool(bound < np.finfo(np.float64).max / 2)


def _projected_covariance(X: np.ndarray, U: ProjectionSet) -> np.ndarray:
    """Each projection's covariance ``E_p^T S E_p``, shape (p, m, m).

    ``S`` is the (d, d) covariance of the rows of ``X`` (module docstring).
    ``E_p^T S`` for every p is one BLAS product of the projection-major
    (p * m, d) maps ``U.maps_pm`` with ``S``; its transpose is ``S E_p``, as
    ``S`` is symmetric. (Multiplying the C-ordered ``E_p^T S`` by ``E_p``
    instead raised the benchmark's peak RSS by 1 MB.)
    """
    p, d, m = U.entries.shape
    Xc = X - np.mean(X, axis=0)
    S = (Xc.T @ Xc) / max(X.shape[0] - 1, 1)
    ES = (U.maps_pm @ S).reshape(p, m, d)
    return np.matmul(U.entries.transpose(0, 2, 1), ES.transpose(0, 2, 1))


def cholesky(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors ``L`` of a (k, m, m) stack, ``A_k = L_k L_k^T``.

    Reads the lower triangle only, as ``np.linalg.cholesky`` does, and
    takes one entry of every factor at a time: m(m+1)/2 vector operations
    over the stack. Raises ``NumericError`` when a pivot is not > 0: the
    projected covariance is not positive definite, or a NaN reached it.
    """
    m = A.shape[-1]
    L = np.zeros_like(A)
    for j in range(m):
        for i in range(j, m):
            Lij = L[:, i, j]
            np.copyto(Lij, A[:, i, j])
            for t in range(j):
                Lij -= L[:, i, t] * L[:, j, t]
            if i > j:
                Lij /= L[:, j, j]
            elif not np.all(Lij > 0.0):
                raise NumericError("projected covariance is not positive definite")
            else:
                np.sqrt(Lij, out=Lij)
    return L


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """The inverse of each lower-triangular factor of a (k, m, m) stack, by forward substitution."""
    m = L.shape[-1]
    Li = np.zeros_like(L)
    for j in range(m):
        Li[:, j, j] = 1.0 / L[:, j, j]
        for i in range(j + 1, m):
            s = L[:, i, j] * Li[:, j, j]
            for t in range(j + 1, i):
                s += L[:, i, t] * Li[:, t, j]
            Li[:, i, j] = -s / L[:, i, i]
    return Li


def _sort_rows_median(buf: np.ndarray) -> np.ndarray:
    """Median of each row of ``buf``, shape (rows, n); sorts ``buf`` in place.

    Equals ``np.median(buf, axis=1)`` bit for bit, and is NaN wherever it
    is NaN: the ``np.mean`` of the middle one or two order statistics
    (``np.mean`` even for one, because it turns -0.0 into +0.0 as
    ``np.median`` does), and a row holding a NaN, which sorts last, takes
    that NaN as its median.
    """
    buf.sort(axis=1)
    n = buf.shape[1]
    med = np.mean(buf[:, (n - 1) // 2 : n // 2 + 1], axis=1)
    last = buf[:, -1]
    np.copyto(med, last, where=np.isnan(last))
    return med


def _select_rows_median(buf: np.ndarray, nan_free: bool = False) -> np.ndarray:
    """Median of each row of ``buf``, shape (rows, n); partitions ``buf`` in place.

    Equals ``np.median(buf, axis=1)`` bit for bit, and is NaN wherever it
    is NaN, from one ``partition`` at ``c = n // 2``: order statistic c
    lands at column c and the smaller ones left of it, so an even row's
    lower middle statistic is the left part's max. The two add as
    ``np.mean`` adds them, from +0.0, so -0.0 and -0.0 give +0.0. A NaN
    partitions as the largest value, so a row holding one has it in the
    right part, whose max gives it. ``nan_free=True`` says ``buf`` holds no
    NaN, and skips that max, a pass over half of ``buf``; with a NaN in
    ``buf`` the medians are then wrong.
    """
    n = buf.shape[1]
    c = n // 2
    buf.partition(c, axis=1)
    if n % 2:
        med = buf[:, c] + 0.0
    else:
        med = np.max(buf[:, :c], axis=1)
        med += 0.0
        med += buf[:, c]
        med /= 2
    if not nan_free:
        top = np.max(buf[:, c:], axis=1)
        np.copyto(med, top, where=np.isnan(top))
    return med


def _sorted_rows_mad(buf: np.ndarray, med: np.ndarray) -> np.ndarray:
    """Unfloored MAD of each sorted row of ``buf`` about its median ``med``.

    Equals ``np.median(np.abs(buf - med[:, None]), axis=1)`` bit for bit,
    and is NaN wherever it is NaN, without a second sort, and allocates
    nothing of ``buf``'s size (see the module docstring). A row x splits at
    ``c = n // 2`` into two ascending runs of deviations,
    ``a_i = med - x[c-1-i]`` and ``b_j = x[c+j] - med``;
    a binary search over all rows at once finds ``i``, how many of the
    ``t = (n - 1) // 2 + 1`` smallest deviations come from ``a``. A row with
    a NaN or infinite median needs no case of its own: its NaN deviations
    (an entry at an infinite median) and infinite ones reach the result
    through the comparisons, ``maximum``, ``minimum`` and the masks as they
    reach ``np.median``'s.
    """
    rows, n = buf.shape
    c, t = n // 2, (n + 1) // 2
    flat = buf.ravel()
    start = np.arange(rows) * n
    top = start + (c - 1)  # flat index of x[c-1-i], at i = 0 so far
    # a_j is among the t smallest when a_j < b_{t-1-j}: true below i, false
    # from i on; each step halves the window of j that holds i
    length = c
    while length > 1:
        half = length // 2
        q = top - half
        np.subtract(top, half, out=top, where=med - flat.take(q) < flat.take(q + t) - med)
        length -= half
    if c:
        top -= med - flat.take(top) < flat.take(top + t) - med
    # order statistic t - 1 is the larger of a_{i-1} and b_{t-1-i}; past
    # either run's end the index lands on a deviation of the other sign, <= 0
    mad = np.maximum(med - flat.take(top + 1), flat.take(top + t) - med)
    if n % 2 == 0:
        # order statistic t is the smaller of a_i and b_{t-i}, which lie
        # past their run's end at i = c and at i = 0
        i = start + (c - 1) - top
        below = np.where(i < c, med - flat.take(top, mode="clip"), np.inf)
        above = np.where(i > 0, flat.take(top + t + 1, mode="clip") - med, np.inf)
        mad += np.minimum(below, above)
        mad /= 2
    # a -0.0 or a NaN carried from the median takes the sign abs gives it
    return np.abs(mad, out=mad)


class Whitened(NamedTuple):
    """The m > 1 score head: each projection's whitening factor folded into its map.

    Built by ``whiten`` (see the module docstring for the layout).
    """

    maps: np.ndarray  # (d, m * p), m-major: column i * p + k is E'_k[:, i]
    med: np.ndarray  # (m, p): column k is med'_k = Li_k med_k

    @property
    def p(self) -> int:
        return self.med.shape[1]

    @property
    def m(self) -> int:
        return self.med.shape[0]


def whiten(U: ProjectionSet, stats: RpoStats) -> Whitened:
    """Fold each inverse Cholesky factor ``Li_p`` of ``stats`` into the maps of ``U``."""
    if stats.inv_chol is None or stats.inv_chol.shape != (U.p, U.m, U.m):
        raise ValueError(f"whitening needs (p, m, m) = {(U.p, U.m, U.m)} inverse Cholesky factors")
    p, d, m = U.entries.shape
    LiT = stats.inv_chol.transpose(0, 2, 1)
    maps = np.ascontiguousarray(np.matmul(U.entries, LiT).transpose(1, 2, 0)).reshape(d, m * p)
    med = np.matmul(stats.med[:, np.newaxis, :], LiT)[:, 0, :].T  # (m, p), (Li_p med_p)^T
    return Whitened(maps=maps, med=np.ascontiguousarray(med))


def whitened_residuals(X: np.ndarray, W: Whitened) -> np.ndarray:
    """``x E'_p - med'_p`` for every row and projection: a transposed (n, p, m) view.

    The view is of a fresh C-ordered (n, m, p) array, the BLAS product of
    ``X`` with the maps, from which ``med'`` is subtracted in place.
    """
    if X.shape[1] != W.maps.shape[0]:
        raise ValueError(f"X has {X.shape[1]} columns but projections expect d={W.maps.shape[0]}")
    R = (X @ W.maps).reshape(X.shape[0], W.m, W.p)
    R -= W.med
    return R.transpose(0, 2, 1)


def projected_distances(
    T: np.ndarray, stats: RpoStats | Whitened, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-projection normalized distances, shape (n, p).

    At m = 1, ``T`` is ``project(X, U)`` and ``stats`` the fitted
    ``RpoStats``; at m > 1, ``T`` is ``whitened_residuals(X, W)`` and
    ``stats`` that ``W``, and each distance is the norm of a residual. With
    ``out`` (float64, shape (n, p)) the distances are written into it and it
    is returned; it may be ``T[:, :, 0]`` of a ``T`` the caller no longer
    needs. Without ``out``, ``T`` is never written.
    """
    if T.shape[1] != stats.p:
        raise ValueError(f"stats fitted for p={stats.p}, got p={T.shape[1]}")
    if isinstance(stats, RpoStats):
        if stats.mad is None:
            raise ValueError("m > 1 distances take the whitened residuals of whiten(U, stats)")
        if T.shape[2] != 1:
            raise ValueError("1-D stats applied to multidimensional projections")
        D = np.subtract(T[:, :, 0], stats.med, out=out)
        np.abs(D, out=D)
        return np.divide(D, stats.mad, out=D)
    if T.shape[2] != stats.m:
        raise ValueError(f"stats fitted for m={stats.m}, got m={T.shape[2]}")
    # the squares of the m residual planes, added one plane at a time
    D = np.square(T[:, :, 0], out=out)
    for i in range(1, stats.m):
        D += np.square(T[:, :, i])
    return np.sqrt(D, out=D)


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
    X: np.ndarray, U: ProjectionSet, stats: RpoStats | Whitened, est: Estimator
) -> np.ndarray:
    """Outlyingness of each row of ``X``; nonnegative, one score per row.

    ``stats`` are the fitted statistics or, at m > 1, their ``whiten(U,
    stats)``, which a caller that scores many batches keeps. Rows are
    projected and reduced one block at a time, so no (n, p, m) projection
    of all rows is held. On one BLAS thread the scores equal the one-call
    form bit for bit (see the module docstring).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    head = whiten(U, stats) if U.m > 1 and isinstance(stats, RpoStats) else stats
    scores = np.empty(X.shape[0])
    for rows in row_blocks(X.shape[0]):
        T = project(X[rows], U) if U.m == 1 else whitened_residuals(X[rows], head)
        # T is a fresh array no caller sees, so the distances may overwrite
        # its first plane: at m = 1 the only (rows, p) array is then T itself
        scores[rows] = reduce_distances(projected_distances(T, head, out=T[:, :, 0]), est)
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
