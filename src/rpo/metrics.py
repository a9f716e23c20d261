"""Ranking metrics: AUC with midrank tie handling.

AUC is the probability that a random anomaly outscores a random normal
sample, with ties counted half. Computed in O(n log n) from midranks; the
test suite checks it against the O(n^2) pairwise definition.
"""

from __future__ import annotations

import numpy as np


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; ties (-0.0 equals 0.0) share their mean, an exact half-integer."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # the rank of each distinct value's last copy
    return (last - 0.5 * (counts - 1))[inverse]


def roc_auc(scores, labels) -> float:
    """AUC of ``scores`` against binary labels; anomalies (1) are positive.

    Labels are 0 and 1 (or ``False`` and ``True``). Raises ``ValueError``
    naming the first other label, and when only one class is present.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(
            f"scores and labels must be equal-length vectors, got {scores.shape} and {labels.shape}"
        )
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores contain NaN or infinite entries")
    positive = labels == 1
    other = ~positive & (labels != 0)
    if np.any(other):
        raise ValueError(f"labels must be 0 or 1, got {labels[np.argmax(other)].item()!r}")
    n_pos = int(np.count_nonzero(positive))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    ranks = _midranks(scores)
    rank_sum = float(np.sum(ranks[positive]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def mean_std(values) -> tuple[float, float]:
    """Sample mean and standard deviation (ddof=1; 0.0 for a single value)."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("cannot aggregate zero values")
    std = float(np.std(v, ddof=1)) if v.size > 1 else 0.0
    return float(np.mean(v)), std


def truncate(value: float) -> float:
    """Truncate (not round) toward zero to two decimals; for report tables only."""
    return np.trunc(value * 100.0) / 100.0
