"""Result emission: per-seed results CSV, aggregate CSV, epoch histories.

Per-seed and aggregate files keep full float precision (shortest
round-trip repr) so reruns are byte-comparable; the human-readable report
is where AUCs become percentages truncated (not rounded) to two decimals.
"""

from __future__ import annotations

import math
from collections import defaultdict

from .data import csv_rows, write_csv
from .errors import DataError
from .evaluation import ExperimentSpec, SeedResult
from .metrics import mean_std, truncate

RESULTS_HEADER = ["method", "dataset", "k_modes", "seed", "best_epoch", "val_auc", "test_auc"]
AGGREGATE_HEADER = ["method", "axis_value", "mean_auc", "std_auc", "n_seeds", "gap_mean", "gap_std"]


def write_results_csv(path, entries: list[tuple[ExperimentSpec, list[SeedResult]]]) -> None:
    write_csv(
        path,
        RESULTS_HEADER,
        (
            [spec.method, spec.source, spec.resolved_k_modes, r.seed, r.best_epoch, r.val_auc,
             r.test_auc]
            for spec, results in entries
            for r in results
        ),
    )


def write_aggregate_csv(path, rows: list[tuple[str, str, float, float, int, float | None, float | None]]) -> None:
    write_csv(path, AGGREGATE_HEADER, rows)


def write_history_csv(path, history) -> None:
    write_csv(
        path,
        ["epoch", "train_loss", "val_auc"],
        ((r.epoch, r.train_loss, r.val_auc) for r in history),
    )


def render_report(results_path) -> str:
    """Aggregate a results CSV into the truncated-percentage table."""
    by_method: dict[tuple[str, str, str], list[float]] = defaultdict(list)
    rows = csv_rows(results_path)
    if next(rows) != RESULTS_HEADER:
        raise DataError(f"unexpected results header in {results_path}")
    for line_no, row in rows:
        try:
            test_auc = float(row[6])
        except ValueError as exc:
            raise DataError(f"{results_path}:{line_no}: {exc}") from exc
        if not math.isfinite(test_auc):
            raise DataError(f"{results_path}:{line_no}: non-finite value")
        by_method[(row[0], row[1], row[2])].append(test_auc)
    if not by_method:
        raise DataError(f"no result rows in {results_path}")
    width = max(24, *(len(dataset) for _, dataset, _ in by_method))  # a CSV source is its path
    lines = [f"{'method':<16} {'dataset':<{width}} {'modes':>5} {'seeds':>5} {'test AUC':>16}"]
    for (method, dataset, k_modes), aucs in sorted(by_method.items()):
        mean, std = mean_std(aucs)
        lines.append(
            f"{method:<16} {dataset:<{width}} {k_modes:>5} {len(aucs):>5} "
            f"{truncate(100.0 * mean):>8.2f} ± {truncate(100.0 * std):.2f}"
        )
    return "\n".join(lines)
