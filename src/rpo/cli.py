"""Command-line entry point.

Subcommands: gen-data, bench, sweep, score, report. Logs go to stderr;
data products go to files (report prints its table to stdout). Exit codes:
0 success, 1 usage/config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

from . import data as datamod
from .config import load_config
from .errors import EXIT_USAGE, HANDLED, ConfigError, classify
from .evaluation import run_experiment, sweep
from .model_io import load_model_checkpoint
from .reporting import (
    aggregate_rows_for_methods,
    aggregate_rows_for_sweep,
    render_report,
    write_aggregate_csv,
    write_history_csv,
    write_results_csv,
)
from .scoring import depth

logger = logging.getLogger("rpo")

EXIT_OK = 0


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def cmd_gen_data(args) -> int:
    if args.modes < 1:
        raise ConfigError(f"--modes must be >= 1, got {args.modes}")
    if args.dim < 1:
        raise ConfigError(f"--dim must be >= 1, got {args.dim}")
    if args.n_per_mode < 1:
        raise ConfigError(f"--n-per-mode must be >= 1, got {args.n_per_mode}")
    if args.anomalies < 0:
        raise ConfigError(f"--anomalies must be >= 0, got {args.anomalies}")
    ds = datamod.generate_multimodal(
        args.modes, args.dim, args.n_per_mode, args.anomalies, seed=args.seed
    )
    os.makedirs(args.out_dir, exist_ok=True)
    data_path = os.path.join(args.out_dir, "data.csv")
    manifest_path = os.path.join(args.out_dir, "manifest.csv")
    datamod.save_csv(ds, data_path)
    datamod.save_manifest(ds, manifest_path)
    logger.info("wrote %s and %s (%d rows)", data_path, manifest_path, ds.n)
    return EXIT_OK


def _log_seed(result) -> None:
    logger.info(
        "seed %d: best_epoch=%d val_auc=%.4f test_auc=%.4f (%.1fs)",
        result.seed,
        result.best_epoch,
        result.val_auc,
        result.test_auc,
        result.wall_time,
    )


def cmd_bench(args) -> int:
    cfg = load_config(args.config)
    workers = args.workers or cfg.workers
    base_spec = cfg.base_spec
    if args.seeds:  # quick mode: first N seeds regardless of config
        base_spec = replace(base_spec, seeds=tuple(range(args.seeds)))
    if cfg.checkpoint_dir:
        os.makedirs(cfg.checkpoint_dir, exist_ok=True)
    entries = []
    for method in cfg.methods:
        spec = replace(base_spec, method=method)
        logger.info("running %s on %s (%d seeds)", method, spec.source, len(spec.seeds))
        results = run_experiment(
            spec, workers=workers, checkpoint_dir=cfg.checkpoint_dir, progress=_log_seed
        )
        entries.append((spec, results))
    _ensure_parent(cfg.results_path)
    _ensure_parent(cfg.aggregate_path)
    write_results_csv(cfg.results_path, entries)
    write_aggregate_csv(cfg.aggregate_path, aggregate_rows_for_methods(entries))
    if cfg.history_dir:
        os.makedirs(cfg.history_dir, exist_ok=True)
        for spec, results in entries:
            for r in results:
                if r.history:
                    write_history_csv(
                        os.path.join(cfg.history_dir, f"{spec.method}_seed{r.seed}.csv"),
                        r.history,
                    )
    logger.info("wrote %s and %s", cfg.results_path, cfg.aggregate_path)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if cfg.sweep_axis is None:
        raise ConfigError("config has no sweep section (sweep.axis, sweep.values)")
    workers = args.workers or cfg.workers
    method = cfg.methods[0]
    if len(cfg.methods) > 1:
        raise ConfigError("sweep runs a single method; give 'method', not 'methods'")
    spec = replace(cfg.base_spec, method=method)
    rows = sweep(spec, cfg.sweep_axis, cfg.sweep_values, workers=workers, progress=_log_seed)
    _ensure_parent(cfg.aggregate_path)
    write_aggregate_csv(cfg.aggregate_path, aggregate_rows_for_sweep(method, rows))
    logger.info("wrote %s", cfg.aggregate_path)
    return EXIT_OK


def cmd_score(args) -> int:
    model = load_model_checkpoint(args.checkpoint)
    X, _ = datamod.read_features(args.input, "class")
    scores = model.score_rows(X)
    depths = depth(scores)
    _ensure_parent(args.output)
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        # what csv.writer would write: a float's repr holds no comma, quote or newline
        fh.write("score,depth\n")
        fh.write("".join(f"{s!r},{d!r}\n" for s, d in zip(scores.tolist(), depths.tolist())))
    logger.info("scored %d rows -> %s", len(scores), args.output)
    return EXIT_OK


def cmd_report(args) -> int:
    table = render_report(args.results)
    if args.out:
        _ensure_parent(args.out)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
    else:
        print(table)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rpo", description="Random projection outlyingness benchmark CLI")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset CSV + split manifest")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-per-mode", type=int, default=500)
    p.add_argument("--anomalies", type=int, default=300)
    p.add_argument("--out-dir", default="out/dataset")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("bench", help="run a benchmark config (results + aggregate CSVs)")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--workers", type=int, default=0, help="override config worker count")
    p.add_argument("--seeds", type=int, default=0, help="quick mode: run only the first N seeds")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep", help="run the config's sweep axis")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--workers", type=int, default=0)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("score", help="score a CSV of feature rows with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("report", help="render a truncated mean±std table from a results CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except HANDLED as exc:
        logger.error("%s", exc)
        return classify(exc)[1]


if __name__ == "__main__":
    sys.exit(main())
