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
from .evaluation import ExperimentSpec, aggregate_row, run_experiment, sweep
from .model_io import load_model_checkpoint
from .reporting import render_report, write_aggregate_csv, write_history_csv, write_results_csv
from .scoring import depth
from .seeding import SEED_END

logger = logging.getLogger("rpo")

EXIT_OK = 0


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def cmd_gen_data(args) -> int:
    for flag, value, low in (("--modes", args.modes, 1), ("--dim", args.dim, 1),
                             ("--n-per-mode", args.n_per_mode, 1),
                             ("--anomalies", args.anomalies, 0)):
        if value < low:
            raise ConfigError(f"{flag} must be >= {low}, got {value}")
    if not 0 <= args.seed < SEED_END:
        raise ConfigError(f"--seed must lie in [0, 2**32), got {args.seed}")
    ds = datamod.generate_multimodal(
        args.modes, args.dim, args.n_per_mode, args.anomalies, seed=args.seed
    )
    os.makedirs(args.out_dir, exist_ok=True)
    data_path = os.path.join(args.out_dir, "data.csv")
    datamod.save_csv(ds, data_path)
    logger.info("wrote %s (%d rows)", data_path, ds.n)
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


def _count_flag(value: int, flag: str) -> int:
    """A count given on the command line; 0 means unset, so the config's count applies."""
    if value < 0:
        raise ConfigError(f"{flag} must be >= 0, got {value}")
    return value


def cmd_bench(args) -> int:
    cfg = load_config(args.config)
    workers = _count_flag(args.workers, "--workers") or cfg.workers
    specs = cfg.specs
    if _count_flag(args.seeds, "--seeds"):  # quick mode: first N seeds regardless of config
        specs = [replace(spec, seeds=tuple(range(args.seeds))) for spec in specs]
    if cfg.checkpoint_dir:
        os.makedirs(cfg.checkpoint_dir, exist_ok=True)
    entries = []
    for spec in specs:
        logger.info("running %s on %s (%d seeds)", spec.method, spec.source, len(spec.seeds))
        results = run_experiment(
            spec, workers=workers, checkpoint_dir=cfg.checkpoint_dir, progress=_log_seed
        )
        entries.append((spec, results))
    _ensure_parent(cfg.results_path)
    _ensure_parent(cfg.aggregate_path)
    write_results_csv(cfg.results_path, entries)
    write_aggregate_csv(cfg.aggregate_path,
                        [aggregate_row(spec, "-", results) for spec, results in entries])
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
    workers = _count_flag(args.workers, "--workers") or cfg.workers
    if len(cfg.specs) > 1:
        raise ConfigError("sweep runs a single method; give 'method', not 'methods'")
    rows = sweep(cfg.sweep_axis, cfg.sweep, workers=workers, progress=_log_seed)
    _ensure_parent(cfg.aggregate_path)
    write_aggregate_csv(cfg.aggregate_path, rows)
    logger.info("wrote %s", cfg.aggregate_path)
    return EXIT_OK


def cmd_score(args) -> int:
    model = load_model_checkpoint(args.checkpoint)
    X, _ = datamod.read_features(args.input, datamod.LABEL_COLUMN)
    scores = model.score_rows(X)
    _ensure_parent(args.output)
    datamod.write_numbers(args.output, ["score", "depth"], [scores, depth(scores)])
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

    p = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-per-mode", type=int, default=ExperimentSpec.n_per_mode)
    p.add_argument("--anomalies", type=int, default=ExperimentSpec.anomaly_n)
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
