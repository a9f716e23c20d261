"""Command-line entry point.

Subcommands: gen-data, bench, sweep, score, report. Logs go to stderr;
data products go to files (report prints its table to stdout). Exit codes:
0 success, 1 usage/config error, 2 data error, 3 numeric failure. Every
numeric flag is range-checked as the command line is parsed, so a bad
value prints the usage and logs ``argument --<flag>: ...`` before any work.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import data as datamod
from .config import load_config
from .errors import EXIT_USAGE, HANDLED, classify
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
        "seed %d: normal_classes=%s best_epoch=%d val_auc=%.4f test_auc=%.4f (%.1fs)",
        result.seed,
        list(result.chosen_classes),
        result.best_epoch,
        result.val_auc,
        result.test_auc,
        result.wall_time,
    )


def cmd_bench(args) -> int:
    cfg = load_config(args.config, "bench")
    if cfg.checkpoint_dir:
        os.makedirs(cfg.checkpoint_dir, exist_ok=True)
    entries = []
    for spec in cfg.specs:
        logger.info("running %s on %s (%d seeds)", spec.method, spec.source, len(spec.seeds))
        results = run_experiment(spec, workers=args.workers,
                                 checkpoint_dir=cfg.checkpoint_dir, progress=_log_seed)
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
    cfg = load_config(args.config, "sweep")
    rows = sweep(cfg.sweep_axis, cfg.sweep, workers=args.workers, progress=_log_seed)
    _ensure_parent(cfg.aggregate_path)
    write_aggregate_csv(cfg.aggregate_path, rows)
    logger.info("wrote %s", cfg.aggregate_path)
    return EXIT_OK


def cmd_score(args) -> int:
    model = load_model_checkpoint(args.checkpoint)
    X, _ = datamod.read_features(args.input)
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


def _integer(low: int, end: int | None = None):
    """An argparse type: an integer at least ``low``, and below ``end`` if given."""

    def integer(text: str) -> int:  # argparse names it: "invalid integer value: 'x'"
        value = int(text)
        if value < low or (end is not None and value >= end):
            span = f">= {low}" if end is None else f"in [{low}, {end})"
            raise argparse.ArgumentTypeError(f"must be {span}, got {value}")
        return value

    return integer


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        logger.error("%s", message)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rpo", description="Random projection outlyingness benchmark CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    p.add_argument("--modes", type=_integer(1), required=True)
    p.add_argument("--dim", type=_integer(1), required=True)
    p.add_argument("--seed", type=_integer(0, SEED_END), default=0)
    p.add_argument("--n-per-mode", type=_integer(1), default=ExperimentSpec.n_per_mode)
    p.add_argument("--anomalies", type=_integer(0), default=ExperimentSpec.anomaly_n)
    p.add_argument("--out-dir", default="out/dataset")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("bench", help="run a benchmark config (results + aggregate CSVs)")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--workers", type=_integer(1), default=1, help="processes that run the seeds")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep", help="run the config's sweep axis")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--workers", type=_integer(1), default=1, help="processes that run the seeds")
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
    # before the parse, whose usage errors are logged
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HANDLED as exc:
        logger.error("%s", exc)
        return classify(exc)[1]


if __name__ == "__main__":
    sys.exit(main())
