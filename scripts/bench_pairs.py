#!/usr/bin/env python3
"""Run the benchmark on a parent commit and on the working tree, in pairs.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload synthetic-m1 [score-csv ...] \\
        --seeds 3000-3009 [--seconds 25] [--trace-seed 1000] [--out FILE]

Run it from anywhere inside a git checkout. The parent side is a
``git archive`` of ``--parent`` unpacked into a temporary directory; the
change side is the working tree as it stands. Each pair runs the command of
``BENCHMARK.json`` (``rpobench/run.py``) once on each side, single-seeded and
untraced, in its own process; even pairs run the parent first and odd pairs
the change first, so a drift of the host does not favour one side. Seeds
should be held out: ``rpobench/reference.json`` pins seeds 0-9, so their
outputs are checked there, and any seed's digests are compared across sides.

It writes ``BENCH_<short-sha>.json`` at the repository root (``--out``
overrides), named after the commit checked out. For each workload it holds
every pair's end-to-end metrics and each metric's median, quartiles, IQR
and win count per side; the file also holds the ``env`` that ``run.py``
prints. Metric names, their ``better`` direction and the default run
length come from ``BENCHMARK.json``. ``--trace-seed`` adds one traced pair
per workload, with its per-layer metrics and the name of every count that
differs. It exits 1 if any run fails, is not ``correct`` or counts a
failed unit, and 0 otherwise; the file is written either way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout.strip()


def parse_seeds(text: str) -> list[int]:
    """``"3000-3002,3010"`` -> [3000, 3001, 3002, 3010]."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def order(pair: int) -> tuple[str, str]:
    """Which side runs first in pair ``pair``: the parent in even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def quartiles(values: list[float]) -> dict:
    """Median, quartiles (linear interpolation, as ``numpy.percentile``) and IQR."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's quartiles, the change's wins and the median gap.

    ``pairs`` hold ``{"parent": {name: value}, "change": {name: value}}``
    under ``"metrics"``; ``metrics`` are ``BENCHMARK.json``'s end-to-end
    entries. A win is a pair where the change is strictly better. The gain
    is clear when the change wins in at least 9 of 10 pairs and its median
    is better than the parent's by more than the parent's IQR.
    """
    summary = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {side: [p["metrics"][side][name] for p in pairs] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        gain = [(p - c) if lower else (c - p)
                for p, c in zip(values["parent"], values["change"])]
        median_gain = stats["parent"]["median"] - stats["change"]["median"]
        if not lower:
            median_gain = -median_gain
        summary[name] = {
            **stats,
            "better": spec["better"],
            "pairs": len(pairs),
            "wins": sum(g > 0 for g in gain),
            "losses": sum(g < 0 for g in gain),
            "median_gain": median_gain,
            "relative_gain": median_gain / stats["parent"]["median"]
            if stats["parent"]["median"] else None,
            "clear_gain": 10 * sum(g > 0 for g in gain) >= 9 * len(pairs)
            and median_gain > stats["parent"]["iqr"],
        }
    return summary


def run_once(command: list[str], root: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One ``run.py`` process in ``root``: its info and result lines, or an error."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1]),
            "stderr": proc.stderr.strip()[-2000:]}


def run_ok(run: dict) -> bool:
    return "error" not in run and run["result"]["correct"] is True \
        and run["result"]["failed"] == 0


def values(run: dict) -> dict:
    return {k: v["value"] for k, v in run["result"]["metrics"].items()}


def measure_workload(bench: dict, trees: dict, workload: str, seeds: list[int], seconds: float,
                     trace_seed: int | None, problems: list[str]) -> dict:
    """Every pair of one workload, its summary and, with ``trace_seed``, one traced pair."""
    command = [sys.executable, *bench["command"][1:]]

    def pair(index: int, seed: int, trace: int) -> dict | None:
        runs = {}
        for side in order(index):
            runs[side] = run_once(command, trees[side], workload, seed, seconds, trace)
            if run_ok(runs[side]):
                print(f"{workload} seed {seed} {side}: correct", file=sys.stderr)
            else:
                problems.append(f"{workload} seed {seed} {side} (trace {trace}): "
                                + runs[side].get("error", runs[side].get("stderr", "")))
        return runs if all("error" not in runs[side] for side in SIDES) else None

    pairs, env = [], None
    for index, seed in enumerate(seeds):
        runs = pair(index, seed, 0)
        if runs is None:
            continue
        env = runs["change"]["info"]["env"]
        pairs.append({
            "seed": seed,
            "first": order(index)[0],
            "metrics": {side: values(runs[side]) for side in SIDES},
            "correct": {side: runs[side]["result"]["correct"] for side in SIDES},
            "failed": {side: runs[side]["result"]["failed"] for side in SIDES},
            "reference": {side: runs[side]["info"]["reference"] for side in SIDES},
            "digests_equal": runs["parent"]["info"]["digests"]
            == runs["change"]["info"]["digests"],
        })
    traced = None
    if trace_seed is not None and (runs := pair(0, trace_seed, 1)) is not None:
        layers = {side: values(runs[side]) for side in SIDES}
        counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
        traced = {"seed": trace_seed, **layers,
                  "changed_counts": [k for k in counts
                                     if layers["parent"].get(k) != layers["change"].get(k)]}
    return {
        "env": env,
        "summary": summarize(pairs, bench["end_to_end"]) if pairs else None,
        "pairs": pairs,
        "traced": traced,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--workload", required=True, nargs="+",
                        help="one or more workloads, each measured over every seed in turn")
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="one seed per pair: a comma-separated list of seeds or ranges a-b")
    parser.add_argument("--seconds", type=float,
                        help="each run's timed length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace-seed", type=int,
                        help="also run one traced pair of each workload on this seed")
    parser.add_argument("--out", type=Path, help="default: BENCH_<short-sha>.json at the root")
    args = parser.parse_args(argv)

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    commits = {"parent": git(root, "rev-parse", args.parent), "change": git(root, "rev-parse", "HEAD")}
    dirty = bool(git(root, "status", "--porcelain", "--untracked-files=no"))
    out = args.out or root / f"BENCH_{commits['change'][:7]}.json"

    problems, workloads = [], {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": root}
        trees["parent"].mkdir()
        archive = subprocess.run(["git", "archive", commits["parent"]], cwd=root, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive, check=True)
        for workload in args.workload:
            workloads[workload] = measure_workload(bench, trees, workload, args.seeds, seconds,
                                                   args.trace_seed, problems)

    envs = [w.pop("env") for w in workloads.values()]
    report = {
        "seconds": seconds,
        "seeds": args.seeds,
        "commits": {**commits, "change_dirty": dirty},
        "env": next((e for e in envs if e is not None), None),
        "workloads": workloads,
        "problems": problems,
    }
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    complete = all(len(w["pairs"]) == len(args.seeds) for w in workloads.values())
    return 0 if complete and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
