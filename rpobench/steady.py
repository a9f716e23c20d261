"""Steadiness check: run workloads several times and report each metric's spread.

    python3 rpobench/steady.py --runs 10 [--workloads synthetic-m1 score-csv]
                               [--seed-base 0] [--seconds N]

Run from the repository root. Each run is a fresh ``rpobench/run.py``
process with its own seed (seed-base, seed-base + 1, ...), one after the
other. For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (IQR / median)
next to the metric's bound in BENCHMARK.json. A spread is ``ok`` below a
third of the bound, ``within`` up to the bound and ``OVER`` above it; the
exit code is 1 if any spread is ``OVER``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(command, workload, seed, seconds) -> tuple[dict, dict]:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst_ok = True
    for workload in args.workloads:
        runs = []
        for i in range(args.runs):
            info, result = run_once(spec["command"], workload, args.seed_base + i,
                                    args.seconds)
            runs.append({"info": info, "result": result})
            print(f"# {workload} seed {args.seed_base + i}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"wall_s={result['metrics'].get('wall_s', {}).get('value')} "
                  f"host.slowness={statistics.median(info['host.slowness']):.3f}", flush=True)
        last = args.seed_base + args.runs - 1
        print(f"\n{workload}: {args.runs} runs, seeds {args.seed_base}..{last}")
        print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'IQR/med':>8} {'bound':>6}")
        for metric in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            med, q1, q3, rel = spread(values)
            bound = bounds.get(metric)
            verdict = ""
            if bound is not None:
                verdict = "ok" if rel < bound / 3 else ("within" if rel <= bound else "OVER")
                worst_ok &= rel <= bound
            print(f"  {metric:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {rel:>8.4f} "
                  f"{'' if bound is None else bound:>6} {verdict}")
        host = [statistics.median(r["info"]["host.slowness"]) for r in runs]
        med, q1, q3, rel = spread(host)
        print(f"  {'(host.slowness)':<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {rel:>8.4f}")
        print(f"  all correct: {all(r['result']['correct'] for r in runs)}", flush=True)
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
