"""Run one benchmark workload and print its metrics as JSON.

    python3 rpobench/run.py --workload synthetic-m1 --seed 0 --seconds 25 --trace 0

Run from the repository root. The process pins BLAS to one thread before
numpy loads, prepares the workload's inputs from ``--seed`` several times
(``setup_s`` is the median), runs one warm-up operation, then repeats one
operation of the workload for ``--seconds`` seconds and reports the median
operation time as ``wall_s``. Times are scaled to a fixed host speed by a
reference kernel timed between sections (``HostSpeed``). Every operation's
outputs are checked (see README.md). With ``--trace 1`` operations
alternate between untraced and traced, and the per-layer metrics of the
traced ones are printed instead.

The last line of standard output is the result object; the line before it
records the environment, sample counts, the measured (unscaled) times and
the host's slowness at every kernel pass (``host.slowness``).
Without the ``rpo`` sources next to this directory it exits 2 and prints
no result.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere in this process or its children
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".rpobench_work"

SETUP_REPEATS = {"synthetic-m1": 15, "synthetic-m3": 15, "score-csv": 5}
MIN_OPS = 3
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import rpo.cli"


# Median time of each part of HostSpeed's kernel on the host STEADINESS.md
# describes. Reported times are in seconds at that speed.
REF_S = {"median": 0.025, "matmul": 0.02, "einsum": 0.02, "python": 0.02}

# The kernel parts that do the kind of work each workload's dominant layers
# do (README.md, "Measured split"): np.median for fit_rpo_projected.m1 and
# matmuls for the encoder; einsums for the m > 1 projections and scoring;
# interpreted float formatting and parsing for the CLI's CSV handling.
KERNEL_PARTS = {
    "synthetic-m1": ("median", "matmul"),
    "synthetic-m3": ("einsum", "matmul", "python"),
    "score-csv": ("einsum", "python"),
}


class HostSpeed:
    """Scales each timed section to a fixed host speed.

    A shared host changes speed in phases of seconds to minutes, and the
    benchmark's operations slow down with it. A fixed kernel of the
    benchmark's own (no ``rpo`` code) is timed after every timed section, so
    each section lies between two kernel passes. A pass gives the host's
    slowness: the geometric mean over the kernel's parts of the part's time
    over its ``REF_S``. A section's time is divided by the mean slowness of
    the passes around it. A change to ``rpo`` moves the section, not the
    kernel, so it moves the scaled time in full.
    """

    def __init__(self, parts=tuple(REF_S), clock=time.perf_counter):
        import numpy as np

        self.parts, self._clock = tuple(parts), clock
        rng = np.random.default_rng(12345)
        batch = rng.standard_normal((256, 400))
        square = rng.standard_normal((200, 200))
        rows, projections = rng.standard_normal((400, 16)), rng.standard_normal((200, 16, 3))
        self._work = {
            "median": lambda: [np.median(batch, axis=0) for _ in range(10)],
            "matmul": lambda: [square @ square for _ in range(40)],
            "einsum": lambda: np.einsum("nd,pdm->npm", rows, projections),
            "python": lambda: [float(f"{i * 1.2345:.17g}") for i in range(15_000)],
        }
        self.kernel()  # warm-up
        self.samples = [self.kernel()]

    def kernel(self) -> float:
        """Time each part once; returns the host's slowness (1 = reference speed)."""
        log_sum = 0.0
        for part in self.parts:
            t0 = self._clock()
            self._work[part]()
            log_sum += math.log((self._clock() - t0) / REF_S[part])
        return math.exp(log_sum / len(self.parts))

    def time(self, fn):
        """Run ``fn()``; returns (its result, seconds, seconds at reference speed)."""
        t0 = self._clock()
        result = fn()
        elapsed = self._clock() - t0
        before = self.samples[-1]
        self.samples.append(self.kernel())
        return result, elapsed, elapsed / ((before + self.samples[-1]) / 2)


def _git_commit() -> str:
    if not (ROOT / ".git").exists():  # not a checkout: do not report an enclosing repo
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np

    cfg = np.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "simd": cfg.get("SIMD Extensions", {}).get("found", []),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": _git_commit(),
    }


def fingerprint(env: dict) -> dict:
    """What byte-identical outputs depend on besides the code and the seed."""
    return {k: env[k] for k in ("python", "numpy", "blas", "simd")}


def load_reference(workload: str, seed: int, env: dict) -> tuple[dict | None, str]:
    try:
        ref = json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        return None, "no reference file"
    if ref["fingerprint"] != fingerprint(env):
        return None, "skipped: recorded on another numpy/BLAS/CPU"
    digests = ref["workloads"].get(workload, {}).get(str(seed))
    if digests is None:
        return None, f"none recorded for seed {seed}"
    return digests, "checked"


def time_setup(workload, workdir: Path, seed: int, repeats: int, speed: HostSpeed):
    """Prepare the inputs ``repeats`` times.

    Returns (prepared, times at reference speed, measured times, errors).
    """
    times, raw, digests, errors = [], [], [], []
    prepared = None

    def setup():
        subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True)
        return workload.prepare(workdir, seed)

    for _ in range(repeats):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        prepared, elapsed, scaled = speed.time(setup)
        times.append(scaled)
        raw.append(elapsed)
        digests.append(prepared.input_digests)
    if any(d != digests[0] for d in digests):
        errors.append("set-up is not deterministic: input digests differ across repeats")
    return prepared, times, raw, errors


class Runner:
    """Runs operations and keeps the per-unit error accounting."""

    def __init__(self, workload, prepared, reference: dict | None,
                 speed: HostSpeed | None = None):
        self.workload, self.prepared, self.reference = workload, prepared, reference
        self.speed = speed or HostSpeed()
        self.raw_times: list[float] = []  # measured seconds of each operation
        self.first: dict[str, bytes] | None = None
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def op(self) -> float:
        """One operation; returns its time at reference speed."""
        import rpo.cli

        def call(argv):
            try:
                return rpo.cli.main(argv)
            except Exception:  # counted as failed units below
                traceback.print_exc()
                return None

        for out in self.prepared.outputs:
            out.unlink(missing_ok=True)
        codes, elapsed, scaled = [], 0.0, 0.0
        for argv in self.prepared.calls:  # each call between its own kernel passes
            code, call_s, call_scaled = self.speed.time(lambda: call(argv))
            codes.append(code)
            elapsed += call_s
            scaled += call_scaled
        self.raw_times.append(elapsed)
        outputs = [
            out.read_bytes() if code == 0 and out.exists() else None
            for code, out in zip(codes, self.prepared.outputs)
        ]
        self._check(self.workload.split_units(outputs))
        return scaled

    def _check(self, units: dict[str, bytes]) -> None:
        from workloads import sha256

        first_op = self.first is None
        if first_op:
            self.first = units
        for key in self.prepared.units:
            self.attempted += 1
            problem = None
            payload = units.get(key)
            if payload is None:
                problem = f"{key}: no output"
            elif payload != self.first.get(key):
                problem = f"{key}: output differs from this run's first operation"
            elif self.reference is not None and sha256(payload) != self.reference.get(key):
                problem = f"{key}: output differs from the reference digest"
            elif first_op:
                problem = self.workload.check_unit(key, payload, self.prepared)
            if problem:
                self.failed += 1
                self.errors.append(problem)

    def digests(self) -> dict[str, str]:
        from workloads import sha256

        return {k: sha256(v) for k, v in (self.first or {}).items()}


def measure(runner: Runner, seconds: float) -> list[float]:
    runner.op()  # warm-up: checked, not timed
    runner.raw_times.clear()
    times = []
    start = time.perf_counter()
    while len(times) < MIN_OPS or time.perf_counter() - start < seconds:
        times.append(runner.op())
    return times


def measure_traced(runner: Runner, seconds: float):
    """Alternate untraced and traced operations; per-op traced snapshots."""
    from tracing import Tracer

    runner.op()  # warm-up: checked, not timed
    runner.raw_times.clear()
    plain, traced, snapshots = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_OPS - 1 or time.perf_counter() - start < seconds:
        plain.append(runner.op())
        tracer = Tracer()
        with tracer.installed():
            traced.append(runner.op())
        snapshots.append(tracer.snapshot())
    return plain, traced, snapshots


def layer_metrics(snapshots: list[dict], plain: list[float], traced: list[float],
                  runner: Runner) -> tuple[dict, list[str]]:
    """Counts must repeat across traced operations; times are medians."""
    errors = []
    out = {}
    for key in snapshots[0]:
        values = [s[key] for s in snapshots]
        if key.endswith(("_s",)):
            out[key] = statistics.median(values)
        else:
            if any(v != values[0] for v in values):
                errors.append(f"{key} differs across traced operations: {values}")
            out[key] = values[0]
    untraced = statistics.median(plain)
    out["trace.overhead_share"] = (statistics.median(traced) - untraced) / untraced
    out["error_rate"] = runner.failed / runner.attempted
    return out, errors


def per_layer_units() -> dict[str, str]:
    """Every ``per_layer`` metric of BENCHMARK.json, with its unit."""
    from tracing import metric_units

    return {**metric_units(), "error_rate": "ratio"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's output digests as the reference for the seed")
    args = parser.parse_args(argv)

    if not (SRC / "rpo" / "cli.py").exists():
        print(f"rpo sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()
    reference, reference_status = (None, "recording") if args.record_reference else \
        load_reference(args.workload, args.seed, env)

    workdir = WORK / str(os.getpid())
    try:
        speed = HostSpeed(KERNEL_PARTS[args.workload])
        prepared, setup_times, setup_raw, errors = time_setup(
            workload, workdir / "setup", args.seed,
            1 if args.trace else SETUP_REPEATS[args.workload], speed)
        runner = Runner(workload, prepared, reference, speed)
        if args.trace:
            plain, traced, snapshots = measure_traced(runner, args.seconds)
            op_times = plain
        else:
            op_times = measure(runner, args.seconds)
        auc = workload.test_auc(runner.first, prepared) if runner.first else float("nan")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    errors += runner.errors
    wall_s = statistics.median(op_times)
    if args.trace:
        units = per_layer_units()
        values, trace_errors = layer_metrics(snapshots, plain, traced, runner)
        errors += trace_errors
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "score_rows_per_s": {"value": prepared.rows / wall_s, "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "test_auc_mean": {"value": auc, "unit": "AUC"},
        }

    if args.record_reference:
        if errors:
            print("not recording a reference from a run with errors", file=sys.stderr)
        else:
            ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
            if ref.get("fingerprint", fingerprint(env)) != fingerprint(env):
                print("reference.json was recorded on another platform", file=sys.stderr)
                return 2
            ref["fingerprint"] = fingerprint(env)
            ref.setdefault("workloads", {}).setdefault(args.workload, {})[str(args.seed)] = \
                runner.digests()
            REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")

    for problem in errors:
        print(f"check failed: {problem}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": {"wall_s": len(op_times), "setup_s": len(setup_times)},
        "wall_s_all": op_times,
        "setup_s_all": setup_times,
        "measured": {"wall_s_all": runner.raw_times, "setup_s_all": setup_raw},
        "host.slowness": speed.samples,
        "reference": reference_status,
        "digests": runner.digests(),
        "env": env,
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
