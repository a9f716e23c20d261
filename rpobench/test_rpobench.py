"""Tests of the benchmark itself: span arithmetic, wrapper coverage, exact counts.

    PYTHONPATH=src python3 -m pytest -q rpobench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import rpo.cli  # noqa: E402  (loads every rpo module the tracer patches)
import run  # noqa: E402
from rpo import evaluation, training  # noqa: E402
from tracing import TARGETS, Target, Tracer, function_names, metric_units  # noqa: E402
from workloads import ScoreCsv, SyntheticBench, sha256  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b again [5, 7]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 7, 10]))
    tracer.enter("a")
    tracer.enter("b")
    tracer.enter("c")
    tracer.exit("c")
    tracer.exit("b")
    tracer.enter("b")
    tracer.exit("b")
    tracer.exit("a")
    assert dict(tracer.calls) == {"a": 1, "b": 2, "c": 1}
    assert tracer.self_time["c"] == 1
    assert tracer.self_time["b"] == (3 - 1) + 2
    assert tracer.self_time["a"] == 10 - 3 - 2
    assert tracer.busy == {"a": 10, "b": 5, "c": 1}
    assert sum(tracer.self_time.values()) == tracer.busy["a"]


def test_recursive_span_is_busy_once():
    tracer = Tracer(clock=FakeClock([0, 2, 5, 9]))
    tracer.enter("f")
    tracer.enter("f")
    tracer.exit("f")
    tracer.exit("f")
    assert tracer.calls["f"] == 2
    assert tracer.busy["f"] == 9
    assert tracer.self_time["f"] == 3 + (9 - 3)


def test_error_counts_once_where_it_arose():
    tracer = Tracer()

    def inner():
        raise ValueError("boom")

    def outer():
        return wrapped_inner()

    wrapped_inner = tracer.wrap(Target("scoring", "inner"), inner)
    wrapped_outer = tracer.wrap(Target("cli", "outer"), outer)
    with pytest.raises(ValueError):
        wrapped_outer()
    assert dict(tracer.errors) == {"scoring": 1}
    assert tracer.calls["scoring.inner"] == tracer.calls["cli.outer"] == 1


def test_install_patches_every_binding_site_and_restores_it():
    originals = (training.fit_rpo_projected, evaluation.fit_eval_stats, rpo.cli.main,
                 rpo.encoder.Encoder.forward)
    with Tracer().installed():
        assert training.fit_rpo_projected is rpo.scoring.fit_rpo_projected
        assert training.fit_rpo_projected is not originals[0]
        assert evaluation.fit_eval_stats is training.fit_eval_stats
        assert evaluation.fit_eval_stats is not originals[1]
        assert rpo.cli.main is not originals[2]
        assert rpo.encoder.Encoder.forward is not originals[3]
    assert (training.fit_rpo_projected, evaluation.fit_eval_stats, rpo.cli.main,
            rpo.encoder.Encoder.forward) == originals


@pytest.mark.parametrize("epochs", [1, 3])
def test_exact_counts_for_one_deep_rpo_seed(epochs):
    # synthetic protocol: 540 train rows in batches of 128 is 5 batches per epoch
    spec = evaluation.ExperimentSpec(
        method="deep-rpo-mean", k_modes=2, dim=16, n_per_mode=400, anomaly_n=300,
        epochs=epochs, seeds=(0,),
    )
    tracer = Tracer()
    with tracer.installed():
        evaluation.run_single_seed(spec, 0)
    E = epochs
    counts = tracer.snapshot()
    assert counts["training.deep_rpo_loss.calls"] == 5 * E
    assert counts["scoring.fit_rpo_projected.m1.calls"] == 6 * E + 1
    assert counts["scoring.fit_rpo_projected.mN.calls"] == 0
    assert counts["training.fit_eval_stats.calls"] == E + 1
    assert counts["encoder.forward.calls"] == 7 * E + 2
    assert counts["projections.project.calls"] == 7 * E + 2
    assert counts["encoder.adam_step.calls"] == 5 * E
    assert counts["training.refits_per_epoch"] == (E + 1) / E


def test_host_speed_scales_each_section_by_the_kernel_around_it(monkeypatch):
    passes = iter([1.0, 1.0, 3.0, 0.5])  # warm-up, then one pass after each section
    monkeypatch.setattr(run.HostSpeed, "kernel", lambda self: next(passes))
    speed = run.HostSpeed(clock=FakeClock([0.0, 2.0, 5.0, 6.0]))
    assert speed.time(lambda: "out") == ("out", 2.0, pytest.approx(2.0 / 2.0))
    assert speed.time(lambda: None)[1:] == (1.0, pytest.approx(1.0 / 1.75))
    assert speed.samples == [1.0, 3.0, 0.5]


def test_host_slowness_is_the_geometric_mean_over_parts():
    # each part takes 2 ticks; the reference times differ per part
    speed = run.HostSpeed(parts=("median", "python"), clock=FakeClock(range(0, 100, 2)))
    expected = math.sqrt(2 / run.REF_S["median"] * 2 / run.REF_S["python"])
    assert speed.samples == [pytest.approx(expected)]


def test_every_workload_names_known_kernel_parts():
    assert list(run.KERNEL_PARTS) == list(run.SETUP_REPEATS)
    assert all(set(parts) <= set(run.REF_S) for parts in run.KERNEL_PARTS.values())


def _small_workloads():
    return [
        SyntheticBench("m1", epochs=1),
        SyntheticBench("m3", methods=["rpo-max", "deep-rpo-mean"], rp_dim=3, epochs=1),
        ScoreCsv(n_per_mode=300, anomaly_n=60, checkpoint_epochs=1),
    ]


def _traced_counts(tmp_path):
    """Counts of every span over set-up and one operation of each small workload.

    Only score-csv's set-up writes checkpoints; the benchmark's traced runs
    trace operations alone, so there ``save_model_checkpoint`` reads 0.
    """
    tracer = Tracer()
    runners = []
    for i, workload in enumerate(_small_workloads()):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        with tracer.installed():
            prepared = workload.prepare(workdir, seed=3)
        runner = run.Runner(workload, prepared, reference=None)
        runner.op()  # untraced first operation sets the expected outputs
        with tracer.installed():
            runner.op()
        runners.append(runner)
    snap = tracer.snapshot()
    return {k: v for k, v in snap.items() if not k.endswith("_s")}, runners


def test_every_wrapper_is_hit_and_outputs_check(tmp_path):
    counts, runners = _traced_counts(tmp_path)
    missing = [name for name in function_names() if counts[f"{name}.calls"] == 0]
    assert missing == []
    assert all(counts[f"{layer}.errors"] == 0 for layer in {t.layer for t in TARGETS})
    for runner in runners:
        assert runner.errors == []
        assert runner.failed == 0 and runner.attempted == 2 * len(runner.prepared.units)


def test_counts_repeat_exactly_across_runs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first, _ = _traced_counts(tmp_path / "a")
    second, _ = _traced_counts(tmp_path / "b")
    assert first == second


def test_check_counts_changed_and_unreferenced_outputs():
    runner = run.Runner(
        workload=SimpleNamespace(check_unit=lambda key, payload, prepared: None),
        prepared=SimpleNamespace(units=["a", "b"]),
        reference={"a": sha256(b"1"), "b": sha256(b"other")},
    )
    runner._check({"a": b"1", "b": b"2"})  # b misses the reference
    runner._check({"a": b"changed", "b": b"2"})  # a differs from the first operation
    runner._check({"b": b"2"})  # a is missing
    assert runner.attempted == 6
    assert runner.failed == 5
    assert sum("first operation" in e for e in runner.errors) == 1


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert set(metric_units()) < set(run.per_layer_units())
    assert [w["name"] for w in spec["workloads"]] == list(run.SETUP_REPEATS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "score_rows_per_s", "peak_rss_mb", "test_auc_mean"}
