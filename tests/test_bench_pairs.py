"""The pair runner's summary (``scripts/bench_pairs.py``), on fixed numbers.

No workload runs here: the summary is what a committed ``BENCH_*.json``
claims, so its medians, quartiles, wins and gain are checked by hand.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "better": "lower"}
RATE = {"name": "score_rows_per_s", "better": "higher"}


def pairs_of(parent, change, name="wall_s"):
    return [{"metrics": {"parent": {name: p}, "change": {name: c}}}
            for p, c in zip(parent, change)]


def test_quartiles_interpolate_as_numpy_percentile():
    q = bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (q["q1"], q["median"], q["q3"], q["iqr"]) == (2.0, 3.0, 4.0, 2.0)
    q = bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0])
    assert (q["q1"], q["median"], q["q3"]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([0.7]) == {"median": 0.7, "q1": 0.7, "q3": 0.7, "iqr": 0.0}


def test_a_lower_metric_gains_when_the_change_is_faster():
    parent = [0.70, 0.71, 0.69, 0.72, 0.70, 0.70, 0.71, 0.69, 0.70, 0.73]
    change = [0.65, 0.66, 0.64, 0.67, 0.65, 0.65, 0.66, 0.64, 0.71, 0.66]
    s = bench_pairs.summarize(pairs_of(parent, change), [WALL])["wall_s"]
    assert s["pairs"] == 10 and s["wins"] == 9 and s["losses"] == 1
    assert s["parent"]["median"] == pytest.approx(0.70)
    assert s["change"]["median"] == pytest.approx(0.655)
    assert s["parent"]["iqr"] == pytest.approx(0.7100 - 0.7000)
    assert s["median_gain"] == pytest.approx(0.045)
    assert s["relative_gain"] == pytest.approx(0.045 / 0.70)
    assert s["clear_gain"] is True


def test_eight_wins_in_ten_or_a_gap_inside_the_parent_iqr_is_no_clear_gain():
    parent = [0.70] * 10
    change = [0.65] * 8 + [0.75] * 2
    s = bench_pairs.summarize(pairs_of(parent, change), [WALL])["wall_s"]
    assert (s["wins"], s["losses"], s["clear_gain"]) == (8, 2, False)
    # ten wins, but the median gap (0.005) is smaller than the parent's IQR (0.05)
    parent = [0.60, 0.65, 0.70, 0.75, 0.80] * 2
    change = [p - 0.005 for p in parent]
    s = bench_pairs.summarize(pairs_of(parent, change), [WALL])["wall_s"]
    assert s["wins"] == 10 and s["parent"]["iqr"] == pytest.approx(0.10)
    assert s["clear_gain"] is False


def test_a_higher_metric_gains_when_the_change_is_larger_and_ties_are_no_wins():
    pairs = pairs_of([100.0, 100.0, 100.0], [110.0, 100.0, 90.0], name="score_rows_per_s")
    s = bench_pairs.summarize(pairs, [RATE])["score_rows_per_s"]
    assert (s["wins"], s["losses"], s["median_gain"]) == (1, 1, 0.0)
    assert s["better"] == "higher" and s["clear_gain"] is False


def test_every_end_to_end_metric_of_benchmark_json_is_summarized():
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    values = {m["name"]: 1.0 for m in metrics}
    pairs = [{"metrics": {"parent": values, "change": values}}] * 2
    summary = bench_pairs.summarize(pairs, metrics)
    assert set(summary) == {m["name"] for m in metrics}
    assert all(s["wins"] == 0 and s["median_gain"] == 0 for s in summary.values())


def test_sides_alternate_and_seeds_parse():
    assert [bench_pairs.order(i)[0] for i in range(4)] == ["parent", "change"] * 2
    assert bench_pairs.parse_seeds("3000-3002,3010") == [3000, 3001, 3002, 3010]
    assert bench_pairs.parse_seeds("7") == [7]
