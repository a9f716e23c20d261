import dataclasses
import inspect
import os
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpo import data as datamod
from rpo import evaluation
from rpo.config import sweep_points
from rpo.data import (
    ANOMALY,
    NORMAL,
    TEST,
    TRAIN,
    VAL,
    AffineSpec,
    generate_multimodal,
    label_classes,
    plan_counts,
    read_classes,
    save_csv,
)
from rpo.encoder import AdamState, init_adam
from rpo.errors import ConfigError, DataError, RpoError
from rpo.evaluation import (
    ExperimentSpec,
    SeedResult,
    _assemble_dataset,
    aggregate,
    run_experiment,
    run_single_seed,
    sweep,
)
from rpo.metrics import _midranks, mean_std, roc_auc, truncate
from rpo.projections import DropoutSpec, apply_dropout, generate_projections
from rpo.seeding import sub_seed
from rpo.training import DeepRpoModel, SvddModel, train


def pairwise_auc(scores, labels):
    """O(n^2) definition: P(anomaly outscores normal) + half ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(pos) * len(neg))


def loop_midranks(values):
    """Midranks by a walk over each run of tied sorted values."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # 1-based midrank
        i = j + 1
    return ranks


def unique_midrank_auc(scores, labels):
    """AUC from ``np.unique`` midranks, summed as floats: the earlier form."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]
    positive = labels == 1
    n_pos = int(np.count_nonzero(positive))
    n_neg = len(labels) - n_pos
    rank_sum = float(np.sum(ranks[positive]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


class TestRocAuc:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.9, 0.8])
        labels = np.array([0, 0, 1, 1])
        assert roc_auc(scores, labels) == 1.0

    def test_all_ties(self):
        assert roc_auc(np.ones(10), np.array([0, 1] * 5)) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc(np.arange(4.0), np.zeros(4))

    @pytest.mark.parametrize("labels, named", [
        ([0, 2, 1, 1], "2"), ([0, 0.5, 1, 1], "0.5"), ([0, 1, -1, 3], "-1"),
        ([0, np.nan, 1, 1], "nan"),
    ])
    def test_label_outside_0_and_1_rejected_by_name(self, labels, named):
        # such a label was counted as normal, and the first call scored 1.0
        with pytest.raises(ValueError, match=rf"0 or 1, got {named}$"):
            roc_auc([0.1, 0.2, 0.9, 0.8], labels)

    def test_bool_labels_accepted(self):
        labels = np.array([False, False, True, True])
        assert roc_auc([0.1, 0.2, 0.9, 0.8], labels) == 1.0
        assert roc_auc([0.9, 0.2, 0.1, 0.8], labels) == 0.25

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 200))
        scores = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], size=n)  # heavy ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert roc_auc(scores, labels) == pytest.approx(
            pairwise_auc(scores, labels), abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_midranks_equal_the_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        ties = rng.choice([-0.0, 0.0, 0.25, -1.0, 2.0], size=n)  # -0.0 ties with 0.0
        for values in (ties, rng.normal(size=n), np.where(rng.random(n) < 0.5, ties, 3.0)):
            assert _midranks(values).tobytes() == loop_midranks(values).tobytes()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_unique_midrank_form_by_bytes(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 600))
        ties = rng.choice([-0.0, 0.0, 0.25, -1.0, 2.0, 1e300, -5e-324], size=n)
        scores = np.where(rng.random(n) < rng.random(), ties, rng.normal(size=n))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        expected = unique_midrank_auc(scores, labels)
        assert np.float64(roc_auc(scores, labels)).tobytes() == np.float64(expected).tobytes()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=40)
        labels = rng.integers(0, 2, size=40)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        transformed = np.exp(0.5 * scores) + 3.0  # strictly increasing
        assert roc_auc(transformed, labels) == pytest.approx(
            roc_auc(scores, labels), abs=1e-12
        )

    def test_depth_reversal_preserves_auc(self):
        rng = np.random.default_rng(3)
        scores = np.abs(rng.normal(size=50))
        labels = rng.integers(0, 2, size=50)
        labels[0], labels[1] = 0, 1
        depth_scores = 1.0 / (1.0 + scores)  # strictly decreasing in score
        assert roc_auc(-depth_scores, labels) == pytest.approx(
            roc_auc(scores, labels), abs=1e-12
        )

    def test_negation_complement_without_ties(self):
        rng = np.random.default_rng(4)
        scores = rng.permutation(np.arange(30.0))
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        assert roc_auc(scores, labels) + roc_auc(-scores, labels) == pytest.approx(1.0)


class TestAggregation:
    def test_mean_std_match_scalar_recompute(self):
        values = [0.9, 0.8, 0.85, 0.95]
        mean, std = mean_std(values)
        scalar_mean = sum(values) / 4
        scalar_std = (sum((v - scalar_mean) ** 2 for v in values) / 3) ** 0.5
        assert mean == pytest.approx(scalar_mean, abs=1e-15)
        assert std == pytest.approx(scalar_std, abs=1e-15)

    def test_truncation_not_rounding(self):
        assert truncate(73.019) == 73.01
        assert truncate(0.899999) == 0.89

    def test_auc_bounds_enforced(self):
        with pytest.raises(ValueError):
            SeedResult(0, (0,), -1, 1.2, 0.5, 0.0)


def quick_spec(**overrides):
    base = dict(
        method="rpo-max",
        k_modes=2,
        dim=6,
        n_per_mode=80,
        anomaly_n=80,
        n_projections=50,
        epochs=3,
        batch_size=32,
        seeds=(0, 1),
        hidden_dims=(8,),
        latent_dim=4,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.mark.parametrize(
    "func, params",
    [
        (train, ("batch_size", "seed", "learning_rate")),
        (init_adam, ("learning_rate",)),
        (AdamState, ("learning_rate",)),
        (SvddModel, ("lam",)),
        (DeepRpoModel, ("lam", "estimator")),
        (label_classes, ("normal_class_ids",)),
    ],
)
def test_protocol_values_default_only_in_the_spec(func, params):
    # a library default would let a direct call differ from rpo bench
    signature = inspect.signature(func)
    assert all(signature.parameters[p].default is inspect.Parameter.empty for p in params)


def unit_interval(max_value):
    return st.floats(min_value=0.0, max_value=max_value, exclude_min=True, exclude_max=True)


class TestCountPlan:
    """The spec takes a synthetic source's counts exactly when seed 0 can run on them.

    Blob and anomaly placement always succeed at these sizes, so only the
    counts can make a seed fail.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        method=st.sampled_from(["rpo-max", "deep-rpo-mean"]),
        k_modes=st.integers(1, 3),
        dim=st.integers(1, 4),
        n_per_mode=st.integers(1, 40),
        anomaly_n=st.integers(0, 40),
        test_fraction=unit_interval(1.0),
        val_fraction=unit_interval(1.0),
        contamination=st.one_of(st.just(0.0), unit_interval(0.5)),
        sad_ratio=st.one_of(st.just(0.0), unit_interval(0.5)),
    )
    def test_spec_accepted_exactly_when_seed_0_can_run(self, method, **values):
        if method == "rpo-max":
            values["sad_ratio"] = 0.0  # SAD labels need a deep-rpo method
        values.update(method=method, seeds=(0,))
        min_train = 2 if method == "deep-rpo-mean" else 1
        try:
            spec = ExperimentSpec(**values)
        except ConfigError as exc:
            assert any(key in str(exc) for key in evaluation._COUNT_KEYS.values()), exc
            defaults = {f.name: f.default for f in dataclasses.fields(ExperimentSpec)}
            # the unchecked spec, with the blob count its property would resolve
            spec = types.SimpleNamespace(**{**defaults, **values},
                                         resolved_k_modes=values["k_modes"])
            accepted = False
        else:
            accepted = True
        try:
            ds = _assemble_dataset(spec, 0)[0]
        except (DataError, ValueError):
            runs = False
        else:
            both = [ds.count(part, label) for part in (VAL, TEST) for label in (NORMAL, ANOMALY)]
            runs = all(both) and ds.count(TRAIN) >= min_train
        assert accepted == runs
        if accepted:
            counts = plan_counts(spec.k_modes, spec.n_per_mode, spec.anomaly_n,
                                 spec.test_fraction, spec.val_fraction, spec.contamination,
                                 spec.sad_ratio, min_train)
            assert ds.count(TEST, NORMAL) == spec.k_modes * counts["n_test"]
            assert ds.count(VAL, NORMAL) == ds.count(VAL, ANOMALY) == counts["n_val"]
            assert ds.count(TRAIN, ANOMALY) == counts["contamination"] + counts["sad_labels"]
            assert int(ds.sad_flag.sum()) == counts["sad_labels"]
            assert ds.count(TRAIN) == counts["n_train"]
            assert ds.count(TEST, ANOMALY) == counts["test_anomalies"]


class TestRunExperiment:
    def test_shallow_single_seed(self):
        results = run_experiment(quick_spec(seeds=(0,)))
        assert len(results) == 1
        assert results[0].best_epoch == -1
        assert results[0].history == []
        assert 0.0 <= results[0].test_auc <= 1.0

    def test_deep_records_history(self):
        results = run_experiment(quick_spec(method="deep-rpo-mean", seeds=(0,)))
        assert len(results[0].history) == 3
        assert results[0].best_epoch >= 1

    def test_deterministic_rerun(self):
        spec = quick_spec(method="deep-svdd", seeds=(0, 1))
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert [(r.val_auc, r.test_auc) for r in a] == [(r.val_auc, r.test_auc) for r in b]

    def test_separable_synthetic_scores_well(self):
        results = run_experiment(quick_spec(seeds=(0, 1, 2)))
        mean, _ = aggregate(results)
        assert mean > 0.9

    def test_seed_failure_carries_seed_id(self, tmp_path):
        # a CSV's split depends on its rows, so only the seed finds that 3
        # anomalies cannot match the 8 validation normals of 100 - 25 train rows
        path = tmp_path / "few_anomalies.csv"
        rows = np.random.default_rng(0).normal(size=(103, 6))
        lines = ["f0,f1,f2,f3,f4,f5,class"] + [
            ",".join(map(repr, row.tolist())) + f",{int(i >= 100)}" for i, row in enumerate(rows)
        ]
        path.write_text("\n".join(lines) + "\n")
        spec = quick_spec(source=str(path), k_modes=0, seeds=(5,))
        with pytest.raises(RpoError, match="seed 5"):
            run_experiment(spec)

    def test_parallel_workers_match_sequential(self):
        spec = quick_spec(seeds=(0, 1))
        seq = run_experiment(spec, workers=1)
        par = run_experiment(spec, workers=2)
        assert [(r.seed, r.test_auc) for r in seq] == [(r.seed, r.test_auc) for r in par]

    def test_contamination_runs(self):
        results = run_experiment(quick_spec(contamination=0.1, seeds=(0,), anomaly_n=200))
        assert 0.0 <= results[0].test_auc <= 1.0

    def test_sad_requires_deep_rpo(self):
        with pytest.raises(ConfigError):
            quick_spec(sad_ratio=0.1)
        with pytest.raises(ConfigError):
            quick_spec(method="deep-svdd", sad_ratio=0.1)

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"method": "rpo-max", "rp_dim": 0}, "model.rp_dim"),
            ({"method": "deep-rpo-mean", "learning_rate": -1.0}, "training.learning_rate"),
        ],
    )
    def test_a_spec_checks_itself_when_built_or_replaced(self, overrides, key):
        # run_single_seed takes a spec as it is, so a bad value must fail where
        # the spec is made: by its constructor or by replace()
        with pytest.raises(ConfigError, match=key):
            ExperimentSpec(**overrides)
        with pytest.raises(ConfigError, match=key):
            replace(quick_spec(), **overrides)

    def test_csv_source_with_class_pick(self, tmp_path):
        from rpo.data import generate_multimodal, save_csv

        ds = generate_multimodal(3, 5, 120, 150, seed=0, test_fraction=0.0)
        path = tmp_path / "multi.csv"
        save_csv(ds, path)
        spec = quick_spec(source=str(path), k_modes=2, n_per_mode=0, seeds=(0, 1))
        results = run_experiment(spec)
        for r in results:
            assert len(r.chosen_classes) == 2
            assert all(c in (0, 1, 2) for c in r.chosen_classes)  # never the anomalies' -1

    @pytest.mark.parametrize("rewrite", ["more rows", "same size"])
    def test_csv_rewritten_in_place_is_read_again(self, tmp_path, rewrite):
        """A seed run after the file at its source path changes reads the new rows."""
        path = tmp_path / "data.csv"
        save_csv(generate_multimodal(2, 4, 60, 40, seed=0, test_fraction=0.0), path)
        spec = quick_spec(source=str(path), k_modes=0, normal_class_ids=(0, 1), seeds=(0, 1))
        assert _assemble_dataset(spec, 0)[0].n == 160
        before = os.stat(path)
        if rewrite == "more rows":
            save_csv(generate_multimodal(2, 4, 70, 40, seed=1, test_fraction=0.0), path)
        else:  # the same bytes, rows reversed: only the modification time tells them apart
            header, *rows = path.read_text().splitlines()
            path.write_text("\n".join([header, *rows[::-1]]) + "\n")
            # a filesystem with coarse timestamps could give the rewrite the old time
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 10**9))
        now = label_classes(*read_classes(path), (0, 1), path)
        ds, _, mean, std = _assemble_dataset(spec, 1)
        assert np.array_equal(ds.class_id, now.class_id)
        assert np.array_equal(ds.X, (now.X - mean) / std)

    def test_a_rewritten_csv_keeps_only_its_last_parse(self, tmp_path):
        path = tmp_path / "data.csv"
        spec = quick_spec(source=str(path), k_modes=0, normal_class_ids=(0, 1))
        evaluation._parse_source.cache_clear()
        for version in range(3):
            save_csv(generate_multimodal(2, 4, 60 + version, 40, seed=version,
                                         test_fraction=0.0), path)
            assert _assemble_dataset(spec, 0)[0].n == 2 * (60 + version) + 40
        info = evaluation._parse_source.cache_info()
        assert (info.misses, info.currsize) == (3, 1)

    def test_fixed_normals_and_class_pick_share_one_parse(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        save_csv(generate_multimodal(3, 4, 60, 40, seed=0, test_fraction=0.0), path)
        parses = []
        read_features = datamod.read_features
        monkeypatch.setattr(datamod, "read_features",
                            lambda *args: parses.append(args) or read_features(*args))
        fixed = quick_spec(source=str(path), k_modes=0, normal_class_ids=(0, 2))
        _assemble_dataset(replace(fixed, k_modes=2), 0)
        ds, chosen, _, _ = _assemble_dataset(fixed, 0)
        assert chosen == (0, 2)
        assert np.array_equal(ds.label == NORMAL, np.isin(ds.class_id, [0, 2]))
        assert parses == [(str(path),)]

    def test_affine_leaves_training_untouched(self):
        base = run_experiment(quick_spec(method="deep-rpo-mean", seeds=(0,)))
        scaled = run_experiment(
            quick_spec(
                method="deep-rpo-mean",
                seeds=(0,),
                affine=AffineSpec(mode="constant", alpha=0.5),
            )
        )
        # the perturbation is post-training: identical loss/validation history
        assert base[0].val_auc == scaled[0].val_auc
        assert [h.train_loss for h in base[0].history] == [
            h.train_loss for h in scaled[0].history
        ]

    @pytest.mark.parametrize("method", ["rpo-max", "deep-rpo-mean"])
    def test_dropout_and_affine_draw_from_the_run_seed(self, tmp_path, method):
        spec = quick_spec(
            method=method,
            epochs=2,
            dropout=DropoutSpec(components_rate=0.25, projections_rate=0.2),
            affine=AffineSpec(mode="standard_normal"),
        )
        runs = {}
        for name, seed in (("a", 3), ("b", 3), ("other", 4)):
            out = tmp_path / name
            out.mkdir()
            result = run_single_seed(spec, seed, checkpoint_dir=out)
            with np.load(out / f"{method}_seed{seed}.npz") as archive:
                runs[name] = result, {k: archive[k] for k in archive.files}
        (res_a, arrays_a), (res_b, arrays_b) = runs["a"], runs["b"]
        assert res_a.test_auc == res_b.test_auc
        assert arrays_a.keys() == arrays_b.keys()
        assert all(np.array_equal(arrays_a[k], arrays_b[k]) for k in arrays_a)
        # the run's own dropout sub-seed drew the mask
        space_dim = spec.latent_dim if spec.is_deep else spec.dim
        drawn = generate_projections(space_dim, 1, 50, sub_seed(3, "projections"))
        kept = apply_dropout(drawn, spec.dropout, sub_seed(3, "dropout"))
        assert kept.p == 40
        assert np.array_equal(arrays_a["proj_entries"], kept.entries)
        assert not np.array_equal(arrays_a["proj_entries"], runs["other"][1]["proj_entries"])


def run_sweep(base, axis, values, **kwargs):
    """Sweep ``base`` over ``values``; rows as ``(label, mean, std, n, gap_mean, gap_std)``."""
    rows = sweep(axis, sweep_points(base, axis, values), **kwargs)
    assert all(row[0] == base.method for row in rows)
    return [row[1:] for row in rows]


class TestSweep:
    def test_projection_count_axis(self):
        rows = run_sweep(quick_spec(method="deep-rpo-mean", epochs=2), "n_projections", [10, 20])
        assert [row[0] for row in rows] == ["10", "20"]
        assert all(row[3] == 2 for row in rows)

    def test_alpha_axis_has_gap_column(self):
        rows = run_sweep(quick_spec(), "alpha", [0.9, 1.0, 1.1])
        gaps = {label: gap_mean for label, _, _, _, gap_mean, _ in rows}
        assert gaps["1.0"] == pytest.approx(0.0, abs=1e-15)
        assert all(gap is not None for gap in gaps.values())

    def test_alpha_axis_without_baseline_value(self):
        rows = run_sweep(quick_spec(), "alpha", [0.8])
        assert rows[0][4] is not None

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigError):
            sweep_points(quick_spec(), "alpha", [])

    def test_invalid_axis_rejected(self, monkeypatch):
        ran = []
        monkeypatch.setattr(evaluation, "run_single_seed", lambda *a, **k: ran.append(a))
        with pytest.raises(ConfigError, match="unknown sweep axis 'bananas'"):
            run_sweep(quick_spec(), "bananas", [1])
        assert ran == []

    def test_bad_value_rejected_before_any_seed_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr(evaluation, "run_single_seed", lambda *a, **k: ran.append(a))
        with pytest.raises(ConfigError, match="model.n_projections"):
            run_sweep(quick_spec(), "n_projections", [10, 0])
        assert ran == []

    def test_axis_method_compatibility(self):
        # sweep_points refuses the axis, so sweep itself runs the points it is given
        with pytest.raises(ConfigError, match="sweep.axis: axis 'n_projections' does not apply"):
            sweep_points(quick_spec(method="deep-svdd"), "n_projections", [10])
        with pytest.raises(ConfigError):
            run_sweep(quick_spec(), "sad_ratio", [0.0, 0.1])

    def test_dropout_axis(self):
        rows = run_sweep(
            quick_spec(),
            "dropout",
            [{"components_rate": 0.1}, {"projections_rate": 0.3}],
        )
        assert rows[0][0] == "C=0.1;P=0.0"
        assert rows[1][0] == "C=0.0;P=0.3"

    def test_sweep_matches_direct_run(self):
        spec = quick_spec(method="deep-rpo-mean", epochs=2)
        rows = run_sweep(spec, "rp_dim", [2])
        direct = run_experiment(replace(spec, rp_dim=2))
        assert rows[0][1] == aggregate(direct)[0]


def alpha_rows_run_per_value(base, values):
    """The alpha sweep as separate experiments: one per value, and one at alpha = 1.0 for the gap."""
    def alpha_spec(value):
        return replace(base, affine=AffineSpec(mode="constant", alpha=value))

    baseline = run_experiment(alpha_spec(1.0))
    rows = []
    for value in values:
        results = run_experiment(alpha_spec(value))
        gaps = [r.test_auc - b.test_auc for r, b in zip(results, baseline)]
        rows.append((str(value), *aggregate(results), len(results), *mean_std(gaps)))
    return rows


class TestAlphaSweepFitsOnce:
    @pytest.mark.parametrize(
        "method, values, workers",
        [
            ("rpo-max", [0.8, 1.0, 1.2], 1),
            ("rpo-max", [0.5], 2),
            ("deep-svdd", [0.9, 1.1], 1),
            ("deep-svdd", [1.0, 0.7], 2),
            ("deep-rpo-mean", [0.95, 1.0, 1.05], 2),
            ("deep-rpo-mean", [1.3, 0.6], 1),
        ],
    )
    def test_equals_an_experiment_per_value(self, method, values, workers):
        base = quick_spec(method=method, epochs=2)
        rows = run_sweep(base, "alpha", values, workers=workers)
        assert rows == alpha_rows_run_per_value(base, values)

    def test_trains_each_seed_once(self, monkeypatch):
        trained = []

        def counting_train(*args, **kwargs):
            trained.append(kwargs["seed"])
            return train(*args, **kwargs)

        monkeypatch.setattr(evaluation, "train", counting_train)
        base = quick_spec(method="deep-rpo-mean", epochs=2, seeds=(0, 1, 2))
        logged = []
        rows = run_sweep(base, "alpha", [0.8, 0.9, 1.1, 1.2], progress=logged.append)
        assert len(rows) == 4
        assert trained == [sub_seed(seed, "train") for seed in base.seeds]
        # one log line per fitted seed, carrying its unperturbed test AUC
        assert [r.seed for r in logged] == list(base.seeds)
        assert [r.test_auc for r in logged] == [r.test_auc for r in run_experiment(base)]

    def test_base_affine_is_ignored(self):
        base = quick_spec(method="deep-rpo-mean", epochs=2)
        perturbed = replace(base, affine=AffineSpec(mode="uniform_range", low=0.2, high=3.0))
        assert aggregate(run_experiment(perturbed)) != aggregate(run_experiment(base))
        assert run_sweep(perturbed, "alpha", [0.9, 1.0]) == run_sweep(base, "alpha", [0.9, 1.0])
