import csv
import io
import logging
import pathlib
import zipfile
from dataclasses import replace

import numpy as np
import pytest
import yaml

from rpo import cli, evaluation
from rpo.cli import build_parser, main
from rpo.config import load_config, parse_config
from rpo.data import (
    AffineSpec,
    generate_multimodal,
    label_classes,
    read_classes,
    save_csv,
    write_numbers,
)
from rpo.errors import ConfigError, DataError, NumericError
from rpo.evaluation import ExperimentSpec, run_experiment
from rpo.model_io import load_model_checkpoint
from rpo.projections import DropoutSpec
from rpo.scoring import depth

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        return exc.code


def write_config(path, **overrides):
    cfg = {
        "methods": ["rpo-max"],
        "seeds": [0, 1],
        "dataset": {
            "source": "synthetic",
            "k_modes": 2,
            "dim": 6,
            "n_per_mode": 80,
            "anomaly_n": 80,
        },
        "model": {"n_projections": 50},
        "training": {"epochs": 2, "batch_size": 32},
        "output": {
            "results": str(path.parent / "out" / "results.csv"),
            "aggregate": str(path.parent / "out" / "aggregate.csv"),
        },
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path.write_text(yaml.safe_dump(cfg))
    return cfg


def write_sweep_config(path, **overrides):
    """``write_config`` without ``output.results``, which ``rpo sweep`` refuses, unless given."""
    cfg = write_config(path, **overrides)
    if "results" not in overrides.get("output", {}):
        del cfg["output"]["results"]
    path.write_text(yaml.safe_dump(cfg))
    return cfg


class TestConfig:
    def test_unknown_key_rejected_with_name(self, tmp_path):
        path = tmp_path / "c.yaml"
        write_config(path, training={"epochs": 2, "warmup": 5})
        with pytest.raises(ConfigError, match="training.warmup"):
            load_config(path)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="gpu"):
            parse_config({"methods": ["rpo-max"], "gpu": True})

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="unknown method"):
            parse_config({"methods": ["isolation-forest"]})

    def test_seeds_int_shorthand(self):
        cfg = parse_config({"methods": ["rpo-max"], "seeds": 3})
        assert [spec.seeds for spec in cfg.specs] == [(0, 1, 2)]

    def test_method_defaults_projection_counts(self):
        (shallow,) = parse_config({"methods": ["rpo-max"]}).specs
        (deep,) = parse_config({"methods": ["deep-rpo-mean"]}).specs
        assert shallow.resolved_projections == 1000
        from dataclasses import replace

        assert replace(deep, method="deep-rpo-mean").resolved_projections == 500

    def test_missing_dataset_file(self, tmp_path):
        path = tmp_path / "c.yaml"
        write_config(path, dataset={"source": "nowhere.csv", "k_modes": 0})
        with pytest.raises(DataError, match="not found"):
            load_config(path)

    def test_methods_list(self):
        cfg = parse_config({"methods": ["rpo-max", "deep-svdd"]})
        assert [spec.method for spec in cfg.specs] == ["rpo-max", "deep-svdd"]

    @pytest.mark.parametrize("dataset, k_modes", [({}, 2), ({"source": "c.csv"}, 0)])
    def test_library_and_config_share_the_k_modes_default(self, tmp_path, dataset, k_modes):
        # synthetic: two blobs; CSV: every normal class
        dataset = {key: str(tmp_path / value) for key, value in dataset.items()}
        (from_config,) = parse_config({"methods": ["rpo-max"], "dataset": dataset}).specs
        from_library = ExperimentSpec(method="rpo-max", **dataset)
        assert from_config == from_library
        assert from_library.resolved_k_modes == k_modes

    def test_methods_is_the_one_method_key(self):
        # "method:" was a second spelling of a one-method list
        with pytest.raises(ConfigError, match="unknown config key: method$"):
            parse_config({"method": "rpo-max"})
        (spec,) = parse_config({}).specs
        assert spec.method == ExperimentSpec.method

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
    def test_every_shipped_config_parses(self, path):
        cfg = parse_config(yaml.safe_load(path.read_text()), config_dir=str(path.parent))
        assert cfg.specs


def without_libyaml(monkeypatch):
    """Take ``yaml.CSafeLoader`` away, as on a PyYAML built without libyaml."""
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)


LOADERS = pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "python"])


class TestConfigFile:
    @pytest.mark.parametrize("path", [CONFIGS / "synthetic.yaml", CONFIGS / "affine_sweep.yaml"],
                             ids=lambda p: p.name)
    def test_python_loader_builds_the_same_config(self, monkeypatch, path):
        with_libyaml = load_config(path)
        loaders = []
        load = yaml.load
        monkeypatch.setattr(yaml, "load", lambda stream, Loader: loaders.append(Loader)
                            or load(stream, Loader=Loader))
        without_libyaml(monkeypatch)
        assert load_config(path) == with_libyaml
        assert [L.__mro__[1] for L in loaders] == [yaml.SafeLoader]

    @LOADERS
    @pytest.mark.parametrize("where, text, named", [
        ("top", "seeds: 5\n", ":20: duplicate config key: seeds"),
        ("training", "  epochs: 3\n", ":20: duplicate config key: training.epochs"),
        ("model", "  dropout: {components_rate: 0.1, components_rate: 0.2}\n",
         ":10: duplicate config key: model.dropout.components_rate"),
    ], ids=["top", "training", "model"])
    def test_duplicate_key_exits_1_naming_it(self, tmp_path, monkeypatch, caplog, libyaml,
                                             where, text, named):
        # YAML itself keeps a repeated key's last value: seeds 5 ran five seeds
        if not libyaml:
            without_libyaml(monkeypatch)
        cfg_path = tmp_path / "c.yaml"
        write_config(cfg_path)
        lines = cfg_path.read_text().splitlines(keepends=True)
        at = len(lines) if where == "top" else lines.index(f"{where}:\n") + 1
        cfg_path.write_text("".join(lines[:at]) + text + "".join(lines[at:]))
        assert run_cli("bench", "-c", str(cfg_path)) == 1
        errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{cfg_path}{named}"]
        assert not (tmp_path / "out").exists()

    @LOADERS
    def test_not_utf8_exits_1_naming_the_file_and_line(self, tmp_path, monkeypatch, caplog,
                                                      libyaml):
        # it exited 2 with the bare codec message, which named no file
        if not libyaml:
            without_libyaml(monkeypatch)
        cfg_path = tmp_path / "c.yaml"
        write_config(cfg_path)
        cfg_path.write_bytes(b"# settings\r\n# caf\xe9\n" + cfg_path.read_bytes())
        assert run_cli("bench", "-c", str(cfg_path)) == 1
        errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{cfg_path}:2: not UTF-8: invalid continuation byte (byte 0xe9)"]
        assert not (tmp_path / "out").exists()


class TestGenData:
    def test_writes_files_and_round_trips(self, tmp_path):
        out = tmp_path / "ds"
        code = run_cli(
            "gen-data", "--modes", "3", "--dim", "16", "--seed", "7",
            "--n-per-mode", "40", "--anomalies", "30", "--out-dir", str(out),
        )
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["data.csv"]
        path = out / "data.csv"
        loaded = label_classes(*read_classes(path), (0, 1, 2), path)
        expected = generate_multimodal(3, 16, 40, 30, seed=7)
        assert np.array_equal(loaded.X, expected.X)
        assert np.array_equal(loaded.class_id, expected.class_id)
        assert np.array_equal(loaded.label, expected.label)
        # the anomalies are class -1, which no class pick draws
        assert np.array_equal(loaded.class_id[loaded.label == 1], np.full(30, -1))

    def test_no_class_pick_names_the_anomalies(self, tmp_path):
        # with the anomalies as class 4, a 2-class pick gave seed 0 [0, 4]: a test AUC of 0.627
        out = tmp_path / "ds"
        assert run_cli("gen-data", "--modes", "4", "--dim", "2", "--n-per-mode", "20",
                       "--anomalies", "10", "--out-dir", str(out)) == 0
        spec = ExperimentSpec(method="rpo-max", source=str(out / "data.csv"), k_modes=2)
        picks = {evaluation._assemble_dataset(spec, seed)[1] for seed in range(100)}
        assert all(len(pick) == 2 and set(pick) <= {0, 1, 2, 3} for pick in picks), picks
        assert len(picks) == 6  # every pair of the four modes

    def test_a_pick_beyond_the_normal_classes_names_their_count(self, tmp_path, caplog):
        out = tmp_path / "ds"
        assert run_cli("gen-data", "--modes", "2", "--dim", "2", "--n-per-mode", "20",
                       "--anomalies", "10", "--out-dir", str(out)) == 0
        cfg_path = tmp_path / "c.yaml"
        write_config(cfg_path, dataset={"source": str(out / "data.csv"), "k_modes": 3})
        assert run_cli("bench", "-c", str(cfg_path)) == 2
        errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert any("k_modes=3 exceeds the 2 classes with an id >= 0" in e for e in errors), errors

    def test_identical_files_on_rerun(self, tmp_path):
        args = ["gen-data", "--modes", "2", "--dim", "4", "--seed", "3",
                "--n-per-mode", "20", "--anomalies", "10"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out-dir", str(a)) == 0
        assert run_cli(*args, "--out-dir", str(b)) == 0
        assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()

    @pytest.mark.parametrize("flag, value", [("--modes", "0"), ("--dim", "x"),
                                             ("--n-per-mode", "0"), ("--anomalies", "-1"),
                                             ("--seed", "4294967296")])
    def test_bad_flag_value_exits_1_naming_the_flag(self, tmp_path, caplog, flag, value):
        # argparse checks each count as it parses, so the message names the flag
        flags = {"--modes": "2", "--dim": "2", "--n-per-mode": "20", "--anomalies": "5",
                 flag: value}
        argv = [text for pair in flags.items() for text in pair]
        assert run_cli("gen-data", *argv, "--out-dir", str(tmp_path / "ds")) == 1
        errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert any(e.startswith(f"argument {flag}: ") for e in errors), errors
        assert list(tmp_path.iterdir()) == []

    def test_missing_required_flag_usage_error(self):
        assert run_cli("gen-data", "--dim", "4") == 1

    def test_count_defaults_are_the_spec_defaults(self):
        args = build_parser().parse_args(["gen-data", "--modes", "1", "--dim", "2"])
        assert args.n_per_mode == ExperimentSpec.n_per_mode
        assert args.anomalies == ExperimentSpec.anomaly_n


class TestBench:
    def test_bench_writes_results_and_aggregate(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_config(cfg_path)
        assert run_cli("bench", "-c", str(cfg_path)) == 0
        results = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert results[0] == "method,dataset,k_modes,seed,best_epoch,val_auc,test_auc"
        assert len(results) == 3  # header + 2 seeds
        aggregate = (tmp_path / "out" / "aggregate.csv").read_text().splitlines()
        assert len(aggregate) == 2

    def test_bench_rerun_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_config(cfg_path, methods=["deep-rpo-mean"], training={"epochs": 2})
        assert run_cli("bench", "-c", str(cfg_path)) == 0
        first = (tmp_path / "out" / "results.csv").read_bytes()
        first_agg = (tmp_path / "out" / "aggregate.csv").read_bytes()
        assert run_cli("bench", "-c", str(cfg_path)) == 0
        assert (tmp_path / "out" / "results.csv").read_bytes() == first
        assert (tmp_path / "out" / "aggregate.csv").read_bytes() == first_agg

    def test_multi_method_comparison(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_config(cfg_path, methods=["rpo-max", "deep-svdd"], seeds=[0])
        assert run_cli("bench", "-c", str(cfg_path)) == 0
        aggregate = (tmp_path / "out" / "aggregate.csv").read_text().splitlines()
        assert len(aggregate) == 3  # header + one row per method

    def test_bench_runs_the_specs_of_the_config(self, tmp_path, monkeypatch):
        seen = []

        def recording(spec, **kwargs):
            seen.append(spec)
            return run_experiment(spec, **kwargs)

        monkeypatch.setattr(cli, "run_experiment", recording)
        cfg_path = tmp_path / "c.yaml"
        write_config(cfg_path, seeds=[3, 1], methods=["rpo-max", "rpo-mean", "deep-svdd"],
                     model={"n_projections": 20, "dropout": {"components_rate": 0.2}},
                     protocol={"affine": {"mode": "constant", "alpha": 1.1}})
        assert run_cli("bench", "-c", str(cfg_path)) == 0
        expected = load_config(cfg_path).specs
        assert [spec.method for spec in expected] == ["rpo-max", "rpo-mean", "deep-svdd"]
        assert seen == expected

    def test_inputs_never_mutated(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_config(cfg_path)
        before = cfg_path.read_bytes()
        assert run_cli("bench", "-c", str(cfg_path)) == 0
        assert cfg_path.read_bytes() == before

    def test_missing_dataset_no_partial_output(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_config(cfg_path, dataset={"source": "missing.csv", "k_modes": 0})
        assert run_cli("bench", "-c", str(cfg_path)) == 2
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_invalid_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_config(cfg_path, training={"epochs": 2, "bogus_key": 1})
        assert run_cli("bench", "-c", str(cfg_path)) == 1

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"protocol": {"affine": {"mode": "random-diagonal"}}}, "protocol.affine"),
            ({"model": {"dropout": {"components_rate": 1.5}}}, "model.dropout"),
            ({"protocol": {"val_fraction": 1.5}}, "protocol.val_fraction"),
            ({"protocol": {"test_fraction": 1.0}}, "protocol.test_fraction"),
            ({"model": {"hidden_dims": 8}}, "model.hidden_dims"),
            ({"dataset": {"normal_class_ids": 1}}, "dataset.normal_class_ids"),
            ({"dataset": {"normal_class_ids": []}}, "dataset.normal_class_ids"),
            ({"methods": []}, "methods"),
            ({"methods": "rpo-max"}, "methods"),
            ({"training": {"batch_size": 0}}, "training.batch_size"),
            ({"model": {"n_projections": 0}}, "model.n_projections"),
            ({"protocol": {"contamination": 1.5}}, "protocol.contamination"),
            ({"dataset": {"dim": 0}}, "dataset.dim"),
            # removed keys: a once-valid value is now an unknown key
            ({"training": {"eps_floor": 1.0e-6}}, "training.eps_floor"),
            ({"training": {"stats_mode": "batch"}}, "training.stats_mode"),
            ({"dataset": {"label_column": "class"}}, "dataset.label_column"),
            ({"model": {"dropout": {"components_rate": 0.1, "seed": 5}}}, "model.dropout.seed"),
            ({"protocol": {"affine": {"mode": "uniform_range", "seed": 5}}},
             "protocol.affine.seed"),
            ({"methods": ["deep-rpo-mean"], "protocol": {"sad_ratio": 0.7}}, "protocol.sad_ratio"),
            ({"methods": ["deep-rpo-mean"], "protocol": {"sad_ratio": -0.1}}, "protocol.sad_ratio"),
            ({"methods": ["deep-rpo-mean"], "protocol": {"sad_ratio": 0.1, "sad_classes": 0}},
             "protocol.sad_classes"),
            ({"methods": ["deep-rpo-mean"], "model": {"hidden_dims": [0]}}, "model.hidden_dims"),
            ({"methods": ["deep-svdd"], "model": {"latent_dim": 0}}, "model.latent_dim"),
            ({"dataset": {"n_per_mode": 0}}, "dataset.n_per_mode"),
            ({"dataset": {"anomaly_n": -1}}, "dataset.anomaly_n"),
            # every source starts its normals in train: 0 leaves no normal test row
            ({"protocol": {"test_fraction": 0.0}}, "protocol.test_fraction"),
            ({"methods": ["deep-rpo-mean"], "training": {"learning_rate": -1.0}},
             "training.learning_rate"),
            ({"methods": ["deep-rpo-mean"], "training": {"weight_decay": -1.0}},
             "training.weight_decay"),
            ({"seeds": [1.5]}, "seeds"),
            ({"seeds": [0, 0]}, "seeds"),
            ({"seeds": True}, "seeds"),
            ({"training": {"epochs": 2.7}}, "training.epochs"),
            ({"model": {"n_projections": True}}, "model.n_projections"),
            ({"dataset": {"normal_class_ids": [0.5]}}, "dataset.normal_class_ids"),
            # a negative class id marks anomalies, which are never normal
            ({"dataset": {"normal_class_ids": [0, -1]}}, "dataset.normal_class_ids"),
            ({"methods": ["deep-rpo-mean"], "training": {"learning_rate": True}},
             "training.learning_rate"),
            ({"methods": ["bogus"]}, "method"),
            ({"methods": ["deep-svdd"], "training": {"epochs": 0}}, "training.epochs"),
            ({"dataset": {"k_modes": 0}}, "dataset.k_modes"),
            ({"model": {"rp_dim": 0}}, "model.rp_dim"),
            ({"protocol": {"sad_ratio": 0.1}}, "protocol.sad_ratio"),
            ({"seeds": 0}, "seeds must be >= 1, got 0"),
            ({"seeds": -3}, "seeds must be >= 1, got -3"),
            # a repeated method would run twice, write one checkpoint twice and
            # count its seeds twice in the results
            ({"methods": ["rpo-max", "rpo-max"]},
             "methods must be distinct, got ['rpo-max', 'rpo-max']"),
            ({"methods": ["rpo-max", "deep-svdd", "rpo-max"]},
             "methods must be distinct"),
            ({"protocol": {"affine": {"mode": "constant", "alpha": float("nan")}}},
             "protocol.affine"),
            ({"protocol": {"affine": {"mode": "constant", "alpha": float("inf")}}},
             "protocol.affine"),
            ({"protocol": {"affine": {"mode": "uniform_range", "low": float("nan")}}},
             "protocol.affine"),
            # a CSV source that does not exist: the spec check comes first
            ({"dataset": {"source": "data.csv"}, "protocol": {"test_fraction": 0.0}},
             "protocol.test_fraction"),
            # round(0.004 * 100) = 0 normals of a synthetic mode go to test
            ({"dataset": {"n_per_mode": 100}, "protocol": {"test_fraction": 0.004}},
             "protocol.test_fraction"),
            # a CSV source picks k_modes classes, 0 taking every normal class
            ({"dataset": {"source": "data.csv", "k_modes": -1}}, "dataset.k_modes"),
            # bench runs no sweep, so it refuses the sweep section before reading its values
            ({"sweep": {"values": [1, 2]}}, "sweep.values is read by rpo sweep, not rpo bench"),
        ],
    )
    def test_bad_config_value_exits_1_naming_the_key(self, tmp_path, caplog, overrides, named):
        cfg_path = tmp_path / "c.yaml"
        write_config(cfg_path, **overrides)
        assert run_cli("bench", "-c", str(cfg_path)) == 1
        assert any(named in r.message for r in caplog.records if r.levelname == "ERROR")
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize(
        "dataset, named",
        [
            # 2 modes of 3 rows: round(0.25 * 3) = 1 each to test, then
            # round(0.1 * 4) = 0 of the 4 train normals to validation
            ({"n_per_mode": 3}, "dataset.n_per_mode"),
            ({"n_per_mode": 4}, None),
            # 2 modes of 500 rows: 75 of the 750 train normals go to validation,
            # matched by 75 anomalies, and split keeps one more for test
            ({"n_per_mode": 500, "anomaly_n": 75}, "dataset.anomaly_n"),
            ({"n_per_mode": 500, "anomaly_n": 76}, None),
            # 1 mode of 8 rows: 2 to test, then round(0.95 * 6) = 6 of the 6 train
            # normals to validation, leaving no row to standardize on
            ({"k_modes": 1, "n_per_mode": 8, "anomaly_n": 20, "methods": ["rpo-max"],
              "protocol": {"val_fraction": 0.95}}, "protocol.val_fraction"),
            # round(0.8 * 6) = 5 to validation leaves 1 train row: a shallow fit
            # runs on it, training needs 2
            ({"k_modes": 1, "n_per_mode": 8, "anomaly_n": 20, "methods": ["rpo-max"],
              "protocol": {"val_fraction": 0.8}}, None),
            ({"k_modes": 1, "n_per_mode": 8, "anomaly_n": 20,
              "protocol": {"val_fraction": 0.8}}, "protocol.val_fraction"),
        ],
    )
    def test_synthetic_split_that_cannot_run_exits_1(self, tmp_path, caplog, dataset, named):
        # a case's "methods" and "protocol" entries set those keys; the rest is the dataset's
        dataset = dict(dataset)
        methods = dataset.pop("methods", ["deep-rpo-mean"])
        protocol = dataset.pop("protocol", {})
        cfg_path = tmp_path / "c.yaml"
        write_config(cfg_path, methods=methods, seeds=[0], dataset={"dim": 4, **dataset},
                     model={"n_projections": 8}, protocol=protocol,
                     training={"epochs": 1, "batch_size": 32})
        code = run_cli("bench", "-c", str(cfg_path))
        errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
        if named is None:
            assert code == 0, errors
        else:
            assert code == 1 and any(named in e for e in errors), errors
            assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize(
        "protocol, anomaly_n, named",
        [
            # 2 modes of 80 rows: 20 each to test, then 12 of the 120 train
            # normals and 12 anomalies to validation, leaving 108 train rows;
            # 0.1 of the train split is round(0.1 * 108 / 0.9) = 12 injected rows
            ({"contamination": 0.1}, 13, "protocol.contamination"),
            ({"contamination": 0.1}, 24, "protocol.contamination"),
            ({"contamination": 0.1}, 25, None),
            ({"sad_ratio": 0.1}, 24, "protocol.sad_ratio"),
            ({"sad_ratio": 0.1}, 25, None),
            # SAD runs after contamination: round(0.1 * 120 / 0.9) = 13 more rows
            ({"contamination": 0.1, "sad_ratio": 0.1}, 37, "protocol.sad_ratio"),
            ({"contamination": 0.1, "sad_ratio": 0.1}, 38, None),
        ],
    )
    def test_synthetic_anomaly_pool_too_small_exits_1(self, tmp_path, caplog, protocol,
                                                      anomaly_n, named):
        cfg_path = tmp_path / "c.yaml"
        write_config(cfg_path, methods=["deep-rpo-mean"], seeds=[0],
                     dataset={"dim": 4, "n_per_mode": 80, "anomaly_n": anomaly_n},
                     model={"n_projections": 8}, protocol=protocol,
                     training={"epochs": 1, "batch_size": 32})
        code = run_cli("bench", "-c", str(cfg_path))
        errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
        if named is None:
            assert code == 0, errors
        else:
            assert code == 1 and any(named in e for e in errors), errors
            assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize(
        "exc, code",
        [
            (ConfigError("bad spec"), 1),
            (ValueError("bad rows"), 2),
            (NumericError("singular"), 3),
            (np.linalg.LinAlgError("singular"), 3),
            (FloatingPointError("overflow"), 3),
        ],
    )
    def test_failure_inside_seed_exit_code(self, tmp_path, monkeypatch, exc, code):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(evaluation, "fit_rpo", fail)
        cfg_path = tmp_path / "c.yaml"
        write_config(cfg_path, seeds=[0])
        assert run_cli("bench", "-c", str(cfg_path)) == code
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("rp_dim, code", [(20, 0), (40, 1)])
    def test_rp_dim_checked_against_csv_width(self, tmp_path, caplog, rp_dim, code):
        # dataset.dim (6 here) sizes synthetic data only; a CSV's own width
        # (36 features) bounds a shallow method's rp_dim
        rng = np.random.default_rng(0)
        cls = np.repeat([0, 1], [120, 60])
        X = rng.normal(size=(cls.size, 36)) + 3.0 * cls[:, np.newaxis]
        csv_path = tmp_path / "wide.csv"
        rows = [",".join([*map(repr, map(float, x)), str(c)]) for x, c in zip(X, cls)]
        csv_path.write_text("\n".join([",".join([f"f{i}" for i in range(36)] + ["class"]), *rows]))
        cfg_path = tmp_path / "c.yaml"
        write_config(
            cfg_path,
            seeds=[0],
            dataset={"source": str(csv_path), "k_modes": 0},
            model={"n_projections": 10, "rp_dim": rp_dim},
        )
        assert run_cli("bench", "-c", str(cfg_path)) == code
        assert (tmp_path / "out" / "results.csv").exists() == (code == 0)
        if code:
            errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
            assert any("model.rp_dim 40" in e and "36 features" in e for e in errors)

    def test_class_pick_reads_no_normal_class_ids(self, tmp_path, caplog):
        # classes 1, 2 and the anomalies' -1 only: a pick of one class runs, whatever
        # dataset.normal_class_ids says, while k_modes 0 (every normal class) still needs
        # the normal ids to be present
        ds = generate_multimodal(3, 4, 60, 40, seed=0, test_fraction=0.0)
        rows = ds.class_id != 0
        csv_path = tmp_path / "c.csv"
        write_numbers(csv_path, ["f0", "f1", "f2", "f3", "class"],
                      [*ds.X[rows].T, ds.class_id[rows]])
        results = tmp_path / "out" / "results.csv"
        written = {}
        for name, dataset in [("default ids", {}), ("other ids", {"normal_class_ids": [2, 3]})]:
            cfg_path = tmp_path / "c.yaml"
            write_config(cfg_path, dataset={"source": str(csv_path), "k_modes": 1, **dataset})
            assert run_cli("bench", "-c", str(cfg_path)) == 0
            written[name] = results.read_bytes()
        assert written["default ids"] == written["other ids"]
        assert [row.split(",")[2] for row in written["default ids"].decode().splitlines()] == [
            "k_modes", "1", "1"]
        results.unlink()
        write_config(cfg_path, dataset={"source": str(csv_path), "k_modes": 0})
        assert run_cli("bench", "-c", str(cfg_path)) == 2
        errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert any("unknown class id(s) [0] not present" in e for e in errors), errors
        assert not results.exists()

    def test_seed_log_names_the_normal_classes(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="rpo")
        ds = generate_multimodal(3, 4, 60, 40, seed=0, test_fraction=0.0)
        csv_path = tmp_path / "c.csv"
        save_csv(ds, csv_path)
        cfg_path = tmp_path / "c.yaml"
        write_config(cfg_path, seeds=[0, 1, 2], dataset={"source": str(csv_path), "k_modes": 2})
        assert run_cli("bench", "-c", str(cfg_path)) == 0
        (spec,) = load_config(cfg_path).specs
        picks = [evaluation._assemble_dataset(spec, seed)[1] for seed in spec.seeds]
        assert len(set(picks)) > 1  # the seeds pick different classes, so the line must say
        logged = [r.getMessage().split(" best_epoch=")[0] for r in caplog.records
                  if r.getMessage().startswith("seed ")]
        assert logged == [f"seed {seed}: normal_classes={list(pick)}"
                          for seed, pick in zip(spec.seeds, picks)]

    def test_history_emission(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_config(
            cfg_path,
            methods=["deep-rpo-mean"],
            seeds=[0],
            output={
                "results": str(tmp_path / "out" / "results.csv"),
                "aggregate": str(tmp_path / "out" / "aggregate.csv"),
                "history_dir": str(tmp_path / "out" / "history"),
            },
        )
        assert run_cli("bench", "-c", str(cfg_path)) == 0
        history = (tmp_path / "out" / "history" / "deep-rpo-mean_seed0.csv").read_text()
        lines = history.splitlines()
        assert lines[0] == "epoch,train_loss,val_auc"
        assert len(lines) == 3  # header + 2 epochs


class TestSweepCommand:
    def test_sweep_writes_aggregate(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_sweep_config(cfg_path, sweep={"axis": "alpha", "values": [0.9, 1.0, 1.1]})
        assert run_cli("sweep", "-c", str(cfg_path)) == 0
        lines = (tmp_path / "out" / "aggregate.csv").read_text().splitlines()
        assert lines[0] == "method,axis_value,mean_auc,std_auc,n_seeds,gap_mean,gap_std"
        assert len(lines) == 4

    def test_sweep_without_section(self, tmp_path, monkeypatch, caplog):
        ran = []
        monkeypatch.setattr(evaluation, "_map_seeds", lambda *a, **k: ran.append(a))
        cfg_path = tmp_path / "c.yaml"
        write_sweep_config(cfg_path)
        assert run_cli("sweep", "-c", str(cfg_path)) == 1
        assert ran == []
        errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert any("sweep.axis is not set" in e for e in errors), errors
        assert not (tmp_path / "out").exists()

    def test_values_without_axis_exits_1_naming_it(self, tmp_path, monkeypatch, caplog):
        ran = []
        monkeypatch.setattr(evaluation, "_map_seeds", lambda *a, **k: ran.append(a))
        cfg_path = tmp_path / "c.yaml"
        write_sweep_config(cfg_path, sweep={"values": [0.9, 1.0]})
        assert run_cli("sweep", "-c", str(cfg_path)) == 1
        assert ran == []
        errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
        # not the message of a config with no sweep section, which names sweep.axis too
        assert any("sweep.axis is missing" in e for e in errors), errors
        assert not (tmp_path / "out" / "aggregate.csv").exists()

    @pytest.mark.parametrize(
        "sweep",
        [
            {"axis": "dropout", "values": [{"components_rate": 0.1}, {"components_rate": 1.5}]},
            {"axis": "n_projections", "values": [20, "abc"]},
            {"axis": "alpha", "values": [0.9, float("nan")]},
            {"axis": "alpha", "values": [0.9, float("inf")]},
            # each value is read by its key's rule: no truncated count, no bool as a number
            {"axis": "rp_dim", "values": [1, 1.5]},
            {"axis": "rp_dim", "values": [True]},
            {"axis": "n_projections", "values": [20, 20.7]},
            {"axis": "n_projections", "values": [True]},
            {"axis": "alpha", "values": [True]},
            {"axis": "alpha", "values": [0.9, False]},
            {"axis": "sad_ratio", "values": [True]},
            {"axis": "sad_ratio", "values": [False]},
            # null would read as the key's default, which names no sweep point
            {"axis": "n_projections", "values": [20, None]},
            {"axis": "dropout", "values": [None]},
            {"axis": "rp_dim", "values": [None]},
            # two values that read to one spec would write two identical aggregate rows
            {"axis": "alpha", "values": [1.0, 1.0]},
            {"axis": "n_projections", "values": [20, 30, 20.0]},
            {"axis": "dropout", "values": [{"components_rate": 0.1},
                                          {"components_rate": 0.1, "projections_rate": 0.0}]},
        ],
    )
    def test_bad_sweep_value_exits_1_before_any_seed(self, tmp_path, monkeypatch, caplog, sweep):
        ran = []
        # every sweep axis runs its seeds through _map_seeds
        monkeypatch.setattr(evaluation, "_map_seeds", lambda *a, **k: ran.append(a))
        cfg_path = tmp_path / "c.yaml"
        # sad_ratio needs a deep-rpo method; the others run on rpo-max
        write_sweep_config(cfg_path, sweep=sweep,
                           methods=["deep-rpo-mean" if sweep["axis"] == "sad_ratio" else "rpo-max"])
        assert run_cli("sweep", "-c", str(cfg_path)) == 1
        assert ran == []
        assert any("sweep.values" in r.message for r in caplog.records if r.levelname == "ERROR")
        assert not (tmp_path / "out" / "aggregate.csv").exists()

    @pytest.mark.parametrize(
        "sweep, named",
        [({"axis": "alpha", "values": [1.0, 1.0]},
          "sweep.values: repeated alpha value 1.0: entry 2 reads as entry 1 does"),
         ({"axis": "n_projections", "values": [20, 30, "20"]},
          "sweep.values: repeated n_projections value '20': entry 3 reads as entry 1 does")],
    )
    def test_repeated_sweep_value_exits_1_naming_it(self, tmp_path, monkeypatch, caplog, sweep,
                                                    named):
        ran = []
        monkeypatch.setattr(evaluation, "_map_seeds", lambda *a, **k: ran.append(a))
        cfg_path = tmp_path / "c.yaml"
        write_sweep_config(cfg_path, sweep=sweep, methods=["rpo-max"])
        assert run_cli("sweep", "-c", str(cfg_path)) == 1
        assert ran == []
        errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert any(named in e for e in errors), errors

    @pytest.mark.parametrize(
        "overrides, axis, values, key",
        [({"model": {"rp_dim": 2}}, "rp_dim", [1, 3], "model.rp_dim"),
         # write_config sets model.n_projections
         ({}, "n_projections", [20, 30], "model.n_projections"),
         ({"model": {"dropout": {"components_rate": 0.2}}}, "dropout",
          [{"components_rate": 0.1}], "model.dropout"),
         ({"protocol": {"affine": {"mode": "uniform_range", "low": 0.1, "high": 5.0}}},
          "alpha", [0.9, 1.1], "protocol.affine"),
         ({"methods": ["deep-rpo-mean"], "protocol": {"sad_ratio": 0.05}}, "sad_ratio",
          [0.0, 0.1], "protocol.sad_ratio")],
        ids=["rp_dim", "n_projections", "dropout", "alpha", "sad_ratio"],
    )
    def test_a_key_the_axis_sweeps_exits_1_naming_both(self, tmp_path, monkeypatch, caplog,
                                                       overrides, axis, values, key):
        # each sweep point overwrote the key: rp_dim 2 ran points 1 and 3, exiting 0
        ran = []
        monkeypatch.setattr(evaluation, "_map_seeds", lambda *a, **k: ran.append(a))
        cfg_path = tmp_path / "c.yaml"
        write_sweep_config(cfg_path, sweep={"axis": axis, "values": values}, **overrides)
        assert run_cli("sweep", "-c", str(cfg_path)) == 1
        assert ran == []
        errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
        named = f"sweep.axis: axis {axis!r} sweeps {key}, which the config also sets"
        assert any(named in e for e in errors), errors
        assert not (tmp_path / "out").exists()

    def test_unknown_axis_exits_1_naming_it(self, tmp_path, monkeypatch, caplog):
        ran = []
        monkeypatch.setattr(evaluation, "_map_seeds", lambda *a, **k: ran.append(a))
        cfg_path = tmp_path / "c.yaml"
        write_sweep_config(cfg_path, sweep={"axis": "bananas", "values": [1]})
        assert run_cli("sweep", "-c", str(cfg_path)) == 1
        assert ran == []
        errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert any("'bananas'" in e for e in errors), errors

    @pytest.mark.parametrize(
        "axis, values, labels, field, spec_values",
        [
            ("n_projections", [10, 20.0, "30"], ["10", "20.0", "30"], "n_projections",
             [10, 20, 30]),
            ("rp_dim", [1, 2.0, "3"], ["1", "2.0", "3"], "rp_dim", [1, 2, 3]),
            ("alpha", [0.8, 1, 1.1, "1.2"], ["0.8", "1", "1.1", "1.2"], "affine",
             [AffineSpec(alpha=a) for a in (0.8, 1.0, 1.1, 1.2)]),
            ("sad_ratio", [0, 0.1, "0.2"], ["0", "0.1", "0.2"], "sad_ratio", [0.0, 0.1, 0.2]),
            ("dropout",
             [{"components_rate": 0}, {"components_rate": 0.25, "projections_rate": 0.1},
              {"projections_rate": 0.5}, {"components_rate": 0.5, "projections_rate": 0},
              {"projections_rate": "0.3"}],
             ["C=0;P=0.0", "C=0.25;P=0.1", "C=0.0;P=0.5", "C=0.5;P=0", "C=0.0;P=0.3"], "dropout",
             [DropoutSpec(0.0, 0.0), DropoutSpec(0.25, 0.1), DropoutSpec(0.0, 0.5),
              DropoutSpec(0.5, 0.0), DropoutSpec(0.0, 0.3)]),
        ],
    )
    def test_labels_are_the_values_as_written(self, axis, values, labels, field, spec_values):
        # the labels the aggregate CSV has always carried, for values written as int,
        # float and string; a dropout rate written as a string is newly accepted
        method = "deep-rpo-mean" if axis in ("sad_ratio", "n_projections") else "rpo-max"
        cfg = parse_config({"methods": [method], "dataset": {"dim": 6},
                            "sweep": {"axis": axis, "values": values}})
        assert [label for label, _ in cfg.sweep] == labels
        assert [getattr(spec, field) for _, spec in cfg.sweep] == spec_values
        (base,) = cfg.specs
        assert all(replace(spec, **{field: getattr(base, field)}) == base for _, spec in cfg.sweep)

    def test_sweep_labels_reach_the_aggregate_csv(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_sweep_config(cfg_path, seeds=[0], sweep={"axis": "rp_dim", "values": [1, 2.0, "3"]})
        assert run_cli("sweep", "-c", str(cfg_path)) == 0
        with open(tmp_path / "out" / "aggregate.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[:2] for row in rows] == [["rpo-max", "1"], ["rpo-max", "2.0"], ["rpo-max", "3"]]

    def test_projection_axis_on_deep_svdd(self, tmp_path, caplog):
        # the config refuses an axis the method has no use for, as it is read
        for axis, values in [("n_projections", [10, 20]), ("rp_dim", [1, 2]),
                             ("dropout", [{"components_rate": 0.1}])]:
            raw = {"methods": ["deep-svdd"], "seeds": [0],
                   "sweep": {"axis": axis, "values": values}}
            named = f"sweep.axis: axis {axis!r} does not apply to deep-svdd"
            with pytest.raises(ConfigError, match=named):
                parse_config(raw, command="sweep")
            cfg_path = tmp_path / "c.yaml"
            write_sweep_config(cfg_path, **raw)
            caplog.clear()
            assert run_cli("sweep", "-c", str(cfg_path)) == 1
            errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
            assert any(named in e for e in errors), errors
            assert not (tmp_path / "out" / "aggregate.csv").exists()


class TestCommandKeys:
    """Each command refuses the output and sweep keys only the other one reads."""

    @pytest.mark.parametrize("output", [{}, {"checkpoint_dir": "ckpt", "history_dir": "hist"}])
    def test_bench_refuses_the_sweep_section(self, tmp_path, monkeypatch, caplog, output):
        ran = []
        monkeypatch.setattr(evaluation, "_map_seeds", lambda *a, **k: ran.append(a))
        cfg_path = tmp_path / "c.yaml"
        output = {key: str(tmp_path / "out" / value) for key, value in output.items()}
        write_config(cfg_path, sweep={"axis": "alpha", "values": [0.9, 1.1]}, output=output)
        assert run_cli("bench", "-c", str(cfg_path)) == 1
        assert ran == []
        errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert any("sweep.axis is read by rpo sweep, not rpo bench" in e for e in errors), errors
        assert not (tmp_path / "out").exists()

    def test_bench_on_the_shipped_sweep_config_writes_nothing(self, tmp_path, monkeypatch,
                                                              caplog):
        monkeypatch.chdir(tmp_path)
        assert run_cli("bench", "-c", str(CONFIGS / "affine_sweep.yaml")) == 1
        errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert any("read by rpo sweep" in e for e in errors), errors
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key", ["results", "checkpoint_dir", "history_dir"])
    def test_sweep_refuses_the_bench_outputs(self, tmp_path, monkeypatch, caplog, key):
        ran = []
        monkeypatch.setattr(evaluation, "_map_seeds", lambda *a, **k: ran.append(a))
        cfg_path = tmp_path / "c.yaml"
        write_sweep_config(cfg_path, sweep={"axis": "alpha", "values": [0.9, 1.1]},
                           output={key: str(tmp_path / "out" / key)})
        assert run_cli("sweep", "-c", str(cfg_path)) == 1
        assert ran == []
        errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert any(f"output.{key} is read by rpo bench, not rpo sweep" in e
                   for e in errors), errors
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, path", [("bench", "synthetic.yaml"),
                                               ("sweep", "affine_sweep.yaml")])
    def test_each_command_reads_its_shipped_config(self, command, path):
        assert load_config(CONFIGS / path, command) == load_config(CONFIGS / path)

    def test_a_library_parse_reads_every_key(self):
        cfg = parse_config({"methods": ["rpo-max"], "output": {"checkpoint_dir": "c"},
                            "sweep": {"axis": "alpha", "values": [0.9]}})
        assert cfg.checkpoint_dir == "c" and cfg.sweep_axis == "alpha"


TEXT_KEYS = [
    ({"dataset": {"source": ["a", "b"]}}, "dataset.source", ["a", "b"]),
    ({"dataset": {"source": None}}, "dataset.source", None),
    ({"dataset": {"source": {"a": 1}}}, "dataset.source", {"a": 1}),
    ({"dataset": {"source": True}}, "dataset.source", True),
    ({"dataset": {"source": 7}}, "dataset.source", 7),
    ({"output": {"results": None}}, "output.results", None),
    ({"output": {"aggregate": None}}, "output.aggregate", None),
    ({"output": {"results": False}}, "output.results", False),
    ({"output": {"aggregate": 1.5}}, "output.aggregate", 1.5),
    ({"output": {"checkpoint_dir": ["c"]}}, "output.checkpoint_dir", ["c"]),
    ({"output": {"history_dir": 3}}, "output.history_dir", 3),
    ({"sweep": {"axis": ["alpha"], "values": [0.9]}}, "sweep.axis", ["alpha"]),
    ({"protocol": {"affine": {"mode": None}}}, "protocol.affine.mode", None),
    ({"protocol": {"affine": {"mode": 1}}}, "protocol.affine.mode", 1),
]


@pytest.mark.parametrize("overrides, key, value", TEXT_KEYS,
                         ids=[f"{key}={value!r}" for _, key, value in TEXT_KEYS])
def test_a_text_key_that_is_no_string_exits_1_naming_it(tmp_path, monkeypatch, caplog,
                                                        overrides, key, value):
    # str() read null as a file named None, and a list as a file named "['a', 'b']"
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "c.yaml"
    command = "sweep" if key.startswith("sweep.") else "bench"
    (write_sweep_config if command == "sweep" else write_config)(cfg_path, seeds=[0], **overrides)
    assert run_cli(command, "-c", str(cfg_path)) == 1
    errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
    assert any(f"{key} must be a string, got {value!r}" in e for e in errors), errors
    assert [p.name for p in tmp_path.iterdir()] == ["c.yaml"]


EMPTY_TEXT_KEYS = [
    ({"dataset": {"source": ""}}, "dataset.source"),
    ({"output": {"results": ""}}, "output.results"),
    ({"output": {"aggregate": ""}}, "output.aggregate"),
    ({"output": {"checkpoint_dir": ""}}, "output.checkpoint_dir"),
    ({"output": {"history_dir": ""}}, "output.history_dir"),
    ({"sweep": {"axis": "", "values": [0.9]}}, "sweep.axis"),
    ({"protocol": {"affine": {"mode": ""}}}, "protocol.affine.mode"),
]


@pytest.mark.parametrize("overrides, key", EMPTY_TEXT_KEYS,
                         ids=[key for _, key in EMPTY_TEXT_KEYS])
def test_an_empty_text_key_exits_1_before_any_seed(tmp_path, monkeypatch, caplog, overrides,
                                                   key):
    # output.results "" ran every seed, then failed to open ''; dataset.source ""
    # read as the config's own directory and failed inside seed 0
    ran = []
    monkeypatch.setattr(evaluation, "_map_seeds", lambda *a, **k: ran.append(a))
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "c.yaml"
    command = "sweep" if key.startswith("sweep.") else "bench"
    (write_sweep_config if command == "sweep" else write_config)(cfg_path, seeds=[0], **overrides)
    assert run_cli(command, "-c", str(cfg_path)) == 1
    assert ran == []
    errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
    assert any(f"{key} must be a nonempty string" in e for e in errors), errors
    assert [p.name for p in tmp_path.iterdir()] == ["c.yaml"]


def test_an_optional_text_key_may_be_null():
    cfg = parse_config({"methods": ["rpo-max"], "output": {"checkpoint_dir": None,
                                                        "history_dir": None},
                        "sweep": {"axis": None}})
    assert (cfg.checkpoint_dir, cfg.history_dir, cfg.sweep_axis) == (None, None, None)


@pytest.mark.parametrize("command", ["bench", "sweep"])
def test_negative_workers_exits_1_naming_the_flag(tmp_path, monkeypatch, caplog, command):
    ran = []
    monkeypatch.setattr(evaluation, "_map_seeds", lambda *a, **k: ran.append(a))
    cfg_path = tmp_path / "c.yaml"
    write_config(cfg_path, sweep={"axis": "alpha", "values": [0.9, 1.1]})
    assert run_cli(command, "-c", str(cfg_path), "--workers", "-3") == 1
    assert ran == []
    assert any("--workers" in r.message for r in caplog.records if r.levelname == "ERROR")
    assert not (tmp_path / "out").exists()


ALPHA_SWEEP = {"sweep": {"axis": "alpha", "values": [0.9, 1.1]}}


REFUSED = {
    # removed options: -v changed nothing, and bench --seeds N ran seeds 0..N-1
    # whatever the config listed
    "-v": (["-v", "bench"], {}, "unrecognized arguments: -v"),
    "bench --seeds": (["bench", "--seeds", "1"], {}, "unrecognized arguments: --seeds 1"),
    # --workers is the one spelling of the process count, and 0 no longer means "unset"
    "bench --workers 0": (["bench", "--workers", "0"], {},
                          "argument --workers: must be >= 1, got 0"),
    "sweep --workers 0": (["sweep", "--workers", "0"], ALPHA_SWEEP,
                          "argument --workers: must be >= 1, got 0"),
    "bench workers key": (["bench"], {"workers": 2}, "unknown config key: workers"),
    "sweep workers key": (["sweep"], {"workers": 2, **ALPHA_SWEEP},
                          "unknown config key: workers"),
    # argparse names the type function of a value it cannot convert, which read
    # "invalid _worker_count value: 'abc'"
    "bench --workers abc": (["bench", "--workers", "abc"], {},
                            "argument --workers: invalid integer value: 'abc'"),
    # methods is the one spelling of the method list
    "bench method key": (["bench"], {"method": "rpo-max"}, "unknown config key: method"),
    "sweep method key": (["sweep"], {"method": "rpo-max", **ALPHA_SWEEP},
                         "unknown config key: method"),
    # a sweep runs one method, and the config says so as it is read
    "sweep of two methods": (
        ["sweep"], {"methods": ["rpo-max", "rpo-mean"], **ALPHA_SWEEP},
        "methods: rpo sweep runs one method, got ['rpo-max', 'rpo-mean']"),
}


@pytest.mark.parametrize("argv, overrides, named", REFUSED.values(), ids=REFUSED)
def test_refused_option_exits_1_naming_it(tmp_path, monkeypatch, caplog, argv, overrides,
                                          named):
    ran = []
    monkeypatch.setattr(evaluation, "_map_seeds", lambda *a, **k: ran.append(a))
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "c.yaml"
    (write_sweep_config if "sweep" in argv else write_config)(cfg_path, **overrides)
    assert run_cli(*argv, "-c", str(cfg_path)) == 1
    assert ran == []
    errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
    assert any(named in e for e in errors), errors
    assert [p.name for p in tmp_path.iterdir()] == ["c.yaml"]


# sub_rng keeps a seed's low 32 bits: 2**32 would rerun seed 0 and -1 seed 2**32 - 1
SEED_BOUNDS = [(-1, False), (0, True), (2**32 - 1, True), (2**32, False)]


@pytest.mark.parametrize("seed, runs", SEED_BOUNDS)
def test_config_seed_outside_32_bits_exits_1_naming_seeds(tmp_path, monkeypatch, caplog,
                                                          seed, runs):
    ran = []
    monkeypatch.setattr(evaluation, "_map_seeds", lambda run, seeds, *a, **k: ran.append(seeds))
    cfg_path = tmp_path / "c.yaml"
    write_config(cfg_path, seeds=[seed])
    if runs:
        assert [spec.seeds for spec in load_config(cfg_path).specs] == [(seed,)]
        return
    assert run_cli("bench", "-c", str(cfg_path)) == 1
    assert ran == []
    assert any("seeds" in r.message for r in caplog.records if r.levelname == "ERROR")
    assert not (tmp_path / "out").exists()


def test_seeds_that_alias_mod_2_32_exit_1(tmp_path, caplog):
    cfg_path = tmp_path / "c.yaml"
    write_config(cfg_path, seeds=[0, 2**32])
    assert run_cli("bench", "-c", str(cfg_path)) == 1
    assert any("seeds" in r.message for r in caplog.records if r.levelname == "ERROR")


@pytest.mark.parametrize("seed, runs", SEED_BOUNDS)
def test_gen_data_seed_outside_32_bits_exits_1_naming_the_flag(tmp_path, caplog, seed, runs):
    out = tmp_path / "ds"
    code = run_cli("gen-data", "--modes", "1", "--dim", "2", "--n-per-mode", "20",
                   "--anomalies", "5", "--seed", str(seed), "--out-dir", str(out))
    assert code == (0 if runs else 1)
    assert (out / "data.csv").exists() == runs
    if not runs:
        assert any("--seed" in r.message for r in caplog.records if r.levelname == "ERROR")


class TestScore:
    def _bench_with_checkpoints(self, tmp_path, method="rpo-max"):
        cfg_path = tmp_path / "c.yaml"
        write_config(
            cfg_path,
            methods=[method],
            seeds=[0],
            output={
                "results": str(tmp_path / "out" / "results.csv"),
                "aggregate": str(tmp_path / "out" / "aggregate.csv"),
                "checkpoint_dir": str(tmp_path / "ckpt"),
            },
        )
        assert run_cli("bench", "-c", str(cfg_path)) == 0
        return tmp_path / "ckpt" / f"{method}_seed0.npz"

    @pytest.mark.parametrize("method", ["rpo-max", "deep-svdd", "deep-rpo-mean"])
    def test_scores_are_nonnegative_with_depth(self, tmp_path, method):
        ckpt = self._bench_with_checkpoints(tmp_path, method)
        input_csv = tmp_path / "rows.csv"
        rng = np.random.default_rng(0)
        lines = [",".join(f"f{i}" for i in range(6))]
        for row in rng.normal(size=(10, 6)):
            lines.append(",".join(repr(float(v)) for v in row))
        input_csv.write_text("\n".join(lines) + "\n")
        out_csv = tmp_path / "scores.csv"
        assert run_cli("score", "--checkpoint", str(ckpt), "--input", str(input_csv),
                       "--output", str(out_csv)) == 0
        rows = out_csv.read_text().splitlines()
        assert rows[0] == "score,depth"
        assert len(rows) == 11
        for line in rows[1:]:
            score, depth = (float(v) for v in line.split(","))
            assert score >= 0.0
            assert depth == pytest.approx(1.0 / (1.0 + score), rel=1e-12)

    @pytest.mark.parametrize("method", ["rpo-max", "deep-svdd", "deep-rpo-mean"])
    def test_row_with_a_non_finite_score_exits_3_naming_it(self, tmp_path, caplog, method):
        """Features near the float64 maximum overflow the scorer: exit 3, and no output.

        Without the check, deep-svdd and deep-rpo-mean wrote NaN scores and
        rpo-max an infinite one, and each exited 0.
        """
        ckpt = self._bench_with_checkpoints(tmp_path, method)
        input_csv = tmp_path / "rows.csv"
        input_csv.write_text("f0,f1,f2,f3,f4,f5\n1,2,3,4,5,6\n"
                             "1.7e308,1.7e308,-1.7e308,1.7e308,1.7e308,-1.7e308\n0,0,0,0,0,0\n")
        out_csv = tmp_path / "scores.csv"
        assert run_cli("score", "--checkpoint", str(ckpt), "--input", str(input_csv),
                       "--output", str(out_csv)) == 3
        assert not out_csv.exists()
        errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert any(e.startswith("row 1 (counting from 0) scores ") and "not a finite value" in e
                   for e in errors), errors

    def test_a_byte_order_mark_scores_as_the_plain_file(self, tmp_path):
        # the mark made the first column "\ufeffclass", a seventh feature: exit 2
        ckpt = self._bench_with_checkpoints(tmp_path)
        text = "class,f0,f1,f2,f3,f4,f5\n0,1,2,3,4,5,6\n1,0.5,-1,2,0,3,1\n"
        outputs = []
        for name, encoding in [("plain", "utf-8"), ("bom", "utf-8-sig")]:
            input_csv = tmp_path / f"{name}.csv"
            input_csv.write_text(text, encoding=encoding)
            out_csv = tmp_path / f"{name}-scores.csv"
            assert run_cli("score", "--checkpoint", str(ckpt), "--input", str(input_csv),
                           "--output", str(out_csv)) == 0
            outputs.append(out_csv.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 3

    def test_empty_input_empty_output(self, tmp_path):
        ckpt = self._bench_with_checkpoints(tmp_path)
        input_csv = tmp_path / "empty.csv"
        input_csv.write_text(",".join(f"f{i}" for i in range(6)) + "\n")
        out_csv = tmp_path / "scores.csv"
        assert run_cli("score", "--checkpoint", str(ckpt), "--input", str(input_csv),
                       "--output", str(out_csv)) == 0
        assert out_csv.read_text().splitlines() == ["score,depth"]

    def test_width_mismatch_names_dims(self, tmp_path, caplog):
        ckpt = self._bench_with_checkpoints(tmp_path)
        input_csv = tmp_path / "narrow.csv"
        input_csv.write_text("f0,f1\n1.0,2.0\n")
        out_csv = tmp_path / "scores.csv"
        code = run_cli("score", "--checkpoint", str(ckpt), "--input", str(input_csv),
                       "--output", str(out_csv))
        assert code == 2
        assert any("expected 6" in r.message for r in caplog.records)

    @staticmethod
    def _rows_with_class_column(tmp_path, n=40, spelling="digits"):
        """Six features with a ``class`` column in the middle and blank lines.

        ``spelling`` "words" writes the classes as normal/anomaly, and
        "underscore" writes one feature as ``1_0``, which only ``float()`` reads.
        """
        rng = np.random.default_rng(5)
        X = rng.normal(scale=2.0, size=(n, 6))
        if spelling == "underscore":
            X[2, 4] = 10.0
        lines = ["f0,f1,f2,class,f3,f4,f5"]
        for i, row in enumerate(X):
            values = [repr(float(v)) for v in row]
            if spelling == "underscore" and i == 2:
                values[4] = "1_0"
            label = ("normal", "anomaly")[i % 2] if spelling == "words" else str(i % 3)
            lines.append(",".join(values[:3] + [label] + values[3:]))
            if i % 7 == 0:
                lines.append("")
        path = tmp_path / "rows.csv"
        path.write_text("\n".join(lines) + "\n")
        return path, X

    def _assert_output_matches_csv_writer_oracle(self, tmp_path, method, spelling, n=40):
        ckpt = self._bench_with_checkpoints(tmp_path, method)
        input_csv, X = self._rows_with_class_column(tmp_path, n=n, spelling=spelling)
        out_csv = tmp_path / "scores.csv"
        assert run_cli("score", "--checkpoint", str(ckpt), "--input", str(input_csv),
                       "--output", str(out_csv)) == 0
        oracle = io.StringIO()
        writer = csv.writer(oracle, lineterminator="\n")
        writer.writerow(["score", "depth"])
        for s in load_model_checkpoint(ckpt).score_rows(X):
            writer.writerow([repr(float(s)), repr(float(depth(s)))])
        assert out_csv.read_bytes() == oracle.getvalue().encode()

    @pytest.mark.parametrize("method", ["rpo-max", "deep-rpo-mean"])
    def test_output_bytes_match_csv_writer_oracle(self, tmp_path, method):
        self._assert_output_matches_csv_writer_oracle(tmp_path, method, "digits")

    def test_output_written_in_blocks_matches_csv_writer_oracle(self, tmp_path):
        # 1,000 rows are two scoring blocks (384 and 616 rows), each written on its own
        self._assert_output_matches_csv_writer_oracle(tmp_path, "deep-rpo-mean", "digits", n=1000)

    @pytest.mark.parametrize("spelling", ["words", "underscore"])
    @pytest.mark.parametrize("method", ["rpo-max", "deep-rpo-mean"])
    def test_float_only_spellings_match_csv_writer_oracle(self, tmp_path, method, spelling):
        """A `normal`/`anomaly` class or a `1_0` value, which numpy's C reader declines."""
        self._assert_output_matches_csv_writer_oracle(tmp_path, method, spelling)

    @pytest.mark.parametrize(
        "bad_line, problem",
        [("1.0,2.0,3.0", "expected 7 values, got 3"),
         ("1,2,3,0,4,5,6,7", "expected 7 values, got 8"),
         ("1,2,3,0,4,x5,6", "x5"),
         ("1,2,3,0,4,nan,6", "non-finite value"),
         ("1,2,3,0,4,5,inf", "non-finite value"),
         ("-Infinity,2,3,0,4,5,6", "non-finite value")],
    )
    def test_bad_row_exits_2_naming_the_line(self, tmp_path, caplog, bad_line, problem):
        ckpt = self._bench_with_checkpoints(tmp_path)
        input_csv, _ = self._rows_with_class_column(tmp_path, n=5)
        lines = input_csv.read_text().splitlines()
        lines.insert(4, bad_line)
        input_csv.write_text("\n".join(lines) + "\n")
        out_csv = tmp_path / "scores.csv"
        code = run_cli("score", "--checkpoint", str(ckpt), "--input", str(input_csv),
                       "--output", str(out_csv))
        assert code == 2
        errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert any(f"{input_csv}:5: " in e and problem in e for e in errors)
        assert not out_csv.exists()


class TestReport:
    def test_report_renders_truncated_table(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.yaml"
        write_config(cfg_path)
        assert run_cli("bench", "-c", str(cfg_path)) == 0
        assert run_cli("report", "--results", str(tmp_path / "out" / "results.csv")) == 0
        table = capsys.readouterr().out
        assert "rpo-max" in table
        assert "±" in table

    def test_report_missing_file(self):
        assert run_cli("report", "--results", "nope.csv") == 2

    @pytest.mark.parametrize("source", ["synthetic", "/data/benchmarks/odds/satellite_v2.csv"])
    def test_report_columns_stay_under_their_headers(self, tmp_path, capsys, source):
        path = tmp_path / "results.csv"
        path.write_text("method,dataset,k_modes,seed,best_epoch,val_auc,test_auc\n"
                        f"rpo-max,{source},2,0,-1,0.9,0.75\nrpo-max,synthetic,12,0,-1,0.9,0.5\n")
        assert run_cli("report", "--results", str(path)) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        width = max(24, len(source))
        assert header == f"{'method':<16} {'dataset':<{width}} {'modes':>5} {'seeds':>5} {'test AUC':>16}"
        modes = header.index("modes")
        assert sorted(row[modes : modes + 5] for row in rows) == ["    2", "   12"]
        assert all(row[modes + 6 : modes + 11] == "    1" for row in rows)

    @pytest.mark.parametrize(
        "bad_row, problem",
        [("rpo-max,synthetic,2,1,-1,0.9", "expected 7 values, got 6"),
         ("rpo-max,synthetic,2,1,-1,0.9,high", "high"),
         # the seed is read as the integer the results writer wrote
         ("rpo-max,synthetic,2,x,-1,0.9,0.7", "'x'"),
         ("rpo-max,synthetic,2,1.0,-1,0.9,0.7", "'1.0'"),
         ("rpo-max,synthetic,2,1,-1,0.9,nan", "non-finite value"),
         ("rpo-max,synthetic,2,1,-1,0.9,inf", "non-finite value"),
         # so is the mode count
         ("rpo-max,synthetic,two,1,-1,0.9,0.7", "'two'"),
         ("rpo-max,synthetic,1.5,1,-1,0.9,0.7", "'1.5'")],
    )
    def test_bad_row_exits_2_naming_the_line(self, tmp_path, caplog, bad_row, problem):
        path = tmp_path / "results.csv"
        header = "method,dataset,k_modes,seed,best_epoch,val_auc,test_auc"
        path.write_text(f"{header}\nrpo-max,synthetic,2,0,-1,0.9,0.8\n\n{bad_row}\n")
        assert run_cli("report", "--results", str(path)) == 2
        errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert any(f"{path}:4: " in e and problem in e for e in errors)

    @pytest.mark.parametrize(
        "repeat, problem",
        [("rpo-max,synthetic,2,0,-1,0.7,0.6",
          "repeats the row of line 2 (method rpo-max, dataset synthetic, modes 2, seed 0)"),
         ("deep-svdd,synthetic,2,1,-1,0.9,0.8", "repeats the row of line 3"),
         # the same seed written another way is the same seed
         ("rpo-max,synthetic,2,00,-1,0.7,0.6", "repeats the row of line 2"),
         # and the same mode count written another way the same dataset
         ("rpo-max,synthetic,02,0,-1,0.7,0.6",
          "repeats the row of line 2 (method rpo-max, dataset synthetic, modes 2, seed 0)")],
    )
    def test_repeated_seed_row_exits_2_naming_the_line(self, tmp_path, caplog, capsys, repeat,
                                                       problem):
        """Results concatenated from two runs of one seed: not one more seed."""
        path = tmp_path / "results.csv"
        header = "method,dataset,k_modes,seed,best_epoch,val_auc,test_auc"
        path.write_text(f"{header}\nrpo-max,synthetic,2,0,-1,0.9,0.8\n"
                        f"deep-svdd,synthetic,2,1,-1,0.9,0.8\n{repeat}\n")
        assert run_cli("report", "--results", str(path)) == 2
        errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert any(f"{path}:4: " in e and problem in e for e in errors), errors
        assert capsys.readouterr().out == ""

    def test_rows_differing_in_one_key_column_each_count(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        path.write_text("method,dataset,k_modes,seed,best_epoch,val_auc,test_auc\n"
                        "rpo-max,synthetic,2,0,-1,0.9,0.8\nrpo-max,synthetic,2,1,-1,0.9,0.6\n"
                        "rpo-max,synthetic,3,0,-1,0.9,0.5\nrpo-max,other.csv,2,0,-1,0.9,0.5\n"
                        "rpo-mean,synthetic,2,0,-1,0.9,0.5\n")
        assert run_cli("report", "--results", str(path)) == 0
        _, *rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 4
        seeds = sorted(row.split()[3] for row in rows)
        assert seeds == ["1", "1", "1", "2"]

    def test_mode_counts_written_two_ways_are_one_dataset(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        path.write_text("method,dataset,k_modes,seed,best_epoch,val_auc,test_auc\n"
                        "rpo-max,synthetic,2,0,-1,0.9,0.8\nrpo-max,synthetic,02,1,-1,0.9,0.6\n")
        assert run_cli("report", "--results", str(path)) == 0
        _, *rows = capsys.readouterr().out.splitlines()
        assert [row.split()[2:4] for row in rows] == [["2", "2"]]

    def test_bench_results_round_trip_through_report_when_source_holds_a_comma(self, tmp_path, capsys):
        data_dir = tmp_path / "data,v1"
        assert run_cli("gen-data", "--modes", "2", "--dim", "4", "--n-per-mode", "60",
                       "--anomalies", "40", "--out-dir", str(data_dir)) == 0
        source = str(data_dir / "data.csv")
        cfg_path = tmp_path / "c.yaml"
        write_config(cfg_path, seeds=[0], dataset={"source": source, "k_modes": 0},
                     model={"n_projections": 10})
        assert run_cli("bench", "-c", str(cfg_path)) == 0
        results = tmp_path / "out" / "results.csv"
        with open(results, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[1] for row in rows[1:]] == [source]
        assert f'"{source}"' in results.read_text()
        capsys.readouterr()
        assert run_cli("report", "--results", str(results)) == 0
        table = capsys.readouterr().out.splitlines()
        assert len(table) == 2 and table[1].startswith(f"{'rpo-max':<16} {source} ")


# One table of malformed input, run through every CSV reader of the CLI: the
# bad row sits on line 4, after a good row and a blank line.
MALFORMED = {
    "short row": (lambda good: good[:-1], "expected {n} values, got {m}"),
    "long row": (lambda good: good + ["1"], "expected {n} values, got {m}"),
    "non-number": (lambda good: good[:-1] + ["x5"], "x5"),
    "nan": (lambda good: good[:-1] + ["nan"], "non-finite value"),
    "inf": (lambda good: good[:-1] + ["inf"], "non-finite value"),
    # written as the byte 0xff (see the surrogateescape encoding below)
    "non-UTF-8": (lambda good: good[:-1] + ["\udcff5"], "not UTF-8"),
    "no header": (None, "no header line"),
}

# each reader's header and one good row; the last column is one the reader parses
READER_ROWS = {
    "read_classes": (["f0", "class", "f1"], ["1.0", "0", "2.0"]),
    "score": (["f0", "f1", "f2", "class", "f3", "f4", "f5"], ["1", "2", "3", "0", "4", "5", "6"]),
    "report": (
        ["method", "dataset", "k_modes", "seed", "best_epoch", "val_auc", "test_auc"],
        ["rpo-max", "synthetic", "2", "0", "-1", "0.9", "0.8"],
    ),
}


@pytest.fixture(scope="module")
def rpo_max_checkpoint(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("ckpt")
    cfg_path = tmp_path / "c.yaml"
    write_config(cfg_path, seeds=[0], output={
        "results": str(tmp_path / "out" / "results.csv"),
        "aggregate": str(tmp_path / "out" / "aggregate.csv"),
        "checkpoint_dir": str(tmp_path / "ckpt"),
    })
    assert run_cli("bench", "-c", str(cfg_path)) == 0
    return tmp_path / "ckpt" / "rpo-max_seed0.npz"


class TestMalformedCsv:
    @pytest.mark.parametrize("case", list(MALFORMED))
    @pytest.mark.parametrize("reader", list(READER_ROWS))
    def test_every_reader_fails_naming_the_line(
        self, tmp_path, caplog, capsys, rpo_max_checkpoint, reader, case
    ):
        header, good = READER_ROWS[reader]
        make_bad, problem = MALFORMED[case]
        path = tmp_path / "in.csv"
        if make_bad is None:
            path.write_text("")
            where = f"{path}:1: "
        else:
            bad = make_bad(good)
            text = "\n".join([",".join(header), ",".join(good), "", ",".join(bad)]) + "\n"
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
            where = f"{path}:4: "
            problem = problem.format(n=len(header), m=len(bad))
        out = tmp_path / "out.txt"
        if reader == "read_classes":
            with pytest.raises(DataError) as info:
                read_classes(path)
            errors = [str(info.value)]
        else:
            argv = (["score", "--checkpoint", str(rpo_max_checkpoint), "--input", str(path),
                     "--output", str(out)] if reader == "score"
                    else ["report", "--results", str(path), "--out", str(out)])
            capsys.readouterr()
            assert run_cli(*argv) == 2
            assert capsys.readouterr().out == ""
            assert not out.exists()
            errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert any(e.startswith(where) and problem in e for e in errors), errors

    @pytest.mark.parametrize("reader", list(READER_ROWS))
    def test_non_utf8_byte_far_into_a_large_file_names_its_line(
        self, tmp_path, caplog, rpo_max_checkpoint, reader
    ):
        # past the text layer's first 8 KB chunk, with CRLF and CR line ends before it
        header, good = READER_ROWS[reader]
        # report refuses a repeated seed, so its rows count the seed up
        body = [good[:3] + [str(i)] + good[4:] if reader == "report" else good
                for i in range(3001)]
        rows = [",".join(header).encode()] + [",".join(row).encode() for row in body[:-1]]
        bad = ",".join(body[-1][:-1] + ["\udcfe1"]).encode("utf-8", "surrogateescape")
        path = tmp_path / "big.csv"
        path.write_bytes(b"\r\n".join(rows) + b"\r\r" + bad + b"\n")
        assert path.stat().st_size > 3 * 8192
        where = f"{path}:3003: "
        if reader == "read_classes":
            with pytest.raises(DataError) as info:
                read_classes(path)
            errors = [str(info.value)]
        else:
            out = tmp_path / "out.txt"
            argv = (["score", "--checkpoint", str(rpo_max_checkpoint), "--input", str(path),
                     "--output", str(out)] if reader == "score"
                    else ["report", "--results", str(path), "--out", str(out)])
            assert run_cli(*argv) == 2
            assert not out.exists()
            errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert any(e.startswith(where) and "not UTF-8" in e for e in errors), errors


def _flip_a_byte_of_member(raw: bytes, path, member: str) -> bytes:
    """``raw`` with one byte flipped in the middle of ``member``'s stored data."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    start = info.header_offset + 30 + len(info.filename.encode()) + len(info.extra)
    damaged = bytearray(raw)
    damaged[start + info.compress_size // 2] ^= 0xFF
    return bytes(damaged)


def _npy_bytes(array) -> bytes:
    """What ``np.save`` writes for ``array``: a bare .npy file, not an archive."""
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _rewritten(path, **changes) -> bytes:
    """The archive at ``path`` saved again with members replaced; ``None`` drops one."""
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    for name, value in changes.items():
        if value is None:
            del members[name]
        else:
            members[name] = value
    buf = io.BytesIO()
    np.savez(buf, **members)
    return buf.getvalue()


def _first_set(path, member: str, value: float) -> np.ndarray:
    """``member`` of the archive at ``path`` with its first value set to ``value``."""
    with np.load(path) as archive:
        array = archive[member].copy()
    array.flat[0] = value
    return array


NO_HEAD = dict(proj_entries=None, stats_med=None, stats_mad=None)
DAMAGED_CHECKPOINTS = {
    "empty": lambda raw, path: b"",
    "first half": lambda raw, path: raw[: len(raw) // 2],
    "last 30 bytes cut": lambda raw, path: raw[:-30],
    "flipped byte": lambda raw, path: _flip_a_byte_of_member(raw, path, "proj_entries.npy"),
    "plain .npy": lambda raw, path: _npy_bytes(np.arange(3.0)),
    "projections without stats": lambda raw, path: _rewritten(
        path, stats_med=None, stats_mad=None),
    "no head": lambda raw, path: _rewritten(path, **NO_HEAD),
    "unknown method with a center": lambda raw, path: _rewritten(
        path, method=np.str_("bogus"), center=np.zeros(6), **NO_HEAD),
    "NaN median": lambda raw, path: _rewritten(
        path, stats_med=_first_set(path, "stats_med", np.nan)),
    "zero scaler_std": lambda raw, path: _rewritten(
        path, scaler_std=_first_set(path, "scaler_std", 0.0)),
    "one scaler_std for six features": lambda raw, path: _rewritten(path, scaler_std=np.ones(1)),
    "text scaler_mean": lambda raw, path: _rewritten(path, scaler_mean=np.array(["a"] * 6)),
}


@pytest.mark.parametrize("damage", list(DAMAGED_CHECKPOINTS))
def test_damaged_checkpoint_exits_2_naming_the_file(tmp_path, caplog, rpo_max_checkpoint, damage):
    raw = rpo_max_checkpoint.read_bytes()
    ckpt = tmp_path / "damaged.npz"
    ckpt.write_bytes(DAMAGED_CHECKPOINTS[damage](raw, rpo_max_checkpoint))
    rows = tmp_path / "rows.csv"
    rows.write_text("f0,f1,f2,f3,f4,f5\n1,2,3,4,5,6\n")
    out = tmp_path / "scores.csv"
    assert run_cli("score", "--checkpoint", str(ckpt), "--input", str(rows),
                   "--output", str(out)) == 2
    assert not out.exists()
    errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
    assert any(f"checkpoint {ckpt}: " in e for e in errors), errors
    with pytest.raises(DataError, match="cannot read checkpoint"):
        load_model_checkpoint(ckpt)


def test_version_1_checkpoint_exits_2_naming_the_file(tmp_path, caplog, rpo_max_checkpoint):
    """A version-1 archive, with the members it held then, is refused."""
    ckpt = tmp_path / "v1.npz"
    ckpt.write_bytes(_rewritten(rpo_max_checkpoint, version=np.int64(1),
                                proj_seed=np.int64(0), eps_floor=np.float64(1e-6)))
    rows = tmp_path / "rows.csv"
    rows.write_text("f0,f1,f2,f3,f4,f5\n1,2,3,4,5,6\n")
    out = tmp_path / "scores.csv"
    assert run_cli("score", "--checkpoint", str(ckpt), "--input", str(rows),
                   "--output", str(out)) == 2
    assert not out.exists()
    errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
    assert any(str(ckpt) in e and "version 1" in e and "reads version 3" in e
               for e in errors), errors


@pytest.fixture(scope="module")
def deep_rpo_m3_checkpoint(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("ckpt-m3")
    cfg_path = tmp_path / "c.yaml"
    write_config(cfg_path, methods=["deep-rpo-mean"], seeds=[0], model={"rp_dim": 3}, output={
        "results": str(tmp_path / "out" / "results.csv"),
        "aggregate": str(tmp_path / "out" / "aggregate.csv"),
        "checkpoint_dir": str(tmp_path / "ckpt"),
    })
    assert run_cli("bench", "-c", str(cfg_path)) == 0
    return tmp_path / "ckpt" / "deep-rpo-mean_seed0.npz"


def test_version_2_checkpoint_exits_2_naming_its_version(tmp_path, caplog,
                                                          deep_rpo_m3_checkpoint):
    """A version-2 archive, which stored the m > 1 inverse covariances, is refused."""
    with np.load(deep_rpo_m3_checkpoint) as archive:
        Li = archive["stats_inv_chol"]
    ckpt = tmp_path / "v2.npz"
    ckpt.write_bytes(_rewritten(deep_rpo_m3_checkpoint, version=np.int64(2), stats_inv_chol=None,
                                stats_inv_cov=Li.transpose(0, 2, 1) @ Li))
    rows = tmp_path / "rows.csv"
    rows.write_text("f0,f1,f2,f3,f4,f5\n1,2,3,4,5,6\n")
    out = tmp_path / "scores.csv"
    assert run_cli("score", "--checkpoint", str(ckpt), "--input", str(rows),
                   "--output", str(out)) == 2
    assert not out.exists()
    errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
    assert any(str(ckpt) in e and "format version 2" in e and "reads version 3" in e
               and "rerun the rpo bench config" in e for e in errors), errors


@pytest.mark.parametrize("layer_dims", [[99, 7, 3, 5], [6, 32, 16, 9], [6, 32, 16, 8]])
def test_layer_dims_that_disagree_with_the_weights_exit_2_naming_them(
    tmp_path, caplog, deep_rpo_m3_checkpoint, layer_dims
):
    """The weights are [6, 32, 16, 8]; a file that says otherwise is refused."""
    ckpt = tmp_path / "dims.npz"
    ckpt.write_bytes(_rewritten(deep_rpo_m3_checkpoint, layer_dims=np.array(layer_dims)))
    rows = tmp_path / "rows.csv"
    rows.write_text("f0,f1,f2,f3,f4,f5\n1,2,3,4,5,6\n")
    out = tmp_path / "scores.csv"
    code = run_cli("score", "--checkpoint", str(ckpt), "--input", str(rows),
                   "--output", str(out))
    if layer_dims == [6, 32, 16, 8]:  # the checkpoint as the fit wrote it
        assert code == 0 and out.exists()
        return
    assert code == 2
    assert not out.exists()
    errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
    assert any(f"checkpoint {ckpt}: layer_dims {layer_dims} do not match the weights' "
               "[6, 32, 16, 8]" in e for e in errors), errors
    with pytest.raises(DataError, match="layer_dims"):
        load_model_checkpoint(ckpt)


@pytest.mark.parametrize("problem", ["lower triangular", "zero pivot", "negative pivot", None])
def test_unusable_inverse_factor_exits_2_naming_it(
    tmp_path, caplog, deep_rpo_m3_checkpoint, problem
):
    """An entry above the diagonal is no fit's; a pivot <= 0 is no Cholesky factor's inverse.

    A negated factor would score as the fit's does, as ``|-Li r| = |Li r|``.
    """
    with np.load(deep_rpo_m3_checkpoint) as archive:
        Li = archive["stats_inv_chol"].copy()
    if problem == "lower triangular":
        Li[0, 0, 1] = 1e-300
    elif problem == "zero pivot":
        Li[0, 1, 1] = 0.0
    elif problem == "negative pivot":
        Li = -Li
    ckpt = tmp_path / "m3.npz"
    ckpt.write_bytes(_rewritten(deep_rpo_m3_checkpoint, stats_inv_chol=Li))
    rows = tmp_path / "rows.csv"
    rows.write_text("f0,f1,f2,f3,f4,f5\n1,2,3,4,5,6\n")
    out = tmp_path / "scores.csv"
    code = run_cli("score", "--checkpoint", str(ckpt), "--input", str(rows),
                   "--output", str(out))
    if problem is None:  # the checkpoint as the fit wrote it
        assert code == 0 and out.exists()
        return
    assert code == 2
    assert not out.exists()
    expected = ("must be lower triangular" if problem == "lower triangular"
                else "must be > 0 on its diagonal")
    errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
    assert any(f"checkpoint {ckpt}: stats.inv_chol {expected}" in e for e in errors), errors
