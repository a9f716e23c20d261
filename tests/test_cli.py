import numpy as np
import pytest
import yaml

from rpo import evaluation
from rpo.cli import main
from rpo.config import load_config, parse_config
from rpo.errors import ConfigError, NumericError


def run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        return exc.code


def write_config(path, **overrides):
    cfg = {
        "method": "rpo-max",
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


class TestConfig:
    def test_unknown_key_rejected_with_name(self, tmp_path):
        path = tmp_path / "c.yaml"
        write_config(path, training={"epochs": 2, "warmup": 5})
        with pytest.raises(ConfigError, match="training.warmup"):
            load_config(path)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="gpu"):
            parse_config({"method": "rpo-max", "gpu": True})

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="unknown method"):
            parse_config({"method": "isolation-forest"})

    def test_seeds_int_shorthand(self):
        cfg = parse_config({"method": "rpo-max", "seeds": 3})
        assert cfg.base_spec.seeds == (0, 1, 2)

    def test_method_defaults_projection_counts(self):
        shallow = parse_config({"method": "rpo-max"}).base_spec
        deep = parse_config({"method": "deep-rpo-mean"}).base_spec
        assert shallow.resolved_projections == 1000
        from dataclasses import replace

        assert replace(deep, method="deep-rpo-mean").resolved_projections == 500

    def test_missing_dataset_file(self, tmp_path):
        path = tmp_path / "c.yaml"
        write_config(path, dataset={"source": "nowhere.csv", "k_modes": 0})
        from rpo.errors import DataError

        with pytest.raises(DataError, match="not found"):
            load_config(path)

    def test_methods_list(self):
        cfg = parse_config({"methods": ["rpo-max", "deep-svdd"]})
        assert cfg.methods == ["rpo-max", "deep-svdd"]

    def test_method_and_methods_conflict(self):
        with pytest.raises(ConfigError):
            parse_config({"method": "rpo-max", "methods": ["rpo-max"]})


class TestGenData:
    def test_writes_files_and_round_trips(self, tmp_path):
        out = tmp_path / "ds"
        code = run_cli(
            "gen-data", "--modes", "3", "--dim", "16", "--seed", "7",
            "--n-per-mode", "40", "--anomalies", "30", "--out-dir", str(out),
        )
        assert code == 0
        assert (out / "data.csv").exists() and (out / "manifest.csv").exists()
        from rpo.data import apply_manifest, load_csv

        loaded = apply_manifest(
            load_csv(out / "data.csv", normal_class_ids=(0, 1, 2)), out / "manifest.csv"
        )
        assert loaded.dim == 16
        assert loaded.count("train") > 0

    def test_identical_files_on_rerun(self, tmp_path):
        args = ["gen-data", "--modes", "2", "--dim", "4", "--seed", "3",
                "--n-per-mode", "20", "--anomalies", "10"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out-dir", str(a)) == 0
        assert run_cli(*args, "--out-dir", str(b)) == 0
        assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
        assert (a / "manifest.csv").read_bytes() == (b / "manifest.csv").read_bytes()

    def test_zero_modes_usage_error(self, tmp_path):
        code = run_cli("gen-data", "--modes", "0", "--dim", "4", "--out-dir", str(tmp_path))
        assert code == 1

    def test_missing_required_flag_usage_error(self):
        assert run_cli("gen-data", "--dim", "4") == 1


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
        write_config(cfg_path, method="deep-rpo-mean", training={"epochs": 2})
        assert run_cli("bench", "-c", str(cfg_path)) == 0
        first = (tmp_path / "out" / "results.csv").read_bytes()
        first_agg = (tmp_path / "out" / "aggregate.csv").read_bytes()
        assert run_cli("bench", "-c", str(cfg_path)) == 0
        assert (tmp_path / "out" / "results.csv").read_bytes() == first
        assert (tmp_path / "out" / "aggregate.csv").read_bytes() == first_agg

    def test_multi_method_comparison(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_config(
            cfg_path,
            methods=["rpo-max", "deep-svdd"],
            seeds=[0],
        )
        cfg = yaml.safe_load(cfg_path.read_text())
        del cfg["method"]
        cfg_path.write_text(yaml.safe_dump(cfg))
        assert run_cli("bench", "-c", str(cfg_path)) == 0
        aggregate = (tmp_path / "out" / "aggregate.csv").read_text().splitlines()
        assert len(aggregate) == 3  # header + one row per method

    def test_seeds_quick_mode_single_row(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_config(cfg_path, seeds=[0, 1, 2, 3])
        assert run_cli("bench", "-c", str(cfg_path), "--seeds", "1") == 0
        results = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert len(results) == 2  # header + one seed

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

    def test_history_emission(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_config(
            cfg_path,
            method="deep-rpo-mean",
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
        write_config(cfg_path, sweep={"axis": "alpha", "values": [0.9, 1.0, 1.1]})
        assert run_cli("sweep", "-c", str(cfg_path)) == 0
        lines = (tmp_path / "out" / "aggregate.csv").read_text().splitlines()
        assert lines[0] == "method,axis_value,mean_auc,std_auc,n_seeds,gap_mean,gap_std"
        assert len(lines) == 4

    def test_sweep_without_section(self, tmp_path):
        cfg_path = tmp_path / "c.yaml"
        write_config(cfg_path)
        assert run_cli("sweep", "-c", str(cfg_path)) == 1


class TestScore:
    def _bench_with_checkpoints(self, tmp_path, method="rpo-max"):
        cfg_path = tmp_path / "c.yaml"
        write_config(
            cfg_path,
            method=method,
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
