import csv
import io

import numpy as np
import pytest
import yaml

from rpo import evaluation
from rpo.cli import main
from rpo.config import load_config, parse_config
from rpo.data import load_csv
from rpo.errors import ConfigError, DataError, NumericError
from rpo.model_io import load_model_checkpoint
from rpo.scoring import depth


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
        from test_data import apply_manifest

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
        "overrides, named",
        [
            ({"protocol": {"affine": {"mode": "random-diagonal"}}}, "protocol.affine"),
            ({"model": {"dropout": {"components_rate": 1.5}}}, "model.dropout"),
            ({"protocol": {"val_fraction": 1.5}}, "val_fraction"),
            ({"protocol": {"test_fraction": 1.0}}, "test_fraction"),
            ({"model": {"hidden_dims": 8}}, "model.hidden_dims"),
            ({"dataset": {"normal_class_ids": 1}}, "dataset.normal_class_ids"),
            ({"dataset": {"normal_class_ids": []}}, "normal_class_ids"),
            ({"method": None, "methods": []}, "methods"),
            ({"method": None, "methods": "rpo-max"}, "methods"),
            ({"training": {"batch_size": 0}}, "training.batch_size"),
            ({"model": {"n_projections": 0}}, "model.n_projections"),
            ({"protocol": {"contamination": 1.5}}, "protocol.contamination"),
            ({"dataset": {"dim": 0}}, "dataset.dim"),
            ({"training": {"eps_floor": 0}}, "training.eps_floor"),
            ({"training": {"stats_mode": "full"}}, "training.stats_mode"),
        ],
    )
    def test_bad_config_value_exits_1_naming_the_key(self, tmp_path, caplog, overrides, named):
        cfg_path = tmp_path / "c.yaml"
        write_config(cfg_path, **overrides)
        assert run_cli("bench", "-c", str(cfg_path)) == 1
        assert any(named in r.message for r in caplog.records if r.levelname == "ERROR")
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

    @pytest.mark.parametrize(
        "sweep",
        [
            {"axis": "dropout", "values": [{"components_rate": 0.1}, {"components_rate": 1.5}]},
            {"axis": "n_projections", "values": [20, "abc"]},
        ],
    )
    def test_bad_sweep_value_exits_1_before_any_seed(self, tmp_path, monkeypatch, caplog, sweep):
        ran = []
        monkeypatch.setattr(evaluation, "run_experiment", lambda *a, **k: ran.append(a))
        cfg_path = tmp_path / "c.yaml"
        write_config(cfg_path, sweep=sweep)
        assert run_cli("sweep", "-c", str(cfg_path)) == 1
        assert ran == []
        assert any("sweep.values" in r.message for r in caplog.records if r.levelname == "ERROR")
        assert not (tmp_path / "out" / "aggregate.csv").exists()


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

    def _assert_output_matches_csv_writer_oracle(self, tmp_path, method, spelling):
        ckpt = self._bench_with_checkpoints(tmp_path, method)
        input_csv, X = self._rows_with_class_column(tmp_path, spelling=spelling)
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

    @pytest.mark.parametrize(
        "bad_row, problem",
        [("rpo-max,synthetic,2,1,-1,0.9", "expected 7 values, got 6"),
         ("rpo-max,synthetic,2,1,-1,0.9,high", "high"),
         ("rpo-max,synthetic,2,1,-1,0.9,nan", "non-finite value"),
         ("rpo-max,synthetic,2,1,-1,0.9,inf", "non-finite value")],
    )
    def test_bad_row_exits_2_naming_the_line(self, tmp_path, caplog, bad_row, problem):
        path = tmp_path / "results.csv"
        header = "method,dataset,k_modes,seed,best_epoch,val_auc,test_auc"
        path.write_text(f"{header}\nrpo-max,synthetic,2,0,-1,0.9,0.8\n\n{bad_row}\n")
        assert run_cli("report", "--results", str(path)) == 2
        errors = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert any(f"{path}:4: " in e and problem in e for e in errors)


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
    "no header": (None, "no header line"),
}

# each reader's header and one good row; the last column is one the reader parses
READER_ROWS = {
    "load_csv": (["f0", "class", "f1"], ["1.0", "0", "2.0"]),
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
            path.write_text("\n".join([",".join(header), ",".join(good), "", ",".join(bad)]) + "\n")
            where = f"{path}:4: "
            problem = problem.format(n=len(header), m=len(bad))
        out = tmp_path / "out.txt"
        if reader == "load_csv":
            with pytest.raises(DataError) as info:
                load_csv(path)
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
