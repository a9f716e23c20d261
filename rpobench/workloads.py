"""The benchmark's workloads: inputs made from a seed, and output checks.

Each workload prepares its inputs (configs, a CSV, checkpoints) in a work
directory from the workload seed alone, then names the ``rpo`` CLI calls
that make up one operation. The program sees only those files. Outputs
are split into units, one per operation the error rate counts: a results
row (one method and seed of ``rpo bench``) or one ``rpo score`` call.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parents[1]
SYNTHETIC_CONFIG = ROOT / "configs" / "synthetic.yaml"


def sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


@dataclass
class Prepared:
    """Inputs of one workload seed, ready to run."""

    calls: list[list[str]]  # argv of each cli.main call of one operation
    outputs: list[Path]  # file written by each call
    units: list[str]  # unit keys one operation must produce, in order
    rows: int  # rows the operation runs through the pipeline
    input_digests: dict[str, str] = field(default_factory=dict)
    labels: np.ndarray | None = None  # score-csv: label of each scored row


def _synthetic_protocol() -> dict:
    with open(SYNTHETIC_CONFIG, encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def _write_config(path: Path, cfg: dict) -> str:
    text = yaml.safe_dump(cfg, sort_keys=True)
    path.write_text(text, encoding="utf-8")
    return sha256(text.encode())


def _npz_digest(path: Path) -> str:
    # np.savez stamps each member with the time, so hash the arrays instead
    h = hashlib.sha256()
    with np.load(path) as archive:
        for key in sorted(archive.files):
            h.update(key.encode())
            h.update(np.ascontiguousarray(archive[key]).tobytes())
    return h.hexdigest()


def _dataset_rows(cfg: dict) -> int:
    ds = cfg["dataset"]
    return ds["k_modes"] * ds["n_per_mode"] + ds["anomaly_n"]


class SyntheticBench:
    """``rpo bench`` on the shipped synthetic protocol, some keys overridden."""

    def __init__(self, name, methods=None, rp_dim=None, epochs=None):
        self.name, self.methods, self.rp_dim, self.epochs = name, methods, rp_dim, epochs

    def prepare(self, workdir: Path, seed: int) -> Prepared:
        cfg = _synthetic_protocol()
        cfg["seeds"] = [seed]
        if self.methods is not None:
            cfg["methods"] = list(self.methods)
        if self.rp_dim is not None:
            cfg.setdefault("model", {})["rp_dim"] = self.rp_dim
        if self.epochs is not None:
            cfg["training"]["epochs"] = self.epochs
        cfg["output"] = {
            "results": str(workdir / "out" / "results.csv"),
            "aggregate": str(workdir / "out" / "aggregate.csv"),
        }
        path = workdir / "bench.yaml"
        digest = _write_config(path, cfg)
        units = [f"{m}/seed{s}" for m in cfg["methods"] for s in cfg["seeds"]]
        return Prepared(
            calls=[["bench", "-c", str(path)]],
            outputs=[Path(cfg["output"]["results"])],
            units=units,
            rows=_dataset_rows(cfg) * len(units),
            input_digests={"bench.yaml": digest},
        )

    def split_units(self, outputs: list[bytes | None]) -> dict[str, bytes]:
        """One unit per results row, keyed by method and seed."""
        if outputs[0] is None:
            return {}
        rows = outputs[0].decode().splitlines()[1:]
        return {"{0}/seed{3}".format(*row.split(",")): row.encode() for row in rows}

    def check_unit(self, key: str, payload: bytes, prepared: Prepared) -> str | None:
        row = payload.decode().split(",")
        val_auc, test_auc = float(row[5]), float(row[6])
        if not (0.0 <= val_auc <= 1.0 and 0.0 <= test_auc <= 1.0):
            return f"{key}: AUC outside [0, 1]: {row[5]}, {row[6]}"
        return None

    def test_auc(self, units: dict[str, bytes], prepared: Prepared) -> float:
        return float(np.mean([float(p.decode().split(",")[6]) for p in units.values()]))


class ScoreCsv:
    """``rpo score`` on a large generated CSV with two saved checkpoints."""

    name = "score-csv"
    checkpoint_methods = ("rpo-max", "deep-rpo-mean")

    def __init__(self, n_per_mode=9_000, anomaly_n=1_000, checkpoint_epochs=5):
        self.n_per_mode, self.anomaly_n = n_per_mode, anomaly_n
        self.checkpoint_epochs = checkpoint_epochs

    def prepare(self, workdir: Path, seed: int) -> Prepared:
        from rpo import cli, data
        from rpo.seeding import sub_seed

        cfg = _synthetic_protocol()
        cfg["methods"] = list(self.checkpoint_methods)
        cfg["seeds"] = [seed]
        cfg["training"]["epochs"] = self.checkpoint_epochs
        ckpt_dir = workdir / "ckpt"
        cfg["output"] = {
            "results": str(workdir / "ckpt-out" / "results.csv"),
            "aggregate": str(workdir / "ckpt-out" / "aggregate.csv"),
            "checkpoint_dir": str(ckpt_dir),
        }
        _write_config(workdir / "checkpoints.yaml", cfg)
        if cli.main(["bench", "-c", str(workdir / "checkpoints.yaml")]) != 0:
            raise RuntimeError("checkpoint preparation failed")

        # same datagen stream as the checkpoints' training data, so the blob
        # means agree and the scored rows come from the trained distribution
        ds_cfg = cfg["dataset"]
        ds = data.generate_multimodal(
            ds_cfg["k_modes"], ds_cfg["dim"], self.n_per_mode, self.anomaly_n,
            seed=sub_seed(seed, "datagen"),
        )
        rows_path = workdir / "rows.csv"
        data.save_csv(ds, rows_path)

        calls, outputs, units = [], [], []
        digests = {"rows.csv": sha256(rows_path.read_bytes())}
        for method in self.checkpoint_methods:
            ckpt = ckpt_dir / f"{method}_seed{seed}.npz"
            digests[ckpt.name] = _npz_digest(ckpt)
            out = workdir / "out" / f"{method}.csv"
            calls.append(["score", "--checkpoint", str(ckpt), "--input", str(rows_path),
                          "--output", str(out)])
            outputs.append(out)
            units.append(method)
        return Prepared(
            calls=calls,
            outputs=outputs,
            units=units,
            rows=ds.n * len(calls),
            input_digests=digests,
            labels=np.asarray(ds.label),
        )

    def split_units(self, outputs: list[bytes | None]) -> dict[str, bytes]:
        return {m: p for m, p in zip(self.checkpoint_methods, outputs) if p is not None}

    def _scores(self, payload: bytes) -> np.ndarray:
        reader = csv.reader(io.StringIO(payload.decode()))
        header = next(reader)
        if header != ["score", "depth"]:
            raise ValueError(f"unexpected header {header}")
        return np.array([float(row[0]) for row in reader])

    def check_unit(self, key: str, payload: bytes, prepared: Prepared) -> str | None:
        try:
            scores = self._scores(payload)
        except ValueError as exc:
            return f"{key}: unreadable scores: {exc}"
        if scores.shape != prepared.labels.shape:
            return f"{key}: {scores.size} scores for {prepared.labels.size} rows"
        if not np.all(np.isfinite(scores)) or np.any(scores < 0):
            return f"{key}: scores not finite and nonnegative"
        return None

    def test_auc(self, units: dict[str, bytes], prepared: Prepared) -> float:
        from rpo.metrics import roc_auc

        return float(np.mean([roc_auc(self._scores(p), prepared.labels) for p in units.values()]))


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        SyntheticBench("synthetic-m1"),
        SyntheticBench("synthetic-m3", methods=["deep-rpo-mean"], rp_dim=3, epochs=5),
        ScoreCsv(),
    )
}
