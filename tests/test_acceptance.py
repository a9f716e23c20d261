"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest
import yaml

from rpo.cli import main as cli_main
from rpo.config import sweep_points
from rpo.encoder import init_encoder
from rpo.evaluation import ExperimentSpec, aggregate, run_experiment, sweep
from rpo.metrics import roc_auc
from rpo.projections import generate_projections
from rpo.scoring import depth, fit_rpo, score_batch
from rpo.training import SvddModel, deep_rpo_loss, svdd_loss

from test_encoder import fd_gradients, relative_error
from test_evaluation import pairwise_auc
from test_scoring import naive_fit, naive_score
from test_training import _fd_safe_instance

SATELLITE_CSV = os.path.join(os.path.dirname(__file__), "..", "data", "satellite.csv")


def report(criterion: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion}: {description} {detail}".rstrip())
    assert passed, f"criterion {criterion} failed: {description} {detail}"


def test_criterion_1_shallow_scorer_oracle_equivalence():
    rng = np.random.default_rng(20260811)
    worst = 0.0
    elapsed = 0.0  # the bound times the scorer (fit_rpo, score_batch), not the oracle
    for i in range(100):
        d = int(rng.integers(2, 11))
        p = int(rng.integers(1, 51))
        n = int(rng.integers(5, 201))
        m = int(rng.choice([1, 2]))
        U = generate_projections(d=d, m=m, p=p, seed=int(rng.integers(1 << 31)))
        X_train = rng.normal(size=(n, d))
        started = time.perf_counter()
        stats = fit_rpo(X_train, U)
        elapsed += time.perf_counter() - started
        fitted = naive_fit(U, X_train)
        for est in ("max", "mean"):
            for _ in range(2):
                x = rng.normal(size=d)
                started = time.perf_counter()
                got = float(score_batch(x[np.newaxis], U, stats, est)[0])
                elapsed += time.perf_counter() - started
                want = naive_score(x, U, fitted, est)
                worst = max(worst, abs(got - want))
    report(
        1,
        "shallow scorer matches naive oracle (100 instances, m in {1,2})",
        worst <= 1e-10 and elapsed < 10.0,
        f"[max |diff| {worst:.2e}, scorer {elapsed:.2f}s]",
    )


def test_criterion_2_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    checks = 0
    # projection-objective gradients: both estimators, both projection dims,
    # with and without regularization and SAD flags
    case = 0
    for estimator in ("mean", "max"):
        for m in (1, 2):
            for lam in (0.0, 1e-3):
                case += 1
                model, batch, stats = _fd_safe_instance(
                    seed=10_000 + case, estimator=estimator, m=m, lam=lam
                )
                _, analytic = deep_rpo_loss(model, batch)
                numeric = fd_gradients(
                    model.encoder,
                    lambda: deep_rpo_loss(model, batch, stats=stats)[0],
                    step=1e-6,
                )
                worst = max(worst, relative_error(analytic, numeric))
                checks += 1
    for seed in (300, 301):
        flags = np.zeros(6, dtype=bool)
        flags[seed % 6] = True
        model, batch, stats = _fd_safe_instance(seed=seed, estimator="mean", sad_flags=flags)
        _, analytic = deep_rpo_loss(model, batch, sad_flags=flags)
        numeric = fd_gradients(
            model.encoder,
            lambda: deep_rpo_loss(model, batch, sad_flags=flags, stats=stats)[0],
            step=1e-6,
        )
        worst = max(worst, relative_error(analytic, numeric))
        checks += 1
    # hypersphere objective
    rng = np.random.default_rng(4242)
    for _ in range(10):
        dims = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(2, 4)))] + [2]
        enc = init_encoder(dims, rng)
        model = SvddModel(enc, center=rng.normal(size=2), lam=float(rng.choice([0.0, 1e-3])))
        batch = rng.normal(size=(int(rng.integers(3, 7)), dims[0]))
        _, analytic = svdd_loss(model, batch)
        numeric = fd_gradients(enc, lambda: svdd_loss(model, batch)[0], step=1e-5)
        worst = max(worst, relative_error(analytic, numeric))
        checks += 1
    elapsed = time.perf_counter() - started
    report(
        2,
        f"loss gradients match finite differences on {checks} tiny instances",
        checks >= 20 and worst < 1e-4 and elapsed < 30.0,
        f"[max rel err {worst:.2e}, {elapsed:.1f}s]",
    )


def test_criterion_3_auc_against_pairwise_definition():
    rng = np.random.default_rng(77)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(5, 120))
        if i % 2 == 0:
            scores = rng.choice([0.0, 0.5, 1.0, 2.0], size=n)  # heavy ties
        else:
            scores = rng.normal(size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        worst = max(worst, abs(roc_auc(scores, labels) - pairwise_auc(scores, labels)))
    report(3, "rank-based AUC equals pairwise definition", worst <= 1e-12, f"[max |diff| {worst:.1e}]")


def test_criterion_4_invariance_suite():
    rng = np.random.default_rng(99)
    translation_ok = scale_ok = dominance_ok = True
    for i in range(20):
        d = int(rng.integers(2, 8))
        U = generate_projections(d=d, m=1, p=int(rng.integers(5, 30)), seed=i)
        X = rng.normal(size=(int(rng.integers(10, 60)), d))
        queries = rng.normal(size=(5, d))
        t = rng.normal(size=d)
        a = float(rng.uniform(0.1, 10.0))
        for est in ("max", "mean"):
            base = score_batch(queries, U, fit_rpo(X, U), est)
            shifted = score_batch(queries + t, U, fit_rpo(X + t, U), est)
            scaled = score_batch(a * queries, U, fit_rpo(a * X, U), est)
            translation_ok &= bool(np.all(np.abs(base - shifted) <= 1e-9))
            scale_ok &= bool(np.all(np.abs(base - scaled) <= 1e-9))
        stats = fit_rpo(X, U)
        dominance_ok &= bool(
            np.all(
                score_batch(queries, U, stats, "max")
                >= score_batch(queries, U, stats, "mean")
            )
        )
    grid = np.linspace(0.0, 50.0, 200)
    depths = depth(grid)
    depth_ok = bool(np.all(np.diff(depths) < 0))
    report(
        4,
        "translation/scale invariance, max>=mean dominance, depth decreasing",
        translation_ok and scale_ok and dominance_ok and depth_ok,
    )


SYNTHETIC_BENCH = ExperimentSpec(
    method="deep-rpo-mean",
    k_modes=2,
    dim=16,
    n_per_mode=400,
    anomaly_n=300,
    epochs=50,
    seeds=(0, 1, 2, 3, 4),
)


def test_criterion_5_synthetic_separability():
    started = time.perf_counter()
    results = run_experiment(SYNTHETIC_BENCH)
    mean, std = aggregate(results)
    elapsed = time.perf_counter() - started
    report(
        5,
        "deep-rpo-mean on 2-mode synthetic reaches mean test AUC >= 0.95",
        mean >= 0.95 and elapsed < 300.0,
        f"[mean {mean:.4f} ± {std:.4f}, {elapsed:.0f}s]",
    )


@pytest.mark.skipif(
    not os.path.exists(SATELLITE_CSV),
    reason="satellite dataset not present (data/satellite.csv); criterion 5 is authoritative",
)
def test_criterion_6_satellite_reproduction():
    started = time.perf_counter()
    base = ExperimentSpec(
        source=SATELLITE_CSV,
        k_modes=0,
        normal_class_ids=(0,),
        hidden_dims=(32, 16),
        latent_dim=8,
        epochs=80,
        seeds=tuple(range(20)),
    )
    paper_values = {"deep-rpo-mean": 0.7301, "deep-svdd": 0.6823, "rpo-max": 0.6489}
    means = {}
    for method in paper_values:
        results = run_experiment(replace(base, method=method), workers=4)
        means[method], _ = aggregate(results)
    elapsed = time.perf_counter() - started
    ordering = means["deep-rpo-mean"] > means["deep-svdd"] > means["rpo-max"]
    within = all(abs(means[m] - paper_values[m]) <= 0.06 for m in paper_values)
    detail = ", ".join(f"{m}={v:.4f}" for m, v in means.items())
    report(
        6,
        "satellite ordering deep-rpo-mean > deep-svdd > rpo-max within ±6 points",
        ordering and within and elapsed < 3600.0,
        f"[{detail}, {elapsed:.0f}s]",
    )


def test_criterion_7_affine_stability():
    rows = sweep("alpha", sweep_points(SYNTHETIC_BENCH, "alpha", [0.8, 0.95, 1.0, 1.05, 1.2]))
    # (mean test AUC, mean gap to alpha = 1.0) by alpha label
    by_alpha = {label: (mean, gap_mean) for _, label, mean, _, _, gap_mean, _ in rows}
    auc_at_1 = by_alpha["1.0"][0]
    near_ok = all(abs(by_alpha[a][1]) < 0.02 for a in ("0.95", "1.05"))
    floor = 0.5 + 0.2 * (auc_at_1 - 0.5)
    far_ok = all(by_alpha[a][0] >= floor for a in ("0.8", "1.2"))
    detail = ", ".join(f"α={label}:{mean:.4f}" for label, (mean, _) in by_alpha.items())
    report(7, "post-training affine perturbation keeps AUC stable", near_ok and far_ok, f"[{detail}]")


def test_criterion_8_sad_monotonicity():
    base = ExperimentSpec(
        method="deep-rpo-mean",
        k_modes=4,
        dim=32,
        n_per_mode=120,
        anomaly_n=700,
        epochs=15,
        seeds=(0, 1, 2, 3, 4),
    )
    mean_plain, _ = aggregate(run_experiment(replace(base, sad_ratio=0.0)))
    mean_sad, _ = aggregate(run_experiment(replace(base, sad_ratio=0.10)))
    report(
        8,
        "labeled anomalies (sad_ratio 0.10) do not hurt mean test AUC",
        mean_sad >= mean_plain,
        f"[0.00 -> {mean_plain:.4f}, 0.10 -> {mean_sad:.4f}]",
    )


def test_criterion_9_bench_determinism(tmp_path):
    cfg = {
        "method": "deep-rpo-mean",
        "seeds": [0, 1],
        "dataset": {"k_modes": 2, "dim": 8, "n_per_mode": 80, "anomaly_n": 80},
        "model": {"n_projections": 50},
        "training": {"epochs": 3, "batch_size": 32},
        "output": {
            "results": str(tmp_path / "out" / "results.csv"),
            "aggregate": str(tmp_path / "out" / "aggregate.csv"),
        },
    }
    cfg_path = tmp_path / "bench.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    assert cli_main(["bench", "-c", str(cfg_path)]) == 0
    first = (tmp_path / "out" / "results.csv").read_bytes()
    first_agg = (tmp_path / "out" / "aggregate.csv").read_bytes()
    assert cli_main(["bench", "-c", str(cfg_path)]) == 0
    identical = (
        first == (tmp_path / "out" / "results.csv").read_bytes()
        and first_agg == (tmp_path / "out" / "aggregate.csv").read_bytes()
    )
    report(9, "bench rerun produces byte-identical CSVs", identical)
