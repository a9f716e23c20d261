"""Multi-seed experiment execution, sweeps, and result aggregation.

One run seed drives every stochastic choice of a seed's pipeline (data
generation or class pick, splits, projection draw, dropout mask, weight
init, batch shuffling, affine diagonal) through namespaced sub-seeds, so
no spec field holds a seed of its own, and reruns of the same spec are
reproducible down to the byte in the emitted CSVs.

A seed runs in two stages. Fit: assemble dataset -> split -> standardize
-> optional contamination / SAD labeling -> fit or train the method ->
(deep methods) keep the checkpoint from the best validation-AUC epoch ->
val AUC. Evaluate: apply any post-training affine perturbation to the
held-out rows -> test AUC. The perturbation changes nothing the fit reads.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import data as datamod
from .data import AffineSpec, Dataset
from .encoder import init_encoder
from .errors import ConfigError, DataError, classify
from .metrics import mean_std, roc_auc
from .model_io import ScoringModel, save_model_checkpoint
from .projections import DropoutSpec, apply_dropout, generate_projections
from .scoring import METHODS, fit_rpo
from .seeding import SEED_END, sub_rng, sub_seed
from .training import (
    DeepRpoModel,
    EpochRecord,
    SvddModel,
    fit_eval_stats,
    init_center,
    train,
)

SYNTHETIC = "synthetic"
# the YAML key that sets each count of data.plan_counts
_COUNT_KEYS = {"n_test": "protocol.test_fraction", "n_val": "dataset.n_per_mode",
               "val_anomalies": "dataset.anomaly_n", "contamination": "protocol.contamination",
               "sad_labels": "protocol.sad_ratio", "n_train": "protocol.val_fraction"}


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark run; its defaults are the paper protocol's, written nowhere else."""

    method: str = "deep-rpo-mean"  # a key of scoring.METHODS
    source: str = SYNTHETIC  # SYNTHETIC or a dataset CSV path
    label_column: str = datamod.LABEL_COLUMN
    normal_class_ids: tuple = (0,)
    k_modes: int | None = None  # synthetic blobs (2); CSV classes picked per seed (0: all normals)
    dim: int = 16
    n_per_mode: int = 500
    anomaly_n: int = 300
    n_projections: int | None = None  # default 1000 shallow / 500 latent
    rp_dim: int = 1
    dropout: DropoutSpec | None = None
    latent_dim: int = 8
    hidden_dims: tuple = (32, 16)
    epochs: int = 50
    batch_size: int = 128
    learning_rate: float = 1e-4
    weight_decay: float = 1e-6
    val_fraction: float = 0.1
    test_fraction: float = datamod.TEST_FRACTION
    contamination: float = 0.0
    sad_ratio: float = 0.0
    sad_classes: int = 2
    affine: AffineSpec | None = None
    seeds: tuple = (0, 1, 2, 3, 4)

    def __post_init__(self):
        """Reject a value no run can use, naming its YAML key; ``replace()`` checks too."""
        if self.method not in METHODS:
            raise ConfigError(
                f"method: unknown method {self.method!r}; expected one of {tuple(METHODS)}"
            )
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        outside = [s for s in self.seeds if not 0 <= s < SEED_END]
        if outside:
            raise ConfigError(f"seeds must lie in [0, 2**32), got {outside}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {list(self.seeds)}")
        if not self.normal_class_ids:
            raise ConfigError("dataset.normal_class_ids must be nonempty")
        if not 0.0 <= self.sad_ratio < 0.5:
            raise ConfigError(f"protocol.sad_ratio must lie in [0, 0.5), got {self.sad_ratio}")
        parts = METHODS[self.method]
        if self.sad_ratio > 0.0 and (parts.center or not parts.encoder):
            raise ConfigError(
                f"protocol.sad_ratio > 0 requires a deep-rpo method, got {self.method!r}"
            )
        if self.sad_ratio > 0.0 and self.sad_classes < 1:
            raise ConfigError(f"protocol.sad_classes must be >= 1, got {self.sad_classes}")
        if not 0.0 <= self.contamination < 0.5:
            raise ConfigError(
                f"protocol.contamination must lie in [0, 0.5), got {self.contamination}"
            )
        if parts.encoder:
            if self.epochs < 1:
                raise ConfigError(
                    f"training.epochs must be >= 1 for a deep method, got {self.epochs}"
                )
            if self.latent_dim < 1:
                raise ConfigError(f"model.latent_dim must be >= 1, got {self.latent_dim}")
            if any(h < 1 for h in self.hidden_dims):
                raise ConfigError(
                    f"model.hidden_dims must all be >= 1, got {list(self.hidden_dims)}"
                )
            if not 0.0 < self.learning_rate < math.inf:
                raise ConfigError(
                    f"training.learning_rate must be finite and > 0, got {self.learning_rate}"
                )
            if not 0.0 <= self.weight_decay < math.inf:
                raise ConfigError(
                    f"training.weight_decay must be finite and >= 0, got {self.weight_decay}"
                )
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"protocol.val_fraction must lie in (0, 1), got {self.val_fraction}")
        # every source starts its normals in train, so 0 leaves no normal test row
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(
                f"protocol.test_fraction must lie in (0, 1), got {self.test_fraction}"
            )
        if self.source == SYNTHETIC:
            if self.resolved_k_modes < 1:
                raise ConfigError(
                    f"dataset.k_modes must be >= 1 for a synthetic source, got {self.k_modes}"
                )
            if self.n_per_mode < 1:
                raise ConfigError(f"dataset.n_per_mode must be >= 1, got {self.n_per_mode}")
            try:  # training.train needs 2 train rows; a shallow fit needs 1
                datamod.plan_counts(self.resolved_k_modes, self.n_per_mode, self.anomaly_n,
                                    self.test_fraction, self.val_fraction, self.contamination,
                                    self.sad_ratio, min_train=2 if parts.encoder else 1)
            except datamod.CountError as exc:
                key = _COUNT_KEYS[exc.count]
                raise ConfigError(f"{key} {getattr(self, key.split('.')[1])}: {exc.args[1]}")
        elif self.resolved_k_modes < 0:  # a CSV source's 0 picks every normal class
            raise ConfigError(f"dataset.k_modes must be >= 0 for a CSV source, got {self.k_modes}")
        if self.rp_dim < 1:
            raise ConfigError(f"model.rp_dim must be >= 1, got {self.rp_dim}")
        if self.n_projections is not None and self.n_projections < 1:
            raise ConfigError(f"model.n_projections must be >= 1, got {self.n_projections}")
        if self.batch_size < 2:
            raise ConfigError(f"training.batch_size must be >= 2, got {self.batch_size}")
        if self.dim < 1:
            raise ConfigError(f"dataset.dim must be >= 1, got {self.dim}")
        # a CSV source's width is known only once it is loaded, so
        # _fit_seed checks shallow methods on a CSV against it
        if not parts.center and (parts.encoder or self.source == SYNTHETIC):
            key, bound = (("model.latent_dim", self.latent_dim) if parts.encoder
                          else ("dataset.dim", self.dim))
            if self.rp_dim > bound:
                raise ConfigError(f"model.rp_dim {self.rp_dim} exceeds {key} {bound}")

    @property
    def is_deep(self) -> bool:
        return METHODS[self.method].encoder

    @property
    def resolved_projections(self) -> int:
        if self.n_projections is not None:
            return self.n_projections
        return 500 if self.is_deep else 1000

    @property
    def resolved_k_modes(self) -> int:
        if self.k_modes is not None:
            return self.k_modes
        return 2 if self.source == SYNTHETIC else 0


@dataclass
class SeedResult:
    seed: int
    chosen_classes: tuple
    best_epoch: int
    val_auc: float
    test_auc: float
    wall_time: float
    history: list[EpochRecord] = field(default_factory=list)

    def __post_init__(self):
        for name in ("val_auc", "test_auc"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


@lru_cache(maxsize=4)
def _load_source(path: str, label_column: str, normal_class_ids: tuple) -> Dataset:
    return datamod.load_csv(path, label_column=label_column, normal_class_ids=normal_class_ids)


def _assemble_dataset(
    spec: ExperimentSpec, seed: int
) -> tuple[Dataset, tuple, np.ndarray, np.ndarray]:
    k_modes = spec.resolved_k_modes
    if spec.source == SYNTHETIC:
        raw = datamod.generate_multimodal(
            k_modes,
            spec.dim,
            spec.n_per_mode,
            spec.anomaly_n,
            seed=sub_seed(seed, "datagen"),
            test_fraction=spec.test_fraction,
        )
        chosen = tuple(range(k_modes))
        ds = datamod.split(raw, spec.val_fraction, sub_seed(seed, "split"))
    else:
        # a class pick relabels by the classes it picks, so it reads no normal class ids
        normal_ids = () if k_modes > 0 else tuple(spec.normal_class_ids)
        raw = _load_source(str(spec.source), spec.label_column, normal_ids)
        if k_modes > 0:
            classes = np.unique(raw.class_id)
            if k_modes > classes.size:
                raise DataError(
                    f"k_modes={k_modes} exceeds the {classes.size} classes in {spec.source}"
                )
            picked = sub_rng(seed, "classpick").choice(classes, size=k_modes, replace=False)
            chosen = tuple(sorted(int(c) for c in picked))
            raw = datamod.relabel_by_normal_classes(raw, chosen)
        else:
            chosen = tuple(sorted(int(c) for c in np.unique(raw.class_id[raw.label == 0])))
        ds = datamod.split(
            raw, spec.val_fraction, sub_seed(seed, "split"), test_fraction=spec.test_fraction
        )
    ds, scaler_mean, scaler_std = datamod.standardize(ds)
    if spec.contamination > 0.0:
        ds = datamod.contaminate(ds, spec.contamination, sub_seed(seed, "contaminate"))
    if spec.sad_ratio > 0.0:
        ds = datamod.inject_sad_labels(
            ds, spec.sad_ratio, spec.sad_classes, sub_seed(seed, "sad")
        )
    return ds, chosen, scaler_mean, scaler_std


def _build_projections(spec: ExperimentSpec, space_dim: int, seed: int):
    U = generate_projections(
        space_dim, spec.rp_dim, spec.resolved_projections, sub_seed(seed, "projections")
    )
    if spec.dropout is not None:
        U = apply_dropout(U, spec.dropout, sub_seed(seed, "dropout"))
    return U


def _fit_seed(spec: ExperimentSpec, seed: int):
    """The fit stage of one seed; see the module docstring.

    Returns the fitted scorer and the seed's evaluate stage,
    ``evaluate(affine) -> SeedResult``, which maps the held-out rows by
    ``affine`` when it is given, then scores the test rows.
    """
    started = time.perf_counter()
    ds, chosen, scaler_mean, scaler_std = _assemble_dataset(spec, seed)
    X_train = ds.X[ds.mask(datamod.TRAIN)]
    parts = METHODS[spec.method]
    if not parts.encoder:
        history, best_epoch = [], -1
        if spec.rp_dim > ds.dim:
            raise ConfigError(
                f"model.rp_dim {spec.rp_dim} exceeds the {ds.dim} features of {spec.source}"
            )
        U = _build_projections(spec, ds.dim, seed)
        head = dict(projections=U, stats=fit_rpo(X_train, U))
    else:
        enc = init_encoder([ds.dim, *spec.hidden_dims, spec.latent_dim], sub_rng(seed, "weights"))
        if parts.center:
            model = SvddModel(enc, init_center(enc, X_train), lam=spec.weight_decay)
        else:
            U = _build_projections(spec, spec.latent_dim, seed)
            model = DeepRpoModel(enc, U, estimator=parts.estimator, lam=spec.weight_decay)
        result = train(model, ds, epochs=spec.epochs, batch_size=spec.batch_size,
                       seed=sub_seed(seed, "train"), learning_rate=spec.learning_rate)
        history, best_epoch, val_auc = result.history, result.best_epoch, result.best_val_auc
        if parts.center:
            head = dict(encoder=model.encoder, center=model.center)
        else:
            stats = fit_eval_stats(model, X_train)
            head = dict(encoder=model.encoder, projections=model.projections, stats=stats)

    scorer = ScoringModel(spec.method, scaler_mean, scaler_std, **head)
    if not parts.encoder:
        val_mask = ds.mask(datamod.VAL)
        val_auc = roc_auc(scorer.score_standardized(ds.X[val_mask]), ds.label[val_mask])

    def evaluate(affine: AffineSpec | None) -> SeedResult:
        eval_ds = ds
        if affine is not None:
            eval_ds = datamod.affine_transform(ds, affine, sub_seed(seed, "affine"))
        test_mask = eval_ds.mask(datamod.TEST)
        return SeedResult(
            seed=seed,
            chosen_classes=chosen,
            best_epoch=best_epoch,
            val_auc=val_auc,
            test_auc=roc_auc(
                scorer.score_standardized(eval_ds.X[test_mask]), eval_ds.label[test_mask]
            ),
            wall_time=time.perf_counter() - started,
            history=history,
        )

    return scorer, evaluate


def run_single_seed(spec: ExperimentSpec, seed: int, checkpoint_dir=None) -> SeedResult:
    """Fit one seed of the experiment and evaluate it under ``spec.affine``."""
    scorer, evaluate = _fit_seed(spec, seed)
    result = evaluate(spec.affine)
    if checkpoint_dir is not None:
        save_model_checkpoint(f"{checkpoint_dir}/{spec.method}_seed{seed}.npz", scorer)
    return result


def _evaluate_affines(spec: ExperimentSpec, affines: list, seed: int) -> list[SeedResult]:
    """Fit one seed once; evaluate it under each of ``affines`` and, last, unperturbed."""
    _, evaluate = _fit_seed(spec, seed)
    return [evaluate(affine) for affine in [*affines, None]]


def _map_seeds(run_seed, seeds, workers: int, progress=None) -> list:
    """``run_seed(seed)`` for every seed, in seed-list order, on ``workers`` processes.

    ``progress`` sees each seed's output as it arrives.
    """
    outputs = []
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        if pool is None:
            runs = [partial(run_seed, seed) for seed in seeds]
        else:
            runs = [pool.submit(run_seed, seed).result for seed in seeds]
        for seed, run in zip(seeds, runs):
            try:
                out = run()
            except Exception as exc:
                # keep the error category so the CLI maps it to the right exit code
                raise classify(exc)[0](f"seed {seed}: {exc}") from exc
            outputs.append(out)
            if progress:
                progress(out)
    return outputs


def run_experiment(
    spec: ExperimentSpec,
    workers: int = 1,
    checkpoint_dir=None,
    progress=None,
) -> list[SeedResult]:
    """Run every seed of the spec; returns results in seed-list order.

    A failing seed aborts the whole run with the seed id attached.
    """
    run_seed = partial(run_single_seed, spec, checkpoint_dir=checkpoint_dir)
    return _map_seeds(run_seed, spec.seeds, workers, progress)


def aggregate(results: list[SeedResult]) -> tuple[float, float]:
    """Mean and sample std of the per-seed test AUCs."""
    return mean_std([r.test_auc for r in results])


def aggregate_row(spec: ExperimentSpec, label: str, results: list[SeedResult],
                  baseline: list[SeedResult] | None = None) -> tuple:
    """The aggregate CSV row ``(method, axis_value, mean, std, n, gap_mean, gap_std)``.

    The gap is each seed's test AUC minus ``baseline``'s; without a baseline it is empty.
    """
    gap = (None, None)
    if baseline is not None:
        gap = mean_std([r.test_auc - b.test_auc for r, b in zip(results, baseline)])
    return (spec.method, label, *aggregate(results), len(results), *gap)


def sweep(axis: str, points: list, workers: int = 1, progress=None) -> list[tuple]:
    """Run each ``(label, spec)`` point of a sweep along ``axis``; one aggregate row per point.

    The points differ from each other in ``axis`` alone (``config.sweep_points``
    makes them). The alpha axis changes nothing the fit reads, so it fits each
    seed once and evaluates it under every point's affine, then unperturbed:
    the baseline of the per-seed mean/std AUC gap. The other axes run once
    per point.
    """
    specs = [spec for _, spec in points]
    if axis in ("n_projections", "rp_dim", "dropout") and METHODS[specs[0].method].center:
        raise ConfigError(f"axis {axis!r} does not apply to {specs[0].method}")

    baseline = None
    if axis == "alpha":
        run_seed = partial(_evaluate_affines, specs[0], [spec.affine for spec in specs])
        # one log line per fitted seed, with its unperturbed test AUC
        log = progress and (lambda results: progress(results[-1]))
        *per_point, baseline = zip(*_map_seeds(run_seed, specs[0].seeds, workers, log))
    else:
        per_point = [run_experiment(spec, workers=workers, progress=progress) for spec in specs]
    return [aggregate_row(spec, label, results, baseline)
            for (label, spec), results in zip(points, per_point)]
