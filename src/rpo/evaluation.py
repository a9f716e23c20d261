"""Multi-seed experiment execution, sweeps, and result aggregation.

One run seed drives every stochastic choice of a seed's pipeline (data
generation or class pick, splits, projection draw, weight init, batch
shuffling) through namespaced sub-seeds, so reruns of the same spec are
reproducible down to the byte in the emitted CSVs.

Per-seed pipeline: assemble dataset -> split -> standardize -> optional
contamination / SAD labeling -> fit or train the method -> (deep methods)
keep the checkpoint from the best validation-AUC epoch -> apply any
post-training affine perturbation to the held-out rows -> test AUC.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np

from . import data as datamod
from .data import AffineSpec, Dataset
from .encoder import init_encoder
from .errors import ConfigError, DataError, NumericError, RpoError
from .metrics import mean_std, roc_auc
from .model_io import ScoringModel, save_model_checkpoint
from .projections import DropoutSpec, apply_dropout, generate_projections
from .scoring import DEFAULT_EPS_FLOOR, fit_rpo, method_estimator
from .seeding import sub_rng, sub_seed
from .training import DeepRpoModel, EpochRecord, SvddModel, fit_eval_stats, init_center, train

METHODS = ("rpo-max", "rpo-mean", "deep-svdd", "deep-rpo-max", "deep-rpo-mean")
SWEEP_AXES = ("n_projections", "rp_dim", "dropout", "alpha", "sad_ratio")
SYNTHETIC = "synthetic"


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one benchmark run."""

    method: str = "deep-rpo-mean"
    source: str = SYNTHETIC  # SYNTHETIC or a dataset CSV path
    label_column: str = "class"
    normal_class_ids: tuple = (0,)
    k_modes: int = 2  # synthetic: blob count; CSV: classes picked per seed (0 = all normals)
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
    test_fraction: float = 0.25
    contamination: float = 0.0
    sad_ratio: float = 0.0
    sad_classes: int = 2
    affine: AffineSpec | None = None
    stats_mode: str = "batch"
    eps_floor: float = DEFAULT_EPS_FLOOR
    seeds: tuple = (0, 1, 2, 3, 4)

    @property
    def is_deep(self) -> bool:
        return self.method.startswith("deep")

    @property
    def resolved_projections(self) -> int:
        if self.n_projections is not None:
            return self.n_projections
        return 500 if self.is_deep else 1000


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


def validate_spec(spec: ExperimentSpec) -> None:
    if spec.method not in METHODS:
        raise ConfigError(f"unknown method {spec.method!r}; expected one of {METHODS}")
    if not spec.seeds:
        raise ConfigError("seed list must be nonempty")
    if spec.sad_ratio > 0.0 and not spec.method.startswith("deep-rpo"):
        raise ConfigError("sad_ratio requires a deep-rpo method")
    if spec.is_deep and spec.epochs < 1:
        raise ConfigError("deep methods need epochs >= 1")
    if spec.source == SYNTHETIC and spec.k_modes < 1:
        raise ConfigError("synthetic source needs k_modes >= 1")
    if spec.rp_dim < 1:
        raise ConfigError(f"rp_dim must be >= 1, got {spec.rp_dim}")
    proj_space = spec.latent_dim if spec.is_deep else spec.dim
    if spec.method != "deep-svdd" and spec.rp_dim > proj_space:
        raise ConfigError(
            f"rp_dim {spec.rp_dim} exceeds projection space dim {proj_space}"
        )


@lru_cache(maxsize=4)
def _load_source(path: str, label_column: str, normal_class_ids: tuple) -> Dataset:
    return datamod.load_csv(path, label_column=label_column, normal_class_ids=normal_class_ids)


def _assemble_dataset(spec: ExperimentSpec, seed: int) -> tuple[Dataset, tuple]:
    if spec.source == SYNTHETIC:
        raw = datamod.generate_multimodal(
            spec.k_modes,
            spec.dim,
            spec.n_per_mode,
            spec.anomaly_n,
            seed=sub_seed(seed, "datagen"),
            test_fraction=spec.test_fraction,
        )
        chosen = tuple(range(spec.k_modes))
        ds = datamod.split(raw, spec.val_fraction, sub_seed(seed, "split"))
    else:
        raw = _load_source(str(spec.source), spec.label_column, tuple(spec.normal_class_ids))
        if spec.k_modes > 0:
            classes = np.unique(raw.class_id)
            if spec.k_modes > classes.size:
                raise DataError(
                    f"k_modes={spec.k_modes} exceeds the {classes.size} classes in {spec.source}"
                )
            picked = sub_rng(seed, "classpick").choice(classes, size=spec.k_modes, replace=False)
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
        U = apply_dropout(U, replace(spec.dropout, seed=sub_seed(seed, "dropout")))
    return U


def _perturbed_eval_data(spec: ExperimentSpec, ds: Dataset, seed: int) -> Dataset:
    if spec.affine is None:
        return ds
    affine = spec.affine
    if affine.mode != "constant":
        affine = replace(affine, seed=sub_seed(seed, "affine"))
    return datamod.affine_transform(ds, affine)


def run_single_seed(spec: ExperimentSpec, seed: int, checkpoint_dir=None) -> SeedResult:
    """Execute one seed of the experiment; see the module docstring."""
    started = time.perf_counter()
    ds, chosen, scaler_mean, scaler_std = _assemble_dataset(spec, seed)
    X_train = ds.X[ds.mask(datamod.TRAIN)]
    eval_ds = _perturbed_eval_data(spec, ds, seed)
    val_mask, test_mask = ds.mask(datamod.VAL), ds.mask(datamod.TEST)

    history: list[EpochRecord] = []
    best_epoch = -1
    if not spec.is_deep:
        U = _build_projections(spec, ds.dim, seed)
        head = dict(projections=U, stats=fit_rpo(X_train, U, eps_floor=spec.eps_floor))
    else:
        enc = init_encoder(
            [ds.dim, *spec.hidden_dims, spec.latent_dim], sub_rng(seed, "weights")
        )
        if spec.method == "deep-svdd":
            model = SvddModel(enc, init_center(enc, X_train), lam=spec.weight_decay)
        else:
            model = DeepRpoModel(
                enc,
                _build_projections(spec, spec.latent_dim, seed),
                estimator=method_estimator(spec.method),
                lam=spec.weight_decay,
                stats_mode=spec.stats_mode,
                eps_floor=spec.eps_floor,
            )
        result = train(
            model,
            ds,
            epochs=spec.epochs,
            batch_size=spec.batch_size,
            seed=sub_seed(seed, "train"),
            learning_rate=spec.learning_rate,
        )
        history, best_epoch, val_auc = result.history, result.best_epoch, result.best_val_auc
        if isinstance(model, SvddModel):
            head = dict(encoder=model.encoder, center=model.center)
        else:
            stats = fit_eval_stats(model, X_train)
            head = dict(encoder=model.encoder, projections=model.projections, stats=stats)

    scorer = ScoringModel(spec.method, scaler_mean, scaler_std, **head)
    if not spec.is_deep:
        val_auc = roc_auc(scorer.score_standardized(ds.X[val_mask]), ds.label[val_mask])
    test_auc = roc_auc(
        scorer.score_standardized(eval_ds.X[test_mask]), eval_ds.label[test_mask]
    )
    if checkpoint_dir is not None:
        save_model_checkpoint(f"{checkpoint_dir}/{spec.method}_seed{seed}.npz", scorer)

    return SeedResult(
        seed=seed,
        chosen_classes=chosen,
        best_epoch=best_epoch,
        val_auc=val_auc,
        test_auc=test_auc,
        wall_time=time.perf_counter() - started,
        history=history,
    )


def run_experiment(
    spec: ExperimentSpec,
    workers: int = 1,
    checkpoint_dir=None,
    progress=None,
) -> list[SeedResult]:
    """Run every seed of the spec; returns results in seed-list order.

    A failing seed aborts the whole run with the seed id attached.
    """
    validate_spec(spec)
    results: list[SeedResult] = []
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        if pool is None:
            runs = [partial(run_single_seed, spec, seed, checkpoint_dir) for seed in spec.seeds]
        else:
            runs = [
                pool.submit(run_single_seed, spec, seed, checkpoint_dir).result
                for seed in spec.seeds
            ]
        for seed, run in zip(spec.seeds, runs):
            try:
                res = run()
            except Exception as exc:
                raise _seed_failure(seed, exc) from exc
            results.append(res)
            if progress:
                progress(res)
    return results


def _seed_failure(seed: int, exc: Exception) -> RpoError:
    # keep the error category so the CLI maps it to the right exit code;
    # LinAlgError is a ValueError, so numeric failures are matched first
    if isinstance(exc, (NumericError, FloatingPointError, np.linalg.LinAlgError)):
        cls = NumericError
    elif isinstance(exc, RpoError):
        cls = type(exc)
    elif isinstance(exc, ValueError):
        cls = DataError
    else:
        cls = RpoError
    return cls(f"seed {seed}: {exc}")


def aggregate(results: list[SeedResult]) -> tuple[float, float]:
    """Mean and sample std of the per-seed test AUCs."""
    return mean_std([r.test_auc for r in results])


@dataclass
class SweepRow:
    axis: str
    value: str
    mean_auc: float
    std_auc: float
    n_seeds: int
    gap_mean: float | None = None  # alpha axis: paired mean AUC gap vs alpha=1.0
    gap_std: float | None = None
    results: list[SeedResult] = field(default_factory=list)


def _as_dropout(value) -> DropoutSpec:
    return value if isinstance(value, DropoutSpec) else DropoutSpec(**dict(value))


def _spec_for_axis_value(base: ExperimentSpec, axis: str, value) -> ExperimentSpec:
    if axis == "n_projections":
        return replace(base, n_projections=int(value))
    if axis == "rp_dim":
        return replace(base, rp_dim=int(value))
    if axis == "dropout":
        return replace(base, dropout=_as_dropout(value))
    if axis == "alpha":
        return replace(base, affine=AffineSpec(mode="constant", alpha=float(value)))
    if axis == "sad_ratio":
        return replace(base, sad_ratio=float(value))
    raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


def _axis_value_str(axis: str, value) -> str:
    if axis == "dropout":
        spec = _as_dropout(value)
        return f"C={spec.components_rate};P={spec.projections_rate}"
    return str(value)


def sweep(
    base: ExperimentSpec,
    axis: str,
    values,
    workers: int = 1,
    progress=None,
) -> list[SweepRow]:
    """Run the base spec once per axis value; one aggregate row per value.

    The alpha axis additionally reports the per-seed mean/std AUC gap
    against the unperturbed (alpha = 1.0) baseline, which is run implicitly
    when not among the values.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ConfigError("sweep values list is empty")
    if axis == "sad_ratio" and not base.method.startswith("deep-rpo"):
        raise ConfigError("sad_ratio sweep requires a deep-rpo method")
    if axis in ("n_projections", "rp_dim", "dropout") and base.method == "deep-svdd":
        raise ConfigError(f"axis {axis!r} does not apply to deep-svdd")

    per_value: list[tuple[str, list[SeedResult]]] = []
    for value in values:
        spec = _spec_for_axis_value(base, axis, value)
        validate_spec(spec)
        per_value.append(
            (_axis_value_str(axis, value), run_experiment(spec, workers=workers, progress=progress))
        )

    baseline = None
    if axis == "alpha":
        for (vstr, results), value in zip(per_value, values):
            if float(value) == 1.0:
                baseline = results
                break
        if baseline is None:
            baseline_spec = _spec_for_axis_value(base, axis, 1.0)
            baseline = run_experiment(baseline_spec, workers=workers, progress=progress)

    rows = []
    for vstr, results in per_value:
        mean, std = aggregate(results)
        gap_mean = gap_std = None
        if baseline is not None:
            gaps = [r.test_auc - b.test_auc for r, b in zip(results, baseline)]
            gap_mean, gap_std = mean_std(gaps)
        rows.append(
            SweepRow(
                axis=axis,
                value=vstr,
                mean_auc=mean,
                std_auc=std,
                n_seeds=len(results),
                gap_mean=gap_mean,
                gap_std=gap_std,
                results=results,
            )
        )
    return rows
