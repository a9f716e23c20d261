"""Random projection outlyingness: shallow scoring, deep one-class training,
and a multi-seed benchmark harness."""

from .data import AffineSpec, Dataset
from .encoder import AdamState, Encoder, adam_step, init_adam, init_encoder
from .evaluation import ExperimentSpec, SeedResult, run_experiment, sweep
from .metrics import roc_auc
from .projections import (
    DropoutSpec,
    ProjectionSet,
    apply_dropout,
    generate_projections,
    project,
)
from .scoring import RpoStats, depth, fit_rpo, score, score_batch
from .training import (
    DeepRpoModel,
    SadConfig,
    SvddModel,
    deep_rpo_loss,
    init_center,
    svdd_loss,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSpec",
    "Dataset",
    "AdamState",
    "Encoder",
    "adam_step",
    "init_adam",
    "init_encoder",
    "ExperimentSpec",
    "SeedResult",
    "run_experiment",
    "sweep",
    "roc_auc",
    "DropoutSpec",
    "ProjectionSet",
    "apply_dropout",
    "generate_projections",
    "project",
    "RpoStats",
    "depth",
    "fit_rpo",
    "score",
    "score_batch",
    "DeepRpoModel",
    "SadConfig",
    "SvddModel",
    "deep_rpo_loss",
    "init_center",
    "svdd_loss",
    "train",
    "__version__",
]
