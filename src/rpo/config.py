"""Benchmark run configuration: sectioned YAML with strict key validation.

Unknown keys are rejected with their section-qualified name, and every
referenced path is checked before any work starts so a bad config never
leaves partial outputs behind. Each key sets one dataclass field, whose
annotation gives the key's type and whose default applies when the key is
absent, so the paper-protocol defaults live in ``ExperimentSpec`` alone.
"""

from __future__ import annotations

import os
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace

import yaml

from .errors import ConfigError, DataError
from .evaluation import SYNTHETIC, ExperimentSpec, spec_for_axis_value


@dataclass
class RunConfig:
    methods: list[str]
    base_spec: ExperimentSpec
    results_path: str = "out/results.csv"
    aggregate_path: str = "out/aggregate.csv"
    checkpoint_dir: str | None = None
    history_dir: str | None = None
    workers: int = 1
    sweep_axis: str | None = None
    sweep_values: list = field(default_factory=list)


def _section(raw: dict, name: str) -> dict:
    value = raw.pop(name, {}) or {}
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    return dict(value)


def _reject_unknown(section: dict, section_name: str) -> None:
    if section:
        key = next(iter(section))
        where = f"{section_name}.{key}" if section_name else key
        raise ConfigError(f"unknown config key: {where}")


def _as_float(value, where: str) -> float:
    try:
        if isinstance(value, bool):  # float() would read it as 0.0 or 1.0
            raise ValueError
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be a number, got {value!r}") from None


def _as_int(value, where: str) -> int:
    try:
        # int() would read a bool as 0 or 1 and truncate a fraction
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be an integer, got {value!r}") from None


def _as_list(value, where: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    return list(value)


def _coerce(value, hint, where: str):
    """Convert a YAML value to ``hint``, the annotated type of the field it sets."""
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
    if hint is int:
        return _as_int(value, where)
    if hint is float:
        return _as_float(value, where)
    if hint is tuple:
        return tuple(_as_int(v, where) for v in _as_list(value, where))
    if hint is list:
        return [] if value is None else _as_list(value, where)
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be a mapping")
        value = dict(value)
        try:
            spec = hint(**_take(hint, value, where, [f.name for f in fields(hint)]))
        except ValueError as exc:  # the dataclass's own range checks
            raise ConfigError(f"{where}: {exc}") from None
        _reject_unknown(value, where)
        return spec
    return str(value)


def _take(cls, section: dict, where: str, keys) -> dict:
    """Pop the ``keys`` present in ``section`` as keyword arguments for ``cls``.

    ``keys`` lists field names, or maps each YAML key to a field name.
    Absent keys are left out, so ``cls`` supplies their defaults.
    """
    keys = keys if isinstance(keys, dict) else {k: k for k in keys}
    hints = typing.get_type_hints(cls)
    prefix = f"{where}." if where else ""
    return {
        name: _coerce(section.pop(key), hints[name], prefix + key)
        for key, name in keys.items()
        if key in section
    }


def _parse_seeds(raw) -> tuple:
    if isinstance(raw, int) and not isinstance(raw, bool):
        return tuple(range(raw))
    if isinstance(raw, (list, tuple)):
        return tuple(_as_int(s, "seeds") for s in raw)
    raise ConfigError(f"seeds must be an int or a list, got {raw!r}")


# The ExperimentSpec fields each YAML section sets.
SPEC_SECTIONS = {
    "dataset": ("source", "label_column", "normal_class_ids", "k_modes", "dim",
                "n_per_mode", "anomaly_n"),
    "model": ("n_projections", "rp_dim", "latent_dim", "hidden_dims", "dropout"),
    "training": ("epochs", "batch_size", "learning_rate", "weight_decay"),
    "protocol": ("val_fraction", "test_fraction", "contamination", "sad_ratio",
                 "sad_classes", "affine"),
}
# The RunConfig fields the top level and the output and sweep sections set.
RUN_SECTIONS = {
    "": {"workers": "workers"},
    "output": {"results": "results_path", "aggregate": "aggregate_path",
               "checkpoint_dir": "checkpoint_dir", "history_dir": "history_dir"},
    "sweep": {"axis": "sweep_axis", "values": "sweep_values"},
}


def parse_config(raw: dict, config_dir: str = ".") -> RunConfig:
    """Build a validated RunConfig from a parsed YAML mapping."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    raw = dict(raw)

    methods = raw.pop("methods", None)
    single = raw.pop("method", None)
    if methods is None:
        methods = [single or ExperimentSpec.method]  # class attribute = field default
    elif single is not None:
        raise ConfigError("give either 'method' or 'methods', not both")
    methods = [str(m) for m in _as_list(methods, "methods")]
    if not methods:
        raise ConfigError("methods must be a nonempty list")

    spec_kwargs = {"method": methods[0]}
    seeds = raw.pop("seeds", None)
    if seeds is not None:
        spec_kwargs["seeds"] = _parse_seeds(seeds)
    run_kwargs = _take(RunConfig, raw, "", RUN_SECTIONS[""])
    if run_kwargs.get("workers", 1) < 1:
        raise ConfigError(f"workers must be >= 1, got {run_kwargs['workers']}")

    for name, keys in SPEC_SECTIONS.items():
        section = _section(raw, name)
        spec_kwargs.update(_take(ExperimentSpec, section, name, keys))
        _reject_unknown(section, name)
    source = spec_kwargs.get("source", SYNTHETIC)
    if source != SYNTHETIC:
        if not os.path.isabs(source):
            spec_kwargs["source"] = os.path.normpath(os.path.join(config_dir, source))
        spec_kwargs.setdefault("k_modes", 0)  # CSV sources: every normal class
    dropout = spec_kwargs.get("dropout")
    if dropout is not None and dropout.components_rate == dropout.projections_rate == 0.0:
        spec_kwargs["dropout"] = None

    for name in ("output", "sweep"):
        section = _section(raw, name)
        run_kwargs.update(_take(RunConfig, section, name, RUN_SECTIONS[name]))
        _reject_unknown(section, name)
    sweep_axis = run_kwargs.get("sweep_axis")
    if sweep_axis is not None and not run_kwargs.get("sweep_values"):
        raise ConfigError("sweep.values must be a nonempty list")

    _reject_unknown(raw, "")

    # building a spec checks it: every method's, and every sweep value's
    base_spec = ExperimentSpec(**spec_kwargs)
    for m in methods[1:]:
        replace(base_spec, method=m)
    if sweep_axis is not None:  # a sweep runs methods[0], the method of base_spec
        for value in run_kwargs["sweep_values"]:
            spec_for_axis_value(base_spec, sweep_axis, value)
    return RunConfig(methods=methods, base_spec=base_spec, **run_kwargs)


def load_config(path) -> RunConfig:
    """Parse and validate a YAML config file; checks the dataset path exists."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    cfg = parse_config(raw or {}, config_dir=os.path.dirname(os.path.abspath(path)))
    if cfg.base_spec.source != SYNTHETIC and not os.path.exists(cfg.base_spec.source):
        raise DataError(f"dataset file not found: {cfg.base_spec.source}")
    return cfg
