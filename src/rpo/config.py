"""Benchmark run configuration: sectioned YAML with strict key validation.

Unknown keys are rejected with their section-qualified name, and every
referenced path is checked before any work starts so a bad config never
leaves partial outputs behind. Each key sets one dataclass field, whose
annotation gives the key's type and whose default applies when the key is
absent, so the paper-protocol defaults live in ``ExperimentSpec`` alone.
"""

from __future__ import annotations

import functools
import os
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace

import yaml

from .errors import ConfigError, DataError
from .evaluation import SYNTHETIC, ExperimentSpec
from .projections import DropoutSpec


@dataclass
class RunConfig:
    specs: list[ExperimentSpec]  # one per method, in the order the config lists them
    results_path: str = "out/results.csv"
    aggregate_path: str = "out/aggregate.csv"
    checkpoint_dir: str | None = None
    history_dir: str | None = None
    workers: int = 1
    sweep_axis: str | None = None
    sweep: list = field(default_factory=list)  # a (label, spec) pair per sweep.values entry


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


# a parse reads the same few dataclasses' annotations many times over
_type_hints = functools.cache(typing.get_type_hints)


def _take(cls, section: dict, where: str, keys) -> dict:
    """Pop the ``keys`` present in ``section`` as keyword arguments for ``cls``.

    ``keys`` lists field names, or maps each YAML key to a field name.
    Absent keys are left out, so ``cls`` supplies their defaults.
    """
    keys = keys if isinstance(keys, dict) else {k: k for k in keys}
    hints = _type_hints(cls)
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
    "sweep": {"axis": "sweep_axis", "values": "sweep"},
}
# The key whose rule reads each sweep axis's values; alpha is a constant affine's.
SWEEP_KEYS = {"n_projections": "model.n_projections", "rp_dim": "model.rp_dim",
              "dropout": "model.dropout", "alpha": "protocol.affine",
              "sad_ratio": "protocol.sad_ratio"}


def _sweep_label(axis: str, value) -> str:
    """A sweep value as written; a dropout value shows each rate, absent ones at their default."""
    if axis == "dropout":
        return "C={};P={}".format(*(value.get(name, getattr(DropoutSpec, name))
                                    for name in ("components_rate", "projections_rate")))
    return str(value)


def sweep_points(base: ExperimentSpec, axis: str, values: list) -> list:
    """``(label, spec)`` for each sweep value: ``base`` with the value read by its key's rule."""
    if axis not in SWEEP_KEYS:
        raise ConfigError(
            f"sweep.axis: unknown sweep axis {axis!r}; expected one of {tuple(SWEEP_KEYS)}"
        )
    if not values:
        raise ConfigError("sweep.values must be a nonempty list")
    key = SWEEP_KEYS[axis]
    section, name = key.split(".")
    points = []
    for value in values:
        try:
            if value is None:  # the key reads null as its default, which sweeps nothing
                raise ConfigError(f"{key} must not be null")
            written = {"mode": "constant", "alpha": value} if axis == "alpha" else value
            spec = replace(base, **_take(ExperimentSpec, {name: written}, section, [name]))
        except ConfigError as exc:
            raise ConfigError(f"sweep.values: bad {axis} value {value!r}: {exc}") from None
        points.append((_sweep_label(axis, value), spec))
    return points


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

    spec_kwargs = {}
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
    if source != SYNTHETIC and not os.path.isabs(source):
        spec_kwargs["source"] = os.path.normpath(os.path.join(config_dir, source))

    for name in ("output", "sweep"):
        section = _section(raw, name)
        run_kwargs.update(_take(RunConfig, section, name, RUN_SECTIONS[name]))
        _reject_unknown(section, name)
    _reject_unknown(raw, "")

    specs = [ExperimentSpec(method=m, **spec_kwargs) for m in methods]
    values = run_kwargs.pop("sweep", None)
    if run_kwargs.get("sweep_axis") is not None:  # a sweep runs the first method
        run_kwargs["sweep"] = sweep_points(specs[0], run_kwargs["sweep_axis"], values or [])
    elif values is not None:
        raise ConfigError("sweep.axis is missing: sweep.values names no axis to sweep")
    return RunConfig(specs=specs, **run_kwargs)


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
    source = cfg.specs[0].source
    if source != SYNTHETIC and not os.path.exists(source):
        raise DataError(f"dataset file not found: {source}")
    return cfg
