"""Benchmark run configuration: sectioned YAML with strict key validation.

Unknown keys, keys given twice and keys the running command does not read
(``COMMAND_KEYS``) are rejected with their section-qualified name, and
every referenced path is checked before any work starts so a bad config
never leaves partial outputs behind. A text key must be a nonempty YAML
string; an optional one may be null, which leaves it unset. Each key
sets one dataclass field, whose annotation gives the key's type and whose
default applies when the key is absent, so the paper-protocol defaults
live in ``ExperimentSpec`` alone. The file is parsed by libyaml (PyYAML's
``CSafeLoader``) where PyYAML has it, and by the pure-Python
``SafeLoader`` otherwise; both build the same objects.
"""

from __future__ import annotations

import functools
import os
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace

import yaml
from yaml.nodes import MappingNode, SequenceNode

from .data import not_utf8
from .errors import ConfigError, DataError
from .evaluation import SYNTHETIC, ExperimentSpec
from .projections import DropoutSpec
from .scoring import METHODS


@dataclass
class RunConfig:
    specs: list[ExperimentSpec]  # one per method, in the order the config lists them
    results_path: str = "out/results.csv"
    aggregate_path: str = "out/aggregate.csv"
    checkpoint_dir: str | None = None
    history_dir: str | None = None
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
    if not isinstance(value, str):  # str() would read null as a file named None
        raise ConfigError(f"{where} must be a string, got {value!r}")
    if not value:  # "" names no file, and as a source it would read as the config's directory
        raise ConfigError(f"{where} must be a nonempty string")
    return value


# a parse reads the same few dataclasses' annotations many times over
_type_hints = functools.cache(typing.get_type_hints)


def _take(cls, section: dict, where: str, keys) -> dict:
    """Pop the ``keys`` present in ``section`` as keyword arguments for ``cls``.

    ``keys`` lists field names, or maps each YAML key to a field name.
    Absent keys are left out, so ``cls`` supplies their defaults.
    """
    keys = keys if isinstance(keys, dict) else {k: k for k in keys}
    hints = _type_hints(cls)
    return {
        name: _coerce(section.pop(key), hints[name], f"{where}.{key}")
        for key, name in keys.items()
        if key in section
    }


def _parse_seeds(raw) -> tuple:
    if isinstance(raw, int) and not isinstance(raw, bool):
        if raw < 1:
            raise ConfigError(f"seeds must be >= 1, got {raw}")
        return tuple(range(raw))
    if isinstance(raw, (list, tuple)):
        return tuple(_as_int(s, "seeds") for s in raw)
    raise ConfigError(f"seeds must be an int or a list, got {raw!r}")


# The ExperimentSpec fields each YAML section sets.
SPEC_SECTIONS = {
    "dataset": ("source", "normal_class_ids", "k_modes", "dim", "n_per_mode", "anomaly_n"),
    "model": ("n_projections", "rp_dim", "latent_dim", "hidden_dims", "dropout"),
    "training": ("epochs", "batch_size", "learning_rate", "weight_decay"),
    "protocol": ("val_fraction", "test_fraction", "contamination", "sad_ratio",
                 "sad_classes", "affine"),
}
# The RunConfig fields the output and sweep sections set.
RUN_SECTIONS = {
    "output": {"results": "results_path", "aggregate": "aggregate_path",
               "checkpoint_dir": "checkpoint_dir", "history_dir": "history_dir"},
    "sweep": {"axis": "sweep_axis", "values": "sweep"},
}
# The output and sweep keys only one command reads; the other command refuses them.
COMMAND_KEYS = {"output.results": "bench", "output.checkpoint_dir": "bench",
                "output.history_dir": "bench", "sweep.axis": "sweep", "sweep.values": "sweep"}
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
    if axis in ("n_projections", "rp_dim", "dropout") and METHODS[base.method].center:
        raise ConfigError(f"sweep.axis: axis {axis!r} does not apply to {base.method}")
    if not values:
        raise ConfigError("sweep.values must be a nonempty list")
    key = SWEEP_KEYS[axis]
    section, name = key.split(".")
    points = []
    read_from = {}  # a spec -> the index of the first value that reads to it
    for i, value in enumerate(values):
        try:
            if value is None:  # the key reads null as its default, which sweeps nothing
                raise ConfigError(f"{key} must not be null")
            written = {"mode": "constant", "alpha": value} if axis == "alpha" else value
            spec = replace(base, **_take(ExperimentSpec, {name: written}, section, [name]))
        except ConfigError as exc:
            raise ConfigError(f"sweep.values: bad {axis} value {value!r}: {exc}") from None
        # two values that read to one spec would run, and aggregate, the same point twice
        first = read_from.setdefault(spec, i)
        if first != i:
            raise ConfigError(f"sweep.values: repeated {axis} value {value!r}: "
                              f"entry {i + 1} reads as entry {first + 1} does")
        points.append((_sweep_label(axis, value), spec))
    return points


def parse_config(raw: dict, config_dir: str = ".", command: str | None = None) -> RunConfig:
    """Build a validated RunConfig from a parsed YAML mapping.

    With ``command`` (``"bench"`` or ``"sweep"``) a key of ``COMMAND_KEYS``
    that only the other command reads is refused before its section is read,
    and ``"sweep"`` also refuses a config without ``sweep.axis`` or with
    more than one method. A sweep refuses a config that also sets the key
    its axis sweeps (``SWEEP_KEYS``), which every point would overwrite.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    raw = dict(raw)

    methods = raw.pop("methods", None)
    if methods is None:
        methods = [ExperimentSpec.method]  # class attribute = field default
    methods = [str(m) for m in _as_list(methods, "methods")]
    if not methods:
        raise ConfigError("methods must be a nonempty list")
    if len(set(methods)) != len(methods):
        raise ConfigError(f"methods must be distinct, got {methods}")
    if command == "sweep" and len(methods) > 1:
        raise ConfigError(f"methods: rpo sweep runs one method, got {methods}")

    spec_kwargs = {}
    seeds = raw.pop("seeds", None)
    if seeds is not None:
        spec_kwargs["seeds"] = _parse_seeds(seeds)

    for name, keys in SPEC_SECTIONS.items():
        section = _section(raw, name)
        spec_kwargs.update(_take(ExperimentSpec, section, name, keys))
        _reject_unknown(section, name)
    source = spec_kwargs.get("source", SYNTHETIC)
    if source != SYNTHETIC and not os.path.isabs(source):
        spec_kwargs["source"] = os.path.normpath(os.path.join(config_dir, source))

    run_kwargs = {}
    for name in ("output", "sweep"):
        section = _section(raw, name)
        for key in (f"{name}.{k}" for k in section):
            if command and COMMAND_KEYS.get(key, command) != command:
                raise ConfigError(f"{key} is read by rpo {COMMAND_KEYS[key]}, not rpo {command}")
        run_kwargs.update(_take(RunConfig, section, name, RUN_SECTIONS[name]))
        _reject_unknown(section, name)
    _reject_unknown(raw, "")

    specs = [ExperimentSpec(method=m, **spec_kwargs) for m in methods]
    values = run_kwargs.pop("sweep", None)
    axis = run_kwargs.get("sweep_axis")
    if axis is not None:  # a sweep runs the first method
        run_kwargs["sweep"] = sweep_points(specs[0], axis, values or [])
        key = SWEEP_KEYS[axis]
        if spec_kwargs.get(key.split(".")[1]) is not None:  # each point would overwrite it
            raise ConfigError(f"sweep.axis: axis {axis!r} sweeps {key}, which the config also sets")
    elif values is not None:
        raise ConfigError("sweep.axis is missing: sweep.values names no axis to sweep")
    elif command == "sweep":
        raise ConfigError("sweep.axis is not set: rpo sweep needs a sweep section")
    return RunConfig(specs=specs, **run_kwargs)


@functools.cache
def _strict_loader(base: type) -> type:
    """``base``, a PyYAML loader, refusing a key given twice in one mapping.

    YAML keeps the last value of a repeated key. The check sits in the
    constructor's ``construct_mapping``, which is Python code under either
    loader. A mapping is constructed after the one holding it, so each
    records the dotted key path of the mappings it holds, and the error
    names ``section.key`` and its line.
    """

    class StrictLoader(base):
        def __init__(self, stream):
            super().__init__(stream)
            self.key_paths = {}  # a mapping node -> the dotted key it is the value of

        def construct_mapping(self, node, deep=False):
            where = self.key_paths.get(node)
            seen = set()
            for key_node, value_node in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue  # merged keys may be overridden; ``base`` flattens them
                key = self.construct_object(key_node, deep=deep)
                name = f"{where}.{key}" if where else str(key)
                if isinstance(key, typing.Hashable):  # ``base`` refuses the others
                    if key in seen:
                        mark = key_node.start_mark
                        raise ConfigError(
                            f"{mark.name}:{mark.line + 1}: duplicate config key: {name}"
                        )
                    seen.add(key)
                items = value_node.value if isinstance(value_node, SequenceNode) else [value_node]
                for item in items:
                    if isinstance(item, MappingNode):
                        self.key_paths[item] = name
            return super().construct_mapping(node, deep=deep)

    return StrictLoader


def load_config(path, command: str | None = None) -> RunConfig:
    """Parse and validate a YAML config file; checks the dataset path exists.

    ``command`` is passed on to ``parse_config``.
    """
    loader = _strict_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=loader)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise not_utf8(path, ConfigError) from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    cfg = parse_config(raw or {}, os.path.dirname(os.path.abspath(path)), command)
    source = cfg.specs[0].source
    if source != SYNTHETIC and not os.path.exists(source):
        raise DataError(f"dataset file not found: {source}")
    return cfg
