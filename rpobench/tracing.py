"""Per-layer spans recorded from outside the program.

A :class:`Tracer` wraps the public functions of each ``rpo`` module for the
length of a ``with tracer.installed():`` block. Each wrapped call is a span;
spans nest on one stack (the benchmark is single-threaded), so a span's
self time is its duration minus the durations of its direct children.

The ``rpo`` modules import each other's functions by name
(``from .scoring import fit_rpo_projected``), so patching only the defining
module would miss most calls. ``installed`` therefore rebinds every global
of every loaded ``rpo`` module that is the original function object, and
patches methods on their class. Everything is restored on exit.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


def _m_variant(args, kwargs) -> str:
    """``m1`` or ``mN`` from the (n, p, m) array passed first."""
    T = args[0] if args else kwargs["T"]
    return "m1" if T.shape[2] == 1 else "mN"


def _out_mb(result, args, kwargs) -> float:
    return result.size * 8 / 1e6


def _in_mb(result, args, kwargs) -> float:
    T = args[0] if args else kwargs["T"]
    return T.size * 8 / 1e6


def _forward_rows(result, args, kwargs) -> float:
    X = args[1] if len(args) > 1 else kwargs["X"]
    return float(len(X))


@dataclass(frozen=True)
class Target:
    """One wrapped function: where it lives and what it reports as."""

    layer: str  # rpo module name, also the metric prefix
    attr: str  # attribute path inside the module, e.g. "Encoder.forward"
    variant: Callable | None = None  # (args, kwargs) -> suffix, e.g. "m1"
    extra: tuple = ()  # (metric suffix, (result, args, kwargs) -> amount)

    @property
    def name(self) -> str:
        """Metric name without the layer prefix: the attribute's last part."""
        return self.attr.rsplit(".", 1)[-1]

    def metric_names(self) -> list[str]:
        base = f"{self.layer}.{self.name}"
        if self.variant is None:
            return [base]
        return [f"{base}.m1", f"{base}.mN"]


TARGETS = (
    Target("data", "generate_multimodal"),
    Target("data", "split"),
    Target("data", "standardize"),
    Target("projections", "generate_projections"),
    Target("projections", "project", extra=(("out_mb", _out_mb),)),
    Target("scoring", "fit_rpo"),
    Target("scoring", "fit_rpo_projected", variant=_m_variant),
    Target("scoring", "projected_distances", variant=_m_variant, extra=(("out_mb", _in_mb),)),
    Target("scoring", "score_batch"),
    Target("encoder", "Encoder.forward", extra=(("rows", _forward_rows),)),
    Target("encoder", "Encoder.backward"),
    Target("encoder", "adam_step"),
    Target("training", "train"),
    Target("training", "deep_rpo_loss"),
    Target("training", "svdd_loss"),
    Target("training", "fit_eval_stats"),
    Target("training", "latent_scores"),
    Target("metrics", "roc_auc"),
    Target("evaluation", "run_single_seed"),
    Target("model_io", "save_model_checkpoint"),
    Target("model_io", "load_model_checkpoint"),
    Target("model_io", "ScoringModel.score_rows"),
    Target("reporting", "write_results_csv"),
    Target("cli", "main"),
)

LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS))

EXTRA_UNITS = {"out_mb": "MB", "rows": "count"}


def function_names() -> list[str]:
    """Every span name, in ``TARGETS`` order."""
    return [name for t in TARGETS for name in t.metric_names()]


def metric_units() -> dict[str, str]:
    """Name and unit of every metric a traced operation reports."""
    units = {}
    for name in function_names():
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s", f"{name}.self_s": "s"})
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
    for t in TARGETS:
        for suffix, _ in t.extra:
            units[f"{t.layer}.{t.name}.{suffix}"] = EXTRA_UNITS[suffix]
    units["training.refits_per_epoch"] = "1/epoch"
    units["trace.overhead_share"] = "ratio"
    return units


class Tracer:
    """Collects calls, busy time and self time per span name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.amounts: dict[str, float] = defaultdict(float)
        self.deep_rpo_epochs = 0
        self._stack: list[list] = []  # [name, start, child seconds]
        self._open: dict[str, int] = defaultdict(int)
        self._last_error: BaseException | None = None

    def enter(self, name: str) -> None:
        self._open[name] += 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self, name: str) -> None:
        top, start, child = self._stack.pop()
        if top != name:
            raise RuntimeError(f"span {name!r} closed while {top!r} is open")
        duration = self.clock() - start
        self.calls[name] += 1
        self.self_time[name] += duration - child
        self._open[name] -= 1
        if self._open[name] == 0:  # a recursive call is busy only once
            self.busy[name] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def error(self, layer: str, exc: BaseException) -> None:
        # an exception propagating through several spans counts once, where it arose
        if exc is not self._last_error:
            self._last_error = exc
            self.errors[layer] += 1

    def wrap(self, target: Target, fn: Callable) -> Callable:
        base = f"{target.layer}.{target.name}"

        def wrapper(*args, **kwargs):
            name = base if target.variant is None else f"{base}.{target.variant(args, kwargs)}"
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.error(target.layer, exc)
                raise
            finally:
                self.exit(name)
            for suffix, amount in target.extra:
                self.amounts[f"{base}.{suffix}"] += amount(result, args, kwargs)
            if target.name == "train" and type(args[0]).__name__ == "DeepRpoModel":
                self.deep_rpo_epochs += len(result.history)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every binding site of every target; restore them on exit."""
        modules = {n: m for n, m in sys.modules.items() if n == "rpo" or n.startswith("rpo.")}
        undo: list[tuple[object, str, object]] = []
        try:
            for target in TARGETS:
                owner = modules[f"rpo.{target.layer}"]
                *path, attr = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapped = self.wrap(target, original)
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                if path:  # a method: the class is its only binding site
                    continue
                for module in modules.values():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def snapshot(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far, zeros included.

        ``trace.overhead_share`` needs an untraced run, so the caller adds it.
        """
        out: dict[str, float] = {}
        for name in function_names():
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.busy_s"] = self.busy.get(name, 0.0)
            out[f"{name}.self_s"] = self.self_time.get(name, 0.0)
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors.get(layer, 0)
        for t in TARGETS:
            for suffix, _ in t.extra:
                name = f"{t.layer}.{t.name}.{suffix}"
                out[name] = self.amounts.get(name, 0.0)
        refits = self.calls.get("training.fit_eval_stats", 0)
        epochs = self.deep_rpo_epochs
        out["training.refits_per_epoch"] = refits / epochs if epochs else 0.0
        return out
