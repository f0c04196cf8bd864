"""Span tracing of qhbm's layers from outside the package.

A traced repetition replaces module attributes that callers look up at
call time (``qhbm.<module>.<name>``) with timing wrappers and restores
them afterwards.  Names that a module imported by value from another
module are patched in the importing module too, because that is the
attribute its callers resolve.  Nothing under ``src/`` is edited.

Each wrapped call records one span (hook, start, end, parent).  Self
time is a span's duration minus the durations of its direct hooked
children.  Counters that depend on arguments (draws, samples, computed
bytes) are recorded at the same boundary as the span.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from dataclasses import dataclass, field

# Hook key -> (module, attribute) pairs that callers look up.  A key is
# the layer metric prefix: ``<module>.<function>``.
HOOKS: dict[str, tuple[tuple[str, str], ...]] = {
    "qsim.ansatz_unitary": (("qsim", "ansatz_unitary"),),
    "ebm.metropolis_sample": (("ebm", "metropolis_sample"),),
    "ebm.build_hamiltonian": (("ebm", "build_hamiltonian"),),
    "ebm.theta_gradient": (("ebm", "theta_gradient"),),
    "embed.bernoulli_index_samples": (
        ("embed", "bernoulli_index_samples"),
        ("train", "bernoulli_index_samples"),
        ("anomaly", "bernoulli_index_samples"),
    ),
    "train.fit": (("train", "fit"),),
    "train.train_step": (("train", "train_step"),),
    "train.batch_objective": (("train", "batch_objective"),),
    "train.generate": (("train", "generate"),),
    "anomaly.score_events": (("anomaly", "score_events"),),
    "anomaly.expectation_score": (("anomaly", "expectation_score"),),
    "anomaly.time_evolution_series": (("anomaly", "time_evolution_series"),),
    "anomaly.spectral_score": (("anomaly", "spectral_score"),),
    "metrics.power_spectrum": (("metrics", "power_spectrum"), ("anomaly", "power_spectrum")),
    "metrics.roc_from_scores": (("metrics", "roc_from_scores"), ("anomaly", "roc_from_scores")),
    "metrics.fidelity": (("metrics", "fidelity"),),
    "metrics.trace_distance": (("metrics", "trace_distance"),),
    "metrics.quantum_relative_entropy": (("metrics", "quantum_relative_entropy"),),
    "metrics.von_neumann_entropy": (("metrics", "von_neumann_entropy"),),
    "io.save_checkpoint": (("io", "save_checkpoint"),),
    "io.load_checkpoint": (("io", "load_checkpoint"),),
    "io.read_image_container": (("io", "read_image_container"),),
    "io.write_csv_with_provenance": (("io", "write_csv_with_provenance"),),
    "cli.synth": (("cli", "cmd_synth"),),
    "cli.preprocess": (("cli", "cmd_preprocess"),),
    "cli.train": (("cli", "cmd_train"),),
    "cli.evaluate": (("cli", "cmd_evaluate"),),
    "cli.generate": (("cli", "cmd_generate"),),
    "cli.anomaly": (("cli", "cmd_anomaly"),),
    "cli.site-entropy": (("cli", "cmd_site_entropy"),),
}


def _n_time_points(a) -> int:
    return int(round(a["total_time"] / a["dt"])) + 1


# Hook key -> {counter: f(bound arguments, result)}, summed over calls.
COUNTERS = {
    # The dense complex128 circuit matrix: 16 bytes x 4**n entries.
    "qsim.ansatz_unitary": {
        "computed_bytes": lambda a, r: 16 * 4 ** a["ansatz"].n_qubits,
    },
    "embed.bernoulli_index_samples": {"draws": lambda a, r: a["n_samples"]},
    "ebm.metropolis_sample": {"samples": lambda a, r: len(r[0])},
    "ebm.build_hamiltonian": {
        "collected": lambda a, r: len(a["samples"]),
        "support": lambda a, r: len(r.support),
    },
    # (T+1) x S phase matrix plus the (T+1) x draws overlap matrix, complex128.
    "anomaly.time_evolution_series": {
        "computed_bytes": lambda a, r: 16
        * _n_time_points(a)
        * (a["state"].hamiltonian.energies.size + a["n_draws"]),
    },
    "anomaly.score_events": {"events": lambda a, r: len(a["events"])},
    "io.save_checkpoint": {"bytes": lambda a, r: os.path.getsize(a["path"])},
}

# Spans under these hooks are one optimisation step's work.
STEP_HOOKS = ("train.train_step", "train.batch_objective")


class HookError(RuntimeError):
    """A hooked function is missing or was never called where expected."""


@dataclass
class Span:
    key: str
    start: float
    parent: int
    end: float = 0.0
    child_s: float = 0.0
    failed: bool = False
    event_id: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Patches every hook on the ``qhbm`` package while used as a context manager."""

    package: object
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, dict[str, int]] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def __enter__(self) -> "Tracer":
        originals = {}
        for key, targets in HOOKS.items():
            for module_name, attr in targets:
                module = getattr(self.package, module_name)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    raise HookError(f"qhbm.{module_name}.{attr} (hook {key}) no longer exists")
                originals.setdefault(key, fn)
        try:
            for key, targets in HOOKS.items():
                wrapper = self._wrap(key, originals[key])
                for module_name, attr in targets:
                    module = getattr(self.package, module_name)
                    self._saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, key: str, fn):
        signature = inspect.signature(fn)
        counters = COUNTERS.get(key, {})
        totals = self.counters.setdefault(key, dict.fromkeys(counters, 0))
        spans, stack = self.spans, self._stack
        is_series = key == "anomaly.time_evolution_series"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(key, 0.0, stack[-1] if stack else -1)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.duration
            if counters or is_series:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for name, count in counters.items():
                    totals[name] += count(bound.arguments, result)
                if is_series:
                    span.event_id = id(bound.arguments["event"])
            return result

        return wrapper

    def _under(self, span: Span, keys: tuple[str, ...]) -> bool:
        parent = span.parent
        while parent >= 0:
            if self.spans[parent].key in keys:
                return True
            parent = self.spans[parent].parent
        return False

    def layer_stats(self) -> tuple[dict[str, float], dict[str, float]]:
        """(exact counts, times) per hook plus the derived layer ratios."""
        counts: dict[str, float] = {}
        times: dict[str, float] = {}
        for key in HOOKS:
            mine = [s for s in self.spans if s.key == key]
            counts[f"{key}.calls"] = len(mine)
            counts[f"{key}.errors"] = sum(s.failed for s in mine)
            times[f"{key}.total_s"] = sum(s.duration for s in mine)
            times[f"{key}.self_s"] = sum(s.duration - s.child_s for s in mine)
            for name, total in self.counters[key].items():
                counts[f"{key}.{name}"] = total

        steps = counts["train.train_step.calls"]
        if steps:
            step_unitaries = sum(
                1
                for s in self.spans
                if s.key == "qsim.ansatz_unitary" and self._under(s, STEP_HOOKS)
            )
            counts["qsim.ansatz_unitary.calls_per_step"] = step_unitaries / steps
            counts["train.batch_objective.calls_per_step"] = (
                counts["train.batch_objective.calls"] / steps
            )
        scored = self.counters["anomaly.score_events"]["events"]
        if scored:
            scoring_unitaries = sum(
                1
                for s in self.spans
                if s.key == "qsim.ansatz_unitary" and self._under(s, ("anomaly.score_events",))
            )
            counts["qsim.ansatz_unitary.calls_per_event"] = scoring_unitaries / scored
        series = [s for s in self.spans if s.key == "anomaly.time_evolution_series"]
        if series:
            events = len({s.event_id for s in series})
            counts["anomaly.time_evolution_series.calls_per_event"] = len(series) / events
        built = self.counters["ebm.build_hamiltonian"]
        if built["collected"]:
            counts["ebm.support_unique_frac"] = built["support"] / built["collected"]
        for key in HOOKS:
            if key.startswith("cli."):
                times[f"{key}.s"] = times[f"{key}.total_s"]
        return counts, times

    def root_s(self) -> float:
        """Summed self time of all spans, which equals the root spans' time."""
        return sum(s.duration for s in self.spans if s.parent < 0)
