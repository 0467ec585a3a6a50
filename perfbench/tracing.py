"""Spans around the package's layer-entry functions, and the per-layer metrics.

The tracer wraps module attributes from outside, so calls between modules
and calls inside a module both pass through the wrapper; private helpers
stay unwrapped.  Spans stay in memory (name, start, end, parent) and are
written out once the batch ends.  Entries called hundreds of thousands of
times per batch (``ising.expected_b``) are aggregated per parent as a call
count plus busy time, which keeps the tracing overhead at a few percent.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from types import ModuleType

# (module, function) pairs: each layer's public entry points and nothing below them.
ENTRIES = (
    ("cli", "main"),
    ("cli", "estimation_run"),
    ("circuit", "run_circuit"),
    ("circuit", "sample_ym"),
    ("circuit", "measure_ym"),
    ("metrology", "estimate_g"),
    ("ising", "expected_b"),
    ("adiabatic", "adiabatic_rotation"),
    ("matchgate", "expectation_quadratic"),
    ("matchgate", "observable_b_coefficients"),
    ("dense", "trotter_evolve"),
    ("dense", "ground_state_even"),
    ("dense", "qfi_pure"),
    ("dense", "observable_b_dense"),
)
AGGREGATED = frozenset({"ising.expected_b"})
LAYERS = ("cli", "circuit", "metrology", "ising", "adiabatic", "matchgate", "dense")

# Span record fields.
NAME, START, END, PARENT, N, STEPS, CHILD_S, FLAG = range(8)


def _shape(args: tuple) -> tuple[int, int]:
    """(N, L) when called as f(params, schedule, ...), else zeros."""
    n = getattr(args[0], "n_spins", 0) if args else 0
    steps = getattr(args[1], "steps", 0) if len(args) > 1 else 0
    return n, steps


class Tracer:
    """Installs span wrappers on entry; restores the original functions on exit."""

    def __init__(self, modules: dict[str, ModuleType]):
        self.spans: list[list] = []
        self.aggregated: dict[tuple[str, str], list] = {}
        self._stack: list[int] = []
        self._originals = [(modules[mod], attr, getattr(modules[mod], attr))
                           for mod, attr in ENTRIES]

    def __enter__(self) -> "Tracer":
        for module, attr, fn in self._originals:
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            wrap = self._aggregate if name in AGGREGATED else self._span
            setattr(module, attr, wrap(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in self._originals:
            setattr(module, attr, fn)

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, *_shape(args), 0.0, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
                rec[FLAG] = bool(getattr(result, "clamped", False))
                return result
            finally:
                rec[END] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_S] += end - rec[START]

        return traced

    def _aggregate(self, name, fn):
        spans, stack, agg, clock = self.spans, self._stack, self.aggregated, time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                parent = stack[-1] if stack else -1
                key = (name, spans[parent][NAME] if parent >= 0 else "")
                slot = agg.get(key)
                if slot is None:
                    slot = agg[key] = [0, 0.0]
                slot[0] += 1
                slot[1] += elapsed
                if parent >= 0:
                    spans[parent][CHILD_S] += elapsed

        return traced

    def dump(self, path: Path) -> None:
        fields = ("name", "start", "end", "parent", "n", "steps", "child_s", "clamped")
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans,
                       "aggregated": [[name, parent, calls, busy]
                                      for (name, parent), (calls, busy) in self.aggregated.items()]},
                      fh)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def layer_metrics(tracer: Tracer, traced_wall_s: float, rotation_sizes: tuple[int, ...]) -> dict:
    """Per-layer metrics of one traced batch, every name present on every workload."""
    durations: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    flagged: dict[str, int] = {}
    steps: dict[str, int] = {}
    by_size: dict[int, list[float]] = {n: [0.0, 0.0] for n in rotation_sizes}  # busy, (L+1)N
    for rec in tracer.spans:
        name, dur = rec[NAME], rec[END] - rec[START]
        durations.setdefault(name, []).append(dur)
        self_s[name] = self_s.get(name, 0.0) + dur - rec[CHILD_S]
        flagged[name] = flagged.get(name, 0) + rec[FLAG]
        steps[name] = steps.get(name, 0) + rec[STEPS] + 1
        if name == "adiabatic.adiabatic_rotation" and rec[N] in by_size:
            by_size[rec[N]][0] += dur
            by_size[rec[N]][1] += (rec[STEPS] + 1) * rec[N]
    agg_calls: dict[str, int] = {}
    for (name, parent), (calls, busy) in tracer.aggregated.items():
        agg_calls[name] = agg_calls.get(name, 0) + calls
        self_s[name] = self_s.get(name, 0.0) + busy
        durations.setdefault(name, [])

    def calls(name: str) -> int:
        return agg_calls.get(name, 0) + len(durations.get(name, ()))

    def busy(name: str) -> float:
        own = sum(durations.get(name, ()), 0.0)
        return own + sum(b for (n, _), (_, b) in tracer.aggregated.items() if n == name)

    def per(name: str, total: float, scale: float) -> float:
        return scale * busy(name) / total if total else 0.0

    def pct(name: str, q: float) -> float:
        return 1e6 * _percentile(sorted(durations.get(name, ())), q)

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    estimates = calls("metrology.estimate_g")
    per_estimate = tracer.aggregated.get(("ising.expected_b", "metrology.estimate_g"), (0, 0.0))[0]
    out = {
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.estimation_run.self_s": self_s.get("cli.estimation_run", 0.0),
        "circuit.run_circuit.calls": calls("circuit.run_circuit"),
        "circuit.run_circuit.busy_s": busy("circuit.run_circuit"),
        "circuit.step_us": per("circuit.run_circuit", steps.get("circuit.run_circuit", 0), 1e6),
        "circuit.sample_ym.busy_s": busy("circuit.sample_ym"),
        "circuit.sample_ym.p50_us": pct("circuit.sample_ym", 0.50),
        "circuit.sample_ym.p99_us": pct("circuit.sample_ym", 0.99),
        "circuit.measure_ym.calls": calls("circuit.measure_ym"),
        "metrology.estimate_g.calls": estimates,
        "metrology.estimate_g.busy_s": busy("metrology.estimate_g"),
        "metrology.estimate_g.self_s": self_s.get("metrology.estimate_g", 0.0),
        "metrology.estimate_g.p50_us": pct("metrology.estimate_g", 0.50),
        "metrology.estimate_g.p99_us": pct("metrology.estimate_g", 0.99),
        "metrology.clamped_ratio": flagged.get("metrology.estimate_g", 0) / estimates if estimates else 0.0,
        "ising.expected_b.calls": calls("ising.expected_b"),
        "ising.expected_b.calls_per_estimate": per_estimate / estimates if estimates else 0.0,
        "ising.busy_s": busy("ising.expected_b"),
        "adiabatic.adiabatic_rotation.calls": calls("adiabatic.adiabatic_rotation"),
        "adiabatic.adiabatic_rotation.busy_s": busy("adiabatic.adiabatic_rotation"),
    }
    for n, (size_busy, _) in by_size.items():
        out[f"adiabatic.rotation_s.N{n}"] = size_busy
    for n, (size_busy, mode_steps) in by_size.items():
        out[f"adiabatic.step_mode_ns.N{n}"] = 1e9 * size_busy / mode_steps if mode_steps else 0.0
    out.update({
        "matchgate.expectation_quadratic.busy_s": busy("matchgate.expectation_quadratic"),
        "matchgate.observable_b_coefficients.busy_s": busy("matchgate.observable_b_coefficients"),
        "dense.trotter_evolve.calls": calls("dense.trotter_evolve"),
        "dense.trotter_evolve.busy_s": busy("dense.trotter_evolve"),
        "dense.step_us": per("dense.trotter_evolve", steps.get("dense.trotter_evolve", 0), 1e6),
        "dense.ground_state_even.busy_s": busy("dense.ground_state_even"),
        "dense.qfi_pure.busy_s": busy("dense.qfi_pure"),
        "dense.observable_b_dense.busy_s": busy("dense.observable_b_dense"),
    })
    # With the two cli self times above, these add up to the traced time.
    for layer in LAYERS[1:]:
        out[f"{layer}.self_s"] = layer_self(layer)
    accounted = sum(self_s.values())
    out["tracing.accounted_ratio"] = accounted / traced_wall_s if traced_wall_s else 0.0
    return out
