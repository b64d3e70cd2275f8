"""Spans around the public calls of the kinex layers, recorded from outside.

A Tracer wraps every public module-level function of ``particle``,
``kinetic1d``, ``diagnostics`` and ``experiments``, plus ``cli.main``,
``TrajectoryObserver.__call__`` and ``StudyReport.write_artifacts``. A
function is rebound under every name that refers to it in any loaded
``kinex`` module, so a name imported with ``from .x import f`` is traced
too. The program itself is not modified.

Each thread keeps its own span stack. A span's parent is the innermost open
span of its own thread; the first span of a worker thread is adopted by the
innermost open span of the main thread, which is the one that started the
worker. Self time is a span's duration minus the union of its children's
intervals, so it is never negative, even when children run on several
threads at once.

``per_layer_metrics`` reduces the spans of one CLI call to the per-layer
metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
import time

GRID_SIZES = (2000, 10000)  # M of the workloads: 2000 (contraction, chaos), 10000 (pde)
LAYERS = ("particle", "kinetic1d", "diagnostics", "experiments", "cli")
STUDY_FUNCTIONS = {
    "figure1_reproduction": "figure1",
    "contraction_study": "contraction",
    "chaos_scaling": "chaos",
}


def _per_layer_spec() -> list[tuple[str, str, str]]:
    spec = [
        ("particle.simulate.calls", "count", "lower"),
        ("particle.simulate.events", "count", "higher"),
        ("particle.simulate.busy_s", "s", "lower"),
        ("particle.simulate.events_per_s", "1/s", "higher"),
        ("particle.simulate.overlap", "ratio", "lower"),
        ("particle.simulate_coupled.calls", "count", "lower"),
        ("particle.simulate_coupled.events", "count", "higher"),
        ("particle.simulate_coupled.snapshots", "count", "higher"),
        ("particle.simulate_coupled.busy_s", "s", "lower"),
        ("particle.simulate_coupled.events_per_s", "1/s", "higher"),
    ]
    for m in GRID_SIZES:
        spec += [
            (f"kinetic1d.step_euler.M{m}.calls", "count", "lower"),
            (f"kinetic1d.step_euler.M{m}.mean_ms", "ms", "lower"),
            (f"kinetic1d.step_euler.M{m}.p90_ms", "ms", "lower"),
            (f"kinetic1d.self_convolution.M{m}.calls", "count", "lower"),
            (f"kinetic1d.self_convolution.M{m}.mean_ms", "ms", "lower"),
            (f"kinetic1d.gain.M{m}.self_ms", "ms", "lower"),
        ]
    spec += [
        ("kinetic1d.solve.busy_s", "s", "lower"),
        ("kinetic1d.solve.steps_per_s", "1/s", "higher"),
        ("kinetic1d.save_density.busy_s", "s", "lower"),
        ("diagnostics.dissipation.M10000.calls", "count", "lower"),
        ("diagnostics.dissipation.M10000.mean_ms", "ms", "lower"),
        ("diagnostics.dissipation.M10000.max_ms", "ms", "lower"),
        ("diagnostics.observer.calls", "count", "lower"),
        ("diagnostics.observer.mean_ms", "ms", "lower"),
        ("diagnostics.observer.max_ms", "ms", "lower"),
        ("diagnostics.wasserstein1.sample.calls", "count", "lower"),
        ("diagnostics.wasserstein1.sample.mean_ms", "ms", "lower"),
        ("diagnostics.wasserstein1.grid.calls", "count", "lower"),
        ("diagnostics.wasserstein1.grid.mean_ms", "ms", "lower"),
        ("diagnostics.wasserstein2.calls", "count", "lower"),
        ("diagnostics.wasserstein2.mean_ms", "ms", "lower"),
        ("diagnostics.relative_entropy.calls", "count", "lower"),
        ("diagnostics.relative_entropy.mean_ms", "ms", "lower"),
        ("diagnostics.laplace_check.calls", "count", "lower"),
        ("diagnostics.laplace_check.mean_ms", "ms", "lower"),
    ]
    spec += [(f"experiments.{study}.self_s", "s", "lower") for study in STUDY_FUNCTIONS.values()]
    spec += [
        ("experiments.write_artifacts.busy_s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("io.bytes_written", "B", "lower"),
    ]
    spec += [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    spec += [("trace.overhead_s", "s", "lower")]
    return spec


# (name, unit, better) of every per-layer metric, in print order
PER_LAYER = _per_layer_spec()


class Span:
    __slots__ = ("name", "parent", "start", "end", "error", "attrs")

    def __init__(self, name: str, parent: "Span | None", start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.error = False
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _grid_size(q) -> int:
    return int(q.grid.n_cells)


def _attrs(name: str, args: tuple, result) -> dict:
    """Cost-setting properties of one call, read from its arguments and result."""
    if name in ("particle.simulate", "particle.simulate_coupled"):
        attrs = {"n": int(args[0].n_agents), "events": int(result.event_count)}
        if name == "particle.simulate_coupled":
            attrs["snapshots"] = len(result.times)
        return attrs
    if name in ("kinetic1d.step_euler", "kinetic1d.self_convolution", "kinetic1d.gain",
                "diagnostics.dissipation"):
        return {"m": _grid_size(args[0])}
    if name == "kinetic1d.solve":
        return {"m": _grid_size(args[0]), "zero_cells": int((args[0].values == 0).sum())}
    if name == "diagnostics.observer":  # TrajectoryObserver.__call__(self, t, q)
        return {"m": _grid_size(args[2])}
    if name == "diagnostics.wasserstein1":
        from kinex.kinetic1d import GridDensity1D

        grid = all(isinstance(a, GridDensity1D) for a in args[:2])
        return {"kind": "grid" if grid else "sample"}
    return {}


class Tracer:
    """Wraps kinex entry points and keeps their spans in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[Span] | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def _parent(self, stack: list[Span]) -> Span | None:
        if stack:
            return stack[-1]
        main = self._main_stack
        if main is not None and main is not stack and main:
            return main[-1]
        return None

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, tracer._parent(stack), time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            span.attrs = _attrs(name, args, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> list[str]:
        """Wrap the traced entry points in the loaded kinex modules; returns span names."""
        from kinex import cli, diagnostics, experiments

        targets = {}  # original function -> span name
        for layer in ("particle", "kinetic1d", "diagnostics", "experiments"):
            mod = sys.modules[f"kinex.{layer}"]
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[obj] = f"{layer}.{attr}"
        targets[cli.main] = "cli.main"

        mods = [m for key, m in sys.modules.items() if key == "kinex" or key.startswith("kinex.")]
        for fn, name in targets.items():
            wrapped = self.wrap(name, fn)
            for mod in mods:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        setattr(mod, attr, wrapped)

        methods = (
            (diagnostics.TrajectoryObserver, "__call__", "diagnostics.observer"),
            (experiments.StudyReport, "write_artifacts", "experiments.write_artifacts"),
        )
        for cls, attr, name in methods:
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
        return sorted(set(targets.values()) | {name for _, _, name in methods})


# ---------------------------------------------------------------------------
# reduction of spans to metrics
# ---------------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """id(span) -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            p = s.parent
            children.setdefault(id(p), []).append((max(s.start, p.start), min(s.end, p.end)))
    return {id(s): s.duration - union_length(children.get(id(s), [])) for s in spans}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer_metrics(spans: list[Span], bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced CLI call (trace.overhead_s is filled by the caller)."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def select(name: str, **attrs) -> list[Span]:
        return [s for s in by_name.get(name, []) if all(s.attrs.get(k) == v for k, v in attrs.items())]

    def busy(group: list[Span]) -> float:
        return union_length((s.start, s.end) for s in group)

    def ms(group: list[Span]) -> list[float]:
        return [1e3 * s.duration for s in group]

    out: dict[str, float] = {}
    sims = select("particle.simulate")
    sim_busy = busy(sims)
    sim_events = sum(s.attrs["events"] for s in sims)
    out["particle.simulate.calls"] = len(sims)
    out["particle.simulate.events"] = sim_events
    out["particle.simulate.busy_s"] = sim_busy
    out["particle.simulate.events_per_s"] = sim_events / sim_busy if sim_busy > 0 else 0.0
    out["particle.simulate.overlap"] = sum(s.duration for s in sims) / sim_busy if sim_busy > 0 else 0.0
    coupled = select("particle.simulate_coupled")
    coupled_busy = busy(coupled)
    coupled_events = sum(s.attrs["events"] for s in coupled)
    out["particle.simulate_coupled.calls"] = len(coupled)
    out["particle.simulate_coupled.events"] = coupled_events
    out["particle.simulate_coupled.snapshots"] = sum(s.attrs["snapshots"] for s in coupled)
    out["particle.simulate_coupled.busy_s"] = coupled_busy
    out["particle.simulate_coupled.events_per_s"] = coupled_events / coupled_busy if coupled_busy > 0 else 0.0

    for m in GRID_SIZES:
        steps = ms(select("kinetic1d.step_euler", m=m))
        out[f"kinetic1d.step_euler.M{m}.calls"] = len(steps)
        out[f"kinetic1d.step_euler.M{m}.mean_ms"] = _mean(steps)
        out[f"kinetic1d.step_euler.M{m}.p90_ms"] = _percentile(steps, 0.9)
        convs = ms(select("kinetic1d.self_convolution", m=m))
        out[f"kinetic1d.self_convolution.M{m}.calls"] = len(convs)
        out[f"kinetic1d.self_convolution.M{m}.mean_ms"] = _mean(convs)
        out[f"kinetic1d.gain.M{m}.self_ms"] = _mean([1e3 * selfs[id(s)] for s in select("kinetic1d.gain", m=m)])

    solves = select("kinetic1d.solve")
    solve_busy = busy(solves)
    n_steps = len(select("kinetic1d.step_euler"))
    out["kinetic1d.solve.busy_s"] = solve_busy
    out["kinetic1d.solve.steps_per_s"] = n_steps / solve_busy if solve_busy > 0 else 0.0
    out["kinetic1d.save_density.busy_s"] = busy(select("kinetic1d.save_density"))

    for key, group in (
        ("diagnostics.dissipation.M10000", select("diagnostics.dissipation", m=10000)),
        ("diagnostics.observer", select("diagnostics.observer")),
    ):
        durations = ms(group)
        out[f"{key}.calls"] = len(durations)
        out[f"{key}.mean_ms"] = _mean(durations)
        out[f"{key}.max_ms"] = max(durations, default=0.0)
    for key, group in (
        ("diagnostics.wasserstein1.sample", select("diagnostics.wasserstein1", kind="sample")),
        ("diagnostics.wasserstein1.grid", select("diagnostics.wasserstein1", kind="grid")),
        ("diagnostics.wasserstein2", select("diagnostics.wasserstein2")),
        ("diagnostics.relative_entropy", select("diagnostics.relative_entropy")),
        ("diagnostics.laplace_check", select("diagnostics.laplace_check")),
    ):
        durations = ms(group)
        out[f"{key}.calls"] = len(durations)
        out[f"{key}.mean_ms"] = _mean(durations)

    for fn, study in STUDY_FUNCTIONS.items():
        out[f"experiments.{study}.self_s"] = sum(selfs[id(s)] for s in select(f"experiments.{fn}"))
    out["experiments.write_artifacts.busy_s"] = busy(select("experiments.write_artifacts"))
    out["cli.self_s"] = sum(selfs[id(s)] for s in select("cli.main"))
    out["io.bytes_written"] = bytes_written
    for layer in LAYERS:
        out[f"{layer}.errors"] = sum(1 for s in spans if s.error and s.name.startswith(layer + "."))
    return out


def cost_inputs(spans: list[Span]) -> dict:
    """Input properties that set the cost, recorded beside the metrics."""
    particle: dict[str, dict] = {}
    for s in spans:
        if s.name.startswith("particle.simulate"):
            row = particle.setdefault(f"{s.name}.N{s.attrs['n']}", {"calls": 0, "events": 0})
            row["calls"] += 1
            row["events"] += s.attrs["events"]
    solves = [s.attrs for s in spans if s.name == "kinetic1d.solve"]
    return {
        "solve_m": [a["m"] for a in solves],
        "solve_zero_cells": [a["zero_cells"] for a in solves],
        "particle_calls": particle,
    }
