"""Layer spans recorded from outside the package.

The tracer replaces module-level functions of cctuner with wrappers that
record a span (name, start, end, parent) around each call, and puts the
originals back when uninstalled. Nothing under src/ is edited. Spans stay
in memory; `layer_metrics` reduces them once the run is over.

A wrap point names the module attribute a caller looks up at call time,
so `experiment.sample` is wrapped where experiment calls it. A point whose
module or attribute no longer exists is reported as absent instead of
failing the run.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

# (span name, module, attribute). Where one layer is entered through two
# names, both carry the same span name.
WRAP_POINTS = (
    ("experiment.run", "cctuner.experiment", "run_experiment"),
    ("uncertainty.sample", "cctuner.experiment", "sample"),
    ("uncertainty.moments", "cctuner.experiment", "spec_moments"),
    ("uncertainty.moments", "cctuner.experiment", "empirical_moments"),
    ("ptdf", "cctuner.experiment", "compute_ptdf"),
    ("reformulation.catalog", "cctuner.experiment", "build_catalog"),
    ("tuner.tune", "cctuner.experiment", "tune"),
    ("tuner.tune", "cctuner.tuner", "tune"),
    ("violation.oos", "cctuner.experiment", "evaluate"),
    ("violation.oos", "cctuner.violation", "evaluate"),
    ("reformulation.solve_dispatch", "cctuner.tuner", "solve_dispatch"),
    ("violation.tuning", "cctuner.tuner", "evaluate"),
    ("qp.solve", "cctuner.qp", "solve"),
    ("kernels.count", "cctuner._kernels", "count_violations"),
)

# Per-layer metric names, in print order, with unit and direction.
LAYER_METRICS = (
    ("uncertainty.sample_calls", "count", "lower"),
    ("uncertainty.sample_s", "s", "lower"),
    ("uncertainty.moments_calls", "count", "lower"),
    ("uncertainty.moments_s", "s", "lower"),
    ("ptdf.calls", "count", "lower"),
    ("ptdf.s", "s", "lower"),
    ("reformulation.catalog_calls", "count", "lower"),
    ("reformulation.catalog_s", "s", "lower"),
    ("experiment.run_s", "s", "lower"),
    ("experiment.self_s", "s", "lower"),
    ("experiment.cells", "count", "higher"),
    ("violation.oos_calls", "count", "lower"),
    ("violation.oos_s", "s", "lower"),
    ("tuner.tune_calls", "count", "lower"),
    ("tuner.tune_self_s", "s", "lower"),
    ("tuner.iterations_mean", "count", "lower"),
    ("tuner.feasible_share", "share", "higher"),
    ("tuner.eps_tolerance_share", "share", "higher"),
    ("reformulation.solve_dispatch_calls", "count", "lower"),
    ("reformulation.solve_dispatch_self_s", "s", "lower"),
    ("qp.solve_calls", "count", "lower"),
    ("qp.solve_s", "s", "lower"),
    ("qp.iterations_mean", "count", "lower"),
    ("qp.optimal_share", "share", "higher"),
    ("violation.tuning_calls", "count", "lower"),
    ("violation.tuning_s", "s", "lower"),
    ("violation.self_s", "s", "lower"),
    ("kernels.count_calls", "count", "lower"),
    ("kernels.count_s", "s", "lower"),
    ("kernels.cells", "count", "lower"),
    ("kernels.cells_per_s", "1/s", "higher"),
    ("kernels.bytes_computed", "B", "lower"),
    ("trace.units", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.absent_wraps", "count", "lower"),
    ("trace.op_ms_traced", "ms", "lower"),
    ("trace.op_ms_untraced", "ms", "lower"),
    ("trace.overhead_share", "share", "lower"),
)

# Layers printed in the time split, with the span names they sum.
SPLIT = (
    ("uncertainty.sample", ("uncertainty.sample",)),
    ("uncertainty.moments", ("uncertainty.moments",)),
    ("ptdf", ("ptdf",)),
    ("reformulation.catalog", ("reformulation.catalog",)),
    ("experiment (self)", ("experiment.run:self",)),
    ("tuner.tune (self)", ("tuner.tune:self",)),
    ("reformulation.solve_dispatch (self)", ("reformulation.solve_dispatch:self",)),
    ("qp.solve", ("qp.solve",)),
    ("violation (self)", ("violation.oos:self", "violation.tuning:self")),
    ("kernels.count", ("kernels.count",)),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    info: dict = field(default_factory=dict)


def _tune_info(args, kwargs, result):
    trace = result.trace
    return {
        "iterations": len(trace),
        "feasible": sum(1 for it in trace if it.feasible),
        "eps_tolerance": result.terminated_by == "eps_tolerance",
    }


def _dispatch_info(args, kwargs, result):
    sol = result.qp_solution
    return {"qp_iterations": int(sol.iterations), "optimal": sol.status == "optimal"}


def _count_info(args, kwargs, result):
    base, sens, limits, xi, cols, active = args[:6]
    n, rows, k = xi.shape[0], base.shape[0], len(cols)
    # Compulsory traffic from the array sizes: the active sample columns,
    # the active sensitivity columns, and base, limits, mask and counts.
    nbytes = n * k * xi.itemsize + rows * k * sens.itemsize
    nbytes += base.nbytes + limits.nbytes + active.nbytes + rows * 8
    return {"cells": n * rows * k, "bytes": nbytes}


def _run_info(args, kwargs, result):
    return {"cells": len(result.rows)}


INFO = {
    "tuner.tune": _tune_info,
    "reformulation.solve_dispatch": _dispatch_info,
    "kernels.count": _count_info,
    "experiment.run": _run_info,
}


class Tracer:
    """Span recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        for _, module_name, attr in WRAP_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            if module is None or not callable(getattr(module, attr, None)):
                self.absent.append(f"{module_name}.{attr}")

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        info = INFO.get(name)

        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if info is not None:
                try:
                    self.spans[index].info = info(args, kwargs, result)
                except (AttributeError, TypeError, ValueError):
                    pass  # a changed return type loses the counters, not the run
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for name, module_name, attr in WRAP_POINTS:
            if f"{module_name}.{attr}" in self.absent:
                continue
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _totals(spans):
    """Seconds per span name (and per "name:self" for self time), and calls."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    secs, calls = {}, {}
    for span, kids in zip(spans, child):
        dur = span.end - span.start
        secs[span.name] = secs.get(span.name, 0.0) + dur
        key = span.name + ":self"
        secs[key] = secs.get(key, 0.0) + dur - kids
        calls[span.name] = calls.get(span.name, 0) + 1
    return secs, calls


def layer_metrics(tracer: Tracer, units: int, op_ms_traced: float, op_ms_untraced: float):
    """Reduce spans to the per-layer metrics.

    Calls, seconds, kernel cells and bytes are per unit of work traced
    (sweep cell, tune() call, evaluate() call). Means and shares are over
    the calls of their layer. A layer that did not run reports 0.
    """
    spans = tracer.spans
    secs, calls = _totals(spans)

    def per(x):
        return x / units if units else 0.0

    def s(*names):
        return per(sum(secs.get(name, 0.0) for name in names))

    def n(name):
        return per(calls.get(name, 0))

    def infos(name):
        return [span.info for span in spans if span.name == name and span.info]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    tunes = infos("tuner.tune")
    dispatches = infos("reformulation.solve_dispatch")
    counts = infos("kernels.count")
    iterates = sum(t["iterations"] for t in tunes)
    kernel_s = secs.get("kernels.count", 0.0)
    kernel_cells = sum(c["cells"] for c in counts)
    return {
        "uncertainty.sample_calls": n("uncertainty.sample"),
        "uncertainty.sample_s": s("uncertainty.sample"),
        "uncertainty.moments_calls": n("uncertainty.moments"),
        "uncertainty.moments_s": s("uncertainty.moments"),
        "ptdf.calls": n("ptdf"),
        "ptdf.s": s("ptdf"),
        "reformulation.catalog_calls": n("reformulation.catalog"),
        "reformulation.catalog_s": s("reformulation.catalog"),
        "experiment.run_s": s("experiment.run"),
        "experiment.self_s": s("experiment.run:self"),
        "experiment.cells": sum(r["cells"] for r in infos("experiment.run")),
        "violation.oos_calls": n("violation.oos"),
        "violation.oos_s": s("violation.oos"),
        "tuner.tune_calls": n("tuner.tune"),
        "tuner.tune_self_s": s("tuner.tune:self"),
        "tuner.iterations_mean": mean([t["iterations"] for t in tunes]),
        "tuner.feasible_share": sum(t["feasible"] for t in tunes) / iterates if iterates else 0.0,
        "tuner.eps_tolerance_share": mean([float(t["eps_tolerance"]) for t in tunes]),
        "reformulation.solve_dispatch_calls": n("reformulation.solve_dispatch"),
        "reformulation.solve_dispatch_self_s": s("reformulation.solve_dispatch:self"),
        "qp.solve_calls": n("qp.solve"),
        "qp.solve_s": s("qp.solve"),
        "qp.iterations_mean": mean([d["qp_iterations"] for d in dispatches]),
        "qp.optimal_share": mean([float(d["optimal"]) for d in dispatches]),
        "violation.tuning_calls": n("violation.tuning"),
        "violation.tuning_s": s("violation.tuning"),
        "violation.self_s": s("violation.oos:self", "violation.tuning:self"),
        "kernels.count_calls": n("kernels.count"),
        "kernels.count_s": per(kernel_s),
        "kernels.cells": per(kernel_cells),
        "kernels.cells_per_s": kernel_cells / kernel_s if kernel_s else 0.0,
        "kernels.bytes_computed": per(sum(c["bytes"] for c in counts)),
        "trace.units": units,
        "trace.spans": len(spans),
        "trace.absent_wraps": len(tracer.absent),
        "trace.op_ms_traced": op_ms_traced,
        "trace.op_ms_untraced": op_ms_untraced,
        "trace.overhead_share": op_ms_traced / op_ms_untraced - 1.0 if op_ms_untraced else 0.0,
    }


def time_split(tracer: Tracer, op_s: float):
    """(layer, seconds, share of traced op time) rows for the human report."""
    secs, _ = _totals(tracer.spans)
    rows = []
    for label, keys in SPLIT:
        sec = sum(secs.get(k, 0.0) for k in keys)
        rows.append((label, sec, sec / op_s if op_s else 0.0))
    return rows


def spans_json(tracer: Tracer):
    return [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, **s.info}
        for s in tracer.spans
    ]
