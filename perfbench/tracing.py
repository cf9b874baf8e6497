"""Spans around the public functions of each ``meq`` module.

The wrappers replace module attributes (for example ``meq.steady.steady_dense``)
from outside the package.  The CLI resolves ``self.steady.<fn>`` at call
time, and functions inside a module look up their siblings in the module
globals, so every call the CLI makes passes through a wrapper.  Spans are
kept in memory; self time is a span's duration minus that of its children.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

# (module, attribute) -> layer metric prefix the span's self time goes to.
TRACED = {
    ("cli", "run"): "cli.self_s",
    ("modelspec", "parse_model"): "modelspec.parse_s",
    ("modelspec", "build_model"): "modelspec.build_s",
    ("modelspec", "cascade_document"): "modelspec.build_s",
    ("modelspec", "render_model"): "modelspec.build_s",
    ("modelspec", "document_environment"): "modelspec.build_s",
    ("modelspec", "evaluate_observable"): "modelspec.build_s",
    ("superspace", "build_liouvillian"): "superspace.assemble_s",
    ("steady", "steady_dense"): "steady.dense_s",
    ("steady", "steady_sparse"): "steady.sparse_s",
    ("steady", "steady_linsolve"): "steady.linsolve_s",
    ("steady", "spectrum"): "steady.spectrum_s",
    ("dynamics", "evolve_trajectory"): "dynamics.evolve_s",
    ("measures", "log_negativity"): "measures.negativity_s",
    ("measures", "expectation"): "measures.expectation_s",
    ("measures", "population_report"): "measures.expectation_s",
    ("measures", "displaced_mode_population"): "measures.expectation_s",
    ("hilbert", "partial_trace"): "hilbert.partial_trace_s",
    ("hilbert", "partial_transpose"): "hilbert.partial_transpose_s",
    # measures imported partial_transpose by name
    ("measures", "partial_transpose"): "hilbert.partial_transpose_s",
}

# Call counters: a span of this metric adds one to the named count.
CALL_COUNTS = {
    "cli.self_s": "cli.calls",
    "steady.dense_s": "steady.dense_calls",
    "steady.sparse_s": "steady.sparse_calls",
    "steady.linsolve_s": "steady.linsolve_calls",
    "steady.spectrum_s": "steady.spectrum_calls",
}

STEADY_METRICS = ("steady.dense_s", "steady.sparse_s", "steady.linsolve_s")

# name -> unit, in the order the traced run prints them.
LAYER_METRICS = {
    "cli.self_s": "s", "cli.calls": "count", "cli.failed": "count",
    "modelspec.parse_s": "s", "modelspec.build_s": "s",
    "superspace.assemble_s": "s", "superspace.nnz": "count",
    "steady.dense_s": "s", "steady.dense_calls": "count",
    "steady.sparse_s": "s", "steady.sparse_calls": "count",
    "steady.linsolve_s": "s", "steady.linsolve_calls": "count",
    "steady.spectrum_s": "s", "steady.spectrum_calls": "count",
    "steady.residual_max": "1",
    "dynamics.evolve_s": "s", "dynamics.points": "count",
    "measures.negativity_s": "s", "measures.expectation_s": "s",
    "hilbert.partial_trace_s": "s", "hilbert.partial_transpose_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    command: int
    metric: str


class Tracer:
    """Installs the wrappers, records spans and counts, restores on close."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.residual_max = 0.0
        self.command = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for (module_name, attr), metric in TRACED.items():
            module = importlib.import_module(f"meq.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", metric, original))

    def close(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, metric, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if metric == "cli.self_s":
                self.command += 1
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.command, metric)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            self._count(metric, result)
            return result
        return traced

    def _count(self, metric, result) -> None:
        if metric == "cli.self_s" and result != 0:
            self._add("cli.failed", 1)
        elif metric == "superspace.assemble_s":
            matrix = result.matrix
            nnz = matrix.nnz if hasattr(matrix, "nnz") else int((matrix != 0).sum())
            self._add("superspace.nnz", nnz)
        elif metric in STEADY_METRICS:
            self.residual_max = max(self.residual_max, float(result.residual))
        elif metric == "dynamics.evolve_s":
            self._add("dynamics.points", len(result.times))

    def _add(self, key, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = {}
        for span, children in zip(self.spans, child_time):
            totals[span.metric] = totals.get(span.metric, 0.0) + span.end - span.start - children
        return totals

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Every layer metric, per pass of the workload (residual: max)."""
        values = dict.fromkeys(LAYER_METRICS, 0.0)
        for key, value in self.self_times().items():
            values[key] = value
        for span in self.spans:
            if span.metric in CALL_COUNTS:
                values[CALL_COUNTS[span.metric]] += 1
        values.update(self.counts)
        per_pass = {k: v / passes for k, v in values.items()}
        per_pass["steady.residual_max"] = self.residual_max
        return per_pass

    def span_records(self) -> list[dict]:
        return [vars(span).copy() for span in self.spans]
