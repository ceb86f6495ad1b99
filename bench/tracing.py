"""In-process spans around the program's module functions.

``instrument`` rebinds module attributes that the CLI and the models
look up at call time (``taskreg.dataset.load_csv``, ``taskreg.mtl.solve``,
``numpy.linalg.eigh`` and so on) to wrappers that record spans, and
restores the originals on exit. Nothing in the package changes.

A span records its name, the command it ran under, its parent span,
its first start and last end, its number of calls, its total time and
the time its child spans cover. Functions that run once per solver
iteration (the ``ProximalProblem`` callbacks, the spectral projection,
``eigh``) are folded into one span per parent and name, so a solve with
thousands of iterations adds a handful of spans, not thousands. Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager
from time import perf_counter

# Per-layer metric -> unit. Each is taken from one traced pipeline run.
PER_LAYER = {
    "cli.startup_s": "s",
    "dataset.load_csv_s": "s",
    "dataset.load_mb_per_s": "MB/s",
    "dataset.rows_dropped": "count",
    "dataset.rows_kept_ratio": "ratio",
    "dataset.write_csv_s": "s",
    "dataset.stratified_split_s": "s",
    "dataset.minmax_scale_s": "s",
    "fista.solve_s": "s",
    "fista.solve_calls": "count",
    "fista.iterations": "count",
    "fista.ms_per_iter": "ms",
    "fista.smooth_value_calls": "count",
    "fista.smooth_value_s": "s",
    "fista.smooth_grad_calls": "count",
    "fista.smooth_grad_s": "s",
    "fista.full_objective_calls": "count",
    "fista.full_objective_s": "s",
    "fista.prox_calls": "count",
    "fista.prox_s": "s",
    "fista.evals_per_iter": "ratio",
    "fista.accept_ratio": "ratio",
    "fista.self_s": "s",
    "mtl.fit_mtl_s": "s",
    "mtl.self_s": "s",
    "cmtl.fit_cmtl_s": "s",
    "cmtl.eigh_calls": "count",
    "cmtl.eigh_s": "s",
    "cmtl.project_spectral_calls": "count",
    "cmtl.project_spectral_s": "s",
    "cmtl.extract_clusters_s": "s",
    "baselines.fit_stl_s": "s",
    "baselines.evaluate_s": "s",
    "baselines.write_mae_table_s": "s",
    "serialize.save_model_s": "s",
    "serialize.load_model_s": "s",
    "serialize.model_bytes": "B",
    "riskfactors.build_report_s": "s",
    "trace.overhead_s": "s",
}

# Counts and ratios of counts: they must repeat exactly for one input.
COUNTS = tuple(
    name for name, unit in PER_LAYER.items() if unit in ("count", "B", "ratio")
)

_CALLBACKS = ("smooth_value", "smooth_grad", "prox", "full_objective")


class Span:
    __slots__ = ("id", "name", "command", "parent", "calls", "start", "end", "total", "child",
                 "extra")

    def __init__(self, span_id, name, command, parent):
        self.id = span_id
        self.name = name
        self.command = command
        self.parent = parent
        self.calls = 0
        self.start = None
        self.end = None
        self.total = 0.0
        self.child = 0.0
        self.extra = {}

    @property
    def self_time(self) -> float:
        return self.total - self.child

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "command": self.command,
            "parent": None if self.parent is None else self.parent.id,
            "calls": self.calls,
            "start": self.start,
            "end": self.end,
            "total_s": self.total,
            "self_s": self.self_time,
            **self.extra,
        }


class Tracer:
    """Collects spans; ``command`` names the CLI command now running."""

    def __init__(self):
        self.spans: list[Span] = []
        self.command: str | None = None
        self._stack: list[Span] = []
        self._folded: dict[tuple, Span] = {}

    def _open(self, name: str, folded: bool) -> Span:
        parent = self._stack[-1] if self._stack else None
        key = (parent.id if parent else None, self.command, name)
        span = self._folded.get(key) if folded else None
        if span is None:
            span = Span(len(self.spans), name, self.command, parent)
            self.spans.append(span)
            if folded:
                self._folded[key] = span
        self._stack.append(span)
        return span

    def _close(self, span: Span, start: float, end: float) -> None:
        self._stack.pop()
        span.calls += 1
        span.total += end - start
        if span.start is None:
            span.start = start
        span.end = end
        if span.parent is not None:
            span.parent.child += end - start

    def is_open(self, name: str) -> bool:
        return any(span.name == name for span in self._stack)

    def wrap(self, name: str, fn, *, folded: bool = False, record=None):
        """``fn`` timed as span ``name``; ``record(span, args, result)`` runs untimed."""

        def traced(*args, **kwargs):
            span = self._open(name, folded)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, start, perf_counter())
            if record is not None:
                record(span, args, result)
            return result

        return traced


def _add(span: Span, key: str, value) -> None:
    span.extra[key] = span.extra.get(key, 0) + value


def _record_load(span, args, dataset):
    _add(span, "bytes", os.path.getsize(args[0]))
    _add(span, "rows_kept", dataset.n_rows)
    _add(span, "rows_dropped", dataset.dropped_rows)


def _record_save(span, args, _result):
    _add(span, "bytes", os.path.getsize(args[1]))


def _record_solve(span, _args, result):
    _add(span, "iterations", result[1].iterations)


@contextmanager
def instrument(tracer: Tracer):
    """Rebind the traced module attributes for the duration of the block."""
    import numpy
    from taskreg import baselines, cmtl, dataset, mtl, riskfactors, serialize

    patches = []

    def patch(module, attr, name, **options):
        original = getattr(module, attr)
        patches.append((module, attr, original))
        setattr(module, attr, tracer.wrap(name, original, **options))

    patch(dataset, "load_csv", "dataset.load_csv", record=_record_load)
    for attr in ("minmax_scale", "stratified_split", "write_csv"):
        patch(dataset, attr, f"dataset.{attr}")
    patch(mtl, "fit_mtl", "mtl.fit_mtl")
    patch(cmtl, "fit_cmtl", "cmtl.fit_cmtl")
    patch(cmtl, "project_spectral", "cmtl.project_spectral", folded=True)
    patch(cmtl, "extract_clusters", "cmtl.extract_clusters")
    for attr in ("fit_stl", "evaluate", "write_mae_table"):
        patch(baselines, attr, f"baselines.{attr}")
    patch(serialize, "save_model", "serialize.save_model", record=_record_save)
    patch(serialize, "load_model", "serialize.load_model")
    patch(riskfactors, "build_report", "riskfactors.build_report")

    for module in (mtl, cmtl, baselines):
        solve = getattr(module, "solve")
        patches.append((module, "solve", solve))
        timed_solve = tracer.wrap("fista.solve", solve, record=_record_solve)

        def traced_solve(problem, phi0, cfg=None, _timed=timed_solve):
            callbacks = {
                attr: tracer.wrap(f"fista.{attr}", getattr(problem, attr), folded=True)
                for attr in _CALLBACKS
            }
            return _timed(dataclasses.replace(problem, **callbacks), phi0, cfg)

        setattr(module, "solve", traced_solve)

    eigh = numpy.linalg.eigh
    patches.append((numpy.linalg, "eigh", eigh))
    timed_eigh = tracer.wrap("numpy.eigh", eigh, folded=True)

    def traced_eigh(*args, **kwargs):
        if tracer.is_open("cmtl.fit_cmtl"):
            return timed_eigh(*args, **kwargs)
        return eigh(*args, **kwargs)

    numpy.linalg.eigh = traced_eigh
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer values of one traced pipeline (all but the two run-level ones)."""

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.total for s in named(name))

    def calls(name):
        return sum(s.calls for s in named(name))

    def extra(name, key):
        return sum(s.extra.get(key, 0) for s in named(name))

    def ratio(num, den):
        return num / den if den else 0.0

    load_s = total("dataset.load_csv")
    kept = extra("dataset.load_csv", "rows_kept")
    dropped = extra("dataset.load_csv", "rows_dropped")
    iterations = extra("fista.solve", "iterations")
    out = {
        "dataset.load_csv_s": load_s,
        "dataset.load_mb_per_s": ratio(extra("dataset.load_csv", "bytes") / 1e6, load_s),
        "dataset.rows_dropped": dropped,
        "dataset.rows_kept_ratio": ratio(kept, kept + dropped),
        "dataset.write_csv_s": total("dataset.write_csv"),
        "dataset.stratified_split_s": total("dataset.stratified_split"),
        "dataset.minmax_scale_s": total("dataset.minmax_scale"),
        "fista.solve_s": total("fista.solve"),
        "fista.solve_calls": calls("fista.solve"),
        "fista.iterations": iterations,
        "fista.ms_per_iter": ratio(1e3 * total("fista.solve"), iterations),
    }
    for attr in _CALLBACKS:
        out[f"fista.{attr}_calls"] = calls(f"fista.{attr}")
        out[f"fista.{attr}_s"] = total(f"fista.{attr}")
    evals = sum(calls(f"fista.{a}") for a in ("smooth_value", "smooth_grad", "full_objective"))
    out.update({
        "fista.evals_per_iter": ratio(evals, iterations),
        "fista.accept_ratio": ratio(iterations, calls("fista.prox")),
        "fista.self_s": sum(s.self_time for s in named("fista.solve")),
        "mtl.fit_mtl_s": total("mtl.fit_mtl"),
        "mtl.self_s": sum(s.self_time for s in named("mtl.fit_mtl")),
        "cmtl.fit_cmtl_s": total("cmtl.fit_cmtl"),
        "cmtl.eigh_calls": calls("numpy.eigh"),
        "cmtl.eigh_s": total("numpy.eigh"),
        "cmtl.project_spectral_calls": calls("cmtl.project_spectral"),
        "cmtl.project_spectral_s": total("cmtl.project_spectral"),
        "cmtl.extract_clusters_s": total("cmtl.extract_clusters"),
        "baselines.fit_stl_s": total("baselines.fit_stl"),
        "baselines.evaluate_s": total("baselines.evaluate"),
        "baselines.write_mae_table_s": total("baselines.write_mae_table"),
        "serialize.save_model_s": total("serialize.save_model"),
        "serialize.load_model_s": total("serialize.load_model"),
        "serialize.model_bytes": extra("serialize.save_model", "bytes"),
        "riskfactors.build_report_s": total("riskfactors.build_report"),
    })
    return out
