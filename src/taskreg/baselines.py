"""Single-task baselines and MAE evaluation.

The baselines fit one linear model per task (individual setting) or one
model on all rows pooled (global setting), optionally with a ridge or
lasso penalty, reusing the shared accelerated proximal solver. Results
are packaged as ordinary weight-matrix models so prediction, reporting,
and serialization treat them exactly like the multi-task fits.

Evaluation aligns features by name, applies whatever scaling the model
was trained with, and reports per-task MAE plus a TOTAL row. TOTAL is
the MAE over all test rows pooled together by default; a macro average
of per-task values is available via ``total_mode``. A test file is
scored chunk by chunk (:func:`evaluate`, :class:`MaeAccumulator`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _TOTAL_MODES
from .dataset import ScalingParams, TaskFactors, _fold, _task_rows, stream_csv, write_rows
from .fista import SolverConfig, solve
from .mtl import LeastSquares, MtlModel, StlSpec, _fitted  # StlSpec is re-exported


@dataclass(frozen=True)
class MaeReport:
    """Per-task and total MAE for one model on one test set."""

    per_task: dict[str, float]
    total: float
    counts: dict[str, int]
    total_mode: str = "pooled"

    def __post_init__(self):
        if self.total_mode not in _TOTAL_MODES:
            raise ValueError(
                f"total_mode must be one of {_TOTAL_MODES}, got {self.total_mode!r}"
            )
        if set(self.per_task) != set(self.counts):
            raise ValueError("per_task and counts must cover the same tasks")


def _penalty_value(w: np.ndarray, penalty: str, lam: float) -> np.ndarray:
    """The penalty of each weight vector along the last axis of w."""
    if penalty == "ridge":
        return lam * np.einsum("...j,...j->...", w, w)
    if penalty == "lasso":
        return lam * np.abs(w).sum(axis=-1)
    return np.zeros(w.shape[:-1])


def _shrink(w: np.ndarray, step, penalty: str, lam: float) -> np.ndarray:
    """The prox of :func:`_penalty_value` with step ``step`` at each weight vector of w."""
    if penalty == "ridge":
        return w / (1.0 + 2.0 * lam * step)
    if penalty == "lasso":
        return np.sign(w) * np.maximum(np.abs(w) - lam * step, 0.0)
    return w


def fit_stl(
    factors: TaskFactors,
    spec: StlSpec,
    cfg: SolverConfig | None = None,
    *,
    fit_intercept: bool = False,
    scaling: ScalingParams | None = None,
) -> MtlModel:
    """Fit a single-task baseline and return it as a weight-matrix model.

    The objective is :class:`~taskreg.mtl.LeastSquares` with the penalty
    :func:`_penalty_value` of ``spec`` and its prox :func:`_shrink`.
    Global setting: all tasks' rows are pooled, one weight vector is
    fitted and copied to every task row, and the trace is one solver
    trace. Individual setting: each task is fitted on its own data with
    no coupling. All tasks run as the blocks of one blocked solve on the
    zero-padded stack of their R factors, so each value is a vector over
    the tasks and each value or gradient one batched matmul; each task
    keeps its own step size and stopping test, so it takes the iterations
    its own solve would. The trace is then a
    :class:`~taskreg.fista.BlockTraces`, one trace per task.

    Like :func:`taskreg.mtl.fit_mtl`, the fits run on each task's R factor,
    and the pooled fit on the R factor of the stacked task factors, folded
    in one task at a time.
    ``factors`` are already in the units of the fit: ``scaling`` is only
    recorded in the model.
    """
    r = factors.design_stack(intercept=fit_intercept)
    if spec.setting == "global":
        # One QR per task (TSQR): numpy copies a QR's input twice, and so no
        # input is the whole stack. The zero padding rows of the stack leave
        # the pooled factor's Gram matrix unchanged.
        r = functools.reduce(_fold, r, np.empty((0, r.shape[2])))
    objective = LeastSquares(
        r, factors.n_features, lambda w: _penalty_value(w, spec.penalty, spec.lam),
        lambda h, step: _shrink(h, step, spec.penalty, spec.lam), blocked=r.ndim == 3,
    )
    # One weight vector per factor: a (T, width - 1) matrix for the stack.
    w, trace = solve(objective.problem(), np.zeros(r.shape[:-2] + (r.shape[-1] - 1,)), cfg)
    return _fitted(
        factors, w, trace, scaling, lam=spec.lam, model_type="stl", stl_setting=spec.setting,
        stl_penalty=spec.penalty,
    )


def _feature_permutation(model, feature_names) -> np.ndarray:
    """Column order mapping model features onto the test set's columns."""
    positions = {name: j for j, name in enumerate(feature_names)}
    missing = [name for name in model.feature_names if name not in positions]
    if missing:
        raise ValueError(f"test data is missing model features: {', '.join(missing)}")
    extra = [name for name in feature_names if name not in set(model.feature_names)]
    if extra:
        raise ValueError(f"test data has unknown features: {', '.join(extra)}")
    return np.array([positions[name] for name in model.feature_names])


def predictions_for_task(model, x_raw: np.ndarray, row) -> np.ndarray:
    """Predict raw-scale outcomes from raw feature rows.

    ``row`` is the model row (task index) of every feature row, or an
    integer array with one per feature row. Applies the model's stored
    feature scaling, predicts, and maps the prediction back through the
    outcome scaling when the model was trained on a scaled outcome. Each
    prediction is a row-wise product over C-ordered rows, so it does not
    depend on which other rows are predicted with it. (A column-ordered
    block, such as ``x[:, columns]`` can be, is summed in another order.)
    """
    x = np.ascontiguousarray(x_raw, dtype=np.float64)
    if model.scaling is not None:
        x = model.scaling.transform_features(x)
    rows = np.broadcast_to(row, x.shape[:1])
    pred = np.einsum("ij,ij->i", x, model.weights[rows]) + model.intercept[rows]
    if model.scaling is not None and model.scaling.scales_outcome:
        pred = model.scaling.invert_outcome(pred)
    return pred


class MaeAccumulator:
    """Each model's absolute errors on a test set, gathered chunk by chunk.

    A sink for :func:`taskreg.dataset.stream_csv`. It is built from the test
    set's feature names, which it aligns to each model's by name, so a
    mismatch is raised before any row is read. Each chunk is predicted by
    every model and dropped; per task, only the outcomes and each model's
    absolute errors are kept, in file order. Once the rows are in,
    :attr:`outcomes` maps each test task to its outcomes and
    :meth:`report` gives one model's MAE.
    """

    def __init__(self, models, feature_names):
        self.models = tuple(models)
        self._columns = [_feature_permutation(m, feature_names) for m in self.models]
        self._rows = [{label: t for t, label in enumerate(m.task_labels)} for m in self.models]
        self._task_parts: list[np.ndarray] = []
        self._outcome_parts: list[np.ndarray] = []
        self._error_parts: list[list[np.ndarray]] = [[] for _ in self.models]
        self.outcomes: dict[str, np.ndarray] = {}
        self._errors: list[dict[str, np.ndarray]] = []

    def add(self, labels, task, x, y):
        self._task_parts.append(task)
        self._outcome_parts.append(y)
        for model, columns, rows, parts in zip(
            self.models, self._columns, self._rows, self._error_parts
        ):
            # A task the model lacks is predicted with row 0; report() rejects it.
            row_of_task = np.array([rows.get(label, 0) for label in labels], dtype=np.intp)
            # An error that overflows is reported by write_mae_table, not warned of.
            with np.errstate(over="ignore", invalid="ignore"):
                pred = predictions_for_task(model, x.take(columns, axis=1), row_of_task[task])
                parts.append(np.abs(pred - y))

    def finish(self, labels, dropped_rows):
        rows = _task_rows(np.concatenate(self._task_parts), len(labels))

        def per_task(parts):
            values = np.concatenate(parts)
            return {label: values[r] for label, r in zip(labels, rows)}

        self.outcomes = per_task(self._outcome_parts)
        self._errors = [per_task(parts) for parts in self._error_parts]
        self._task_parts, self._outcome_parts, self._error_parts = [], [], []
        return self

    def report(self, index: int = 0, total_mode: str = "pooled") -> MaeReport:
        """Per-task and total MAE of ``models[index]``; every test task must exist in it."""
        for label in self.outcomes:
            if label not in self._rows[index]:
                raise ValueError(f"model has no task {label!r}")
        errors = self._errors[index]
        counts = {label: e.size for label, e in errors.items()}
        per_task = {label: _mean(e) for label, e in errors.items()}
        if total_mode == "pooled":
            total = _mean(*errors.values())
        else:
            # One part per task MAE, so where their sum is finite it is Python's sum of them.
            total = _mean(*map(np.atleast_1d, per_task.values()))
        return MaeReport(per_task=per_task, total=total, counts=counts, total_mode=total_mode)


def evaluate(models, path, task_column: str, outcome_column: str) -> MaeAccumulator:
    """Score fitted models on the raw rows of a test CSV file.

    The rows stream past the models (:func:`taskreg.dataset.stream_csv`):
    only the outcomes and each model's absolute errors are kept. Features
    are aligned to each model by name, so column order in the file is
    irrelevant. ``report(k, total_mode)`` of the result is the per-task
    and total MAE of ``models[k]``, which must have every task of the file.
    """
    return stream_csv(
        path, task_column, outcome_column, lambda names: MaeAccumulator(models, names)
    )


def _mean(*parts: np.ndarray) -> float:
    """The mean of the values of ``parts``, the sum of their sums over their count.

    Where that sum overflows, it is the mean of each value over the largest
    magnitude m, times m; a value that is not finite gives a mean that is not.
    """
    n = sum(part.size for part in parts)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = sum(float(part.sum()) for part in parts) / n
        if math.isfinite(mean):
            return mean
        top = max(float(np.abs(part).max()) for part in parts)
        return top * (sum(float((part / top).sum()) for part in parts) / n)


def _std(y: np.ndarray) -> float:
    """``y.std()``, or where its squared deviations overflow, that of y / max|y| scaled back."""
    sd = float(y.std())
    if math.isfinite(sd):
        return sd
    top = float(np.abs(y).max())
    return top * float((y / top).std())


def write_mae_table(reports: dict[str, MaeReport], outcomes, path) -> None:
    """CSV table: one row per task plus TOTAL, one MAE column per model.

    ``outcomes`` maps each test task, in table order, to its raw outcomes
    (as :attr:`MaeAccumulator.outcomes` does). Each row carries the task's
    test-set size and the mean and standard deviation of its outcomes,
    then the per-model MAE values, in the CSV dialect of
    :func:`taskreg.dataset.write_rows`. A value that is not finite, as where
    a sum or a prediction overflows, is a ValueError naming its task.
    """
    if not reports:
        raise ValueError("need at least one report to tabulate")
    for name, rep in reports.items():
        if set(rep.per_task) != set(outcomes):
            raise ValueError(f"report {name!r} does not cover the test tasks")

    columns = ["the outcome mean", "the outcome standard deviation"]
    columns += [f"the mean absolute error of model {name!r}" for name in reports]

    def cells(where, y, maes):
        with np.errstate(over="ignore", invalid="ignore"):
            values = [_mean(y), _std(y), *maes]
        for column, value in zip(columns, values):
            if not math.isfinite(value):
                raise ValueError(f"{where}: {column} is not finite")
        return [y.size, *map(repr, values)]

    rows = [["task", "n", "outcome_mean", "outcome_sd", *reports]]
    for label, y in outcomes.items():
        maes = [rep.per_task[label] for rep in reports.values()]
        rows.append([label, *cells(f"task {label!r}", y, maes)])
    pooled = np.concatenate(list(outcomes.values()))
    rows.append(["TOTAL", *cells("all tasks", pooled, [rep.total for rep in reports.values()])])
    write_rows(rows, path)
