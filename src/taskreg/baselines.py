"""Single-task baselines and MAE evaluation.

The baselines fit one linear model per task (individual setting) or one
model on all rows pooled (global setting), optionally with a ridge or
lasso penalty, reusing the shared accelerated proximal solver. Results
are packaged as ordinary weight-matrix models so prediction, reporting,
and serialization treat them exactly like the multi-task fits.

Evaluation aligns features by name, applies whatever scaling the model
was trained with, and reports per-task MAE plus a TOTAL row. TOTAL is
the MAE over all test rows pooled together by default; a macro average
of per-task values is available via ``total_mode``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .dataset import MultiTaskDataset, ScalingParams, TaskFactors, as_factors
from .fista import ProximalProblem, SolverConfig, solve
from .mtl import MtlModel

_SETTINGS = ("global", "individual")
_PENALTIES = ("none", "ridge", "lasso")
_TOTAL_MODES = ("pooled", "macro")


@dataclass(frozen=True)
class StlSpec:
    """What kind of single-task baseline to fit."""

    setting: str
    penalty: str
    lam: float = 0.0

    def __post_init__(self):
        if self.setting not in _SETTINGS:
            raise ValueError(f"setting must be one of {_SETTINGS}, got {self.setting!r}")
        if self.penalty not in _PENALTIES:
            raise ValueError(f"penalty must be one of {_PENALTIES}, got {self.penalty!r}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.penalty == "none" and self.lam != 0:
            raise ValueError("penalty 'none' requires lam = 0")


@dataclass(frozen=True)
class MaeReport:
    """Per-task and total MAE for one model on one test set."""

    per_task: dict[str, float]
    total: float
    counts: dict[str, int]
    total_mode: str = "pooled"
    per_task_sd: dict[str, float] | None = None
    total_sd: float | None = None

    def __post_init__(self):
        if self.total_mode not in _TOTAL_MODES:
            raise ValueError(
                f"total_mode must be one of {_TOTAL_MODES}, got {self.total_mode!r}"
            )
        if set(self.per_task) != set(self.counts):
            raise ValueError("per_task and counts must cover the same tasks")


def _penalty_value(w: np.ndarray, penalty: str, lam: float) -> float:
    if penalty == "ridge":
        return lam * float(w @ w)
    if penalty == "lasso":
        return lam * float(np.abs(w).sum())
    return 0.0


def _make_prox(penalty: str, lam: float):
    if penalty == "ridge":

        def prox(h, step):
            return h / (1.0 + 2.0 * lam * step)

    elif penalty == "lasso":

        def prox(h, step):
            return np.sign(h) * np.maximum(np.abs(h) - lam * step, 0.0)

    else:

        def prox(h, step):
            return h.copy()

    return prox


def _fit_single(r: np.ndarray, spec: StlSpec, cfg: SolverConfig | None):
    """One least-squares fit with the requested penalty; returns (w, trace).

    ``r`` is an R factor [A | b] of the rows [X | y]; ||Xw - y|| = ||Aw - b||.
    """
    x, y = r[:, :-1], r[:, -1]
    n_features = x.shape[1]
    penalty_prox = _make_prox(spec.penalty, spec.lam)

    def smooth_value(w):
        r = x @ w - y
        return 0.5 * float(r @ r)

    def smooth_grad(w):
        return x.T @ (x @ w - y)

    def full_objective(w):
        return smooth_value(w) + _penalty_value(w, spec.penalty, spec.lam)

    problem = ProximalProblem(
        smooth_value=smooth_value,
        smooth_grad=smooth_grad,
        prox=penalty_prox,
        full_objective=full_objective,
    )
    return solve(problem, np.zeros(n_features), cfg)


def fit_stl(
    ds: MultiTaskDataset | TaskFactors,
    spec: StlSpec,
    cfg: SolverConfig | None = None,
    *,
    fit_intercept: bool = False,
    scaling: ScalingParams | None = None,
) -> MtlModel:
    """Fit a single-task baseline and return it as a weight-matrix model.

    Global setting: all tasks' rows are pooled, one weight vector is
    fitted and copied to every task row. Individual setting: each task
    is fitted on its own data with no coupling. The trace is a single
    solver trace for global fits and one per task for individual fits.

    Like :func:`taskreg.mtl.fit_mtl`, the fits run on each task's R factor,
    and the pooled fit on the R factor of the stacked task factors.
    ``ds`` is already in the units of the fit: ``scaling`` is only
    recorded in the model.
    """
    factors = as_factors(ds)
    n_tasks, n_features = factors.n_tasks, factors.n_features
    design = factors.design(intercept=fit_intercept)
    if spec.setting == "global":
        w, trace = _fit_single(np.linalg.qr(np.vstack(design), mode="r"), spec, cfg)
        weights_full = np.tile(w, (n_tasks, 1))
    else:
        fits = [_fit_single(r, spec, cfg) for r in design]
        weights_full = np.array([w for w, _ in fits])
        trace = tuple(tr for _, tr in fits)

    if fit_intercept:
        weights, intercept = weights_full[:, :n_features], weights_full[:, n_features]
    else:
        weights, intercept = weights_full, None
    return MtlModel(
        weights=weights,
        lam=spec.lam,
        feature_names=factors.feature_names,
        task_labels=factors.task_labels,
        intercept=intercept,
        scaling=scaling,
        trace=trace,
        model_type="stl",
        stl_setting=spec.setting,
        stl_penalty=spec.penalty,
    )


def mae(pred, actual) -> float:
    """Mean absolute error; lower is better."""
    pred = np.asarray(pred, dtype=np.float64).ravel()
    actual = np.asarray(actual, dtype=np.float64).ravel()
    if pred.size != actual.size:
        raise ValueError(f"length mismatch: {pred.size} predictions, {actual.size} actuals")
    if pred.size == 0:
        raise ValueError("cannot compute MAE of empty vectors")
    return float(np.abs(pred - actual).mean())


def _feature_permutation(model, test: MultiTaskDataset) -> np.ndarray:
    """Column order mapping model features onto the test set's columns."""
    positions = {name: j for j, name in enumerate(test.feature_names)}
    missing = [name for name in model.feature_names if name not in positions]
    if missing:
        raise ValueError(f"test data is missing model features: {', '.join(missing)}")
    extra = [name for name in test.feature_names if name not in set(model.feature_names)]
    if extra:
        raise ValueError(f"test data has unknown features: {', '.join(extra)}")
    return np.array([positions[name] for name in model.feature_names])


def predictions_for_task(model, x_raw: np.ndarray, row: int) -> np.ndarray:
    """Predict raw-scale outcomes for one task from raw feature rows.

    Applies the model's stored feature scaling, predicts, and maps the
    prediction back through the outcome scaling when the model was
    trained on a scaled outcome.
    """
    x = np.asarray(x_raw, dtype=np.float64)
    if model.scaling is not None:
        x = model.scaling.transform_features(x)
    pred = x @ model.weights[row] + model.intercept[row]
    if model.scaling is not None and model.scaling.scales_outcome:
        pred = model.scaling.invert_outcome(pred)
    return pred


def evaluate(model, test: MultiTaskDataset, *, total_mode: str = "pooled") -> MaeReport:
    """Per-task and total MAE of one fitted model on raw test data.

    Features are aligned to the model by name, so column order in the
    test file is irrelevant. Every test task must exist in the model.
    """
    if total_mode not in _TOTAL_MODES:
        raise ValueError(f"total_mode must be one of {_TOTAL_MODES}, got {total_mode!r}")
    rows = {label: t for t, label in enumerate(model.task_labels)}
    perm = _feature_permutation(model, test)
    per_task: dict[str, float] = {}
    counts: dict[str, int] = {}
    abs_sum = 0.0
    n_total = 0
    for task in test.tasks:
        if task.label not in rows:
            raise ValueError(f"model has no task {task.label!r}")
        pred = predictions_for_task(model, task.X[:, perm], rows[task.label])
        errors = np.abs(pred - task.Y)
        per_task[task.label] = float(errors.mean())
        counts[task.label] = task.n
        abs_sum += float(errors.sum())
        n_total += task.n
    if total_mode == "pooled":
        total = abs_sum / n_total
    else:
        total = sum(per_task.values()) / len(per_task)
    return MaeReport(per_task=per_task, total=total, counts=counts, total_mode=total_mode)


def aggregate_reports(reports) -> MaeReport:
    """Mean and spread of several reports from repeated seeded splits.

    All reports must cover the same tasks with the same total mode.
    Counts are taken from the first report; the standard deviations use
    the sample convention and are zero for a single report.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("need at least one report")
    labels = list(reports[0].per_task)
    mode = reports[0].total_mode
    for rep in reports[1:]:
        if set(rep.per_task) != set(labels):
            raise ValueError("reports cover different task sets")
        if rep.total_mode != mode:
            raise ValueError("reports mix total modes")

    def spread(values) -> float:
        if len(values) < 2:
            return 0.0
        return float(np.std(values, ddof=1))

    per_task = {}
    per_task_sd = {}
    for label in labels:
        values = [rep.per_task[label] for rep in reports]
        per_task[label] = float(np.mean(values))
        per_task_sd[label] = spread(values)
    totals = [rep.total for rep in reports]
    return MaeReport(
        per_task=per_task,
        total=float(np.mean(totals)),
        counts=dict(reports[0].counts),
        total_mode=mode,
        per_task_sd=per_task_sd,
        total_sd=spread(totals),
    )


def write_mae_table(reports: dict[str, MaeReport], test: MultiTaskDataset, path) -> None:
    """CSV table: one row per task plus TOTAL, one MAE column per model.

    Each row carries the task's test-set size and the mean and standard
    deviation of its raw outcome, then the per-model MAE values. Models
    whose reports carry spreads get an extra ``<name>_sd`` column.
    """
    if not reports:
        raise ValueError("need at least one report to tabulate")
    test_labels = list(test.task_labels)
    for name, rep in reports.items():
        if set(rep.per_task) != set(test_labels):
            raise ValueError(f"report {name!r} does not cover the test tasks")

    names = list(reports)
    header = ["task", "n", "outcome_mean", "outcome_sd"]
    for name in names:
        header.append(name)
        if reports[name].per_task_sd is not None:
            header.append(f"{name}_sd")

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for task in test.tasks:
            row = [
                task.label,
                task.n,
                repr(float(task.Y.mean())),
                repr(float(task.Y.std())),
            ]
            for name in names:
                rep = reports[name]
                row.append(repr(rep.per_task[task.label]))
                if rep.per_task_sd is not None:
                    row.append(repr(rep.per_task_sd[task.label]))
            writer.writerow(row)
        pooled = np.concatenate([t.Y for t in test.tasks])
        total_row = [
            "TOTAL",
            int(pooled.size),
            repr(float(pooled.mean())),
            repr(float(pooled.std())),
        ]
        for name in names:
            rep = reports[name]
            total_row.append(repr(rep.total))
            if rep.per_task_sd is not None:
                total_row.append(repr(rep.total_sd if rep.total_sd is not None else 0.0))
        writer.writerow(total_row)
