"""Group-sparse multi-task least squares.

One weight matrix covers all tasks, one row per task. A column collects a
single feature's coefficients across tasks; the penalty sums the euclidean
norms of these columns, so whole columns go to zero together and features
are selected for all tasks or none.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from . import _MODEL_TYPES, _STL_PENALTIES, _STL_SETTINGS
from .dataset import (
    ScalingParams, TaskFactors, _integer, _list, _nonnegative, _numbers, _optional_string, _seed,
    _strings, _value_eq, residual_gradient, residuals,
)
from .fista import ProximalProblem, SolverConfig, SolveTrace, solve

if TYPE_CHECKING:
    from .cmtl import CmtlParams, RelaxedClusterMatrix

_CLUSTER_FIELDS = ("cluster_matrix", "params", "assignments", "kmeans_seed")


@dataclass(frozen=True)
class StlSpec:
    """What kind of single-task baseline to fit; an stl :class:`MtlModel` is checked as one.

    Penalty "none" requires lam = 0. Messages name each field by its model-file key.
    """

    setting: str
    penalty: str
    lam: float = 0.0

    def __post_init__(self):
        if self.setting not in _STL_SETTINGS:
            raise ValueError(f"stl_setting must be one of {_STL_SETTINGS}, got {self.setting!r}")
        if self.penalty not in _STL_PENALTIES:
            raise ValueError(f"stl_penalty must be one of {_STL_PENALTIES}, got {self.penalty!r}")
        object.__setattr__(self, "lam", _nonnegative(self.lam, "lam"))
        if self.penalty == "none" and self.lam != 0:
            raise ValueError("penalty 'none' requires lam = 0")


def l21_norm(weights: np.ndarray) -> float:
    """Sum over features of the column norm across tasks."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"expected a 2-D weight matrix, got shape {weights.shape}")
    return float(np.linalg.norm(weights, axis=0).sum())


def prox_l21(h: np.ndarray, threshold: float) -> np.ndarray:
    """Shrink each column of h toward zero by ``threshold`` in norm.

    Column j becomes max(0, 1 - threshold/||h_j||) * h_j; columns with
    norm at most the threshold vanish. threshold = 0 returns h unchanged.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {h.shape}")
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if threshold == 0:
        return h.copy()
    norms = np.linalg.norm(h, axis=0)
    scale = np.zeros_like(norms)
    nz = norms > threshold
    scale[nz] = 1.0 - threshold / norms[nz]
    return h * scale


def lambda_max(factors: TaskFactors) -> float:
    """Smallest penalty at which the fitted weights (without intercept) are identically zero.

    Equals the largest column norm of the loss gradient at zero, the
    task-stacked -X_t^T y_t matrix, taken as :func:`fit_mtl` takes it:
    from the residuals on the design stack. So the first proximal step of
    a fit at this penalty zeroes every column exactly.
    """
    stack = factors.design_stack(intercept=False)
    g0 = residual_gradient(stack, residuals(stack, np.zeros((factors.n_tasks, factors.n_features))))
    return float(np.linalg.norm(g0, axis=0).max())


class LeastSquares:
    """The penalized least-squares objective of every mtl and stl fit, on a design stack.

    Half of each task's squared residual,
    ``np.einsum("...i,...i->...", r, r)``, plus ``penalty(w)``.
    ``penalty`` and its prox ``shrink(h, step)`` see only the first
    ``n_features`` weights of each row; a weight after them, the
    intercept, is neither penalized nor shrunk. With ``blocked`` each
    value and objective has one entry per task, a block of a blocked solve
    (the individual stl fits); without it the tasks' values are summed
    (mtl, and the pooled stl fit on one factor). :meth:`problem` gives
    :meth:`value`, :meth:`gradient`, :meth:`prox` and :meth:`objective`
    as a :class:`~taskreg.fista.ProximalProblem`.

    :meth:`residuals` and :meth:`gradient` are
    :func:`~taskreg.dataset.residuals` and
    :func:`~taskreg.dataset.residual_gradient` on the stack. The residual
    at the last point is kept with that point's shape and bytes, so a call
    at an equal point reuses it: a gradient at the point a value was just
    taken at, or an objective at the trial a step came from. Points are
    compared by value, so an array changed in place is a new point.

    ``rows``, when given, is an index array of the tasks a blocked solve
    still runs (see :func:`taskreg.fista.solve`), and w has one row per
    such task. The stack's rows for it are gathered once and kept while
    the same array object is passed, so it must not change in place.
    """

    def __init__(self, stack: np.ndarray, n_features: int, penalty, shrink, *, blocked=False):
        self._stack = self._design = stack
        self._n_features, self._penalty, self._shrink = n_features, penalty, shrink
        self._blocked = blocked
        self._rows = self._point = self._resid = None

    def residuals(self, w: np.ndarray, rows=None) -> np.ndarray:
        if rows is not self._rows:
            self._design = None  # the last rows' copy goes before the next is gathered
            self._design = self._stack if rows is None else self._stack[rows]
            self._rows, self._point = rows, None
        point = (w.shape, w.tobytes())
        if point != self._point:
            self._resid = residuals(self._design, w)
            self._point = point
        return self._resid

    def value(self, w: np.ndarray, rows=None):
        r = self.residuals(w, rows)
        per_task = 0.5 * np.einsum("...i,...i->...", r, r)
        return per_task if self._blocked else per_task.sum()

    def gradient(self, w: np.ndarray, rows=None) -> np.ndarray:
        return residual_gradient(self._design, self.residuals(w, rows))

    def prox(self, h: np.ndarray, step, rows=None) -> np.ndarray:
        out = h.copy()
        out[..., : self._n_features] = self._shrink(h[..., : self._n_features], step)
        return out

    def objective(self, w: np.ndarray, rows=None):
        return self.value(w, rows) + self._penalty(w[..., : self._n_features])

    def problem(self) -> ProximalProblem:
        return ProximalProblem(self.value, self.gradient, self.prox, self.objective)


@dataclass(frozen=True)
class MtlModel:
    """A fitted multi-task linear model, one weight row per task.

    Every fit returns this type: ``model_type`` is "mtl", "stl" (the
    single-task baselines) or "cmtl". ``lam`` is the penalty of an mtl
    or stl fit. ``stl_setting`` and ``stl_penalty`` describe an stl fit
    and are ``None`` for mtl and cmtl. The cluster fields
    ``cluster_matrix``, ``params``, ``assignments`` and ``kmeans_seed``
    are set for cmtl and ``None`` for mtl and stl; ``lam`` is ``None`` for
    cmtl. ``==`` compares values; ``trace``, the solver's diagnostics,
    which a loaded model does not have, is left out.

    Construction checks every field, as it does for a loaded model: the
    labels and names are distinct strings, one per weight row and column;
    the weights and intercept are finite numbers (not bools or strings);
    ``scaling`` covers the features; ``lam`` is finite and >= 0; the
    assignments are integers numbering the clusters 0, 1, ...; ``kmeans_seed``
    is an integer >= 0; an stl model's fields make a :class:`StlSpec`.
    """

    weights: np.ndarray
    feature_names: tuple[str, ...]
    task_labels: tuple[str, ...]
    lam: float | None = None
    intercept: np.ndarray | None = None
    scaling: ScalingParams | None = None
    trace: SolveTrace | tuple[SolveTrace, ...] | None = field(default=None, compare=False)
    model_type: str = "mtl"
    stl_setting: str | None = None
    stl_penalty: str | None = None
    cluster_matrix: RelaxedClusterMatrix | None = None
    params: CmtlParams | None = None
    assignments: tuple[int, ...] | None = None
    kmeans_seed: int | None = None

    __eq__ = _value_eq

    def __post_init__(self):
        self._settle([f.name for f in fields(self) if getattr(self, f.name) is not None])

    @classmethod
    def _from_file(cls, **values) -> "MtlModel":
        """A model file's model, checked as when built but with a null (None) counted as set."""
        out = object.__new__(cls)
        for f in fields(cls):
            object.__setattr__(out, f.name, values.get(f.name, f.default))
        out._settle(values.keys())
        return out

    def _settle(self, set_fields) -> None:
        """Check the fields, ``set_fields`` naming those that are set, then store them."""
        labels = _strings(self.task_labels, "task_labels")
        names = _strings(self.feature_names, "feature_names")
        w = _numbers(self.weights, "weights", 2)
        t, j = w.shape
        intercept = np.zeros(t) if self.intercept is None else self.intercept
        intercept = _numbers(intercept, "intercept", 1)
        if len(labels) != t or len(names) != j:
            raise ValueError(
                f"weights shape {w.shape} inconsistent with {len(labels)} "
                f"labels / {len(names)} feature names"
            )
        covered = j if self.scaling is None else self.scaling.n_features
        if covered != j:
            raise ValueError(f"scaling covers {covered} features, the model has {j}")
        if self.model_type not in _MODEL_TYPES:
            raise ValueError(f"unknown model_type {self.model_type!r}")
        clustered = self.model_type == "cmtl"
        expected = _CLUSTER_FIELDS if clustered else ("lam",)
        given = tuple(f for f in ("lam", *_CLUSTER_FIELDS) if f in set_fields)
        if sorted(given) != sorted(expected):
            raise ValueError(
                f"a model of type {self.model_type!r} sets {', '.join(expected)}, "
                f"got {', '.join(given) or 'none'}"
            )
        if clustered:
            if self.cluster_matrix.n_tasks != t:
                raise ValueError("cluster matrix size does not match task count")
            assignments = _list(self.assignments, "assignments", "integers")
            assignments = tuple(_integer(a, "assignments") for a in assignments)
            if len(assignments) != t:
                raise ValueError(f"need {t} assignments, got {len(assignments)}")
            used = sorted(set(assignments))
            if used != list(range(len(used))):
                raise ValueError(
                    f"cluster ids must be 0..{len(used) - 1} contiguous, got {used}"
                )
            object.__setattr__(self, "assignments", assignments)
            object.__setattr__(self, "kmeans_seed", _seed(self.kmeans_seed, "kmeans_seed"))
        else:
            object.__setattr__(self, "lam", _nonnegative(self.lam, "lam"))
        stl = [_optional_string(getattr(self, f), f) for f in ("stl_setting", "stl_penalty")]
        if self.model_type == "stl":
            StlSpec(*stl, self.lam)
        elif stl != [None, None]:
            raise ValueError(
                f"a model of type {self.model_type!r} sets no stl_setting or stl_penalty"
            )
        if intercept.shape != (t,):
            raise ValueError(f"intercept must have shape ({t},), got {intercept.shape}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "intercept", intercept)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "task_labels", labels)

    @property
    def n_tasks(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]


def _fitted(factors: TaskFactors, solution: np.ndarray, trace, scaling, **fields) -> MtlModel:
    """The model of a fit on ``factors`` whose solver returned ``solution`` and ``trace``.

    ``solution`` has a row per task, or one row that all tasks share (the
    pooled stl fit): its first ``n_features`` columns are the weights, and
    a column after them is the intercept. ``fields`` are the model type's own.
    """
    n_features = factors.n_features
    rows = np.broadcast_to(solution, (factors.n_tasks, solution.shape[-1]))
    return MtlModel(
        weights=rows[:, :n_features],
        intercept=rows[:, n_features] if rows.shape[1] > n_features else None,
        feature_names=factors.feature_names,
        task_labels=factors.task_labels,
        scaling=scaling,
        trace=trace,
        **fields,
    )


def fit_mtl(
    factors: TaskFactors,
    lam: float,
    cfg: SolverConfig | None = None,
    *,
    fit_intercept: bool = False,
    scaling: ScalingParams | None = None,
) -> MtlModel:
    """Fit the group-sparse multi-task model by accelerated proximal descent.

    The objective is :class:`LeastSquares`, summed over the tasks, with
    the penalty ``lam * l21_norm`` and its prox :func:`prox_l21`; at
    lam = 0 it is the sum of the individual stl fits' objectives, bit for
    bit. Starts from zero weights; each proximal step shrinks feature
    columns with threshold lam/gamma. With ``fit_intercept`` a ones column
    is appended per task and kept out of both the penalty and the prox.

    The data term runs on each task's R factor (:class:`TaskFactors`), so
    an iteration's cost does not depend on the row count. ``factors`` are
    already in the units of the fit: ``scaling`` is only recorded in the
    model.
    """
    lam = _nonnegative(lam, "lam")
    stack = factors.design_stack(intercept=fit_intercept)
    objective = LeastSquares(
        stack, factors.n_features, lambda w: lam * l21_norm(w),
        lambda h, step: prox_l21(h, lam * step),
    )
    w_hat, trace = solve(objective.problem(), np.zeros((factors.n_tasks, stack.shape[2] - 1)), cfg)
    return _fitted(factors, w_hat, trace, scaling, lam=lam)
