"""Group-sparse multi-task least squares.

One weight matrix covers all tasks, one row per task. A column collects a
single feature's coefficients across tasks; the penalty sums the euclidean
norms of these columns, so whole columns go to zero together and features
are selected for all tasks or none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .dataset import (
    ScalingParams,
    TaskFactors,
    _value_eq,
    check_model_axes,
    residual_gradient,
    residuals,
)
from .fista import ProximalProblem, SolverConfig, SolveTrace, solve

if TYPE_CHECKING:
    from .cmtl import CmtlParams, RelaxedClusterMatrix

_MODEL_TYPES = ("mtl", "stl", "cmtl")
_STL_SETTINGS = ("global", "individual")
_STL_PENALTIES = ("none", "ridge", "lasso")
_CLUSTER_FIELDS = ("cluster_matrix", "params", "assignments", "kmeans_seed")


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
        w = np.array(self.weights, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {w.shape}")
        t, j = w.shape
        if len(self.task_labels) != t or len(self.feature_names) != j:
            raise ValueError(
                f"weights shape {w.shape} inconsistent with {len(self.task_labels)} "
                f"labels / {len(self.feature_names)} feature names"
            )
        check_model_axes(self.task_labels, self.feature_names, self.scaling)
        if self.model_type not in _MODEL_TYPES:
            raise ValueError(f"unknown model_type {self.model_type!r}")
        clustered = self.model_type == "cmtl"
        expected = _CLUSTER_FIELDS if clustered else ("lam",)
        given = tuple(f for f in ("lam", *_CLUSTER_FIELDS) if getattr(self, f) is not None)
        if sorted(given) != sorted(expected):
            raise ValueError(
                f"a model of type {self.model_type!r} sets {', '.join(expected)}, "
                f"got {', '.join(given) or 'none'}"
            )
        if clustered:
            if self.cluster_matrix.n_tasks != t:
                raise ValueError("cluster matrix size does not match task count")
            assignments = tuple(int(a) for a in self.assignments)
            if len(assignments) != t:
                raise ValueError(f"need {t} assignments, got {len(assignments)}")
            used = sorted(set(assignments))
            if used != list(range(len(used))):
                raise ValueError(
                    f"cluster ids must be 0..{len(used) - 1} contiguous, got {used}"
                )
            object.__setattr__(self, "assignments", assignments)
        elif self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if self.model_type == "stl":
            for name, choices in (("stl_setting", _STL_SETTINGS), ("stl_penalty", _STL_PENALTIES)):
                value = getattr(self, name)
                if value not in choices:
                    raise ValueError(f"{name} must be one of {choices}, got {value!r}")
        elif (self.stl_setting, self.stl_penalty) != (None, None):
            raise ValueError(
                f"a model of type {self.model_type!r} sets no stl_setting or stl_penalty"
            )
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        intercept = self.intercept
        intercept = np.zeros(t) if intercept is None else np.array(intercept, dtype=np.float64)
        if intercept.shape != (t,):
            raise ValueError(f"intercept must have shape ({t},), got {intercept.shape}")
        intercept.setflags(write=False)
        object.__setattr__(self, "intercept", intercept)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "task_labels", tuple(self.task_labels))

    @property
    def n_tasks(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]


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
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    n_tasks, n_features = factors.n_tasks, factors.n_features
    stack = factors.design_stack(intercept=fit_intercept)
    objective = LeastSquares(
        stack, n_features, lambda w: lam * l21_norm(w), lambda h, step: prox_l21(h, lam * step)
    )
    w_hat, trace = solve(objective.problem(), np.zeros((n_tasks, stack.shape[2] - 1)), cfg)

    intercept = w_hat[:, n_features] if fit_intercept else None
    return MtlModel(
        weights=w_hat[:, :n_features],
        lam=lam,
        feature_names=factors.feature_names,
        task_labels=factors.task_labels,
        intercept=intercept,
        scaling=scaling,
        trace=trace,
    )
