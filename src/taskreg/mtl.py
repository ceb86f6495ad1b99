"""Group-sparse multi-task least squares.

One weight matrix covers all tasks, one row per task. A column collects a
single feature's coefficients across tasks; the penalty sums the euclidean
norms of these columns, so whole columns go to zero together and features
are selected for all tasks or none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import MultiTaskDataset, ScalingParams, TaskFactors, as_factors, check_model_axes
from .fista import ProximalProblem, SolverConfig, SolveTrace, solve


def _check_weights(weights: np.ndarray, ds: MultiTaskDataset) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    expected = (ds.n_tasks, ds.n_features)
    if weights.shape != expected:
        raise ValueError(f"weights shape {weights.shape} does not match dataset {expected}")
    return weights


def loss(weights: np.ndarray, ds: MultiTaskDataset) -> float:
    """Half the summed squared residual over all tasks."""
    weights = _check_weights(weights, ds)
    total = 0.0
    for t, task in enumerate(ds.tasks):
        r = task.X @ weights[t] - task.Y
        total += 0.5 * float(r @ r)
    return total


def grad_loss(weights: np.ndarray, ds: MultiTaskDataset) -> np.ndarray:
    """Gradient of :func:`loss`; row t is X_t^T (X_t w_t - y_t)."""
    weights = _check_weights(weights, ds)
    g = np.empty_like(weights)
    for t, task in enumerate(ds.tasks):
        r = task.X @ weights[t] - task.Y
        g[t] = task.X.T @ r
    return g


def l21_norm(weights: np.ndarray) -> float:
    """Sum over features of the column norm across tasks."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"expected a 2-D weight matrix, got shape {weights.shape}")
    return float(np.linalg.norm(weights, axis=0).sum())


def objective(weights: np.ndarray, ds: MultiTaskDataset, lam: float) -> float:
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    return loss(weights, ds) + lam * l21_norm(weights)


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


def lambda_max(ds: MultiTaskDataset) -> float:
    """Smallest penalty at which the fitted weights are identically zero.

    Equals the largest column norm of the loss gradient at zero, i.e. of
    the task-stacked X_t^T y_t matrix.
    """
    g0 = np.vstack([task.X.T @ task.Y for task in ds.tasks])
    return float(np.linalg.norm(g0, axis=0).max())


@dataclass(frozen=True)
class MtlModel:
    """Fitted multi-task linear model (also used for the STL baselines)."""

    weights: np.ndarray
    lam: float
    feature_names: tuple[str, ...]
    task_labels: tuple[str, ...]
    intercept: np.ndarray | None = None
    scaling: ScalingParams | None = None
    trace: SolveTrace | tuple[SolveTrace, ...] | None = None
    model_type: str = "mtl"
    stl_setting: str | None = None
    stl_penalty: str | None = None

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
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
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

    def with_scaling(self, scaling: ScalingParams | None) -> "MtlModel":
        return replace(self, scaling=scaling)


def fit_mtl(
    ds: MultiTaskDataset | TaskFactors,
    lam: float,
    cfg: SolverConfig | None = None,
    *,
    fit_intercept: bool = False,
    scaling: ScalingParams | None = None,
) -> MtlModel:
    """Fit the group-sparse multi-task model by accelerated proximal descent.

    Starts from zero weights; each proximal step shrinks feature columns
    with threshold lam/gamma. With ``fit_intercept`` a ones column is
    appended per task and kept out of both the penalty and the prox.

    The data term runs on each task's R factor (:class:`TaskFactors`), so
    an iteration's cost does not depend on the row count; rows are
    reduced to factors first. ``ds`` is already in the units of the fit:
    ``scaling`` is only recorded in the model.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    factors = as_factors(ds)
    n_tasks, n_features = factors.n_tasks, factors.n_features
    # ||X_t w - y_t|| = ||A_t w - b_t|| for the factor R_t = [A_t | b_t].
    design = factors.design(intercept=fit_intercept)
    xs = [r[:, :-1] for r in design]
    ys = [r[:, -1] for r in design]
    width = n_features + (1 if fit_intercept else 0)

    def smooth_value(w):
        total = 0.0
        for x, y, row in zip(xs, ys, w):
            r = x @ row - y
            total += 0.5 * float(r @ r)
        return total

    def smooth_grad(w):
        g = np.empty_like(w)
        for t in range(n_tasks):
            r = xs[t] @ w[t] - ys[t]
            g[t] = xs[t].T @ r
        return g

    def prox(h, step):
        if not fit_intercept:
            return prox_l21(h, lam * step)
        out = h.copy()
        out[:, :n_features] = prox_l21(h[:, :n_features], lam * step)
        return out

    def full_objective(w):
        return smooth_value(w) + lam * l21_norm(w[:, :n_features])

    problem = ProximalProblem(
        smooth_value=smooth_value,
        smooth_grad=smooth_grad,
        prox=prox,
        full_objective=full_objective,
    )
    w_hat, trace = solve(problem, np.zeros((n_tasks, width)), cfg)

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


def predict(model, X: np.ndarray, task_index: int) -> np.ndarray:
    """Linear prediction for one task: X @ w_t + intercept_t.

    X must already be in the model's training feature space (scaled the
    same way the training data was).
    """
    weights = np.asarray(model.weights)
    n_tasks, n_features = weights.shape
    if not 0 <= task_index < n_tasks:
        raise IndexError(f"task_index {task_index} out of range for {n_tasks} tasks")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError(f"X must have shape (n, {n_features}), got {X.shape}")
    out = X @ weights[task_index]
    intercept = getattr(model, "intercept", None)
    if intercept is not None:
        out = out + intercept[task_index]
    return out
