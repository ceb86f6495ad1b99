"""Independent reference implementations used to check the package.

Nothing here calls into the package's solvers. Each oracle is a slower,
structurally different algorithm for the same quantity, so agreement is
evidence rather than tautology:

- ``prox_l21_projected_subgradient``: projected (sub)gradient descent
  on the epigraph form of the proximal objective, using second-order
  cone projections per feature column.
- ``central_difference_grad``: two-sided finite differences.
- ``ols_normal_equations``: closed-form least squares.
- ``capped_simplex_grid``: coarse-to-fine scan over the shift variable.
- ``dykstra_spectral_project``: Dykstra's alternating projections onto
  the trace hyperplane and the eigenvalue box, run entirely in matrix
  space.
- ``cluster_indicator``: the normalized indicator matrix of a hard
  clustering, whose O O^T ties the relaxed matrix C back to the groups.
- ``write_csv_rows``: the CSV writer one ``csv.writer`` row at a time,
  every cell formatted on its own.
- ``loss``, ``grad_loss`` and ``objective``: the mtl objective on the raw
  rows, one task at a time; the fits run on batched QR factors instead.
- ``cmtl_loss``, ``cmtl_regularizer``, ``cmtl_objective``, ``grad_phi``
  and ``grad_c_step``: the cmtl objective and its gradient blocks on the
  raw rows, with (eta*I + C)^{-1} from an eigendecomposition.
- ``cmtl_metric_back``: each task's L_t^{-T} of the preconditioned cmtl
  fit, from a Cholesky factor of the Hessian built on the raw rows, one
  task at a time; the package builds it from the batched QR factors.
- ``surrogate_q``: the quadratic surrogate of the descent test, from two
  fresh callback evaluations at the search point.
- ``MultiTaskDataset`` (of ``TaskData``): each task's rows as their own
  copy. ``minmax_scale``, ``stratified_split`` (with numpy's own
  ``default_rng``) and ``write_csv_rows`` scale, split and write it task
  by task, where the package works on one table through index arrays;
  ``invert_features`` undoes the scaling.
  ``stream_dataset`` feeds it to a sink one task per chunk, which gives
  ``factors`` and ``evaluate``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from taskreg.baselines import MaeAccumulator
from taskreg.dataset import (
    RowTable,
    ScalingParams,
    _FactorSink,
    _frozen_array,
    _TableSink,
    _value_eq,
)


def _soc_project(p: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project each column (p[:, j], r[j]) onto {(z, t) : ||z|| <= t}."""
    norms = np.linalg.norm(p, axis=0)
    out_p = p.copy()
    out_r = r.copy()
    inside = norms <= r
    polar = ~inside & (norms <= -r)
    out_p[:, polar] = 0.0
    out_r[polar] = 0.0
    boundary = ~inside & ~polar
    if boundary.any():
        alpha = 0.5 * (norms[boundary] + r[boundary])
        out_p[:, boundary] *= alpha / norms[boundary]
        out_r[boundary] = alpha
    return out_p, out_r


def prox_l21_projected_subgradient(
    h: np.ndarray, threshold: float, iters: int = 2000, step: float = 0.5
) -> np.ndarray:
    """Minimize 0.5*||P - H||_F^2 + threshold * sum_j ||P[:, j]|| directly.

    Works on the epigraph form min 0.5*||P - H||^2 + threshold * sum r_j
    subject to ||P[:, j]|| <= r_j, by projected (sub)gradient descent
    with per-column second-order cone projections. The lifted objective
    is smooth, so a constant step converges geometrically; columns whose
    optimum sits at the cone vertex are mapped there exactly by the
    projection.
    """
    h = np.asarray(h, dtype=np.float64)
    p = h.copy()
    r = np.linalg.norm(h, axis=0)
    grad_r = np.full(h.shape[1], float(threshold))
    for _ in range(iters):
        p, r = _soc_project(p - step * (p - h), r - step * grad_r)
    return p


def central_difference_grad(func, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Two-sided finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    base = x.copy()
    for i in range(base.size):
        orig = base.ravel()[i]
        base.ravel()[i] = orig + h
        up = func(base)
        base.ravel()[i] = orig - h
        down = func(base)
        base.ravel()[i] = orig
        flat[i] = (up - down) / (2.0 * h)
    return grad


def ols_normal_equations(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients via the normal equations."""
    return np.linalg.solve(x.T @ x, x.T @ y)


def capped_simplex_grid(sigma_hat: np.ndarray, k: int, resolution: float = 1e-6) -> np.ndarray:
    """Brute-force the shift for the capped-simplex projection.

    Scans theta on a uniform grid, refines around the best point until
    the grid step drops below ``resolution``, and returns the clipped
    vector at the best theta found.
    """
    sigma_hat = np.asarray(sigma_hat, dtype=np.float64).ravel()
    t = sigma_hat.size
    if k == t:
        return np.ones(t)
    lo = float(sigma_hat.min()) - 1.0
    hi = float(sigma_hat.max())
    points = 20001
    while True:
        grid = np.linspace(lo, hi, points)
        sums = np.clip(sigma_hat[None, :] - grid[:, None], 0.0, 1.0).sum(axis=1)
        best = int(np.abs(sums - k).argmin())
        step = (hi - lo) / (points - 1)
        if step <= resolution:
            theta = grid[best]
            break
        lo = grid[max(best - 1, 0)]
        hi = grid[min(best + 1, points - 1)]
    return np.clip(sigma_hat - theta, 0.0, 1.0)


def _project_trace(a: np.ndarray, k: int) -> np.ndarray:
    t = a.shape[0]
    return a - ((np.trace(a) - k) / t) * np.eye(t)


def _project_box(a: np.ndarray) -> np.ndarray:
    sym = 0.5 * (a + a.T)
    vals, vecs = np.linalg.eigh(sym)
    return (vecs * np.clip(vals, 0.0, 1.0)) @ vecs.T


def dykstra_spectral_project(a: np.ndarray, k: int, iters: int = 2000) -> np.ndarray:
    """Project onto {tr = k} intersect {0 <= eigenvalues <= 1} by Dykstra.

    Alternates the two individual projections with Dykstra's correction
    increments, which converges to the projection onto the intersection
    (plain alternation would not).
    """
    x = 0.5 * (np.asarray(a, dtype=np.float64) + np.asarray(a, dtype=np.float64).T)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(iters):
        y = _project_box(x + p)
        p_new = x + p - y
        x_new = _project_trace(y + q, k)
        q_new = y + q - x_new
        # x alone can be momentarily stationary while the corrections are
        # still in flight, so the stop test must cover all three.
        moved = max(
            np.abs(x_new - x).max(),
            np.abs(p_new - p).max(),
            np.abs(q_new - q).max(),
        )
        x, p, q = x_new, p_new, q_new
        if moved < 1e-13:
            break
    return x


def cluster_indicator(assignments) -> np.ndarray:
    """Normalized indicator O with O[t, g] = 1/sqrt(n_g) for t in group g.

    Columns are orthonormal; O O^T averages within groups, which is what
    ties the relaxed matrix C back to a hard clustering.
    """
    assignments = [int(a) for a in assignments]
    if not assignments:
        raise ValueError("empty assignment list")
    groups = sorted(set(assignments))
    if groups != list(range(len(groups))):
        raise ValueError(f"cluster ids must be 0..{len(groups) - 1} contiguous, got {groups}")
    out = np.zeros((len(assignments), len(groups)))
    counts = np.bincount(assignments)
    for i, g in enumerate(assignments):
        out[i, g] = 1.0 / math.sqrt(counts[g])
    return out


def write_csv_rows(ds, path, task_column: str, outcome_column: str) -> None:
    """Write a dataset as CSV one ``csv.writer`` row at a time, each cell by ``repr``.

    Rows are written under a "\\r\\n" terminator, so that a field holding a
    CR is quoted, and each line then ends in "\\n" instead.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:

        def writerow(cells):
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\r\n").writerow(cells)
            fh.write(buf.getvalue().removesuffix("\r\n") + "\n")

        writerow([task_column, *ds.feature_names, outcome_column])
        for t in ds.tasks:
            for i in range(t.n):
                writerow([t.label, *(repr(v) for v in t.X[i].tolist()), repr(float(t.Y[i]))])


def _check_weights(weights: np.ndarray, ds) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    expected = (ds.n_tasks, ds.n_features)
    if weights.shape != expected:
        raise ValueError(f"weights shape {weights.shape} does not match dataset {expected}")
    return weights


def loss(weights: np.ndarray, ds) -> float:
    """Half the summed squared residual over all tasks."""
    weights = _check_weights(weights, ds)
    total = 0.0
    for t, task in enumerate(ds.tasks):
        r = task.X @ weights[t] - task.Y
        total += 0.5 * float(r @ r)
    return total


def grad_loss(weights: np.ndarray, ds) -> np.ndarray:
    """Gradient of :func:`loss`; row t is X_t^T (X_t w_t - y_t)."""
    weights = _check_weights(weights, ds)
    g = np.empty_like(weights)
    for t, task in enumerate(ds.tasks):
        r = task.X @ weights[t] - task.Y
        g[t] = task.X.T @ r
    return g


def objective(weights: np.ndarray, ds, lam: float) -> float:
    """:func:`loss` plus lam times the sum of the weight-column norms."""
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    return loss(weights, ds) + lam * float(np.linalg.norm(weights, axis=0).sum())


def _coupling_solve(c: np.ndarray, eta: float, rhs: np.ndarray) -> np.ndarray:
    """(eta*I + C)^{-1} @ rhs via the symmetric eigendecomposition."""
    vals, vecs = np.linalg.eigh(0.5 * (c + c.T))
    vals = vals + eta
    if vals.min() <= 0:
        raise ValueError(
            f"eta*I + C is not positive definite (min eigenvalue {vals.min():.3g})"
        )
    return vecs @ ((vecs.T @ rhs) / vals[:, None])


def cmtl_loss(weights: np.ndarray, ds) -> float:
    """Sum over tasks of the per-task mean squared residual (no half)."""
    weights = _check_weights(weights, ds)
    total = 0.0
    for t, task in enumerate(ds.tasks):
        r = task.X @ weights[t] - task.Y
        total += float(r @ r) / task.n
    return total


def cmtl_regularizer(weights: np.ndarray, c, params) -> float:
    """rho1*eta*(1+eta) * tr(W^T (eta*I + C)^{-1} W), inverse on tasks."""
    weights = np.asarray(weights, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (weights.shape[0], weights.shape[0]):
        raise ValueError(
            f"C has shape {c.shape}, expected ({weights.shape[0]}, {weights.shape[0]})"
        )
    if params.coupling == 0:
        return 0.0
    solved = _coupling_solve(c, params.eta, weights)
    return params.coupling * float(np.vdot(weights, solved))


def cmtl_objective(weights: np.ndarray, c, ds, params) -> float:
    return cmtl_loss(weights, ds) + cmtl_regularizer(weights, c, params)


def grad_phi(weights: np.ndarray, c, ds, params) -> np.ndarray:
    """Gradient of cmtl_loss + cmtl_regularizer in the weights."""
    weights = np.asarray(weights, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    g = np.empty_like(weights)
    for t, task in enumerate(ds.tasks):
        r = task.X @ weights[t] - task.Y
        g[t] = (2.0 / task.n) * (task.X.T @ r)
    if params.coupling != 0:
        g += 2.0 * params.coupling * _coupling_solve(c, params.eta, weights)
    return g


def _regularizer_grad_c(weights: np.ndarray, c: np.ndarray, params) -> np.ndarray:
    """Gradient of the regularizer in C: -coupling * Minv W W^T Minv."""
    solved = _coupling_solve(c, params.eta, weights)
    grad = -params.coupling * (solved @ solved.T)
    return 0.5 * (grad + grad.T)


def grad_c_step(phi_s: np.ndarray, c_s: np.ndarray, params, gamma: float) -> np.ndarray:
    """The pre-projection gradient step in C from the search point.

    Returns C_S + (rho1*eta*(1+eta)/gamma) * Minv Phi_S Phi_S^T Minv with
    Minv = (eta*I + C_S)^{-1}, symmetrized. This is the dimensionally
    consistent derivative of the trace regularizer; its sign and scale are
    pinned by finite-difference tests.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    phi_s = np.asarray(phi_s, dtype=np.float64)
    c_s = np.asarray(c_s, dtype=np.float64)
    if c_s.ndim != 2 or c_s.shape[0] != c_s.shape[1]:
        raise ValueError(f"C_S must be square, got shape {c_s.shape}")
    asym = float(np.abs(c_s - c_s.T).max())
    if asym > 1e-8:
        raise ValueError(f"C_S asymmetric by {asym:.3g}")
    if params.coupling == 0 or not phi_s.any():
        return c_s.copy()
    step = c_s - (1.0 / gamma) * _regularizer_grad_c(phi_s, c_s, params)
    return 0.5 * (step + step.T)


def cmtl_metric_back(ds, params) -> np.ndarray:
    """Each task's L_t^{-T}, stacked, for L_t L_t^T = (2/n_t) X_t^T X_t + delta*I.

    delta = 2*coupling/(1+eta). The package floors delta at 1e-12 times
    the trace of the task's Hessian; the tests use this oracle where that
    floor lies below delta.
    """
    delta = 2.0 * params.coupling / (1.0 + params.eta)
    backs = []
    for task in ds.tasks:
        eye = np.eye(task.X.shape[1])
        low = np.linalg.cholesky((2.0 / task.n) * (task.X.T @ task.X) + delta * eye)
        backs.append(np.linalg.solve(low.T, eye))
    return np.array(backs)


def surrogate_q(problem, s: np.ndarray, phi: np.ndarray, gamma: float) -> float:
    """Quadratic surrogate of the smooth part around the search point s.

    Returns L(s) + (gamma/2)*||phi - s||_F^2 + <phi - s, grad L(s)>.
    """
    if s.shape != phi.shape:
        raise ValueError(f"shape mismatch: S is {s.shape}, Phi is {phi.shape}")
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    delta = phi - s
    value = problem.smooth_value(s)
    return float(
        value + 0.5 * gamma * np.vdot(delta, delta) + np.vdot(delta, problem.smooth_grad(s))
    )


@dataclass(frozen=True)
class TaskData:
    """One task's design matrix and outcome vector."""

    label: str
    X: np.ndarray
    Y: np.ndarray

    __eq__ = _value_eq

    def __post_init__(self):
        x = _frozen_array(self.X)
        y = _frozen_array(self.Y)
        if x.ndim != 2:
            raise ValueError(f"task {self.label!r}: X must be 2-D, got shape {x.shape}")
        if y.ndim != 1:
            raise ValueError(f"task {self.label!r}: Y must be 1-D, got shape {y.shape}")
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"task {self.label!r}: X has {x.shape[0]} rows but Y has {y.shape[0]}"
            )
        if x.shape[0] < 1:
            raise ValueError(f"task {self.label!r} has no rows")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError(f"task {self.label!r} contains non-finite values")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class MultiTaskDataset:
    """An ordered collection of tasks sharing one feature space.

    ``dropped_rows`` counts rows discarded at load time for a missing
    outcome; it is informational and not part of the value semantics.
    """

    tasks: tuple[TaskData, ...]
    feature_names: tuple[str, ...]
    dropped_rows: int = field(default=0, compare=False)

    __eq__ = _value_eq

    def __post_init__(self):
        tasks = tuple(self.tasks)
        names = tuple(self.feature_names)
        if not tasks:
            raise ValueError("dataset needs at least one task")
        if not names:
            raise ValueError("dataset needs at least one feature")
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")
        for task in tasks:
            if task.X.shape[1] != len(names):
                raise ValueError(
                    f"task {task.label!r} has {task.X.shape[1]} features, expected {len(names)}"
                )
        labels = [t.label for t in tasks]
        if len(set(labels)) != len(labels):
            raise ValueError("task labels must be unique")
        object.__setattr__(self, "tasks", tasks)
        object.__setattr__(self, "feature_names", names)

    @classmethod
    def from_table(cls, table: RowTable) -> "MultiTaskDataset":
        """The rows of a :class:`~taskreg.dataset.RowTable`, one copy per task."""
        tasks = tuple(
            TaskData(label=label, X=table.table[rows, :-1], Y=table.table[rows, -1])
            for label, rows in zip(table.task_labels, table.task_rows)
        )
        return cls(tasks=tasks, feature_names=table.feature_names, dropped_rows=table.dropped_rows)

    @property
    def task_labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.tasks)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def n_rows(self) -> int:
        return sum(t.n for t in self.tasks)


def stream_dataset(ds: MultiTaskDataset, sink_for):
    """Feed a dataset to a sink as ``stream_csv`` feeds a file, one task per chunk."""
    sink = sink_for(ds.feature_names)
    for code, task in enumerate(ds.tasks):
        sink.add(ds.task_labels, np.full(task.n, code), task.X, task.Y)
    return sink.finish(ds.task_labels, ds.dropped_rows)


def factors(ds: MultiTaskDataset):
    """The dataset's :class:`~taskreg.dataset.TaskFactors`, as ``load_factors`` builds them."""
    return stream_dataset(ds, _FactorSink)


def row_table(ds: MultiTaskDataset) -> RowTable:
    """The dataset's rows as one writable :class:`~taskreg.dataset.RowTable`, task after task."""
    return stream_dataset(ds, _TableSink)


def evaluate(model, ds: MultiTaskDataset, total_mode: str = "pooled"):
    """One model's per-task and total MAE on a dataset's raw rows, as ``evaluate`` scores a file."""
    return stream_dataset(ds, lambda names: MaeAccumulator([model], names)).report(0, total_mode)


def minmax_scale(
    ds: MultiTaskDataset, *, scale_outcome: bool = False
) -> tuple[MultiTaskDataset, ScalingParams]:
    """Each feature column mapped to [0, 1] over the rows stacked task by task, and the params."""
    stacked = np.vstack([t.X for t in ds.tasks])
    outcome_lo = outcome_hi = None
    if scale_outcome:
        all_y = np.concatenate([t.Y for t in ds.tasks])
        outcome_lo, outcome_hi = float(all_y.min()), float(all_y.max())
    params = ScalingParams(
        feature_min=stacked.min(axis=0),
        feature_max=stacked.max(axis=0),
        outcome_min=outcome_lo,
        outcome_max=outcome_hi,
    )
    tasks = tuple(
        TaskData(
            label=t.label,
            X=params.transform_features(t.X),
            Y=params.transform_outcome(t.Y) if scale_outcome else t.Y,
        )
        for t in ds.tasks
    )
    scaled = MultiTaskDataset(
        tasks=tasks, feature_names=ds.feature_names, dropped_rows=ds.dropped_rows
    )
    return scaled, params


def invert_features(params: ScalingParams, x: np.ndarray) -> np.ndarray:
    """Raw features from scaled ones; a constant column maps back to its min."""
    span = params.feature_max - params.feature_min
    return np.asarray(x, dtype=np.float64) * span + params.feature_min


def stratified_split(
    ds: MultiTaskDataset, train_fraction: float, seed: int
) -> tuple[MultiTaskDataset, MultiTaskDataset]:
    """Train and test sides: each task shuffled by ``default_rng([seed, t]).permutation``.

    The first round(train_fraction * n_t) shuffled rows (half up, clamped
    so both sides keep a row) train.
    """
    sides = ([], [])
    for t_index, task in enumerate(ds.tasks):
        order = np.random.default_rng([seed, t_index]).permutation(task.n)
        n_train = min(max(int(math.floor(train_fraction * task.n + 0.5)), 1), task.n - 1)
        for side, part in zip(sides, (order[:n_train], order[n_train:])):
            side.append(TaskData(task.label, task.X[part], task.Y[part]))
    train, test = (
        MultiTaskDataset(tasks=tuple(side), feature_names=ds.feature_names) for side in sides
    )
    return train, test
