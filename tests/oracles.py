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
- ``write_csv_rows``: the CSV writer one ``csv.writer`` row at a time,
  every cell formatted on its own.
"""

from __future__ import annotations

import csv

import numpy as np


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


def write_csv_rows(ds, path, task_column: str, outcome_column: str) -> None:
    """Write a dataset as CSV one ``csv.writer`` row at a time, each cell by ``repr``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([task_column, *ds.feature_names, outcome_column])
        for t in ds.tasks:
            for i in range(t.n):
                writer.writerow(
                    [t.label, *(repr(v) for v in t.X[i].tolist()), repr(float(t.Y[i]))]
                )
