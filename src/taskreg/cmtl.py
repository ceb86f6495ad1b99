"""Clustered multi-task regression via a convex spectral relaxation.

Tasks are coupled through a symmetric matrix C that relaxes a hard
assignment of tasks to K clusters: C must satisfy tr(C) = K with
eigenvalues in [0, 1] (the convex hull of normalized cluster-indicator
outer products). The smooth objective is the per-task mean squared loss
plus rho1*eta*(1+eta) * tr(W^T (eta*I + C)^{-1} W) with eta = rho2/rho1;
the inverse acts on the task dimension, pulling the rows of W toward a
low-dimensional task subspace encoded by C. Hard clusters are recovered
afterwards by seeded k-means on the top-K eigenvectors of C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import ScalingParams, TaskFactors, _value_eq, residual_gradient, residuals
from .fista import ProximalProblem, SolverConfig, solve
from .mtl import MtlModel

_SYMMETRY_TOL = 1e-10
_EIGENVALUE_TOL = 1e-8
_TRACE_TOL = 1e-8
# The smooth part is +inf unless every eigenvalue of eta*I + C exceeds this.
_PD_FLOOR = 1e-12


@dataclass(frozen=True)
class CmtlParams:
    """Hyperparameters of the clustered model.

    ``eta`` is the derived ratio rho2/rho1. The rho1 = 0 boundary is
    accepted only together with rho2 = 0 (regularizer fully off, eta = 0);
    it exists for gradient tests, not for fitting.
    """

    rho1: float
    rho2: float
    k: int

    def __post_init__(self):
        for name in ("rho1", "rho2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.rho1 == 0 and self.rho2 != 0:
            raise ValueError("rho1 = 0 requires rho2 = 0 (eta would be infinite)")
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise ValueError(f"k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    @property
    def eta(self) -> float:
        return self.rho2 / self.rho1 if self.rho1 > 0 else 0.0

    @property
    def coupling(self) -> float:
        """The regularizer weight rho1 * eta * (1 + eta)."""
        return self.rho1 * self.eta * (1.0 + self.eta)


@dataclass(frozen=True)
class RelaxedClusterMatrix:
    """A T x T matrix inside the relaxed cluster feasible set.

    Construction validates symmetry, the eigenvalue box [0, 1], and
    tr = k, all up to small numerical tolerances. ``spectrum`` keeps the
    read-only (eigenvalues, eigenvectors) of the symmetrized matrix from
    that validation, so a caller that needs them does not decompose the
    matrix again. ``==`` compares the matrix and k by value.
    """

    matrix: np.ndarray
    k: int
    spectrum: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    __eq__ = _value_eq

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"cluster matrix must be square, got shape {m.shape}")
        self._settle(m)

    @classmethod
    def _from_spectrum(cls, eigs: np.ndarray, vecs: np.ndarray, k: int) -> "RelaxedClusterMatrix":
        """The matrix with eigenpairs (eigs, vecs), for eigenpairs already known.

        The checks are those of construction, but the box is checked on
        ``eigs`` and the trace on the rebuilt matrix, with no new ``eigh``;
        ``spectrum`` is (eigs, vecs), which holds up to roundoff.
        """
        c = (vecs * eigs) @ vecs.T
        out = object.__new__(cls)
        object.__setattr__(out, "k", k)
        out._settle(0.5 * (c + c.T), (eigs, vecs))
        return out

    def _settle(self, m: np.ndarray, spectrum=None) -> None:
        """Validate the square matrix m, then store it and its spectrum read-only."""
        t = m.shape[0]
        if not 1 <= self.k <= t:
            raise ValueError(f"k must be in [1, {t}], got {self.k}")
        asym = float(np.abs(m - m.T).max())
        if asym > _SYMMETRY_TOL:
            raise ValueError(f"cluster matrix asymmetric by {asym:.3g}")
        trace_err = abs(float(np.trace(m)) - self.k)
        if trace_err > _TRACE_TOL:
            raise ValueError(f"trace differs from k={self.k} by {trace_err:.3g}")
        eigs, vecs = np.linalg.eigh(0.5 * (m + m.T)) if spectrum is None else spectrum
        if eigs.min() < -_EIGENVALUE_TOL or eigs.max() > 1.0 + _EIGENVALUE_TOL:
            raise ValueError(
                f"eigenvalues [{eigs.min():.3g}, {eigs.max():.3g}] leave [0, 1]"
            )
        for arr in (m, eigs, vecs):
            arr.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "spectrum", (eigs, vecs))

    @property
    def n_tasks(self) -> int:
        return self.matrix.shape[0]


def _as_matrix(c) -> np.ndarray:
    if isinstance(c, RelaxedClusterMatrix):
        return c.matrix
    return np.asarray(c, dtype=np.float64)


def capped_simplex_project(sigma_hat: np.ndarray, k: int) -> np.ndarray:
    """Project a vector onto {sigma : sum = k, 0 <= sigma_i <= 1}.

    The projection is sigma_i = clip(sigma_hat_i - theta, 0, 1) at the
    shift theta where the clipped sum equals k. That sum is piecewise
    linear and non-increasing in theta, with kinks at sigma_hat_i - 1 and
    sigma_hat_i, so it is evaluated at all 2T kinks and theta is
    interpolated on the segment that crosses k (Wang & Lu, "Projection
    onto the Capped Simplex", 2015).
    """
    sigma_hat = np.asarray(sigma_hat, dtype=np.float64).ravel()
    t = sigma_hat.size
    if t == 0:
        raise ValueError("empty input")
    if not 1 <= k <= t:
        raise ValueError(f"k must be in [1, {t}], got {k}")
    if k == t:
        return np.ones(t)

    kinks = np.sort(np.concatenate([sigma_hat - 1.0, sigma_hat]))
    sums = np.clip(sigma_hat - kinks[:, None], 0.0, 1.0).sum(axis=1)
    # sums[0] is T up to roundoff and sums[-1] is exactly 0, so with
    # k < T the first kink whose sum is <= k has a left neighbour above k.
    right = int(np.argmax(sums <= k))
    left = right - 1
    fraction = (sums[left] - k) / (sums[left] - sums[right])
    theta = kinks[left] + fraction * (kinks[right] - kinks[left])
    return np.clip(sigma_hat - theta, 0.0, 1.0)


def project_spectral(g_c: np.ndarray, k: int) -> RelaxedClusterMatrix:
    """Project a symmetric matrix onto the relaxed cluster feasible set.

    Symmetrizes, eigendecomposes, projects the spectrum onto the capped
    simplex, and rebuilds with the same eigenvectors. The result is
    checked on the projected eigenvalues, without decomposing it again.
    """
    g_c = np.asarray(g_c, dtype=np.float64)
    if g_c.ndim != 2 or g_c.shape[0] != g_c.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {g_c.shape}")
    t = g_c.shape[0]
    if not 1 <= k < t:
        raise ValueError(f"k must be in [1, {t - 1}], got {k}")
    sym = 0.5 * (g_c + g_c.T)
    vals, vecs = np.linalg.eigh(sym)
    return RelaxedClusterMatrix._from_spectrum(capped_simplex_project(vals, k), vecs, k)


def _is_positive_definite(m: np.ndarray) -> bool:
    """Whether the symmetric matrix m has a Cholesky factorization."""
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


class _SmoothPart:
    """The smooth part of the cmtl objective on the stacked [W | C].

    Each task's data enters through its design factor R_t = [A_t | b_t] of
    [X_t | y_t], since ||X_t w - y_t|| = ||A_t w - b_t||. The factors are
    stacked with zero rows as padding into one (T, min(max n_t, J+1), J+1)
    array (:meth:`TaskFactors.design_stack`), so the data term of a value
    or a gradient is one batched matmul (:func:`~taskreg.dataset.residuals`
    and :func:`~taskreg.dataset.residual_gradient`, shared with the other
    fits); it is weighted by 2/n_t with the true row counts n_t, which the
    factors' shapes do not show.

    The value is +inf unless every eigenvalue of eta*I + C exceeds
    ``_PD_FLOOR``. The last evaluated point is remembered by value (a
    stored copy compared with ``np.array_equal``), with its value,
    (eta*I + C)^{-1} W and per-task residuals, so a gradient or objective
    at that point reuses them. ``seed_spectrum`` hands over the eigenpairs
    of a projected :class:`RelaxedClusterMatrix`; a point whose C block is
    that matrix uses them. Any other point, such as a momentum search
    point, tests the floor with a Cholesky factorization and solves with
    ``np.linalg.solve``, so the fit decomposes nothing but projections.
    """

    def __init__(self, factors: TaskFactors, params: CmtlParams):
        self._r = factors.design_stack(intercept=False)
        self._counts = np.array(factors.counts, dtype=np.float64)
        self._n_features = factors.n_features
        self._eta = params.eta
        self._coupling = params.coupling
        # The last evaluated point and what was computed there.
        self._point = self._value = self._solved = self._resid = None
        # (C block, eigenvalues, eigenvectors) handed over by seed_spectrum.
        self._spectrum = None

    def seed_spectrum(self, cluster_matrix: RelaxedClusterMatrix) -> None:
        self._spectrum = (cluster_matrix.matrix, *cluster_matrix.spectrum)

    def _evaluate(self, z: np.ndarray) -> None:
        if self._point is not None and np.array_equal(z, self._point):
            return
        w, c = z[:, : self._n_features], z[:, self._n_features :]
        spectrum = self._spectrum
        if spectrum is not None and np.array_equal(c, spectrum[0]):
            vals, vecs = spectrum[1] + self._eta, spectrum[2]
            positive = vals.min() > _PD_FLOOR
            solved = vecs @ ((vecs.T @ w) / vals[:, None])
        else:
            sym, eye = 0.5 * (c + c.T), np.eye(c.shape[0])
            positive = _is_positive_definite(sym + (self._eta - _PD_FLOOR) * eye)
            solved = np.linalg.solve(sym + self._eta * eye, w) if positive else None
        resid = residuals(self._r, w)
        if not positive:
            value = math.inf
        else:
            value = self._coupling * float(np.vdot(w, solved))
            value += float(((resid * resid).sum(axis=1) / self._counts).sum())
        self._point = z.copy()
        self._value, self._solved, self._resid = value, solved, resid

    def value(self, z: np.ndarray) -> float:
        self._evaluate(z)
        return self._value

    def grad(self, z: np.ndarray) -> np.ndarray:
        self._evaluate(z)
        solved = self._solved
        gw = residual_gradient(self._r, self._resid)
        gw *= (2.0 / self._counts)[:, None]
        gw += 2.0 * self._coupling * solved
        gc = -self._coupling * (solved @ solved.T)
        gc = 0.5 * (gc + gc.T)
        return np.hstack([gw, gc])


def fit_cmtl(
    factors: TaskFactors,
    params: CmtlParams,
    cfg: SolverConfig | None = None,
    *,
    kmeans_seed: int = 0,
    scaling: ScalingParams | None = None,
) -> MtlModel:
    """Jointly fit weights and the relaxed cluster matrix.

    Runs the accelerated proximal solver on the stacked variable [W | C]
    (shape T x (J + T)): the smooth part is the mean squared loss plus the
    coupling regularizer (see the module docstring),
    the prox leaves the weight block alone and spectrally projects the C
    block, and one shared backtracked gamma serves both blocks. Starts
    from W = 0, C = (k/T) I. Hard assignments come from
    :func:`extract_clusters` with ``kmeans_seed``.

    The data term runs on each task's R factor (:class:`TaskFactors`).
    ``factors`` are already in the units of the fit: ``scaling`` is only
    recorded in the model.
    """
    if params.rho1 <= 0 or params.rho2 <= 0:
        raise ValueError("fitting requires rho1 > 0 and rho2 > 0")
    n_tasks, n_features = factors.n_tasks, factors.n_features
    if not 1 <= params.k < n_tasks:
        raise ValueError(f"k must be in [1, {n_tasks - 1}], got {params.k}")
    smooth = _SmoothPart(factors, params)

    def split(z):
        return z[:, :n_features], z[:, n_features:]

    def prox(h, step):
        w_part, c_part = split(h)
        projected = project_spectral(c_part, params.k)
        smooth.seed_spectrum(projected)
        return np.hstack([w_part, projected.matrix])

    z0 = np.hstack([np.zeros((n_tasks, n_features)), (params.k / n_tasks) * np.eye(n_tasks)])
    problem = ProximalProblem(
        smooth_value=smooth.value,
        smooth_grad=smooth.grad,
        prox=prox,
        full_objective=smooth.value,
    )
    z_hat, trace = solve(problem, z0, cfg)
    w_hat, c_hat = split(z_hat)
    cluster_matrix = RelaxedClusterMatrix(matrix=0.5 * (c_hat + c_hat.T), k=params.k)
    assignments = extract_clusters(cluster_matrix, params.k, kmeans_seed)
    return MtlModel(
        weights=w_hat,
        feature_names=factors.feature_names,
        task_labels=factors.task_labels,
        scaling=scaling,
        trace=trace,
        model_type="cmtl",
        cluster_matrix=cluster_matrix,
        params=params,
        assignments=assignments,
        kmeans_seed=kmeans_seed,
    )


def extract_clusters(c, k: int, seed: int) -> tuple[int, ...]:
    """Round a relaxed cluster matrix to hard task assignments.

    Embeds tasks as rows of the top-k eigenvectors of C, then runs
    k-means (k-means++ seeding, 50 restarts) on the draws of numpy's
    ``default_rng(seed)`` (made by :class:`taskreg._stream.Stream`). Labels are
    renumbered in first-occurrence order, so task 0 is always in cluster
    0 and outputs are permutation-equivariant for a fixed seed.
    """
    mat = _as_matrix(c)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    t = mat.shape[0]
    if not 1 <= k <= t:
        raise ValueError(f"k must be in [1, {t}], got {k}")
    from ._stream import Stream

    _, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    embedding = vecs[:, t - k:]
    labels = _kmeans_labels(embedding, k, Stream(seed), restarts=50)
    return _canonical_labels(labels)


def _kmeans_pp_init(points: np.ndarray, k: int, rng) -> np.ndarray:
    """k-means++ centers, drawn by ``rng.integers`` and ``rng.random``.

    A center after the first is drawn with probability proportional to
    dist2 by the inverse CDF, which is what numpy's ``rng.choice(n, p=p)``
    does with one ``rng.random()``, so the centers are those of that call.
    """
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    dist2 = ((points - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = dist2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            cdf = np.cumsum(dist2 / total)
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        centers[i] = points[idx]
        dist2 = np.minimum(dist2, ((points - centers[i]) ** 2).sum(axis=1))
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray, max_iter: int = 100):
    n, k = points.shape[0], centers.shape[0]
    labels = np.full(n, -1)
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        for j in range(k):
            members = new_labels == j
            if not members.any():
                # Re-seed an empty cluster with the worst-fit point.
                worst = int(d2[np.arange(n), new_labels].argmax())
                new_labels[worst] = j
                members = new_labels == j
            centers[j] = points[members].mean(axis=0)
        if (new_labels == labels).all():
            break
        labels = new_labels
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(n), labels].sum())
    return labels, inertia


def _kmeans_labels(points: np.ndarray, k: int, rng, restarts: int) -> np.ndarray:
    best_labels = None
    best_inertia = math.inf
    for _ in range(restarts):
        centers = _kmeans_pp_init(points, k, rng)
        labels, inertia = _lloyd(points, centers)
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    return best_labels


def _canonical_labels(labels) -> tuple[int, ...]:
    remap: dict[int, int] = {}
    out = []
    for lab in labels:
        lab = int(lab)
        if lab not in remap:
            remap[lab] = len(remap)
        out.append(remap[lab])
    return tuple(out)


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
    t = len(assignments)
    out = np.zeros((t, len(groups)))
    counts = np.bincount(assignments)
    for i, g in enumerate(assignments):
        out[i, g] = 1.0 / math.sqrt(counts[g])
    return out
