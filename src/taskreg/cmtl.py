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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import (
    ScalingParams, TaskFactors, _integer, _nonnegative, _numbers, _value_eq, residual_gradient,
    residuals,
)
from .fista import ProximalProblem, SolverConfig, solve
from .mtl import MtlModel, _fitted

_SYMMETRY_TOL = 1e-10
_EIGENVALUE_TOL = 1e-8
_TRACE_TOL = 1e-8
# The smooth part is +inf unless every eigenvalue of eta*I + C exceeds this.
_PD_FLOOR = 1e-12
# The weight metric's ridge is at least this times the trace of a task's Hessian.
_METRIC_FLOOR = 1e-12
# Tasks whose metric is set up at a time: only this many Hessians, Cholesky
# factors and inverses exist at once beside the kept L^{-T}.
_METRIC_BLOCK = 16


@dataclass(frozen=True)
class CmtlParams:
    """Hyperparameters of the clustered model.

    ``eta`` is the derived ratio rho2/rho1. The rho1 = 0 boundary is
    accepted only together with rho2 = 0 (regularizer fully off, eta = 0);
    it exists for gradient tests, not for fitting. Construction checks
    that rho1 and rho2 are numbers (not bools or strings), finite and
    >= 0, that eta and the coupling are finite, and that k is an integer >= 1.
    """

    rho1: float
    rho2: float
    k: int

    def __post_init__(self):
        for name in ("rho1", "rho2"):
            object.__setattr__(self, name, _nonnegative(getattr(self, name), name))
        if self.rho1 == 0 and self.rho2 != 0:
            raise ValueError("rho1 = 0 requires rho2 = 0 (eta would be infinite)")
        if not math.isfinite(self.coupling):  # so is eta, which it multiplies
            raise ValueError(
                f"rho1 = {self.rho1} and rho2 = {self.rho2} overflow the coupling "
                "rho1*eta*(1+eta), eta = rho2/rho1"
            )
        object.__setattr__(self, "k", _integer(self.k, "k"))
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    @property
    def eta(self) -> float:
        return self.rho2 / self.rho1 if self.rho1 > 0 else 0.0

    @property
    def coupling(self) -> float:
        """The regularizer weight rho1 * eta * (1 + eta)."""
        return self.rho1 * self.eta * (1.0 + self.eta)


def _cluster_count(k, most: int) -> int:
    """k as an integer in [1, most]: the one statement of k's range for T tasks."""
    k = _integer(k, "k")
    if not 1 <= k <= most:
        raise ValueError(f"k must be in [1, {most}], got {k}")
    return k


@dataclass(frozen=True)
class RelaxedClusterMatrix:
    """A T x T matrix inside the relaxed cluster feasible set.

    Construction checks that the matrix is a square array of finite
    numbers (``cluster_matrix`` in a message) and k an integer in [1, T],
    then validates symmetry, the eigenvalue box [0, 1], and tr = k, all
    up to small numerical tolerances; the box by two Cholesky
    factorizations (:func:`_check_box`), so construction decomposes
    nothing. ``spectrum``, the read-only (eigenvalues, eigenvectors) of
    the symmetrized matrix, is computed by ``eigh`` when first read and
    kept. ``==`` compares the matrix and k by value.
    """

    matrix: np.ndarray
    k: int

    __eq__ = _value_eq

    def __post_init__(self):
        m = _numbers(self.matrix, "cluster_matrix", 2)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"cluster matrix must be square, got shape {m.shape}")
        object.__setattr__(self, "k", _cluster_count(self.k, m.shape[0]))
        self._settle(m)

    @classmethod
    def _from_spectrum(cls, eigs: np.ndarray, vecs: np.ndarray, k: int) -> "RelaxedClusterMatrix":
        """The matrix with eigenpairs (eigs, vecs), for eigenpairs already known.

        The checks are those of construction but k's, which is the caller's;
        the box is checked on ``eigs`` and the trace on the rebuilt matrix,
        with no factorization; ``spectrum`` is (eigs, vecs), up to roundoff.
        """
        c = (vecs * eigs) @ vecs.T
        out = object.__new__(cls)
        object.__setattr__(out, "k", k)
        out._settle(0.5 * (c + c.T), eigs)
        for arr in (eigs, vecs):
            arr.setflags(write=False)
        object.__setattr__(out, "spectrum", (eigs, vecs))  # fills the cache a first read would
        return out

    def _settle(self, m: np.ndarray, eigs=None) -> None:
        """Validate the square matrix m (k is checked), then store it read-only.

        ``eigs`` are m's eigenvalues, when known (:func:`_check_box`).
        """
        with np.errstate(over="ignore"):  # an overflow here fails its check
            asym = float(np.abs(m - m.T).max())
            trace_err = abs(float(np.trace(m)) - self.k)
        if asym > _SYMMETRY_TOL:
            raise ValueError(f"cluster matrix asymmetric by {asym:.3g}")
        if trace_err > _TRACE_TOL:
            raise ValueError(f"trace differs from k={self.k} by {trace_err:.3g}")
        _check_box(m, eigs)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @functools.cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only (eigenvalues, eigenvectors) of the symmetrized matrix, ascending."""
        eigs, vecs = np.linalg.eigh(0.5 * (self.matrix + self.matrix.T))
        for arr in (eigs, vecs):
            arr.setflags(write=False)
        return eigs, vecs

    @property
    def n_tasks(self) -> int:
        return self.matrix.shape[0]


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
    k = _cluster_count(k, t)
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
    k = _cluster_count(k, g_c.shape[0] - 1)
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


def _check_box(m: np.ndarray, eigs=None) -> None:
    """Refuse the nearly symmetric m unless its eigenvalues lie in [0, 1], up to tolerance.

    ``eigs`` are m's eigenvalues, when known. Otherwise two Cholesky
    factorizations, of S + tol*I and (1 + tol)*I - S with S = (m + m^T)/2,
    accept m, for both hold exactly when every eigenvalue of S is inside
    the box; only a matrix they refuse has its eigenvalues computed to decide.
    """
    if eigs is None:
        # Halved before the sum, so entries near the largest double do not overflow.
        sym, eye = 0.5 * m + 0.5 * m.T, np.eye(m.shape[0])
        if _is_positive_definite(sym + _EIGENVALUE_TOL * eye) and _is_positive_definite(
            (1.0 + _EIGENVALUE_TOL) * eye - sym
        ):
            return
        eigs = np.linalg.eigvalsh(sym)
    if eigs.min() < -_EIGENVALUE_TOL or eigs.max() > 1.0 + _EIGENVALUE_TOL:
        raise ValueError(f"eigenvalues [{eigs.min():.3g}, {eigs.max():.3g}] leave [0, 1]")


class _Objective:
    """The cmtl objective on the stacked [V | C]: its smooth part and its prox.

    The weights are solved for in preconditioned variables: task t's
    weight vector is w_t = L_t^{-T} v_t, where L_t L_t^T = (2/n_t) A_t^T A_t
    + delta*I is the Hessian of its data term plus delta = 2*coupling/(1+eta)
    = 2*rho2, the smallest curvature the coupling term can have (eta*I + C
    has eigenvalues in [eta, 1+eta]). In v_t the data term's Hessian has
    its eigenvalues in [0, 1), and in a direction the task's rows leave
    flat the coupling's lie in [1, (1+eta)/eta], so one step size fits
    every task. That is why delta tracks the coupling: a tiny ridge would
    make those flat directions stiff and the step short. delta is floored at
    ``_METRIC_FLOOR`` times the trace of the task's Hessian, so the batched
    Cholesky factorization holds however small rho1 and rho2 are. W has
    no prox, so any fixed invertible change of variables on it keeps the
    problem and its optimum; only the iterates change (variable-metric
    forward-backward: Chouzenoux, Pesquet & Repetti, JOTA 2014). C keeps
    the Euclidean metric, and every value is F at W = L^{-T} V.

    Each task's data enters through its design factor R_t = [A_t | b_t] of
    [X_t | y_t], since ||X_t w - y_t|| = ||A_t w - b_t||. The factors are
    the read-only (T, min(max n_t, J+1), J+1) view
    :meth:`TaskFactors.design_stack` of the loaded stack, zero rows padding
    the shorter ones, and the objective keeps no copy of them: the data
    term of a value is one batched matmul on W = L^{-T} V, which the
    coupling term needs too (:func:`~taskreg.dataset.residuals`, shared
    with the other fits), weighted by 2/n_t with the true row counts n_t,
    which the factors' shapes do not show. Of the metric, only the
    (T, J, J) stack of L_t^{-T} is kept; it is set up
    :data:`_METRIC_BLOCK` tasks at a time, so the Hessians, their Cholesky
    factors and their inverses never exist for every task at once. An
    evaluation adds two batched J x J products: W = L^{-T} V, and the
    pull-back (L_t^{-T})^T g_t of the W gradient g, the sum of the data
    term's A_t^T r_t (:func:`~taskreg.dataset.residual_gradient`) and the
    coupling's.

    The smooth part is +inf unless every eigenvalue of eta*I + C exceeds
    ``_PD_FLOOR``. The prox leaves V alone and projects C onto the relaxed
    cluster set (:func:`project_spectral`), then evaluates the smooth part
    at the point it returns from that projection's eigenpairs. Any other
    point, such as a momentum search point, tests the floor with a
    Cholesky factorization and solves with ``np.linalg.solve``, so the fit
    decomposes nothing but projections. Either way the point is remembered
    by value (a stored copy compared with ``np.array_equal``), with its
    value, (eta*I + C)^{-1} W and per-task residuals, so a value or
    gradient at that point reuses them.
    """

    def __init__(self, factors: TaskFactors, params: CmtlParams):
        self._r = factors.design_stack(intercept=False)
        self._counts = np.array(factors.counts, dtype=np.float64)
        self._n_features = factors.n_features
        self._k = params.k
        self._eta = params.eta
        self._coupling = params.coupling
        n_tasks, j = self._r.shape[0], self._n_features
        diagonal = np.arange(j)
        # L^{-1}, kept and read as L^{-T}; each block's Hessians and Cholesky factors are not.
        inverse = np.empty((n_tasks, j, j))
        self._back = inverse.transpose(0, 2, 1)
        for start in range(0, n_tasks, _METRIC_BLOCK):
            block = slice(start, start + _METRIC_BLOCK)
            a = self._r[block, :, :-1]
            hess = np.matmul(a.transpose(0, 2, 1), a)
            hess *= (2.0 / self._counts[block])[:, None, None]
            delta = np.maximum(
                2.0 * params.rho2, _METRIC_FLOOR * np.trace(hess, axis1=1, axis2=2)
            )
            hess[:, diagonal, diagonal] += delta[:, None]
            inverse[block] = np.linalg.inv(np.linalg.cholesky(hess))
        # The last evaluated point and what was computed there.
        self._point = self._value = self._solved = self._resid = None

    def weights(self, v: np.ndarray) -> np.ndarray:
        """The weights W = L^{-T} V of the preconditioned weights V, one task a row."""
        return np.matmul(self._back, v[..., None])[..., 0]

    def prox(self, h: np.ndarray, step) -> np.ndarray:
        j = self._n_features
        # A global lookup, so a wrapper put on cmtl.project_spectral sees every call.
        projected = project_spectral(h[:, j:], self._k)
        z = np.hstack([h[:, :j], projected.matrix])
        self._evaluate(z, projected.spectrum)
        return z

    def _evaluate(self, z: np.ndarray, spectrum=None) -> None:
        """Remember z; ``spectrum`` is the eigenpairs of its C, when known."""
        if spectrum is None and self._point is not None and np.array_equal(z, self._point):
            return
        v, c = z[:, : self._n_features], z[:, self._n_features :]
        w = self.weights(v)
        if spectrum is not None:
            eigs, vecs = spectrum
            vals = eigs + self._eta
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
        gw += (2.0 * self._coupling) * solved
        gv = np.matmul(gw[:, None, :], self._back)[:, 0, :]
        gc = -self._coupling * (solved @ solved.T)
        gc = 0.5 * (gc + gc.T)
        return np.hstack([gv, gc])

    def problem(self) -> ProximalProblem:
        """The objective as a :class:`~taskreg.fista.ProximalProblem`; F is its smooth part."""
        return ProximalProblem(self.value, self.grad, self.prox, self.value)


def fit_cmtl(
    factors: TaskFactors,
    params: CmtlParams,
    cfg: SolverConfig | None = None,
    *,
    kmeans_seed: int = 0,
    scaling: ScalingParams | None = None,
) -> MtlModel:
    """Jointly fit weights and the relaxed cluster matrix.

    Runs the accelerated proximal solver on the stacked variable [V | C]
    (shape T x (J + T)), where V holds each task's weights in the metric
    of its data term (w_t = L_t^{-T} v_t; see :class:`_Objective`): the
    smooth part is the mean squared loss plus the coupling regularizer
    (see the module docstring), the prox leaves the weight block alone and
    spectrally projects the C block, and one shared backtracked gamma
    serves both blocks. The metric keeps the optimum and takes the solver
    there in far fewer iterations than it takes on W itself. Starts from
    V = 0 (so W = 0), C = (k/T) I, and saves W = L^{-T} V of the solution;
    the trace's objective is F in the original variables. Hard assignments
    are :func:`extract_clusters`' k-means rounding with ``kmeans_seed``, on
    the eigenvectors of the fitted C, its one ``eigh``. k is checked, by the
    rule :func:`project_spectral` applies, before the start point is built.

    The data term runs on each task's R factor (:class:`TaskFactors`).
    ``factors`` are already in the units of the fit: ``scaling`` is only
    recorded in the model.
    """
    if params.rho1 <= 0 or params.rho2 <= 0:
        raise ValueError("fitting requires rho1 > 0 and rho2 > 0")
    n_tasks, n_features = factors.n_tasks, factors.n_features
    # A k past the largest double would overflow k / T as an OverflowError.
    k = _cluster_count(params.k, n_tasks - 1)
    objective = _Objective(factors, params)
    z0 = np.hstack([np.zeros((n_tasks, n_features)), (k / n_tasks) * np.eye(n_tasks)])
    z_hat, trace = solve(objective.problem(), z0, cfg)
    c_hat = z_hat[:, n_features:]
    cluster_matrix = RelaxedClusterMatrix(matrix=0.5 * (c_hat + c_hat.T), k=params.k)
    return _fitted(
        factors, objective.weights(z_hat[:, :n_features]), trace, scaling, model_type="cmtl",
        cluster_matrix=cluster_matrix, params=params,
        # The embedding reads the fitted cluster matrix's spectrum: the fit's one eigh of it.
        assignments=_labels_from_vectors(cluster_matrix.spectrum[1], params.k, kmeans_seed),
        kmeans_seed=kmeans_seed,
    )


def extract_clusters(c, k: int, seed: int) -> tuple[int, ...]:
    """Round the T x T relaxed cluster matrix ``c`` to hard task assignments.

    Embeds tasks as rows of the top-k eigenvectors of C, then runs
    k-means (k-means++ seeding, 50 restarts) on the draws of numpy's
    ``default_rng(seed)`` (made by :class:`taskreg._stream.Stream`). Labels are
    renumbered in first-occurrence order, so task 0 is always in cluster
    0 and outputs are permutation-equivariant for a fixed seed.
    """
    mat = np.asarray(c, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    k = _cluster_count(k, mat.shape[0])
    _, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    return _labels_from_vectors(vecs, k, seed)


def _labels_from_vectors(vecs: np.ndarray, k: int, seed: int) -> tuple[int, ...]:
    """The k-means rounding of :func:`extract_clusters`, given the eigenvectors of C (ascending)."""
    from ._stream import Stream

    embedding = vecs[:, vecs.shape[1] - k:]
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
    """The labels of the restart of least inertia, the first of them on a tie."""
    runs = (_lloyd(points, _kmeans_pp_init(points, k, rng)) for _ in range(restarts))
    return min(runs, key=lambda run: run[1])[0]


def _canonical_labels(labels) -> tuple[int, ...]:
    remap: dict[int, int] = {}
    return tuple(remap.setdefault(int(lab), len(remap)) for lab in labels)
