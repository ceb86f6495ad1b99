"""Clustered multi-task model: regularizer, projections, joint fit, rounding.

The raw-row objective and its gradient blocks (``cmtl_loss``,
``cmtl_regularizer``, ``cmtl_objective``, ``grad_phi``, ``grad_c_step``)
are test oracles; the fit runs on batched QR factors.
"""

import math

import numpy as np
import pytest

from taskreg.cmtl import (
    _EIGENVALUE_TOL as _TAU,
    _Objective,
    CmtlParams,
    RelaxedClusterMatrix,
    capped_simplex_project,
    extract_clusters,
    fit_cmtl,
    project_spectral,
)
from taskreg.dataset import load_factors
from taskreg.fista import ProximalProblem, SolverConfig, solve
from taskreg.mtl import MtlModel

from oracles import (
    MultiTaskDataset,
    TaskData,
    capped_simplex_grid,
    central_difference_grad,
    cluster_indicator,
    cmtl_loss,
    cmtl_metric_back,
    cmtl_objective,
    cmtl_regularizer,
    dykstra_spectral_project,
    factors,
    grad_c_step,
    grad_phi,
    write_csv_rows,
)


def _dataset(xs, ys):
    tasks = tuple(
        TaskData(label=f"t{t}", X=np.asarray(x, float), Y=np.asarray(y, float))
        for t, (x, y) in enumerate(zip(xs, ys))
    )
    names = tuple(f"f{j}" for j in range(tasks[0].X.shape[1]))
    return MultiTaskDataset(tasks=tasks, feature_names=names)


def _random_feasible_c(rng, n_tasks, k):
    return project_spectral(rng.normal(size=(n_tasks, n_tasks)), k).matrix


def test_params_validation():
    p = CmtlParams(rho1=2.0, rho2=1.0, k=3)
    assert p.eta == pytest.approx(0.5)
    assert p.coupling == pytest.approx(2.0 * 0.5 * 1.5)
    with pytest.raises(ValueError, match="rho1"):
        CmtlParams(rho1=-1.0, rho2=1.0, k=2)
    with pytest.raises(ValueError, match="rho2"):
        CmtlParams(rho1=1.0, rho2=-1.0, k=2)
    with pytest.raises(ValueError, match="rho2"):
        CmtlParams(rho1=0.0, rho2=1.0, k=2)
    with pytest.raises(ValueError, match="k"):
        CmtlParams(rho1=1.0, rho2=1.0, k=0)
    with pytest.raises(ValueError, match="integer"):
        CmtlParams(rho1=1.0, rho2=1.0, k=True)
    zero = CmtlParams(rho1=0.0, rho2=0.0, k=1)
    assert zero.eta == 0.0
    assert zero.coupling == 0.0


@pytest.mark.parametrize(
    "rho1, rho2, message",
    [
        (1e-320, 1.0, "rho1 = 1e-320 and rho2 = 1.0 overflow the coupling rho1*eta*(1+eta), "
         "eta = rho2/rho1"),
        (1e200, 1e300, "rho1 = 1e+200 and rho2 = 1e+300 overflow the coupling "
         "rho1*eta*(1+eta), eta = rho2/rho1"),
        (1.0, 1e308, "rho1 = 1.0 and rho2 = 1e+308 overflow the coupling rho1*eta*(1+eta), "
         "eta = rho2/rho1"),
    ],
    ids=["eta-overflows", "coupling-overflows", "eta-squared-overflows"],
)
def test_params_reject_a_rho_pair_whose_coupling_overflows(rho1, rho2, message):
    with pytest.raises(ValueError) as info:
        CmtlParams(rho1=rho1, rho2=rho2, k=2)
    assert str(info.value) == message
    # The extremes of a pair whose coupling stays finite are kept.
    for rho1, rho2 in ((1e-320, 1e-320), (1e308, 1.0), (1.0, 1e-320), (1e-100, 1e-100)):
        params = CmtlParams(rho1=rho1, rho2=rho2, k=2)
        assert math.isfinite(params.eta) and math.isfinite(params.coupling)


def test_loss_examples():
    ds = _dataset([np.eye(2)], [[1.0, 2.0]])
    assert cmtl_loss(np.array([[1.0, 2.0]]), ds) == 0.0
    # One task, two rows, residuals (1, 1): mean of squares is 1.
    ds = _dataset([np.eye(2)], [[1.0, 1.0]])
    assert cmtl_loss(np.zeros((1, 2)), ds) == pytest.approx(1.0)


def test_loss_row_duplication_invariance():
    rng = np.random.default_rng(40)
    x = rng.normal(size=(5, 3))
    y = rng.normal(size=5)
    w = rng.normal(size=(1, 3))
    base = cmtl_loss(w, _dataset([x], [y]))
    doubled = cmtl_loss(w, _dataset([np.vstack([x, x])], [np.concatenate([y, y])]))
    assert doubled == pytest.approx(base, rel=1e-12)


def test_loss_shape_check():
    ds = _dataset([np.eye(2)], [[1.0, 2.0]])
    with pytest.raises(ValueError, match="shape"):
        cmtl_loss(np.zeros((2, 2)), ds)


def test_regularizer_zero_weights():
    params = CmtlParams(rho1=1.0, rho2=2.0, k=1)
    assert cmtl_regularizer(np.zeros((3, 4)), np.eye(3) / 3, params) == 0.0


def test_regularizer_identity_c():
    # (eta*I + I)^{-1} = I/(1+eta), so the (1+eta) factor cancels and the
    # value is rho1*eta*||W||_F^2. C = I is only feasible when K = T; the
    # function itself does not police feasibility.
    rng = np.random.default_rng(41)
    w = rng.normal(size=(3, 5))
    params = CmtlParams(rho1=0.7, rho2=1.3, k=2)
    expected = 0.7 * params.eta * float(np.vdot(w, w))
    assert cmtl_regularizer(w, np.eye(3), params) == pytest.approx(expected, rel=1e-12)


def test_regularizer_matches_dense_inverse():
    rng = np.random.default_rng(42)
    for _ in range(5):
        w = rng.normal(size=(4, 6))
        c = _random_feasible_c(rng, 4, 2)
        params = CmtlParams(rho1=float(rng.uniform(0.1, 2)), rho2=float(rng.uniform(0.1, 2)), k=2)
        m_inv = np.linalg.inv(params.eta * np.eye(4) + c)
        expected = params.coupling * float(np.trace(w.T @ m_inv @ w))
        assert cmtl_regularizer(w, c, params) == pytest.approx(expected, abs=1e-10)


def test_regularizer_shape_check():
    params = CmtlParams(rho1=1.0, rho2=1.0, k=1)
    with pytest.raises(ValueError, match="shape"):
        cmtl_regularizer(np.zeros((3, 4)), np.eye(2), params)


def test_objective_composition():
    rng = np.random.default_rng(43)
    ds = _dataset([rng.normal(size=(6, 3)) for _ in range(2)], [rng.normal(size=6) for _ in range(2)])
    w = rng.normal(size=(2, 3))
    c = _random_feasible_c(rng, 2, 1)
    params = CmtlParams(rho1=0.5, rho2=0.5, k=1)
    total = cmtl_objective(w, c, ds, params)
    assert total == pytest.approx(cmtl_loss(w, ds) + cmtl_regularizer(w, c, params))


def test_grad_phi_zero_at_origin_with_zero_targets():
    ds = _dataset([np.eye(3)], [np.zeros(3)])
    params = CmtlParams(rho1=1.0, rho2=1.0, k=1)
    g = grad_phi(np.zeros((1, 3)), np.eye(1), ds, params)
    np.testing.assert_array_equal(g, np.zeros((1, 3)))


def test_grad_phi_matches_finite_differences():
    rng = np.random.default_rng(44)
    ds = _dataset([rng.normal(size=(7, 4)) for _ in range(3)], [rng.normal(size=7) for _ in range(3)])
    c = _random_feasible_c(rng, 3, 2)
    params = CmtlParams(rho1=0.8, rho2=1.1, k=2)
    w = rng.normal(size=(3, 4))
    fd = central_difference_grad(lambda v: cmtl_objective(v, c, ds, params), w)
    g = grad_phi(w, c, ds, params)
    assert np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(fd)) < 1e-5


def test_grad_phi_small_coupling_approaches_loss_gradient():
    # With eta held fixed, the regularizer weight scales linearly in rho1.
    rng = np.random.default_rng(45)
    ds = _dataset([rng.normal(size=(6, 3)) for _ in range(2)], [rng.normal(size=6) for _ in range(2)])
    w = rng.normal(size=(2, 3))
    c = _random_feasible_c(rng, 2, 1)
    loss_grad = np.vstack(
        [(2.0 / t.n) * (t.X.T @ (t.X @ w[i] - t.Y)) for i, t in enumerate(ds.tasks)]
    )
    tiny = grad_phi(w, c, ds, CmtlParams(rho1=1e-9, rho2=1e-9, k=1))
    np.testing.assert_allclose(tiny, loss_grad, atol=1e-7)
    exact = grad_phi(w, c, ds, CmtlParams(rho1=0.0, rho2=0.0, k=1))
    np.testing.assert_allclose(exact, loss_grad, atol=1e-14)


def test_grad_c_step_trivial_cases():
    c_s = np.array([[0.6, 0.1], [0.1, 0.4]])
    phi = np.ones((2, 3))
    zero_coupling = grad_c_step(phi, c_s, CmtlParams(rho1=0.0, rho2=0.0, k=1), gamma=2.0)
    np.testing.assert_array_equal(zero_coupling, c_s)
    zero_phi = grad_c_step(np.zeros((2, 3)), c_s, CmtlParams(rho1=1.0, rho2=1.0, k=1), gamma=2.0)
    np.testing.assert_array_equal(zero_phi, c_s)


def test_grad_c_step_diagonal_closed_form():
    # Diagonal C and a single feature column: Minv is diagonal and the
    # correction entry (i, j) is coupling/gamma * phi_i phi_j /
    # ((eta + c_i)(eta + c_j)).
    params = CmtlParams(rho1=0.9, rho2=0.6, k=1)
    eta = params.eta
    c_diag = np.array([0.7, 0.3])
    phi = np.array([[2.0], [-1.0]])
    gamma = 4.0
    got = grad_c_step(phi, np.diag(c_diag), params, gamma)
    denom = eta + c_diag
    outer = np.outer(phi[:, 0] / denom, phi[:, 0] / denom)
    expected = np.diag(c_diag) + (params.coupling / gamma) * outer
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_grad_c_step_sign_matches_finite_differences():
    # The implied regularizer gradient in C is gamma * (C_S - G_C); check
    # it against symmetric finite differences of cmtl_regularizer.
    rng = np.random.default_rng(46)
    n_tasks = 3
    w = rng.normal(size=(n_tasks, 4))
    c_s = _random_feasible_c(rng, n_tasks, 2)
    params = CmtlParams(rho1=1.2, rho2=0.8, k=2)
    gamma = 3.0
    implied = gamma * (c_s - grad_c_step(w, c_s, params, gamma))
    eps = 1e-6
    for i in range(n_tasks):
        for j in range(i, n_tasks):
            delta = np.zeros((n_tasks, n_tasks))
            delta[i, j] += eps
            delta[j, i] += eps
            fd = (
                cmtl_regularizer(w, c_s + delta, params)
                - cmtl_regularizer(w, c_s - delta, params)
            ) / (2 * eps)
            directional = float(np.vdot(implied, delta)) / eps
            assert directional == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_grad_c_step_errors():
    params = CmtlParams(rho1=1.0, rho2=1.0, k=1)
    with pytest.raises(ValueError, match="gamma"):
        grad_c_step(np.ones((2, 1)), np.eye(2), params, gamma=0.0)
    with pytest.raises(ValueError, match="square"):
        grad_c_step(np.ones((2, 1)), np.ones((2, 3)), params, gamma=1.0)
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match="asymmetric"):
        grad_c_step(np.ones((2, 1)), skew, params, gamma=1.0)


def test_capped_simplex_examples():
    np.testing.assert_allclose(
        capped_simplex_project(np.array([2.0, 0.5, -1.0]), 1), [1.0, 0.0, 0.0], atol=1e-9
    )
    np.testing.assert_allclose(
        capped_simplex_project(np.array([0.6, 0.6]), 1), [0.5, 0.5], atol=1e-9
    )
    np.testing.assert_allclose(
        capped_simplex_project(np.array([0.9, 0.3, -0.2]), 1), [0.8, 0.2, 0.0], atol=1e-9
    )
    feasible = np.array([0.7, 0.8, 0.5])  # sums to 2, inside the box
    np.testing.assert_allclose(capped_simplex_project(feasible, 2), feasible, atol=1e-9)
    np.testing.assert_allclose(capped_simplex_project(np.array([5.0, -3.0]), 2), [1.0, 1.0])


def test_capped_simplex_matches_grid_oracle():
    rng = np.random.default_rng(47)
    for _ in range(25):
        t = int(rng.integers(2, 8))
        k = int(rng.integers(1, t + 1))
        sigma_hat = rng.normal(scale=2.0, size=t)
        got = capped_simplex_project(sigma_hat, k)
        expected = capped_simplex_grid(sigma_hat, k)
        np.testing.assert_allclose(got, expected, atol=1e-5)
        assert got.sum() == pytest.approx(k, abs=1e-9)
        assert np.all(got >= -1e-12) and np.all(got <= 1 + 1e-12)


@pytest.mark.parametrize(
    "sigma_hat, k",
    [
        # Values on a 0.1 grid, so kinks coincide.
        pytest.param(np.round(np.random.default_rng(58).normal(size=12), 1), 3, id="ties"),
        pytest.param(np.array([0.3, 0.3, 0.3, 1.3, -0.7, 0.3, 1.3]), 2, id="ties-across-box"),
        pytest.param(np.full(5, 0.5), 2, id="all-equal"),
        pytest.param(np.full(6, -4.0), 5, id="all-equal-k-T-1"),
        pytest.param(np.array([2.0, -1.0, 0.25, 0.75, 3.0, -2.0]), 5, id="k-T-1"),
        pytest.param(np.random.default_rng(59).normal(scale=3.0, size=9), 8, id="k-T-1-random"),
        pytest.param(np.array([0.7, 0.8, 0.5, 0.0, 1.0]), 3, id="feasible"),
        pytest.param(np.full(4, 0.25), 1, id="feasible-all-equal"),
    ],
)
def test_capped_simplex_edge_cases(sigma_hat, k):
    got = capped_simplex_project(sigma_hat, k)
    np.testing.assert_allclose(got, capped_simplex_grid(sigma_hat, k), atol=1e-5)
    assert abs(got.sum() - k) <= 1e-12
    assert np.all(got >= 0.0) and np.all(got <= 1.0)
    if np.all((sigma_hat >= 0) & (sigma_hat <= 1)) and sigma_hat.sum() == k:
        np.testing.assert_allclose(got, sigma_hat, atol=1e-15)


def test_capped_simplex_errors():
    with pytest.raises(ValueError, match="[Kk]"):
        capped_simplex_project(np.ones(3), 0)
    with pytest.raises(ValueError, match="[Kk]"):
        capped_simplex_project(np.ones(3), 4)


def test_project_spectral_diagonal_example():
    got = project_spectral(np.diag([0.9, 0.3, -0.2]), 1)
    np.testing.assert_allclose(got.matrix, np.diag([0.8, 0.2, 0.0]), atol=1e-9)


def test_project_spectral_idempotent():
    rng = np.random.default_rng(48)
    for _ in range(10):
        t = int(rng.integers(3, 7))
        k = int(rng.integers(1, t))
        first = project_spectral(rng.normal(size=(t, t)), k)
        second = project_spectral(first.matrix, k)
        assert np.linalg.norm(second.matrix - first.matrix) < 1e-10


def test_project_spectral_feasibility():
    rng = np.random.default_rng(49)
    for _ in range(10):
        t = int(rng.integers(2, 8))
        k = int(rng.integers(1, t))
        out = project_spectral(rng.normal(scale=3.0, size=(t, t)), k)
        mat = out.matrix
        assert abs(np.trace(mat) - k) <= 1e-8
        eigs = np.linalg.eigvalsh(mat)
        assert eigs.min() >= -1e-8 and eigs.max() <= 1 + 1e-8
        assert np.abs(mat - mat.T).max() <= 1e-10


def test_project_spectral_is_nearest_point():
    rng = np.random.default_rng(50)
    for _ in range(6):
        t = 5
        k = int(rng.integers(1, t))
        g = rng.normal(size=(t, t))
        g = 0.5 * (g + g.T)
        ours = project_spectral(g, k).matrix
        oracle = dykstra_spectral_project(g, k, iters=20000)
        np.testing.assert_allclose(ours, oracle, atol=1e-6)
        # No random feasible point does better.
        d_ours = np.linalg.norm(g - ours)
        for _ in range(5):
            other = project_spectral(rng.normal(size=(t, t)), k).matrix
            assert d_ours <= np.linalg.norm(g - other) + 1e-9


def test_project_spectral_errors():
    with pytest.raises(ValueError, match="square"):
        project_spectral(np.ones((2, 3)), 1)
    with pytest.raises(ValueError, match="[Kk]"):
        project_spectral(np.eye(3), 3)
    with pytest.raises(ValueError, match="[Kk]"):
        project_spectral(np.eye(3), 0)


def test_relaxed_cluster_matrix_validation():
    good = RelaxedClusterMatrix(matrix=np.diag([0.8, 0.2, 0.0]), k=1)
    assert good.n_tasks == 3
    with pytest.raises(ValueError):
        good.matrix[0, 0] = 0.5
    with pytest.raises(ValueError, match="symmetr"):
        RelaxedClusterMatrix(matrix=np.array([[0.5, 0.2], [0.0, 0.5]]), k=1)
    with pytest.raises(ValueError, match="trace"):
        RelaxedClusterMatrix(matrix=np.diag([0.9, 0.9]), k=1)
    with pytest.raises(ValueError, match="eigenvalue"):
        RelaxedClusterMatrix(matrix=np.diag([1.5, -0.5]), k=1)


def _planted_dataset(rng, n_tasks=6, n_features=8, n_rows=40, noise=0.05):
    """Two groups of tasks with opposite weight vectors."""
    u = rng.normal(size=n_features)
    u *= 2.0 / np.linalg.norm(u)
    xs, ys = [], []
    for t in range(n_tasks):
        w = u if t < n_tasks // 2 else -u
        x = rng.normal(size=(n_rows, n_features))
        xs.append(x)
        ys.append(x @ w + noise * rng.normal(size=n_rows))
    truth = tuple(0 if t < n_tasks // 2 else 1 for t in range(n_tasks))
    return _dataset(xs, ys), truth


def test_fit_identical_tasks_couples_fully():
    rng = np.random.default_rng(51)
    x = rng.normal(size=(20, 3))
    y = x @ np.array([1.0, -0.5, 2.0]) + 0.01 * rng.normal(size=20)
    ds = _dataset([x, x], [y, y])
    params = CmtlParams(rho1=0.5, rho2=0.5, k=1)
    model = fit_cmtl(factors(ds), params, SolverConfig(max_iters=3000, rel_tol=1e-13))
    np.testing.assert_allclose(model.cluster_matrix.matrix, np.full((2, 2), 0.5), atol=1e-3)


def test_fit_recovers_planted_clusters():
    rng = np.random.default_rng(52)
    ds, truth = _planted_dataset(rng)
    params = CmtlParams(rho1=0.1, rho2=0.1, k=2)
    model = fit_cmtl(factors(ds), params, SolverConfig(max_iters=1500, rel_tol=1e-10))
    assert model.assignments == truth


def test_fit_envelope_and_projection_feasibility(monkeypatch):
    from taskreg import cmtl

    rng = np.random.default_rng(53)
    ds, _ = _planted_dataset(rng, n_tasks=4, n_rows=15)
    seen = []
    monkeypatch.setattr(
        cmtl, "project_spectral", lambda c, k: seen.append(project_spectral(c, k)) or seen[-1]
    )
    params = CmtlParams(rho1=0.3, rho2=0.6, k=2)
    model = fit_cmtl(factors(ds), params, SolverConfig(max_iters=50, rel_tol=0.0))
    assert seen, "projection hook never called"
    for mat in seen:
        assert isinstance(mat, RelaxedClusterMatrix)
    envelope = np.minimum.accumulate(model.trace.objective_per_iter)
    assert np.all(np.diff(envelope) <= 0 + 1e-15)


def test_fit_parameter_errors():
    rng = np.random.default_rng(54)
    ds, _ = _planted_dataset(rng, n_tasks=4, n_rows=10)
    with pytest.raises(ValueError, match="k must be"):
        fit_cmtl(factors(ds), CmtlParams(rho1=1.0, rho2=1.0, k=4))
    # A k past the largest double is refused before the start point (k/T) I is built.
    with pytest.raises(ValueError) as info:
        fit_cmtl(factors(ds), CmtlParams(rho1=1.0, rho2=1.0, k=10**400))
    assert str(info.value) == f"k must be in [1, 3], got {10**400}"
    with pytest.raises(ValueError, match="rho1 > 0"):
        fit_cmtl(factors(ds), CmtlParams(rho1=0.0, rho2=0.0, k=2))


def test_extract_clusters_block_diagonal():
    # Ideal O O^T structure: two uniform blocks.
    c = np.zeros((5, 5))
    c[:3, :3] = 1.0 / 3.0
    c[3:, 3:] = 1.0 / 2.0
    labels = extract_clusters(c, 2, seed=0)
    assert labels == (0, 0, 0, 1, 1)


def test_extract_clusters_single_cluster():
    c = np.full((4, 4), 0.25)
    assert extract_clusters(c, 1, seed=3) == (0, 0, 0, 0)


def test_extract_clusters_permutation_equivariance():
    rng = np.random.default_rng(55)
    c = _random_feasible_c(rng, 6, 2)
    base = extract_clusters(c, 2, seed=7)
    perm = np.array([3, 0, 5, 1, 4, 2])
    permuted = extract_clusters(c[np.ix_(perm, perm)], 2, seed=7)
    # Same partition after undoing the permutation, up to label names.
    realigned = tuple(permuted[list(perm).index(t)] for t in range(6))
    pairs_base = {(i, j) for i in range(6) for j in range(6) if base[i] == base[j]}
    pairs_perm = {(i, j) for i in range(6) for j in range(6) if realigned[i] == realigned[j]}
    assert pairs_base == pairs_perm


def test_cluster_indicator_structure():
    o = cluster_indicator((0, 0, 1, 0, 1))
    assert o.shape == (5, 2)
    np.testing.assert_allclose(o.T @ o, np.eye(2), atol=1e-15)
    gram = o @ o.T
    assert gram[0, 1] == pytest.approx(1.0 / 3.0)
    assert gram[2, 4] == pytest.approx(1.0 / 2.0)
    assert gram[0, 2] == 0.0


def test_sse_trace_identity():
    rng = np.random.default_rng(56)
    for _ in range(10):
        n_tasks = int(rng.integers(3, 9))
        k = int(rng.integers(1, n_tasks + 1))
        labels = tuple(int(v) for v in rng.integers(0, k, size=n_tasks))
        # Renumber to contiguous ids so the indicator accepts them.
        uniq = sorted(set(labels))
        labels = tuple(uniq.index(v) for v in labels)
        phi = rng.normal(size=(n_tasks, 5))
        sse = 0.0
        for g in set(labels):
            members = [t for t in range(n_tasks) if labels[t] == g]
            center = phi[members].mean(axis=0)
            sse += sum(float(np.sum((phi[t] - center) ** 2)) for t in members)
        o = cluster_indicator(labels)
        identity = float(np.trace(phi.T @ phi) - np.trace(phi.T @ o @ o.T @ phi))
        assert sse == pytest.approx(identity, abs=1e-10)


def test_clustered_model_validation():
    params = CmtlParams(rho1=1.0, rho2=1.0, k=2)
    c = RelaxedClusterMatrix(matrix=np.diag([1.0, 1.0, 0.0]), k=2)
    fields = dict(
        weights=np.zeros((3, 2)),
        feature_names=("a", "b"),
        task_labels=("t0", "t1", "t2"),
        model_type="cmtl",
        cluster_matrix=c,
        params=params,
        kmeans_seed=0,
    )
    with pytest.raises(ValueError, match="contiguous"):
        MtlModel(**fields, assignments=(0, 2, 2))  # skips id 1
    with pytest.raises(ValueError, match="need 3 assignments"):
        MtlModel(**fields, assignments=(0, 1))
    # Every cluster field is required for cmtl, and lam is not.
    with pytest.raises(ValueError, match="sets cluster_matrix, params, assignments, kmeans_seed"):
        MtlModel(**{**fields, "kmeans_seed": None}, assignments=(0, 1, 1))
    with pytest.raises(ValueError, match="got lam, cluster_matrix"):
        MtlModel(**fields, assignments=(0, 1, 1), lam=0.1)
    model = MtlModel(**fields, assignments=[0, 1, 1])
    assert model.model_type == "cmtl"
    assert model.assignments == (0, 1, 1) and model.lam is None
    np.testing.assert_array_equal(model.intercept, np.zeros(3))


def test_clustered_model_rejects_wrong_intercept_shape():
    c = RelaxedClusterMatrix(matrix=np.diag([1.0, 1.0, 0.0]), k=2)
    with pytest.raises(ValueError, match=r"intercept must have shape \(3,\), got \(2,\)"):
        MtlModel(
            weights=np.zeros((3, 2)),
            feature_names=("a", "b"),
            task_labels=("t0", "t1", "t2"),
            intercept=np.zeros(2),
            model_type="cmtl",
            cluster_matrix=c,
            params=CmtlParams(rho1=1.0, rho2=1.0, k=2),
            assignments=(0, 1, 1),
            kmeans_seed=0,
        )


def _ragged_dataset(rng, sizes, n_features):
    """Tasks in two planted groups with the given row counts."""
    u = rng.normal(size=n_features)
    xs, ys = [], []
    for t, n in enumerate(sizes):
        x = rng.normal(size=(n, n_features))
        xs.append(x)
        ys.append(x @ (u if t % 2 else -u) + 0.3 * rng.normal(size=n))
    return _dataset(xs, ys)


def _reference_solve(ds, params, cfg, back=None):
    """FISTA over [W | C] on the oracles' objective, or over [V | C] with w_t = back_t v_t.

    Returns the solution's W and C and the solve's trace.
    """
    n_tasks, n_features = ds.n_tasks, ds.n_features
    if back is None:
        back = np.broadcast_to(np.eye(n_features), (n_tasks, n_features, n_features))

    def split(z):
        return np.einsum("tij,tj->ti", back, z[:, :n_features]), z[:, n_features:]

    def value(z):
        w, c = split(z)
        try:
            return cmtl_objective(w, c, ds, params)
        except ValueError:  # eta*I + C is not positive definite
            return math.inf

    def grad(z):
        w, c = split(z)
        grad_v = np.einsum("tij,ti->tj", back, grad_phi(w, c, ds, params))
        return np.hstack([grad_v, c - grad_c_step(w, c, params, gamma=1.0)])

    def prox(h, step):
        return np.hstack([h[:, :n_features], project_spectral(h[:, n_features:], params.k).matrix])

    z0 = np.hstack([np.zeros((n_tasks, n_features)), (params.k / n_tasks) * np.eye(n_tasks)])
    z, trace = solve(ProximalProblem(value, grad, prox, value), z0, cfg)
    return (*split(z), trace)


def _mapping_norm(w, c, ds, params):
    """The unit-step prox-gradient mapping norm at [W | C], in the original variables."""
    c_step = c - project_spectral(grad_c_step(w, c, params, gamma=1.0), params.k).matrix
    return math.hypot(np.linalg.norm(grad_phi(w, c, ds, params)), np.linalg.norm(c_step))


# Rows per task below and above J + 1 = 13, so the stacked R factors are
# both zero-padded and compressed.
_RAGGED_SIZES = (5, 13, 40, 300, 8, 90)


def test_fit_matches_reference_solve_on_ragged_tasks():
    # The reference solve takes the fit's change of variables from the
    # oracles, so the two follow the same iterates.
    ds = _ragged_dataset(np.random.default_rng(60), _RAGGED_SIZES, 12)
    params = CmtlParams(rho1=0.2, rho2=0.3, k=2)
    cfg = SolverConfig(max_iters=2000, rel_tol=1e-9)
    model = fit_cmtl(factors(ds), params, cfg)
    w_ref, c_ref, trace_ref = _reference_solve(ds, params, cfg, cmtl_metric_back(ds, params))

    assert trace_ref.converged
    assert model.trace.iterations == trace_ref.iterations
    np.testing.assert_allclose(model.weights, w_ref, rtol=0, atol=1e-10)
    np.testing.assert_allclose(model.cluster_matrix.matrix, c_ref, rtol=0, atol=1e-10)


def test_preconditioned_fit_is_closer_to_the_optimum_than_a_plain_solve():
    ds = _ragged_dataset(np.random.default_rng(60), _RAGGED_SIZES, 12)
    params = CmtlParams(rho1=0.2, rho2=0.3, k=2)
    cfg = SolverConfig(max_iters=2000, rel_tol=1e-6)
    model = fit_cmtl(factors(ds), params, cfg)
    w_plain, c_plain, trace_plain = _reference_solve(ds, params, cfg)
    w, c = model.weights, model.cluster_matrix.matrix

    assert model.trace.converged and trace_plain.converged
    assert model.trace.iterations < trace_plain.iterations
    assert cmtl_objective(w, c, ds, params) <= cmtl_objective(w_plain, c_plain, ds, params)
    assert _mapping_norm(w, c, ds, params) < _mapping_norm(w_plain, c_plain, ds, params)


@pytest.mark.parametrize("rho", [1e-12, 1e-300])
def test_fit_with_tiny_rho_converges(rho):
    # delta = 2 * rho against Hessians of rank 5 and 8 in 12 features; at
    # 1e-300 only the floor keeps the metric's Cholesky factorization defined.
    ds = _ragged_dataset(np.random.default_rng(60), _RAGGED_SIZES, 12)
    params = CmtlParams(rho1=rho, rho2=rho, k=2)
    cfg = SolverConfig(max_iters=2000, rel_tol=1e-6)
    model = fit_cmtl(factors(ds), params, cfg)
    w_plain, c_plain, _ = _reference_solve(ds, params, cfg)

    assert model.trace.converged
    assert cmtl_objective(
        model.weights, model.cluster_matrix.matrix, ds, params
    ) <= cmtl_objective(w_plain, c_plain, ds, params)


def test_fit_on_streamed_factors_matches_fit_on_rows(tmp_path):
    # The ragged fixture above, written out and read back by load_factors.
    ds = _ragged_dataset(np.random.default_rng(60), _RAGGED_SIZES, 12)
    path = tmp_path / "ragged.csv"
    write_csv_rows(ds, path, "task", "y")
    params = CmtlParams(rho1=0.2, rho2=0.3, k=2)
    cfg = SolverConfig(max_iters=2000, rel_tol=1e-9)
    streamed = fit_cmtl(load_factors(path, "task", "y"), params, cfg)
    rows = fit_cmtl(factors(ds), params, cfg)
    assert streamed.trace.iterations == rows.trace.iterations
    np.testing.assert_allclose(streamed.weights, rows.weights, rtol=0, atol=1e-10)
    np.testing.assert_allclose(
        streamed.cluster_matrix.matrix, rows.cluster_matrix.matrix, rtol=0, atol=1e-10
    )


def test_smooth_part_compares_points_by_value():
    rng = np.random.default_rng(61)
    ds, _ = _planted_dataset(rng, n_tasks=4, n_features=3, n_rows=9)
    params = CmtlParams(rho1=0.4, rho2=0.6, k=2)
    objective = _Objective(factors(ds), params)
    back = cmtl_metric_back(ds, params)
    # The prox evaluates the point it returns from its projection's eigenpairs.
    z = objective.prox(rng.normal(size=(4, 7)), 1.0)

    def expected(z):
        # The value is F at W = L^{-T} V, and the gradient in V is L^{-1} dF/dW.
        w, c = np.einsum("tij,tj->ti", back, z[:, :3]), z[:, 3:]
        grad_w = grad_phi(w, c, ds, params)
        return cmtl_objective(w, c, ds, params), np.einsum("tij,ti->tj", back, grad_w)

    assert objective.value(z) == pytest.approx(expected(z)[0], rel=1e-12)
    for mutate in (lambda z: z.__setitem__((0, 0), z[0, 0] + 1.0),
                   lambda z: z.__setitem__((slice(None), slice(3, None)), np.eye(4) / 2)):
        before = objective.value(z)
        mutate(z)  # same array object, new contents
        value, grad_v = expected(z)
        assert objective.value(z) != before
        assert objective.value(z) == pytest.approx(value, rel=1e-12)
        np.testing.assert_allclose(objective.grad(z)[:, :3], grad_v, rtol=1e-10, atol=1e-12)


def test_projection_keeps_a_spectrum_of_its_matrix():
    # The projection checks and stores its own eigenpairs; they must be those
    # a validating construction of the same matrix finds, up to roundoff.
    rng = np.random.default_rng(62)
    for _ in range(10):
        t = int(rng.integers(2, 9))
        k = int(rng.integers(1, t))
        out = project_spectral(rng.normal(scale=2.0, size=(t, t)), k)
        eigs, vecs = out.spectrum
        assert not eigs.flags.writeable and not vecs.flags.writeable
        np.testing.assert_allclose((vecs * eigs) @ vecs.T, out.matrix, rtol=0, atol=1e-13)
        again = RelaxedClusterMatrix(matrix=out.matrix, k=k)
        np.testing.assert_allclose(eigs, again.spectrum[0], rtol=0, atol=1e-13)


def test_relaxed_cluster_matrix_from_spectrum_checks_box_and_trace():
    vecs = np.linalg.qr(np.random.default_rng(63).normal(size=(3, 3)))[0]
    with pytest.raises(ValueError, match="eigenvalue"):
        RelaxedClusterMatrix._from_spectrum(np.array([-0.5, 0.0, 1.5]), vecs, 1)
    with pytest.raises(ValueError, match="trace"):
        RelaxedClusterMatrix._from_spectrum(np.array([0.0, 0.5, 0.9]), vecs, 1)


@pytest.mark.parametrize("min_eig, finite", [(1e-13, False), (1e-11, True)])
def test_smooth_part_is_inf_unless_coupling_is_positive_definite(min_eig, finite):
    rng = np.random.default_rng(64)
    ds, _ = _planted_dataset(rng, n_tasks=4, n_features=3, n_rows=9)
    data = factors(ds)
    w = rng.normal(size=(4, 3))
    q = np.linalg.qr(rng.normal(size=(4, 4)))[0]

    # A point no projection produced: the Cholesky test decides.
    params = CmtlParams(rho1=0.4, rho2=0.6, k=2)
    c = (q * np.array([min_eig - params.eta, 0.3, 0.5, 0.9])) @ q.T
    value = _Objective(data, params).value(np.hstack([w, 0.5 * (c + c.T)]))
    assert math.isfinite(value) == finite

    # A point the prox returns: its projection's eigenvalues decide. C is in
    # the feasible set already, so the projection keeps its zero eigenvalue
    # (up to roundoff), and with eta = min_eig, min eig(eta*I + C) is min_eig.
    params = CmtlParams(rho1=1.0, rho2=min_eig, k=2)
    objective = _Objective(data, params)
    c = (q * np.array([0.0, 0.4, 0.6, 1.0])) @ q.T
    z = objective.prox(np.hstack([w, 0.5 * (c + c.T)]), 1.0)
    assert math.isfinite(objective.value(z)) == finite


def test_fit_decomposes_only_projections_and_the_result(monkeypatch):
    # One eigh per projection and one for the fitted C's spectrum, whose
    # eigenvectors the clusters are extracted from; search points, the
    # start point and the fitted C's validation take none.
    from taskreg import cmtl

    counts = {"eigh": 0, "project": 0}
    eigh, project = np.linalg.eigh, cmtl.project_spectral

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", eigh))
    monkeypatch.setattr(cmtl, "project_spectral", counted("project", project))
    ds = _ragged_dataset(np.random.default_rng(65), (5, 13, 40, 30, 8, 20), 6)
    model = fit_cmtl(
        factors(ds), CmtlParams(rho1=0.2, rho2=0.3, k=2), SolverConfig(max_iters=200)
    )
    assert model.trace.iterations > 10
    assert counts["project"] >= model.trace.iterations
    assert counts["eigh"] == counts["project"] + 1
    # Those eigenvectors round to the clusters extract_clusters finds in the fitted C.
    assert model.assignments == extract_clusters(model.cluster_matrix.matrix, 2, model.kmeans_seed)


def _whole_batch_metric(f, params):
    """The design and L^{-T} of :class:`_Objective`, each step taken on every task at once."""
    design = f.design_stack(intercept=False)
    a = design[..., :-1]
    hess = np.matmul(a.transpose(0, 2, 1), a)
    hess *= (2.0 / np.array(f.counts, dtype=np.float64))[:, None, None]
    delta = np.maximum(2.0 * params.rho2, 1e-12 * np.trace(hess, axis1=1, axis2=2))
    diagonal = np.arange(f.n_features)
    hess[:, diagonal, diagonal] += delta[:, None]
    back = np.linalg.inv(np.linalg.cholesky(hess)).transpose(0, 2, 1)
    a[...] = np.matmul(a, back)
    return design, back


def _hundred_tasks():
    # Tasks of 4 to 30 rows, so some factors are shorter than the padded design.
    rng = np.random.default_rng(71)
    return factors(_ragged_dataset(rng, rng.integers(4, 31, size=100), 20))


def test_metric_set_up_in_blocks_matches_one_batch():
    from taskreg import cmtl

    f = _hundred_tasks()
    assert f.n_tasks % cmtl._METRIC_BLOCK  # the last block is partial
    params = CmtlParams(rho1=0.2, rho2=0.3, k=3)
    objective = _Objective(f, params)
    design, back = _whole_batch_metric(f, params)
    assert objective._r.tobytes() == design.tobytes()
    assert objective._back.tobytes() == back.tobytes()


def test_metric_setup_holds_one_block_of_temporaries():
    import tracemalloc

    from taskreg import cmtl

    f = _hundred_tasks()
    params = CmtlParams(rho1=0.2, rho2=0.3, k=3)
    j = f.n_features
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        objective = _Objective(f, params)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    kept = objective._r.nbytes + objective._back.nbytes
    # A block's Hessians, Cholesky factors and inverses, and its product with
    # its design; every task's at once would be 2 * 100 * J * J doubles more.
    block = 4 * cmtl._METRIC_BLOCK * (j + 1) * (j + 1) * 8
    assert peak <= kept + block + 32 * 1024, (peak, kept, block)


# Finite entries near the largest double overflow the feasibility checks'
# own arithmetic; the matrix is rejected all the same, with no warning.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[0.5, 1e308], [-1e308, 0.5]], "cluster matrix asymmetric by inf"),
        ([[1e308, 0.0], [0.0, 1e308]], "trace differs from k=1 by inf"),
        # Symmetric, so only the box refuses it; halving before the sum keeps S finite.
        ([[0.5, 1e308], [1e308, 0.5]], "eigenvalues [-1e+308, 1e+308] leave [0, 1]"),
    ],
    ids=["asymmetry", "trace", "box"],
)
def test_cluster_matrix_whose_checks_overflow_is_rejected(matrix, message):
    with pytest.raises(ValueError) as info:
        RelaxedClusterMatrix(matrix=matrix, k=1)
    assert str(info.value) == message


def _with_eigenvalues(eigs, seed):
    """A symmetric matrix with eigenvalues ``eigs`` and random orthogonal eigenvectors."""
    q = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(eigs), len(eigs))))[0]
    c = (q * np.asarray(eigs, dtype=np.float64)) @ q.T
    return 0.5 * (c + c.T)


def _raise(*args, **kwargs):
    raise AssertionError("an eigensolver was called")


def test_construction_calls_no_eigensolver(monkeypatch):
    # The box is checked by Cholesky factorizations; a matrix inside it
    # needs no eigenvalues.
    c = _with_eigenvalues([0.0, 0.2, 0.8, 1.0, 0.0, 0.0], 72)
    monkeypatch.setattr(np.linalg, "eigh", _raise)
    monkeypatch.setattr(np.linalg, "eigvalsh", _raise)
    assert RelaxedClusterMatrix(matrix=c, k=2) == RelaxedClusterMatrix(matrix=c.copy(), k=2)
    RelaxedClusterMatrix(matrix=np.diag([1.0, 1.0, 0.0]), k=2)


def test_spectrum_is_computed_once_when_first_read(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    c = _with_eigenvalues([0.1, 0.3, 0.6, 1.0, 0.0], 73)
    c[0, 1] += 1e-12  # asymmetric within tolerance: the spectrum is that of (C + C^T)/2
    monkeypatch.setattr(np.linalg, "eigh", counted)
    matrix = RelaxedClusterMatrix(matrix=c, k=2)
    assert calls == []
    first = matrix.spectrum
    assert matrix.spectrum is first
    assert len(calls) == 1
    expected = eigh(0.5 * (c + c.T))
    for got, want in zip(first, expected):
        assert not got.flags.writeable
        np.testing.assert_array_equal(got, want)
    with pytest.raises(AttributeError):  # FrozenInstanceError
        matrix.spectrum = expected

    # Eigenpairs already known are the spectrum as given, with no eigh.
    vecs = np.linalg.qr(np.random.default_rng(74).normal(size=(4, 4)))[0]
    eigs = np.array([0.0, 0.25, 0.75, 1.0])
    known = RelaxedClusterMatrix._from_spectrum(eigs, vecs, 2)
    assert known.spectrum[0] is eigs and known.spectrum[1] is vecs
    assert len(calls) == 1


@pytest.mark.parametrize(
    "eigs, message",
    [
        ([-_TAU / 2, 0.5, 0.5 + _TAU / 2, 1.0], None),
        ([0.25, 0.25, 0.5 - _TAU / 2, 1.0 + _TAU / 2], None),
        ([-2 * _TAU, 0.5, 0.5 + 2 * _TAU, 1.0], "eigenvalues [-2e-08, 1] leave [0, 1]"),
        ([0.25, 0.25, 0.5 - 2 * _TAU, 1.0 + 2 * _TAU], "eigenvalues [0.25, 1] leave [0, 1]"),
    ],
    ids=["low-inside", "high-inside", "low-outside", "high-outside"],
)
def test_eigenvalue_box_keeps_its_tolerance(eigs, message):
    c = _with_eigenvalues(eigs, 75)
    if message is None:
        RelaxedClusterMatrix(matrix=c, k=2)
        return
    with pytest.raises(ValueError) as info:
        RelaxedClusterMatrix(matrix=c, k=2)
    assert str(info.value) == message
