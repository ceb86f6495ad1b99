"""Group-sparse multi-task model: objective pieces, prox, fitting and prediction.

The raw-row objective pieces (``loss``, ``grad_loss``, ``objective``) are
test oracles; the fit runs on batched QR factors.
"""

import numpy as np
import pytest

from taskreg.baselines import predictions_for_task
from taskreg.fista import SolverConfig
from taskreg.mtl import MtlModel, fit_mtl, l21_norm, lambda_max, prox_l21

from oracles import (
    MultiTaskDataset,
    TaskData,
    central_difference_grad,
    factors,
    grad_loss,
    loss,
    objective,
    ols_normal_equations,
    prox_l21_projected_subgradient,
)


def _dataset(xs, ys, labels=None):
    tasks = tuple(
        TaskData(label=labels[t] if labels else f"t{t}", X=np.asarray(x, float), Y=np.asarray(y, float))
        for t, (x, y) in enumerate(zip(xs, ys))
    )
    names = tuple(f"f{j}" for j in range(tasks[0].X.shape[1]))
    return MultiTaskDataset(tasks=tasks, feature_names=names)


def _random_dataset(rng, n_tasks=3, n_features=4, n_rows=6):
    xs = [rng.normal(size=(n_rows, n_features)) for _ in range(n_tasks)]
    ys = [rng.normal(size=n_rows) for _ in range(n_tasks)]
    return _dataset(xs, ys)


def test_loss_examples():
    ds = _dataset([np.eye(2)], [[1.0, 2.0]])
    w = np.array([[1.0, 2.0]])
    assert loss(w, ds) == 0.0
    # Zero weights: 0.5 * ||y||^2 = 0.5 * 5
    assert loss(np.zeros((1, 2)), ds) == pytest.approx(2.5)
    # Two identical tasks double the loss.
    ds2 = _dataset([np.eye(2), np.eye(2)], [[1.0, 2.0], [1.0, 2.0]])
    assert loss(np.zeros((2, 2)), ds2) == pytest.approx(5.0)


def test_loss_shape_check():
    ds = _dataset([np.eye(2)], [[1.0, 2.0]])
    with pytest.raises(ValueError, match="shape"):
        loss(np.zeros((2, 2)), ds)


def test_grad_loss_zero_at_exact_fit():
    ds = _dataset([np.eye(2)], [[1.0, 2.0]])
    np.testing.assert_array_equal(grad_loss(np.array([[1.0, 2.0]]), ds), np.zeros((1, 2)))


def test_grad_loss_at_zero_weights():
    rng = np.random.default_rng(21)
    ds = _random_dataset(rng)
    g = grad_loss(np.zeros((3, 4)), ds)
    expected = np.vstack([-(t.X.T @ t.Y) for t in ds.tasks])
    np.testing.assert_allclose(g, expected, atol=1e-12)


def test_grad_loss_matches_finite_differences():
    rng = np.random.default_rng(22)
    ds = _random_dataset(rng)
    w = rng.normal(size=(3, 4))
    fd = central_difference_grad(lambda v: loss(v, ds), w)
    g = grad_loss(w, ds)
    assert np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(fd)) < 1e-6


def test_l21_norm_examples():
    assert l21_norm(np.zeros((3, 2))) == 0.0
    assert l21_norm(np.array([[3.0], [4.0]])) == pytest.approx(5.0)
    # Single task: reduces to the l1 norm of the row.
    assert l21_norm(np.array([[1.0, -2.0, 3.0]])) == pytest.approx(6.0)


def test_objective_composition():
    ds = _dataset([np.eye(2)], [[1.0, 2.0]])
    w = np.array([[0.0, 0.0]])
    assert objective(w, ds, lam=2.0) == pytest.approx(loss(w, ds))
    w = np.array([[3.0, 4.0]])
    assert objective(w, ds, 2.0) == pytest.approx(loss(w, ds) + 2.0 * 7.0)
    with pytest.raises(ValueError, match="lambda"):
        objective(w, ds, -0.1)


def test_prox_l21_examples():
    h = np.array([[3.0], [4.0]])
    np.testing.assert_allclose(prox_l21(h, 2.0), [[1.8], [2.4]])
    # Column norm below the threshold vanishes.
    np.testing.assert_array_equal(prox_l21(np.array([[0.5], [0.0]]), 2.0), np.zeros((2, 1)))
    # Zero threshold is the identity.
    h = np.array([[1.0, -2.0], [0.0, 5.0]])
    np.testing.assert_array_equal(prox_l21(h, 0.0), h)
    with pytest.raises(ValueError, match="threshold"):
        prox_l21(h, -1.0)


def test_prox_l21_matches_oracle():
    rng = np.random.default_rng(23)
    for _ in range(5):
        h = rng.normal(size=(3, 6))
        thr = float(rng.uniform(0.1, 1.5))
        expected = prox_l21_projected_subgradient(h, thr)
        np.testing.assert_allclose(prox_l21(h, thr), expected, atol=1e-8)


def test_prox_l21_nonexpansive():
    rng = np.random.default_rng(24)
    for _ in range(20):
        a = rng.normal(size=(4, 7))
        b = rng.normal(size=(4, 7))
        thr = float(rng.uniform(0, 2))
        d_in = np.linalg.norm(a - b)
        d_out = np.linalg.norm(prox_l21(a, thr) - prox_l21(b, thr))
        assert d_out <= d_in + 1e-12


def test_lambda_max_formula():
    rng = np.random.default_rng(25)
    ds = _random_dataset(rng)
    stacked = np.vstack([t.X.T @ t.Y for t in ds.tasks])
    assert lambda_max(factors(ds)) == pytest.approx(np.linalg.norm(stacked, axis=0).max())


def test_fit_is_zero_at_lambda_max():
    rng = np.random.default_rng(26)
    ds = _random_dataset(rng, n_rows=12)
    lmax = lambda_max(factors(ds))
    model = fit_mtl(factors(ds), lmax)
    np.testing.assert_array_equal(model.weights, np.zeros((3, 4)))
    above = fit_mtl(factors(ds), 1.01 * lmax)
    np.testing.assert_array_equal(above.weights, np.zeros((3, 4)))
    below = fit_mtl(factors(ds), 0.5 * lmax, SolverConfig(max_iters=3000, rel_tol=1e-12))
    assert np.linalg.norm(below.weights) > 0


def test_fit_single_task_unpenalized_matches_ols():
    rng = np.random.default_rng(27)
    x = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    ds = _dataset([x], [y])
    model = fit_mtl(factors(ds), 0.0, SolverConfig(max_iters=5000, rel_tol=1e-14))
    np.testing.assert_allclose(model.weights[0], ols_normal_equations(x, y), atol=1e-6)


def test_fit_optimality_certificate():
    # At a minimizer, -grad(loss) must lie in lam * subdifferential of the
    # column-norm penalty: active columns satisfy g_j = -lam * w_j/||w_j||
    # and zero columns satisfy ||g_j|| <= lam.
    rng = np.random.default_rng(28)
    ds = _random_dataset(rng, n_tasks=3, n_features=8, n_rows=25)
    lam = 0.3 * lambda_max(factors(ds))
    model = fit_mtl(factors(ds), lam, SolverConfig(max_iters=20000, rel_tol=1e-15))
    g = grad_loss(model.weights, ds)
    norms = np.linalg.norm(model.weights, axis=0)
    for j in range(8):
        if norms[j] > 1e-9:
            direction = model.weights[:, j] / norms[j]
            np.testing.assert_allclose(g[:, j], -lam * direction, atol=1e-4)
        else:
            assert np.linalg.norm(g[:, j]) <= lam + 1e-4


def test_fit_objective_never_worse_than_zero():
    rng = np.random.default_rng(29)
    ds = _random_dataset(rng)
    lam = 0.2 * lambda_max(factors(ds))
    model = fit_mtl(factors(ds), lam)
    assert objective(model.weights, ds, lam) <= objective(np.zeros((3, 4)), ds, lam) + 1e-12


def test_fit_deterministic():
    rng = np.random.default_rng(30)
    ds = _random_dataset(rng)
    a = fit_mtl(factors(ds), 0.1)
    b = fit_mtl(factors(ds), 0.1)
    np.testing.assert_array_equal(a.weights, b.weights)


def test_fit_intercept_absorbs_shift():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(40, 3))
    w_true = np.array([1.0, -2.0, 0.5])
    y = x @ w_true + 7.0
    ds = _dataset([x], [y])
    model = fit_mtl(
        factors(ds), 0.0, SolverConfig(max_iters=8000, rel_tol=1e-15), fit_intercept=True
    )
    assert model.intercept[0] == pytest.approx(7.0, abs=1e-4)
    np.testing.assert_allclose(model.weights[0], w_true, atol=1e-4)
    # Without an intercept the shift leaks into the residual.
    flat = fit_mtl(factors(ds), 0.0, SolverConfig(max_iters=8000, rel_tol=1e-15))
    assert loss(model.weights, ds) > 0  # weights alone do not explain y
    assert np.linalg.norm(flat.weights[0] - w_true) > 1e-3


def test_intercept_is_never_penalized():
    rng = np.random.default_rng(32)
    x = rng.normal(size=(30, 2))
    y = x @ np.array([0.1, -0.1]) + 5.0
    ds = _dataset([x], [y])
    model = fit_mtl(factors(ds), 10.0 * lambda_max(factors(ds)), fit_intercept=True)
    np.testing.assert_array_equal(model.weights, np.zeros((1, 2)))
    assert abs(model.intercept[0]) > 1.0  # shrunk toward nothing, fits the mean


def test_model_validation():
    with pytest.raises(ValueError, match="2-D"):
        MtlModel(weights=np.zeros(3), lam=0.0, feature_names=("a",), task_labels=("t",))
    with pytest.raises(ValueError, match="inconsistent"):
        MtlModel(weights=np.zeros((1, 2)), lam=0.0, feature_names=("a",), task_labels=("t",))
    with pytest.raises(ValueError) as info:
        MtlModel(weights=np.zeros((1, 1)), lam=-1.0, feature_names=("a",), task_labels=("t",))
    assert str(info.value) == "lam must be finite and >= 0, got -1.0"
    # mtl and stl need lam and take no cluster fields; the type must be known.
    axes = dict(weights=np.zeros((1, 1)), feature_names=("a",), task_labels=("t",))
    with pytest.raises(ValueError, match="'stl' sets lam, got none"):
        MtlModel(**axes, model_type="stl")
    with pytest.raises(ValueError, match="sets lam, got lam, kmeans_seed"):
        MtlModel(**axes, lam=0.0, kmeans_seed=0)
    with pytest.raises(ValueError, match="unknown model_type 'forest'"):
        MtlModel(**axes, lam=0.0, model_type="forest")
    model = MtlModel(weights=np.zeros((1, 1)), lam=0.0, feature_names=("a",), task_labels=("t",))
    np.testing.assert_array_equal(model.intercept, [0.0])
    with pytest.raises(ValueError):
        model.weights[0, 0] = 1.0


def test_predict_examples():
    model = MtlModel(
        weights=np.array([[1.0, 2.0], [0.0, -1.0]]),
        lam=0.0,
        feature_names=("a", "b"),
        task_labels=("t0", "t1"),
    )
    x = np.array([[1.0, 1.0], [2.0, 0.0]])
    np.testing.assert_allclose(predictions_for_task(model, x, 0), [3.0, 2.0])
    np.testing.assert_allclose(predictions_for_task(model, x, 1), [-1.0, 0.0])
    np.testing.assert_allclose(predictions_for_task(model, x, np.array([1, 0])), [-1.0, 2.0])
    with pytest.raises(IndexError, match="out of bounds"):
        predictions_for_task(model, x, 2)
    with pytest.raises(ValueError, match="shape"):
        predictions_for_task(model, np.ones((2, 3)), 0)


def test_predict_with_intercept():
    model = MtlModel(
        weights=np.array([[2.0]]),
        lam=0.0,
        feature_names=("a",),
        task_labels=("t",),
        intercept=np.array([10.0]),
    )
    np.testing.assert_allclose(predictions_for_task(model, np.array([[3.0]]), 0), [16.0])


def test_sparsity_path_is_monotone_small():
    rng = np.random.default_rng(33)
    ds = _random_dataset(rng, n_tasks=2, n_features=6, n_rows=15)
    lmax = lambda_max(factors(ds))
    counts = []
    for frac in np.linspace(0.0, 1.0, 6):
        model = fit_mtl(factors(ds), frac * lmax, SolverConfig(max_iters=4000, rel_tol=1e-12))
        counts.append(int((np.linalg.norm(model.weights, axis=0) < 1e-8).sum()))
    assert counts == sorted(counts)
    assert counts[-1] == 6
