"""Single-task baselines and MAE reporting."""

import numpy as np
import pytest

from taskreg.baselines import (
    StlSpec,
    evaluate,
    fit_stl,
    predictions_for_task,
    write_mae_table,
)
from taskreg.fista import SolverConfig
from taskreg.mtl import MtlModel, fit_mtl

from oracles import (
    MultiTaskDataset,
    TaskData,
    factors,
    minmax_scale,
    ols_normal_equations,
    write_csv_rows,
)

TIGHT = SolverConfig(max_iters=6000, rel_tol=1e-14)


def _dataset(xs, ys, labels=None):
    tasks = tuple(
        TaskData(
            label=labels[t] if labels else f"t{t}",
            X=np.asarray(x, float),
            Y=np.asarray(y, float),
        )
        for t, (x, y) in enumerate(zip(xs, ys))
    )
    names = tuple(f"f{j}" for j in range(tasks[0].X.shape[1]))
    return MultiTaskDataset(tasks=tasks, feature_names=names)


def _evaluate(tmp_path, model, ds, total_mode="pooled"):
    """``evaluate`` of one model on the dataset's rows, written to a CSV file first."""
    path = tmp_path / "test.csv"
    write_csv_rows(ds, path, "task", "outcome")
    return evaluate([model], path, "task", "outcome").report(0, total_mode)


def test_spec_validation():
    with pytest.raises(ValueError, match="setting"):
        StlSpec(setting="pooled", penalty="none")
    with pytest.raises(ValueError, match="penalty"):
        StlSpec(setting="global", penalty="elastic")
    with pytest.raises(ValueError, match="lam"):
        StlSpec(setting="global", penalty="ridge", lam=-1.0)
    with pytest.raises(ValueError, match="'none' requires"):
        StlSpec(setting="global", penalty="none", lam=0.5)


def test_individual_none_matches_unpenalized_mtl():
    rng = np.random.default_rng(70)
    ds = factors(_dataset([rng.normal(size=(18, 3))], [rng.normal(size=18)]))
    stl = fit_stl(ds, StlSpec(setting="individual", penalty="none"), TIGHT)
    mtl = fit_mtl(ds, 0.0, TIGHT)
    np.testing.assert_allclose(stl.weights, mtl.weights, atol=1e-8)
    assert stl.model_type == "stl"
    assert stl.stl_setting == "individual"
    assert stl.stl_penalty == "none"


def test_global_pooling_on_identical_tasks():
    rng = np.random.default_rng(71)
    x = rng.normal(size=(15, 4))
    y = rng.normal(size=15)
    ds = factors(_dataset([x, x], [y, y]))
    pooled = fit_stl(ds, StlSpec(setting="global", penalty="none"), TIGHT)
    alone = fit_stl(
        factors(_dataset([x], [y])), StlSpec(setting="individual", penalty="none"), TIGHT
    )
    np.testing.assert_allclose(pooled.weights[0], alone.weights[0], atol=1e-6)
    # The global row is replicated to every task.
    np.testing.assert_array_equal(pooled.weights[0], pooled.weights[1])


def test_global_matches_stacked_normal_equations():
    rng = np.random.default_rng(72)
    xs = [rng.normal(size=(12, 3)) for _ in range(3)]
    ys = [rng.normal(size=12) for _ in range(3)]
    model = fit_stl(
        factors(_dataset(xs, ys)), StlSpec(setting="global", penalty="none"), TIGHT
    )
    w = ols_normal_equations(np.vstack(xs), np.concatenate(ys))
    np.testing.assert_allclose(model.weights[0], w, atol=1e-6)


def test_ridge_shrinks_to_zero():
    rng = np.random.default_rng(73)
    ds, _ = minmax_scale(_dataset([rng.random((20, 3))], [rng.random(20)]))
    model = fit_stl(
        factors(ds), StlSpec(setting="individual", penalty="ridge", lam=1e6), TIGHT
    )
    assert np.linalg.norm(model.weights) < 1e-3


def test_ridge_matches_closed_form():
    rng = np.random.default_rng(74)
    x = rng.normal(size=(25, 4))
    y = rng.normal(size=25)
    lam = 0.7
    model = fit_stl(
        factors(_dataset([x], [y])),
        StlSpec(setting="individual", penalty="ridge", lam=lam),
        TIGHT,
    )
    # argmin 0.5||Xw - y||^2 + lam ||w||^2 solves (X^T X + 2 lam I) w = X^T y.
    w = np.linalg.solve(x.T @ x + 2 * lam * np.eye(4), x.T @ y)
    np.testing.assert_allclose(model.weights[0], w, atol=1e-6)


def test_lasso_zeroes_out_at_large_lambda():
    rng = np.random.default_rng(75)
    x = rng.normal(size=(20, 5))
    y = rng.normal(size=20)
    lam = float(np.abs(x.T @ y).max())  # per-coordinate threshold at zero
    model = fit_stl(
        factors(_dataset([x], [y])),
        StlSpec(setting="individual", penalty="lasso", lam=lam),
        TIGHT,
    )
    np.testing.assert_array_equal(model.weights, np.zeros((1, 5)))


def test_individual_fits_each_task_at_least_as_well():
    rng = np.random.default_rng(76)
    xs = [rng.normal(size=(14, 3)) for _ in range(3)]
    ys = [rng.normal(size=14) for _ in range(3)]
    ds = _dataset(xs, ys)
    indiv = fit_stl(factors(ds), StlSpec(setting="individual", penalty="none"), TIGHT)
    pooled = fit_stl(factors(ds), StlSpec(setting="global", penalty="none"), TIGHT)
    assert isinstance(indiv.trace, tuple) and len(indiv.trace) == 3
    for t, task in enumerate(ds.tasks):
        r_i = task.X @ indiv.weights[t] - task.Y
        r_g = task.X @ pooled.weights[t] - task.Y
        assert 0.5 * float(r_i @ r_i) <= 0.5 * float(r_g @ r_g) + 1e-8


def test_stl_deterministic():
    rng = np.random.default_rng(77)
    xs = [rng.normal(size=(10, 3)) for _ in range(2)]
    ds = factors(_dataset(xs, [rng.normal(size=10) for _ in range(2)]))
    spec = StlSpec(setting="individual", penalty="lasso", lam=0.3)
    a = fit_stl(ds, spec, TIGHT)
    b = fit_stl(ds, spec, TIGHT)
    np.testing.assert_array_equal(a.weights, b.weights)


def test_stl_intercept():
    rng = np.random.default_rng(78)
    x = rng.normal(size=(30, 2))
    y = x @ np.array([1.5, -1.0]) + 4.0
    model = fit_stl(
        factors(_dataset([x], [y])),
        StlSpec(setting="individual", penalty="none"),
        TIGHT,
        fit_intercept=True,
    )
    assert model.intercept[0] == pytest.approx(4.0, abs=1e-5)


def _exact_model(weights, labels, names):
    return MtlModel(
        weights=np.asarray(weights, float),
        lam=0.0,
        feature_names=names,
        task_labels=labels,
    )


def test_evaluate_perfect_model(tmp_path):
    rng = np.random.default_rng(80)
    w = rng.normal(size=(2, 3))
    xs = [rng.normal(size=(8, 3)) for _ in range(2)]
    ds = _dataset(xs, [x @ w[t] for t, x in enumerate(xs)])
    report = _evaluate(tmp_path, _exact_model(w, ds.task_labels, ds.feature_names), ds)
    assert report.total == pytest.approx(0.0, abs=1e-12)
    assert all(v == pytest.approx(0.0, abs=1e-12) for v in report.per_task.values())


def test_evaluate_single_task_total(tmp_path):
    rng = np.random.default_rng(81)
    x = rng.normal(size=(9, 2))
    ds = _dataset([x], [rng.normal(size=9)])
    model = _exact_model(np.zeros((1, 2)), ds.task_labels, ds.feature_names)
    report = _evaluate(tmp_path, model, ds)
    assert report.total == pytest.approx(report.per_task["t0"])


def test_evaluate_pooled_vs_macro(tmp_path):
    # Task a: one row, exact. Task b: three rows, each absolute error 4.
    names = ("f0",)
    xs = [np.array([[1.0]]), np.array([[1.0], [1.0], [1.0]])]
    ys = [np.array([2.0]), np.array([6.0, 6.0, 6.0])]
    ds = _dataset(xs, ys, labels=("a", "b"))
    model = _exact_model(np.array([[2.0], [2.0]]), ("a", "b"), names)
    pooled = _evaluate(tmp_path, model, ds, total_mode="pooled")
    assert pooled.per_task == {"a": 0.0, "b": 4.0}
    assert pooled.total == pytest.approx(3.0)  # (0*1 + 4*3) / 4
    macro = _evaluate(tmp_path, model, ds, total_mode="macro")
    assert macro.total == pytest.approx(2.0)
    with pytest.raises(ValueError, match="total_mode"):
        _evaluate(tmp_path, model, ds, total_mode="median")


def test_evaluate_aligns_features_by_name(tmp_path):
    rng = np.random.default_rng(82)
    w = rng.normal(size=(1, 3))
    x = rng.normal(size=(10, 3))
    names = ("f0", "f1", "f2")
    model = _exact_model(w, ("t0",), names)
    base = _evaluate(tmp_path, model, _dataset([x], [x @ w[0]]))
    # Permute the test columns; names travel with them.
    perm = [2, 0, 1]
    permuted = MultiTaskDataset(
        tasks=(TaskData(label="t0", X=x[:, perm], Y=x @ w[0]),),
        feature_names=tuple(names[j] for j in perm),
    )
    shuffled = _evaluate(tmp_path, model, permuted)
    assert shuffled.total == pytest.approx(base.total, abs=1e-12)


def test_evaluate_feature_mismatch_errors(tmp_path):
    model = _exact_model(np.zeros((1, 2)), ("t0",), ("f0", "f1"))
    wrong = MultiTaskDataset(
        tasks=(TaskData(label="t0", X=np.zeros((2, 2)), Y=np.zeros(2)),),
        feature_names=("f0", "other"),
    )
    with pytest.raises(ValueError, match="missing model features: f1"):
        _evaluate(tmp_path, model, wrong)
    unknown_task = MultiTaskDataset(
        tasks=(TaskData(label="t9", X=np.zeros((2, 2)), Y=np.zeros(2)),),
        feature_names=("f0", "f1"),
    )
    with pytest.raises(ValueError, match="no task 't9'"):
        _evaluate(tmp_path, model, unknown_task)


def test_evaluate_undoes_training_scaling(tmp_path):
    rng = np.random.default_rng(83)
    x = rng.uniform(2.0, 9.0, size=(40, 3))
    w_true = np.array([0.5, -1.0, 2.0])
    y = x @ w_true
    train = _dataset([x], [y])
    scaled, params = minmax_scale(train)
    model = fit_stl(
        factors(scaled),
        StlSpec(setting="individual", penalty="none"),
        TIGHT,
        fit_intercept=True,
        scaling=params,
    )
    # Evaluation takes raw features and applies the stored scaling itself.
    report = _evaluate(tmp_path, model, train)
    assert report.total == pytest.approx(0.0, abs=1e-6)
    pred = predictions_for_task(model, x, 0)
    np.testing.assert_allclose(pred, y, atol=1e-5)


def test_evaluate_inverts_outcome_scaling(tmp_path):
    rng = np.random.default_rng(84)
    x = rng.uniform(0.0, 1.0, size=(30, 2))
    y = 50.0 + 20.0 * (x @ np.array([1.0, 1.0]))
    train = _dataset([x], [y])
    scaled, params = minmax_scale(train, scale_outcome=True)
    model = fit_stl(
        factors(scaled),
        StlSpec(setting="individual", penalty="none"),
        TIGHT,
        fit_intercept=True,
        scaling=params,
    )
    report = _evaluate(tmp_path, model, train)
    assert report.total == pytest.approx(0.0, abs=1e-5)


def test_write_mae_table(tmp_path):
    rng = np.random.default_rng(85)
    xs = [rng.normal(size=(4, 2)), rng.normal(size=(6, 2))]
    ys = [rng.normal(size=4), rng.normal(size=6)]
    ds = _dataset(xs, ys, labels=("young", "old"))
    model = _exact_model(np.zeros((2, 2)), ("young", "old"), ds.feature_names)
    reports = {"zeros": _evaluate(tmp_path, model, ds)}
    outcomes = {t.label: t.Y for t in ds.tasks}
    path = tmp_path / "table.csv"
    write_mae_table(reports, outcomes, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "task,n,outcome_mean,outcome_sd,zeros"
    assert lines[1].startswith("young,4,")
    assert lines[2].startswith("old,6,")
    assert lines[3].startswith("TOTAL,10,")
    # Total row pools the outcome statistics over all rows.
    pooled = np.concatenate(ys)
    total_fields = lines[3].split(",")
    assert float(total_fields[2]) == pytest.approx(pooled.mean())
    assert float(total_fields[3]) == pytest.approx(pooled.std())  # descriptive, ddof=0
    assert float(total_fields[4]) == pytest.approx(reports["zeros"].total)
    # Byte-determinism on rewrite.
    again = tmp_path / "table2.csv"
    write_mae_table(reports, outcomes, again)
    assert again.read_bytes() == path.read_bytes()
