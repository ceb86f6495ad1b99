"""Fits on per-task QR factors agree with solves on the raw rows.

Each reference runs ``fista.solve`` on the rows themselves, with the data
term built from the raw-row oracles ``loss`` and ``grad_loss``. The fits
reduce the rows to one R factor per task (``TaskFactors``) and must land
within 1e-10 of the reference.
"""

import json

import numpy as np
import pytest

from taskreg import baselines, cli, mtl
from taskreg.baselines import StlSpec, fit_stl
from taskreg.dataset import load_csv, load_factors
from taskreg.fista import ProximalProblem, SolverConfig, solve
from taskreg.mtl import fit_mtl, l21_norm, prox_l21

from oracles import MultiTaskDataset, TaskData, factors, grad_loss, loss, minmax_scale

TIGHT = SolverConfig(max_iters=20000, rel_tol=1e-11)
ATOL = 1e-10


def _dataset(xs, ys):
    tasks = tuple(TaskData(label=f"t{t}", X=x, Y=y) for t, (x, y) in enumerate(zip(xs, ys)))
    names = tuple(f"f{j}" for j in range(xs[0].shape[1]))
    return MultiTaskDataset(tasks=tasks, feature_names=names)


def _ragged(seed, sizes=(3, 9, 40, 250), n_features=6):
    """Tasks with fewer and with far more rows than J+2, sharing a weight pattern."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=n_features)
    xs = [rng.uniform(-1.0, 1.0, size=(n, n_features)) for n in sizes]
    ys = [x @ (w * (1 + 0.2 * t)) + 1.5 + 0.1 * rng.normal(size=len(x)) for t, x in enumerate(xs)]
    return _dataset(xs, ys)


def _with_ones(ds):
    """The rows with a ones column appended as one more feature."""
    return _dataset(
        [np.column_stack([t.X, np.ones(t.n)]) for t in ds.tasks], [t.Y for t in ds.tasks]
    )


def _reference(ds, penalty, prox):
    """fista.solve on the rows: 0.5 * squared residuals + penalty(w)."""
    problem = ProximalProblem(
        smooth_value=lambda w: loss(w, ds),
        smooth_grad=lambda w: grad_loss(w, ds),
        prox=prox,
        full_objective=lambda w: loss(w, ds) + penalty(w),
    )
    w, trace = solve(problem, np.zeros((ds.n_tasks, ds.n_features)), TIGHT)
    assert trace.converged
    return w


def _mtl_reference(ds, lam, intercept):
    rows = _with_ones(ds) if intercept else ds
    j = ds.n_features

    def prox(h, step):
        out = h.copy()
        out[:, :j] = prox_l21(h[:, :j], lam * step)
        return out

    return _reference(rows, lambda w: lam * l21_norm(w[:, :j]), prox)


_STL_PENALTIES = {
    "none": (lambda w, lam: 0.0, lambda h, step, lam: h.copy()),
    "ridge": (
        lambda w, lam: lam * float(np.sum(w * w)),
        lambda h, step, lam: h / (1 + 2 * lam * step),
    ),
    "lasso": (
        lambda w, lam: lam * float(np.abs(w).sum()),
        lambda h, step, lam: np.sign(h) * np.maximum(np.abs(h) - lam * step, 0.0),
    ),
}


def _stl_terms(penalty, lam, j):
    """An stl penalty and its prox on the first j columns: a ones column after them is free."""
    value, prox = _STL_PENALTIES[penalty]

    def prox_j(h, step):
        out = h.copy()
        out[..., :j] = prox(h[..., :j], step, lam)
        return out

    return (lambda w: value(w[..., :j], lam)), prox_j


def _stl_reference(ds, setting, penalty, lam, intercept=False):
    """With ``intercept`` the last column of each fit is the unpenalized intercept."""
    value, prox = _stl_terms(penalty, lam, ds.n_features)
    rows = _with_ones(ds) if intercept else ds
    if setting == "global":
        pooled_x = np.vstack([t.X for t in rows.tasks])
        blocks = [_dataset([pooled_x], [np.concatenate([t.Y for t in rows.tasks])])]
    else:
        blocks = [_dataset([t.X], [t.Y]) for t in rows.tasks]
    fits = [_reference(block, value, prox) for block in blocks]
    return np.vstack(fits * ds.n_tasks if setting == "global" else fits)


def _built_problem(monkeypatch, module, fit):
    """The ProximalProblem that ``fit()`` hands to ``module.solve``, which returns phi0."""
    built = []

    def capture(problem, phi0, cfg=None):
        built.append(problem)
        return phi0, None

    monkeypatch.setattr(module, "solve", capture)
    fit()
    return built[0]


@pytest.mark.parametrize("model", ["mtl", "stl"])
def test_data_term_compares_points_by_value(monkeypatch, model):
    # The data term reuses the residual of its last point. A point changed in
    # place after a value was taken there is a new point: its gradient, value
    # and objective are those of the new contents.
    ds = _ragged(3)
    if model == "mtl":
        problem = _built_problem(monkeypatch, mtl, lambda: fit_mtl(factors(ds), 0.0))
    else:
        spec = StlSpec(setting="individual", penalty="none")
        problem = _built_problem(monkeypatch, baselines, lambda: fit_stl(factors(ds), spec))
    w = np.random.default_rng(4).normal(size=(ds.n_tasks, ds.n_features))
    before = np.sum(problem.smooth_value(w))
    assert before == pytest.approx(loss(w, ds), rel=1e-10)
    for t in range(ds.n_tasks):
        w[t, t] += 1.0  # same array object, new contents
        np.testing.assert_allclose(problem.smooth_grad(w), grad_loss(w, ds), rtol=1e-9, atol=1e-9)
        for value in (problem.smooth_value(w), problem.full_objective(w)):
            assert np.sum(value) != before
            assert np.sum(value) == pytest.approx(loss(w, ds), rel=1e-10)
        before = np.sum(value)


@pytest.mark.parametrize("intercept", [False, True], ids=["no-intercept", "intercept"])
def test_mtl_and_stl_share_one_objective(monkeypatch, intercept):
    # Unpenalized, mtl's objective is the sum of the individual stl fits'
    # objectives, to the last bit: both are one least-squares definition.
    ds = _ragged(7, sizes=(9, 30, 14, 60, 21), n_features=12)
    ds = _dataset([t.X for t in ds.tasks], [30.0 * t.Y for t in ds.tasks])
    data = factors(ds)
    spec = StlSpec(setting="individual", penalty="none")
    joint = _built_problem(
        monkeypatch, mtl, lambda: fit_mtl(data, 0.0, fit_intercept=intercept)
    )
    single = _built_problem(
        monkeypatch, baselines, lambda: fit_stl(data, spec, fit_intercept=intercept)
    )
    rng = np.random.default_rng(7)
    for _ in range(50):
        w = rng.normal(size=(ds.n_tasks, ds.n_features + intercept))
        assert joint.smooth_value(w) == np.sum(single.smooth_value(w))
        assert joint.full_objective(w) == np.sum(single.full_objective(w))


@pytest.mark.parametrize("intercept", [False, True], ids=["no-intercept", "intercept"])
def test_mtl_matches_row_solve(intercept):
    ds = _ragged(1)
    lam = 0.3
    model = fit_mtl(factors(ds), lam, TIGHT, fit_intercept=intercept)
    ref = _mtl_reference(ds, lam, intercept)
    np.testing.assert_allclose(model.weights, ref[:, : ds.n_features], rtol=0, atol=ATOL)
    if intercept:
        np.testing.assert_allclose(model.intercept, ref[:, -1], rtol=0, atol=ATOL)


@pytest.mark.parametrize(
    "setting, penalty, lam, intercept",
    [
        pytest.param(setting, penalty, lam, intercept,
                     id=f"{setting}-{penalty}-{lam}" + "-intercept" * intercept)
        for intercept in (False, True)
        for setting in ("individual", "global")
        for penalty, lam in (("none", 0.0), ("ridge", 0.2), ("lasso", 0.2))
    ],
)
def test_stl_matches_row_solve(setting, penalty, lam, intercept):
    # Five and more rows per task, so the unpenalized individual fits are determined.
    ds = _ragged(2, sizes=(8, 12, 40, 250))
    model = fit_stl(factors(ds), StlSpec(setting=setting, penalty=penalty, lam=lam), TIGHT,
                    fit_intercept=intercept)
    ref = _stl_reference(ds, setting, penalty, lam, intercept)
    np.testing.assert_allclose(model.weights, ref[:, : ds.n_features], rtol=0, atol=ATOL)
    expected_intercept = ref[:, ds.n_features] if intercept else 0.0
    np.testing.assert_allclose(model.intercept, expected_intercept, rtol=0, atol=ATOL)


def _row_solve(task_ds, penalty, lam, cfg, j):
    """One task's own fista.solve on its rows, as (w, trace); columns from j on are free."""
    value, prox = _stl_terms(penalty, lam, j)
    problem = ProximalProblem(
        smooth_value=lambda w: loss(w, task_ds),
        smooth_grad=lambda w: grad_loss(w, task_ds),
        prox=prox,
        full_objective=lambda w: loss(w, task_ds) + value(w),
    )
    w, trace = solve(problem, np.zeros((1, task_ds.n_features)), cfg)
    return w[0], trace


@pytest.mark.parametrize("momentum", ["delayed", "standard", "none"])
@pytest.mark.parametrize("intercept", [False, True], ids=["no-intercept", "intercept"])
@pytest.mark.parametrize("penalty, lam", [("none", 0.0), ("ridge", 0.2), ("lasso", 0.2)])
def test_blocked_individual_stl_matches_one_solve_per_task(penalty, lam, intercept, momentum):
    # Tasks of 3 and 5 rows have R factors shorter than the padded stack's J+1 or J+2 rows.
    ds = _ragged(5, sizes=(3, 40, 5, 250, 9))
    cfg = SolverConfig(max_iters=5000, rel_tol=1e-9, momentum=momentum)
    model = fit_stl(factors(ds), StlSpec(setting="individual", penalty=penalty, lam=lam), cfg,
                    fit_intercept=intercept)
    rows = _with_ones(ds) if intercept else ds
    assert len(model.trace) == ds.n_tasks
    for t, task in enumerate(rows.tasks):
        w, trace = _row_solve(_dataset([task.X], [task.Y]), penalty, lam, cfg, ds.n_features)
        fitted = model.weights[t]
        if intercept:
            fitted = np.append(fitted, model.intercept[t])
        np.testing.assert_allclose(fitted, w, rtol=0, atol=1e-10)
        blocked = model.trace[t]
        assert (blocked.iterations, blocked.converged) == (trace.iterations, trace.converged)
        # Relative on the stopping test's scale max(1, |F|): an unpenalized task
        # of n_t <= J rows interpolates, F tends to 0, and the factor form
        # computes it with an absolute error of order eps * ||y||^2.
        f_blocked, f_rows = blocked.objective_per_iter[-1], trace.objective_per_iter[-1]
        assert abs(f_blocked - f_rows) <= 1e-12 * max(1.0, abs(f_rows))
        # Each record is a read-only float64 array, one entry per iteration.
        for name in ("objective_per_iter", "gamma_per_iter", "smooth_per_iter",
                     "surrogate_per_iter"):
            record, alone = getattr(blocked, name), getattr(trace, name)
            assert isinstance(record, np.ndarray) and record.dtype == np.float64
            assert record.shape == (trace.iterations,) and not record.flags.writeable
            if name == "gamma_per_iter":
                assert np.array_equal(record, alone)
            else:
                assert np.all(np.abs(record - alone) <= 1e-12 * np.maximum(1.0, np.abs(alone)))
    assert model.trace.iterations == sum(t.iterations for t in model.trace)


def _write_panel(path, ds):
    """The rows as a CSV with features in [2, 9] and outcomes near 50."""
    lines = ["task," + ",".join(ds.feature_names) + ",outcome"]
    for t in ds.tasks:
        for x, y in zip(5.5 + 3.5 * t.X, 50.0 + 10.0 * t.Y):
            lines.append(",".join([t.label, *map(repr, x.tolist()), repr(float(y))]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "options",
    [
        ("--model", "mtl", "--lambda", "0.3", "--intercept", "--scale-outcome"),
        ("--model", "mtl", "--lambda", "0.3", "--no-scale"),
        ("--model", "stl", "--setting", "global", "--penalty", "ridge", "--lambda", "0.2",
         "--intercept", "--scale-outcome"),
        ("--model", "stl", "--setting", "individual", "--penalty", "lasso", "--lambda", "0.2",
         "--no-scale"),
    ],
    ids=["mtl-scale-outcome", "mtl-no-scale", "stl-global-scale-outcome",
         "stl-individual-no-scale"],
)
def test_cli_train_matches_row_solve(tmp_path, options):
    path = tmp_path / "train.csv"
    _write_panel(path, _ragged(3, sizes=(8, 12, 40, 250)))
    out = tmp_path / "model.json"
    argv = ["train", str(path), *options, "--tol", "1e-11", "--max-iters", "20000",
            "--out", str(out)]
    assert cli.main(argv) == 0
    model = json.loads(out.read_text())

    rows = MultiTaskDataset.from_table(load_csv(path, "task", "outcome"))
    if "--no-scale" not in options:
        rows, _ = minmax_scale(rows, scale_outcome="--scale-outcome" in options)
    intercept = "--intercept" in options
    lam = float(options[options.index("--lambda") + 1])
    if options[1] == "mtl":
        ref = _mtl_reference(rows, lam, intercept)
    else:
        setting = options[options.index("--setting") + 1]
        penalty = options[options.index("--penalty") + 1]
        ref = _stl_reference(rows, setting, penalty, lam, intercept)
    j = rows.n_features
    np.testing.assert_allclose(model["weights"], ref[:, :j], rtol=0, atol=ATOL)
    expected_intercept = ref[:, j] if intercept else 0.0
    np.testing.assert_allclose(model["intercept"], expected_intercept, rtol=0, atol=ATOL)


def test_fits_take_streamed_factors(tmp_path):
    # Streamed and scaled factors give the fit of the loaded and scaled rows.
    path = tmp_path / "train.csv"
    _write_panel(path, _ragged(4))
    streamed, _ = load_factors(path, "task", "outcome").minmax_scaled()
    rows, _ = minmax_scale(MultiTaskDataset.from_table(load_csv(path, "task", "outcome")))
    for fit in (
        lambda data: fit_mtl(data, 0.3, TIGHT, fit_intercept=True),
        lambda data: fit_stl(data, StlSpec(setting="global", penalty="ridge", lam=0.2), TIGHT),
    ):
        a, b = fit(streamed), fit(factors(rows))
        np.testing.assert_allclose(a.weights, b.weights, rtol=0, atol=ATOL)
        np.testing.assert_allclose(a.intercept, b.intercept, rtol=0, atol=ATOL)
