"""Fits on per-task QR factors agree with solves on the raw rows.

Each reference runs ``fista.solve`` on the rows themselves, with the data
term built from ``mtl.loss`` and ``mtl.grad_loss``. The fits reduce the
rows to one R factor per task (``TaskFactors``) and must land within
1e-10 of the reference.
"""

import json

import numpy as np
import pytest

from taskreg import cli
from taskreg.baselines import StlSpec, fit_stl
from taskreg.dataset import MultiTaskDataset, TaskData, load_csv, load_factors, minmax_scale
from taskreg.fista import ProximalProblem, SolverConfig, solve
from taskreg.mtl import fit_mtl, grad_loss, l21_norm, loss, prox_l21

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


def _stl_reference(ds, setting, penalty, lam):
    value, prox = _STL_PENALTIES[penalty]
    if setting == "global":
        pooled_x = np.vstack([t.X for t in ds.tasks])
        blocks = [_dataset([pooled_x], [np.concatenate([t.Y for t in ds.tasks])])]
    else:
        blocks = [_dataset([t.X], [t.Y]) for t in ds.tasks]
    fits = [
        _reference(block, lambda w: value(w, lam), lambda h, step: prox(h, step, lam))
        for block in blocks
    ]
    return np.vstack(fits * ds.n_tasks if setting == "global" else fits)


@pytest.mark.parametrize("intercept", [False, True], ids=["no-intercept", "intercept"])
def test_mtl_matches_row_solve(intercept):
    ds = _ragged(1)
    lam = 0.3
    model = fit_mtl(ds, lam, TIGHT, fit_intercept=intercept)
    ref = _mtl_reference(ds, lam, intercept)
    np.testing.assert_allclose(model.weights, ref[:, : ds.n_features], rtol=0, atol=ATOL)
    if intercept:
        np.testing.assert_allclose(model.intercept, ref[:, -1], rtol=0, atol=ATOL)


@pytest.mark.parametrize("penalty, lam", [("none", 0.0), ("ridge", 0.2), ("lasso", 0.2)])
@pytest.mark.parametrize("setting", ["individual", "global"])
def test_stl_matches_row_solve(setting, penalty, lam):
    # Five and more rows per task, so the unpenalized individual fits are determined.
    ds = _ragged(2, sizes=(8, 12, 40, 250))
    model = fit_stl(ds, StlSpec(setting=setting, penalty=penalty, lam=lam), TIGHT)
    ref = _stl_reference(ds, setting, penalty, lam)
    np.testing.assert_allclose(model.weights, ref, rtol=0, atol=ATOL)


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

    rows = load_csv(path, "task", "outcome")
    if "--no-scale" not in options:
        rows, _ = minmax_scale(rows, scale_outcome="--scale-outcome" in options)
    intercept = "--intercept" in options
    lam = float(options[options.index("--lambda") + 1])
    if options[1] == "mtl":
        ref = _mtl_reference(rows, lam, intercept)
    else:
        setting = options[options.index("--setting") + 1]
        penalty = options[options.index("--penalty") + 1]
        ref = _stl_reference(_with_ones(rows) if intercept else rows, setting, penalty, lam)
    j = rows.n_features
    np.testing.assert_allclose(model["weights"], ref[:, :j], rtol=0, atol=ATOL)
    expected_intercept = ref[:, j] if intercept else 0.0
    np.testing.assert_allclose(model["intercept"], expected_intercept, rtol=0, atol=ATOL)


def test_fits_take_streamed_factors(tmp_path):
    # Streamed and scaled factors give the fit of the loaded and scaled rows.
    path = tmp_path / "train.csv"
    _write_panel(path, _ragged(4))
    factors, _ = load_factors(path, "task", "outcome").minmax_scaled()
    rows, _ = minmax_scale(load_csv(path, "task", "outcome"))
    for fit in (
        lambda data: fit_mtl(data, 0.3, TIGHT, fit_intercept=True),
        lambda data: fit_stl(data, StlSpec(setting="global", penalty="ridge", lam=0.2), TIGHT),
    ):
        a, b = fit(factors), fit(rows)
        np.testing.assert_allclose(a.weights, b.weights, rtol=0, atol=ATOL)
        np.testing.assert_allclose(a.intercept, b.intercept, rtol=0, atol=ATOL)
