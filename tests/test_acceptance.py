"""Acceptance gates for the whole package, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion. These are intentionally heavier than the unit
tests: random-instance sweeps against independent oracles, synthetic
benchmarks with planted structure, and full-pipeline determinism.
"""

import json
import time

import numpy as np
import pytest

from taskreg import baselines, cli, cmtl, mtl
from taskreg.baselines import StlSpec, fit_stl
from taskreg.cmtl import (
    CmtlParams,
    capped_simplex_project,
    fit_cmtl,
    project_spectral,
)
from taskreg.fista import SolverConfig
from taskreg.mtl import fit_mtl, lambda_max, prox_l21

from oracles import (
    MultiTaskDataset,
    TaskData,
    capped_simplex_grid,
    central_difference_grad,
    cluster_indicator,
    cmtl_objective,
    evaluate,
    factors,
    grad_loss,
    grad_phi,
    loss,
    ols_normal_equations,
    prox_l21_projected_subgradient,
)


def _dataset(xs, ys):
    tasks = tuple(
        TaskData(label=f"t{t}", X=np.asarray(x, float), Y=np.asarray(y, float))
        for t, (x, y) in enumerate(zip(xs, ys))
    )
    names = tuple(f"f{j}" for j in range(tasks[0].X.shape[1]))
    return MultiTaskDataset(tasks=tasks, feature_names=names)


def _random_dataset(rng, n_tasks, n_features, n_rows):
    xs = [rng.normal(size=(n_rows, n_features)) for _ in range(n_tasks)]
    ys = [rng.normal(size=n_rows) for _ in range(n_tasks)]
    return _dataset(xs, ys)


def test_criterion_01_prox_matches_subgradient_oracle():
    """200 random prox instances agree with the oracle within 1e-5."""
    rng = np.random.default_rng(1001)
    started = time.monotonic()
    worst = 0.0
    for _ in range(200):
        n_tasks = int(rng.integers(1, 7))
        n_features = int(rng.integers(1, 21))
        h = rng.normal(scale=rng.uniform(0.5, 3.0), size=(n_tasks, n_features))
        max_col = float(np.linalg.norm(h, axis=0).max())
        threshold = float(rng.uniform(0.0, 1.2)) * max_col
        expected = prox_l21_projected_subgradient(h, threshold)
        gap = float(np.linalg.norm(prox_l21(h, threshold) - expected))
        worst = max(worst, gap)
        assert gap < 1e-5
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"prox sweep took {elapsed:.1f}s"


def _fit_problem(monkeypatch, module, fit):
    """The ProximalProblem that ``fit()`` hands to ``module.solve``.

    The solve it was built for runs one iteration only.
    """
    built = []
    solve = module.solve

    def capture(problem, phi0, cfg=None):
        built.append(problem)
        return solve(problem, phi0, SolverConfig(max_iters=1))

    with monkeypatch.context() as patched:
        patched.setattr(module, "solve", capture)
        fit()
    return built[0]


def _relative_gap(g, fd):
    return np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(fd))


def test_criterion_02_gradients_match_finite_differences(monkeypatch):
    """Gradients agree with central differences (rel < 1e-4).

    Both the raw-row oracles (grad_loss, grad_phi) and the smooth parts
    the fits actually solve: mtl with and without an intercept, the stl
    problems (the blocked stack and the pooled factor), and cmtl on
    [W | C], its W block and its C block each.
    """
    rng = np.random.default_rng(1002)
    started = time.monotonic()
    for _ in range(50):
        n_tasks = int(rng.integers(2, 5))
        n_features = int(rng.integers(2, 9))
        n_rows = int(rng.integers(3, 13))
        ds = _random_dataset(rng, n_tasks, n_features, n_rows)
        w = rng.normal(size=(n_tasks, n_features))

        fd = central_difference_grad(lambda v: loss(v, ds), w)
        g = grad_loss(w, ds)
        assert _relative_gap(g, fd) < 1e-4

        k = int(rng.integers(1, n_tasks))
        c = project_spectral(rng.normal(size=(n_tasks, n_tasks)), k).matrix
        params = CmtlParams(
            rho1=float(rng.uniform(0.1, 2.0)), rho2=float(rng.uniform(0.1, 2.0)), k=k
        )
        fd = central_difference_grad(lambda v: cmtl_objective(v, c, ds, params), w)
        g = grad_phi(w, c, ds, params)
        assert _relative_gap(g, fd) < 1e-4

        data = factors(ds)
        for intercept in (False, True):
            problem = _fit_problem(
                monkeypatch, mtl, lambda: fit_mtl(data, 0.1, fit_intercept=intercept)
            )
            v = rng.normal(size=(n_tasks, n_features + intercept))
            fd = central_difference_grad(problem.smooth_value, v)
            assert _relative_gap(problem.smooth_grad(v), fd) < 1e-4, intercept

        for setting, shape in (("individual", (n_tasks, n_features)), ("global", (n_features,))):
            spec = StlSpec(setting=setting, penalty="lasso", lam=0.1)
            problem = _fit_problem(monkeypatch, baselines, lambda: fit_stl(data, spec))
            v = rng.normal(size=shape)
            # A blocked problem has one value per task; their sum has the stacked gradient.
            fd = central_difference_grad(lambda u: np.sum(problem.smooth_value(u)), v)
            assert _relative_gap(problem.smooth_grad(v), fd) < 1e-4, setting

        problem = _fit_problem(monkeypatch, cmtl, lambda: fit_cmtl(data, params))
        z = np.hstack([w, c])
        fd = central_difference_grad(problem.smooth_value, z)
        g = problem.smooth_grad(z)
        assert _relative_gap(g[:, :n_features], fd[:, :n_features]) < 1e-4
        assert _relative_gap(g[:, n_features:], fd[:, n_features:]) < 1e-4
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"gradient sweep took {elapsed:.1f}s"


def test_criterion_03_unpenalized_fits_match_normal_equations():
    """Single-task lam=0 fits reproduce OLS within 1e-5 on 20 systems."""
    rng = np.random.default_rng(1003)
    cfg = SolverConfig(max_iters=8000, rel_tol=1e-14)
    for _ in range(20):
        x = rng.normal(size=(60, 5))
        y = rng.normal(size=60)
        data = factors(_dataset([x], [y]))
        w_ols = ols_normal_equations(x, y)
        w_mtl = fit_mtl(data, 0.0, cfg).weights[0]
        w_stl = fit_stl(data, StlSpec(setting="individual", penalty="none"), cfg).weights[0]
        assert np.abs(w_mtl - w_ols).max() < 1e-5
        assert np.abs(w_stl - w_ols).max() < 1e-5


def _conditioned_design(rng, n_rows, n_features, spread=30.0):
    """Design matrix with a decaying spectrum so plain ISTA crawls."""
    basis, _ = np.linalg.qr(rng.normal(size=(n_features, n_features)))
    scales = np.geomspace(1.0, 1.0 / spread, n_features)
    return rng.normal(size=(n_rows, n_features)) @ (basis * scales) @ basis.T


def test_criterion_04_momentum_accelerates_over_plain_descent():
    """Same optimum (1e-6 rel) and >= 2x fewer iterations on 8 of 10."""
    rng = np.random.default_rng(1004)
    wins = 0
    for trial in range(10):
        xs = [_conditioned_design(rng, 40, 20) for _ in range(3)]
        ys = [x @ rng.normal(size=20) + 0.1 * rng.normal(size=40) for x in xs]
        data = factors(_dataset(xs, ys))
        lam = 0.05 * lambda_max(data)
        cfg = dict(max_iters=4000, rel_tol=0.0)
        fista = fit_mtl(data, lam, SolverConfig(momentum="delayed", **cfg))
        ista = fit_mtl(data, lam, SolverConfig(momentum="none", **cfg))

        f_best_fista = min(fista.trace.objective_per_iter)
        f_best_ista = min(ista.trace.objective_per_iter)
        assert abs(f_best_fista - f_best_ista) / max(1.0, abs(f_best_ista)) < 1e-6

        target = f_best_ista + 1e-4 * max(1.0, abs(f_best_ista))
        hit_ista = next(
            i for i, v in enumerate(ista.trace.objective_per_iter) if v <= target
        )
        hit_fista = next(
            i for i, v in enumerate(fista.trace.objective_per_iter) if v <= target
        )
        if hit_fista <= hit_ista / 2:
            wins += 1
    assert wins >= 8, f"acceleration won only {wins}/10 trials"


def test_criterion_05_sparsity_grows_monotonically_with_lambda():
    """Zero-column count is non-decreasing over the lambda grid, J at the top."""
    rng = np.random.default_rng(1005)
    data = factors(_random_dataset(rng, n_tasks=3, n_features=12, n_rows=30))
    lmax = lambda_max(data)
    cfg = SolverConfig(max_iters=4000, rel_tol=1e-12)
    counts = []
    for frac in np.linspace(0.0, 1.0, 10):
        model = fit_mtl(data, float(frac) * lmax, cfg)
        counts.append(int((np.linalg.norm(model.weights, axis=0) < 1e-8).sum()))
    assert counts == sorted(counts), f"non-monotone zero-column counts: {counts}"
    assert counts[-1] == 12, f"expected all columns zero at lambda_max, got {counts[-1]}"


def test_criterion_06_every_projection_in_a_fit_is_feasible(monkeypatch):
    """All C projections during fit_cmtl satisfy the constraint set."""
    rng = np.random.default_rng(1006)
    n_tasks, k = 6, 2
    u = rng.normal(size=8)
    xs, ys = [], []
    for t in range(n_tasks):
        w = u if t < 3 else -u
        x = rng.normal(size=(30, 8))
        xs.append(x)
        ys.append(x @ w + 0.1 * rng.normal(size=30))
    # Every projection the prox makes, rejected backtracking candidates included.
    seen = []
    monkeypatch.setattr(
        cmtl, "project_spectral", lambda c, k: seen.append(project_spectral(c, k)) or seen[-1]
    )
    fit_cmtl(
        factors(_dataset(xs, ys)),
        CmtlParams(rho1=0.3, rho2=0.6, k=k),
        SolverConfig(max_iters=150, rel_tol=0.0),
    )
    assert len(seen) >= 150
    for projected in seen:
        mat = projected.matrix
        assert abs(np.trace(mat) - k) <= 1e-8
        eigs = np.linalg.eigvalsh(mat)
        assert eigs.min() >= -1e-8 and eigs.max() <= 1 + 1e-8
        again = project_spectral(mat, k).matrix
        assert np.linalg.norm(again - mat) < 1e-10


def test_criterion_07_planted_clusters_recovered_across_seeds():
    """Planted 2-cluster structure recovered on >= 9 of 10 seeds."""
    started = time.monotonic()
    truth = (0, 0, 0, 0, 1, 1, 1, 1)
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        u = rng.normal(size=10)
        u *= 2.6 / np.linalg.norm(u)  # the two centers sit 5.2 apart
        xs, ys = [], []
        for t in range(8):
            w = u if t < 4 else -u
            x = rng.normal(size=(50, 10))
            xs.append(x)
            ys.append(x @ w + 0.1 * rng.normal(size=50))
        model = fit_cmtl(
            factors(_dataset(xs, ys)),
            CmtlParams(rho1=0.1, rho2=0.1, k=2),
            SolverConfig(max_iters=400, rel_tol=1e-10),
        )
        if model.assignments == truth:
            hits += 1
    elapsed = time.monotonic() - started
    assert hits >= 9, f"recovered {hits}/10 seeds"
    assert elapsed < 60.0, f"cluster recovery took {elapsed:.1f}s"


def _lasso_grid_mae(train, val, setting, fractions, cfg):
    """Best validation MAE over a lasso lambda grid; returns (lam, model)."""
    if setting == "individual":
        scale = max(
            float(np.abs(t.X.T @ t.Y).max()) for t in train.tasks
        )
    else:
        x = np.vstack([t.X for t in train.tasks])
        y = np.concatenate([t.Y for t in train.tasks])
        scale = float(np.abs(x.T @ y).max())
    best = None
    data = factors(train)
    for frac in fractions:
        spec = StlSpec(setting=setting, penalty="lasso", lam=float(frac) * scale)
        model = fit_stl(data, spec, cfg)
        score = evaluate(model, val).total
        if best is None or score < best[0]:
            best = (score, model)
    return best[1]


def test_criterion_08_joint_sparsity_beats_single_task_lasso():
    """Median test MAE: tuned MTL < tuned individual and global lasso."""
    started = time.monotonic()
    fractions = (0.02, 0.05, 0.1, 0.2, 0.4)
    cfg = SolverConfig(max_iters=2000, rel_tol=1e-9)
    maes = {"mtl": [], "individual": [], "global": []}
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        support = rng.choice(30, size=5, replace=False)
        weights = np.zeros((6, 30))
        weights[:, support] = rng.normal(size=(6, 5))

        def make_split(n_rows):
            xs = [rng.normal(size=(n_rows, 30)) for _ in range(6)]
            ys = [
                x @ weights[t] + 0.5 * rng.normal(size=n_rows)
                for t, x in enumerate(xs)
            ]
            return _dataset(xs, ys)

        train, val, test = make_split(25), make_split(25), make_split(200)

        data = factors(train)
        lmax = lambda_max(data)
        best_mtl = None
        for frac in fractions:
            model = fit_mtl(data, frac * lmax, cfg)
            score = evaluate(model, val).total
            if best_mtl is None or score < best_mtl[0]:
                best_mtl = (score, model)
        maes["mtl"].append(evaluate(best_mtl[1], test).total)

        indiv = _lasso_grid_mae(train, val, "individual", fractions, cfg)
        maes["individual"].append(evaluate(indiv, test).total)
        pooled = _lasso_grid_mae(train, val, "global", fractions, cfg)
        maes["global"].append(evaluate(pooled, test).total)

    med = {name: float(np.median(vals)) for name, vals in maes.items()}
    elapsed = time.monotonic() - started
    assert med["mtl"] < med["individual"], f"medians: {med}"
    assert med["mtl"] < med["global"], f"medians: {med}"
    assert elapsed < 300.0, f"benchmark took {elapsed:.1f}s"


def test_criterion_09_pipeline_reruns_are_byte_identical(tmp_path):
    """split -> train cmtl -> riskfactors twice gives identical bytes."""
    rng = np.random.default_rng(1009)
    n_tasks, n_features, n_rows = 4, 8, 30
    u = rng.normal(size=n_features)
    lines = ["task," + ",".join(f"f{j}" for j in range(n_features)) + ",outcome"]
    for t in range(n_tasks):
        w = u if t < 2 else -u
        x = rng.uniform(0.0, 1.0, size=(n_rows, n_features))
        y = x @ w + 0.05 * rng.normal(size=n_rows)
        for i in range(n_rows):
            lines.append(
                ",".join([f"task{t}"] + [repr(float(v)) for v in x[i]] + [repr(float(y[i]))])
            )
    source = tmp_path / "source.csv"
    source.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def run(outdir):
        outdir.mkdir()
        train = outdir / "train.csv"
        test = outdir / "test.csv"
        manifest = outdir / "manifest.json"
        model = outdir / "model.json"
        rf_json = outdir / "rf.json"
        rf_csv = outdir / "rf.csv"
        assert cli.main([
            "split", str(source), "--seed", "7",
            "--train-out", str(train), "--test-out", str(test),
            "--manifest", str(manifest),
        ]) == 0
        assert cli.main([
            "train", str(train), "--model", "cmtl", "--k", "2",
            "--rho1", "0.5", "--rho2", "0.5", "--max-iters", "300",
            "--out", str(model),
        ]) == 0
        assert cli.main([
            "riskfactors", "--model", str(model), "--top", "5",
            "--levels", "task,cluster,population",
            "--out-json", str(rf_json), "--out-csv", str(rf_csv),
        ]) == 0
        return [train, test, manifest, model, rf_json, rf_csv]

    first = run(tmp_path / "run1")
    second = run(tmp_path / "run2")
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), f"{a.name} differs between runs"


def test_criterion_10_capped_simplex_matches_grid_oracle():
    """1000 random projections within 1e-4 per coordinate of the oracle."""
    rng = np.random.default_rng(1010)
    for _ in range(1000):
        t = int(rng.integers(2, 11))
        k = int(rng.integers(1, t + 1))
        sigma_hat = rng.normal(scale=2.0, size=t)
        got = capped_simplex_project(sigma_hat, k)
        expected = capped_simplex_grid(sigma_hat, k)
        assert np.abs(got - expected).max() < 1e-4


def test_criterion_11_sse_trace_identity():
    """Within-cluster SSE equals the trace identity within 1e-10."""
    rng = np.random.default_rng(1011)
    for _ in range(100):
        n_tasks = int(rng.integers(2, 10))
        n_features = int(rng.integers(1, 12))
        n_clusters = int(rng.integers(1, n_tasks + 1))
        raw = rng.integers(0, n_clusters, size=n_tasks)
        uniq = sorted(set(int(v) for v in raw))
        labels = tuple(uniq.index(int(v)) for v in raw)
        phi = rng.normal(scale=2.0, size=(n_tasks, n_features))

        sse = 0.0
        for g in set(labels):
            members = [t for t in range(n_tasks) if labels[t] == g]
            center = phi[members].mean(axis=0)
            sse += float(sum(np.sum((phi[t] - center) ** 2) for t in members))
        o = cluster_indicator(labels)
        rhs = float(np.trace(phi.T @ phi) - np.trace(phi.T @ o @ o.T @ phi))
        assert sse == pytest.approx(rhs, abs=1e-10)
