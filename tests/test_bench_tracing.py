"""The benchmark's ``--trace 1`` spans still see the dataset, solver and cmtl layers.

``bench/tracing.py`` rebinds module attributes by name (the dataset
functions, ``baselines.evaluate``, the solver's four ``ProximalProblem``
callbacks, ``cmtl.project_spectral``, ``numpy.linalg.eigh``). A refactor
that stops calling through one of them would silently zero its per-layer
metric; these toy fits and a toy pipeline catch that. The benchmark file
is compiled from source and never written to.
"""

from pathlib import Path
import types

import numpy as np
import pytest

from taskreg import baselines, cli, cmtl, mtl
from taskreg.fista import SolverConfig

from oracles import MultiTaskDataset, TaskData, factors

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_CALLBACKS = ("smooth_value", "smooth_grad", "prox", "full_objective")


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(_TRACING)
    exec(compile(_TRACING.read_text(encoding="utf-8"), str(_TRACING), "exec"), module.__dict__)
    return module


def _toy_dataset():
    rng = np.random.default_rng(70)
    tasks = tuple(
        TaskData(label=f"t{t}", X=rng.uniform(size=(10, 3)), Y=rng.normal(size=10))
        for t in range(4)
    )
    return factors(MultiTaskDataset(tasks=tasks, feature_names=("a", "b", "c")))


def _metrics(tracing, fit):
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        fit()
    return tracing.layer_metrics(tracer.spans)


def test_cmtl_fit_records_every_traced_layer(tracing):
    cfg = SolverConfig(max_iters=20)
    params = cmtl.CmtlParams(rho1=0.5, rho2=0.5, k=2)
    metrics = _metrics(tracing, lambda: cmtl.fit_cmtl(_toy_dataset(), params, cfg))
    iterations = metrics["fista.iterations"]
    assert iterations > 0
    for callback in _CALLBACKS:
        assert metrics[f"fista.{callback}_calls"] > 0, callback
    # Cached work is skipped inside the callbacks, never by skipping a call.
    assert metrics["fista.smooth_grad_calls"] == iterations
    assert metrics["fista.full_objective_calls"] == iterations + 1
    assert metrics["cmtl.fit_cmtl_s"] > 0
    assert metrics["cmtl.project_spectral_calls"] == metrics["fista.prox_calls"]
    assert metrics["cmtl.eigh_calls"] > 0


def test_mtl_fit_records_solver_callbacks(tracing):
    fits = []
    metrics = _metrics(
        tracing, lambda: fits.append(mtl.fit_mtl(_toy_dataset(), 0.1, SolverConfig(max_iters=20)))
    )
    assert metrics["mtl.fit_mtl_s"] > 0
    assert metrics["fista.solve_calls"] == 1
    assert metrics["fista.iterations"] == fits[0].trace.iterations > 0
    for callback in _CALLBACKS:
        assert metrics[f"fista.{callback}_calls"] > 0, callback
    assert metrics["cmtl.eigh_calls"] == 0


def test_stl_fit_records_solver_callbacks(tracing):
    spec = baselines.StlSpec(setting="individual", penalty="lasso", lam=0.1)
    cfg = SolverConfig(max_iters=20)
    fits = []
    metrics = _metrics(
        tracing, lambda: fits.append(baselines.fit_stl(_toy_dataset(), spec, cfg))
    )
    # The four tasks are the blocks of one solve.
    assert metrics["fista.solve_calls"] == 1
    assert metrics["fista.iterations"] == sum(t.iterations for t in fits[0].trace) > 0
    for callback in _CALLBACKS:
        assert metrics[f"fista.{callback}_calls"] > 0, callback
    assert metrics["baselines.fit_stl_s"] > 0
    assert metrics["cmtl.eigh_calls"] == 0



def test_split_and_evaluate_record_dataset_and_scoring_layers(tracing, tmp_path):
    # split reads, splits and writes through the traced dataset functions and
    # evaluate scores through baselines.evaluate; blank outcomes are dropped rows.
    rng = np.random.default_rng(71)
    lines, blanks = ["task,a,b,c,outcome"], 0
    for i in range(60):
        outcome = "" if i % 9 == 4 else repr(float(rng.normal()))
        blanks += outcome == ""
        lines.append(",".join([f"t{i % 3}", *map(repr, rng.uniform(size=3).tolist()), outcome]))
    source = tmp_path / "panel.csv"
    source.write_text("\n".join(lines) + "\n", encoding="utf-8")
    train, test, model = (tmp_path / name for name in ("train.csv", "test.csv", "mtl.json"))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert cli.main(["split", str(source), "--train-out", str(train), "--test-out",
                         str(test), "--manifest", str(tmp_path / "split.json")]) == 0
        assert cli.main(["train", str(train), "--model", "mtl", "--out", str(model)]) == 0
        assert cli.main(["evaluate", str(test), "--model", str(model),
                         "--out", str(tmp_path / "mae.csv")]) == 0
    metrics = tracing.layer_metrics(tracer.spans)
    for name in ("dataset.load_csv_s", "dataset.stratified_split_s", "dataset.write_csv_s",
                 "baselines.evaluate_s"):
        assert metrics[name] > 0, name
    assert metrics["dataset.rows_dropped"] == blanks > 0
