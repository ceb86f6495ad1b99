"""Model persistence round trips."""

import json

import numpy as np
import pytest

from taskreg.baselines import StlSpec, evaluate, fit_stl
from taskreg.cmtl import CmtlParams, fit_cmtl
from taskreg.dataset import MultiTaskDataset, TaskData, minmax_scale
from taskreg.fista import SolverConfig
from taskreg.mtl import fit_mtl
from taskreg.serialize import FORMAT_VERSION, load_model, model_to_dict, save_model


def _dataset(seed=90, n_tasks=3, n_rows=12, n_features=4):
    rng = np.random.default_rng(seed)
    tasks = tuple(
        TaskData(label=f"t{t}", X=rng.normal(size=(n_rows, n_features)), Y=rng.normal(size=n_rows))
        for t in range(n_tasks)
    )
    return MultiTaskDataset(tasks=tasks, feature_names=tuple(f"f{j}" for j in range(n_features)))


def test_mtl_round_trip(tmp_path):
    ds = _dataset()
    scaled, params = minmax_scale(ds, scale_outcome=True)
    model = fit_mtl(scaled, 0.2, fit_intercept=True, scaling=params)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert type(loaded) is type(model)
    np.testing.assert_array_equal(loaded.weights, model.weights)
    np.testing.assert_array_equal(loaded.intercept, model.intercept)
    assert loaded.lam == model.lam
    assert loaded.feature_names == model.feature_names
    assert loaded.task_labels == model.task_labels
    assert loaded.model_type == "mtl"
    np.testing.assert_array_equal(loaded.scaling.feature_min, params.feature_min)
    np.testing.assert_array_equal(loaded.scaling.feature_max, params.feature_max)
    assert loaded.scaling.scales_outcome
    # Traces are summarized on disk, not reconstructed.
    assert loaded.trace is None


def test_stl_round_trip(tmp_path):
    ds = _dataset(seed=91)
    model = fit_stl(ds, StlSpec(setting="individual", penalty="lasso", lam=0.4))
    path = tmp_path / "stl.json"
    save_model(model, path)
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.weights, model.weights)
    assert loaded.model_type == "stl"
    assert loaded.stl_setting == "individual"
    assert loaded.stl_penalty == "lasso"
    assert loaded.lam == 0.4


def test_cmtl_round_trip(tmp_path):
    ds = _dataset(seed=92, n_tasks=4)
    params = CmtlParams(rho1=0.5, rho2=0.7, k=2)
    model = fit_cmtl(ds, params, SolverConfig(max_iters=200), kmeans_seed=11)
    path = tmp_path / "cmtl.json"
    save_model(model, path)
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.weights, model.weights)
    np.testing.assert_array_equal(loaded.cluster_matrix.matrix, model.cluster_matrix.matrix)
    assert loaded.params == params
    assert loaded.assignments == model.assignments
    assert loaded.kmeans_seed == 11
    assert loaded.model_type == "cmtl"


def test_reloaded_model_evaluates_identically(tmp_path):
    ds = _dataset(seed=93)
    model = fit_mtl(ds, 0.1)
    save_model(model, tmp_path / "m.json")
    loaded = load_model(tmp_path / "m.json")
    before = evaluate(model, ds)
    after = evaluate(loaded, ds)
    assert before.per_task == after.per_task  # exact, not approximate
    assert before.total == after.total


def test_trace_summary_written(tmp_path):
    ds = _dataset(seed=94)
    model = fit_mtl(ds, 0.1)
    save_model(model, tmp_path / "m.json")
    data = json.loads((tmp_path / "m.json").read_text())
    assert data["format_version"] == FORMAT_VERSION
    assert set(data["trace"]) == {"iterations", "converged", "final_objective"}
    assert data["trace"]["iterations"] == model.trace.iterations
    # Individual STL fits store one summary per task.
    stl = fit_stl(ds, StlSpec(setting="individual", penalty="none"))
    save_model(stl, tmp_path / "s.json")
    stl_data = json.loads((tmp_path / "s.json").read_text())
    assert isinstance(stl_data["trace"], list) and len(stl_data["trace"]) == 3


def test_rejects_wrong_version(tmp_path):
    ds = _dataset(seed=95)
    save_model(fit_mtl(ds, 0.0), tmp_path / "m.json")
    data = json.loads((tmp_path / "m.json").read_text())
    data["format_version"] = 999
    (tmp_path / "m.json").write_text(json.dumps(data))
    with pytest.raises(ValueError, match="format_version"):
        load_model(tmp_path / "m.json")


def test_rejects_unknown_model_type(tmp_path):
    ds = _dataset(seed=96)
    save_model(fit_mtl(ds, 0.0), tmp_path / "m.json")
    data = json.loads((tmp_path / "m.json").read_text())
    data["model_type"] = "forest"
    (tmp_path / "m.json").write_text(json.dumps(data))
    with pytest.raises(ValueError, match="model_type"):
        load_model(tmp_path / "m.json")


def test_rejects_non_object_json(tmp_path):
    (tmp_path / "m.json").write_text("[1, 2, 3]")
    with pytest.raises(ValueError, match="object"):
        load_model(tmp_path / "m.json")


def test_file_bytes_deterministic(tmp_path):
    ds = _dataset(seed=97)
    model = fit_mtl(ds, 0.15)
    save_model(model, tmp_path / "a.json")
    save_model(model, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_model_to_dict_is_json_safe():
    ds = _dataset(seed=98)
    model = fit_mtl(ds, 0.05)
    text = json.dumps(model_to_dict(model), allow_nan=False)
    assert "format_version" in text


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_rejects_non_finite_numbers(tmp_path, token):
    ds = _dataset(seed=99)
    save_model(fit_mtl(ds, 0.1), tmp_path / "m.json")
    data = json.loads((tmp_path / "m.json").read_text())
    data["weights"][0][0] = float(token)  # json.dumps writes it back as the bare token
    (tmp_path / "m.json").write_text(json.dumps(data))
    with pytest.raises(ValueError, match=f"non-finite number {token}"):
        load_model(tmp_path / "m.json")


@pytest.mark.parametrize("key", ["lam", "weights", "task_labels"])
def test_rejects_missing_key(tmp_path, key):
    ds = _dataset(seed=100)
    save_model(fit_mtl(ds, 0.1), tmp_path / "m.json")
    data = json.loads((tmp_path / "m.json").read_text())
    del data[key]
    (tmp_path / "m.json").write_text(json.dumps(data))
    with pytest.raises(ValueError, match=f"m.json: missing key '{key}'"):
        load_model(tmp_path / "m.json")
