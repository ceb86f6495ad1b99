"""Model persistence round trips."""

import dataclasses
import json

import numpy as np
import pytest

from taskreg.baselines import StlSpec, fit_stl
from taskreg.cmtl import CmtlParams, RelaxedClusterMatrix, fit_cmtl
from taskreg.fista import SolverConfig
from taskreg.mtl import fit_mtl
from taskreg.serialize import FORMAT_VERSION, load_model, model_to_dict, save_model

from oracles import MultiTaskDataset, TaskData, evaluate, factors, minmax_scale


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
    model = fit_mtl(factors(scaled), 0.2, fit_intercept=True, scaling=params)
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
    model = fit_stl(factors(ds), StlSpec(setting="individual", penalty="lasso", lam=0.4))
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
    model = fit_cmtl(factors(ds), params, SolverConfig(max_iters=200), kmeans_seed=11)
    path = tmp_path / "cmtl.json"
    save_model(model, path)
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.weights, model.weights)
    np.testing.assert_array_equal(loaded.cluster_matrix.matrix, model.cluster_matrix.matrix)
    assert loaded.params == params
    assert loaded.assignments == model.assignments
    assert loaded.kmeans_seed == 11
    assert loaded.model_type == "cmtl"


def _fitted(kind):
    ds = _dataset(seed=93, n_tasks=4)
    if kind == "mtl":
        scaled, params = minmax_scale(ds, scale_outcome=True)
        return fit_mtl(factors(scaled), 0.2, fit_intercept=True, scaling=params)
    if kind == "cmtl":
        return fit_cmtl(
            factors(ds), CmtlParams(rho1=0.5, rho2=0.7, k=2), SolverConfig(max_iters=200)
        )
    return fit_stl(factors(ds), StlSpec(setting=kind, penalty="lasso", lam=0.4))


@pytest.mark.parametrize("kind", ["mtl", "individual", "global", "cmtl"])
def test_loaded_model_equals_saved_model(tmp_path, kind):
    model = _fitted(kind)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.trace is None and model.trace is not None
    assert loaded == model
    weights = model.weights.copy()
    weights[-1, 0] += 1e-12
    assert dataclasses.replace(model, weights=weights) != model
    assert loaded != dataclasses.replace(loaded, task_labels=("a", "b", "c", "d"))


def test_cluster_matrix_equality():
    half = RelaxedClusterMatrix(0.5 * np.eye(4), k=2)
    assert half == RelaxedClusterMatrix(0.5 * np.eye(4), k=2)
    assert half != RelaxedClusterMatrix(np.diag([1.0, 1.0, 0.0, 0.0]), k=2)


_COMMON_KEYS = {
    "format_version", "model_type", "task_labels", "feature_names", "weights", "intercept",
    "scaling", "trace",
}


_STL_KEYS = {"lam", "stl_setting", "stl_penalty"}


@pytest.mark.parametrize(
    "fit, keys",
    [
        pytest.param(
            lambda ds: fit_mtl(factors(ds), 0.2, scaling=minmax_scale(ds)[1]), {"lam"}, id="mtl"
        ),
        pytest.param(
            lambda ds: fit_stl(
                factors(ds), StlSpec(setting="individual", penalty="lasso", lam=0.3)
            ),
            _STL_KEYS,
            id="stl-individual",
        ),
        pytest.param(
            lambda ds: fit_stl(
                factors(ds), StlSpec(setting="global", penalty="ridge", lam=0.3), fit_intercept=True
            ),
            _STL_KEYS,
            id="stl-global",
        ),
        pytest.param(
            lambda ds: fit_cmtl(
                factors(ds), CmtlParams(rho1=0.5, rho2=0.7, k=2), SolverConfig(max_iters=200)
            ),
            {"rho1", "rho2", "k", "cluster_matrix", "assignments", "kmeans_seed"},
            id="cmtl",
        ),
    ],
)
def test_model_keys_and_byte_stable_round_trip(tmp_path, fit, keys):
    # The benchmark's objective check reads lam, stl_setting, stl_penalty,
    # rho1, rho2 and cluster_matrix from these files.
    model = fit(_dataset(seed=103, n_tasks=4))
    assert set(model_to_dict(model)) == _COMMON_KEYS | keys
    # A loaded model has no trace, so save -> load -> save must give the
    # bytes of the traceless model.
    save_model(dataclasses.replace(model, trace=None), tmp_path / "a.json")
    save_model(load_model(tmp_path / "a.json"), tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_reloaded_model_evaluates_identically(tmp_path):
    ds = _dataset(seed=93)
    model = fit_mtl(factors(ds), 0.1)
    save_model(model, tmp_path / "m.json")
    loaded = load_model(tmp_path / "m.json")
    before = evaluate(model, ds)
    after = evaluate(loaded, ds)
    assert before.per_task == after.per_task  # exact, not approximate
    assert before.total == after.total


def test_trace_summary_written(tmp_path):
    ds = _dataset(seed=94)
    model = fit_mtl(factors(ds), 0.1)
    save_model(model, tmp_path / "m.json")
    data = json.loads((tmp_path / "m.json").read_text())
    assert data["format_version"] == FORMAT_VERSION
    assert set(data["trace"]) == {"iterations", "converged", "final_objective"}
    assert data["trace"]["iterations"] == model.trace.iterations
    # Individual STL fits store one summary per task.
    stl = fit_stl(factors(ds), StlSpec(setting="individual", penalty="none"))
    save_model(stl, tmp_path / "s.json")
    stl_data = json.loads((tmp_path / "s.json").read_text())
    assert isinstance(stl_data["trace"], list) and len(stl_data["trace"]) == 3


def test_rejects_wrong_version(tmp_path):
    ds = _dataset(seed=95)
    save_model(fit_mtl(factors(ds), 0.0), tmp_path / "m.json")
    data = json.loads((tmp_path / "m.json").read_text())
    data["format_version"] = 999
    (tmp_path / "m.json").write_text(json.dumps(data))
    with pytest.raises(ValueError, match="format_version"):
        load_model(tmp_path / "m.json")


def test_rejects_unknown_model_type(tmp_path):
    ds = _dataset(seed=96)
    save_model(fit_mtl(factors(ds), 0.0), tmp_path / "m.json")
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
    model = fit_mtl(factors(ds), 0.15)
    save_model(model, tmp_path / "a.json")
    save_model(model, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_model_to_dict_is_json_safe():
    ds = _dataset(seed=98)
    model = fit_mtl(factors(ds), 0.05)
    text = json.dumps(model_to_dict(model), allow_nan=False)
    assert "format_version" in text


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_rejects_non_finite_numbers(tmp_path, token):
    ds = _dataset(seed=99)
    save_model(fit_mtl(factors(ds), 0.1), tmp_path / "m.json")
    data = json.loads((tmp_path / "m.json").read_text())
    data["weights"][0][0] = float(token)  # json.dumps writes it back as the bare token
    (tmp_path / "m.json").write_text(json.dumps(data))
    with pytest.raises(ValueError, match=f"non-finite number {token}"):
        load_model(tmp_path / "m.json")


@pytest.mark.parametrize("key", ["lam", "weights", "task_labels"])
def test_rejects_missing_key(tmp_path, key):
    ds = _dataset(seed=100)
    save_model(fit_mtl(factors(ds), 0.1), tmp_path / "m.json")
    data = json.loads((tmp_path / "m.json").read_text())
    del data[key]
    (tmp_path / "m.json").write_text(json.dumps(data))
    with pytest.raises(ValueError, match=f"m.json: missing key '{key}'"):
        load_model(tmp_path / "m.json")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.__setitem__("feature_names", ["f0", 1, "f2", "f3"]),
         "feature_names: expected a string, got 1"),
        (lambda d: d["weights"][0].__setitem__(0, True), "weights: expected a number, got True"),
        (lambda d: d["weights"][1].__setitem__(2, "0.5"), "weights: expected a number, got '0.5'"),
        (lambda d: d["weights"].__setitem__(0, 0.0), "weights: expected a list of numbers, got 0.0"),
        (lambda d: d["weights"][0].pop(), "weights: rows differ in length"),
        (lambda d: d.__setitem__("intercept", 0.0), "intercept: expected a list of numbers, got 0.0"),
        (lambda d: d.__setitem__("lam", None), "lam: expected a number, got None"),
        (lambda d: d.__setitem__("scaling", 5), "scaling: expected an object or null, got 5"),
        (lambda d: d.__setitem__("scaling", {"feature_min": [0.0] * 4, "feature_max": "1"}),
         "feature_max: expected a list of numbers, got '1'"),
        (lambda d: d.__setitem__("stl_setting", 3), "stl_setting: expected a string or null, got 3"),
        (lambda d: d.__setitem__("format_version", True), "unsupported model format_version True"),
    ],
    ids=[
        "string-list-item", "bool-number", "string-number", "row-not-list", "ragged-rows",
        "intercept-scalar", "lam-null", "scaling-scalar", "scaling-field", "stl-setting-int",
        "bool-version",
    ],
)
def test_rejects_wrongly_typed_field(tmp_path, edit, message):
    ds = _dataset(seed=101)
    save_model(fit_mtl(factors(ds), 0.1), tmp_path / "m.json")
    data = json.loads((tmp_path / "m.json").read_text())
    edit(data)
    (tmp_path / "m.json").write_text(json.dumps(data))
    with pytest.raises(ValueError) as info:
        load_model(tmp_path / "m.json")
    assert str(info.value) == f"{tmp_path / 'm.json'}: {message}"


def test_rejects_non_integral_kmeans_seed(tmp_path):
    ds = _dataset(seed=102)
    save_model(fit_cmtl(factors(ds), CmtlParams(rho1=0.5, rho2=0.5, k=1)), tmp_path / "c.json")
    data = json.loads((tmp_path / "c.json").read_text())
    data["kmeans_seed"] = 1.5
    (tmp_path / "c.json").write_text(json.dumps(data))
    with pytest.raises(ValueError, match=r"c\.json: kmeans_seed: expected an integer, got 1\.5"):
        load_model(tmp_path / "c.json")
