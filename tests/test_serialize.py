"""Model persistence round trips."""

import dataclasses
import json
import math

import numpy as np
import pytest

from taskreg.baselines import StlSpec, fit_stl
from taskreg.cmtl import CmtlParams, RelaxedClusterMatrix, fit_cmtl
from taskreg.dataset import ScalingParams
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


@pytest.mark.parametrize(
    "literal, shown",
    [
        ("1e400", "inf"),
        ("-1e400", "-inf"),
        pytest.param("1" + "0" * 400, "inf", id="integer"),
        pytest.param("-1" + "0" * 400, "-inf", id="negative-integer"),
    ],
)
def test_rejects_a_number_that_overflows_a_double(tmp_path, literal, shown):
    # json reads 1e400 as inf without calling parse_constant, and an integer
    # literal of any length as an int, which float() cannot convert.
    ds = _dataset(seed=99)
    save_model(fit_mtl(factors(ds), 0.1), tmp_path / "m.json")
    data = json.loads((tmp_path / "m.json").read_text())
    data["lam"] = "overflow"
    (tmp_path / "m.json").write_text(json.dumps(data).replace('"overflow"', literal))
    with pytest.raises(ValueError) as info:
        load_model(tmp_path / "m.json")
    assert str(info.value) == f"{tmp_path / 'm.json'}: lam must be finite and >= 0, got {shown}"


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
        (lambda d: d.update(model_type="stl", stl_setting="bogus", stl_penalty="none"),
         "stl_setting must be one of ('global', 'individual'), got 'bogus'"),
        (lambda d: d.__setitem__("stl_setting", "global"),
         "a model of type 'mtl' sets no stl_setting or stl_penalty"),
        (lambda d: d.__setitem__("model_type", "stl"),
         "stl_setting must be one of ('global', 'individual'), got None"),
        (lambda d: d.update(model_type="stl", stl_setting="global", stl_penalty="none", lam=5.0),
         "penalty 'none' requires lam = 0"),
    ],
    ids=[
        "string-list-item", "bool-number", "string-number", "row-not-list", "ragged-rows",
        "intercept-scalar", "lam-null", "scaling-scalar", "scaling-field", "stl-setting-int",
        "bool-version", "stl-setting-unknown", "mtl-with-stl-setting", "stl-without-setting",
        "stl-none-with-lam",
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


def _with_field(model, key, value):
    """Build ``model`` again with ``key`` set to ``value``, by the type that holds the key."""
    if key in ("rho1", "rho2", "k"):
        return dataclasses.replace(model.params, **{key: value})
    if key == "cluster_matrix":
        return RelaxedClusterMatrix(matrix=value, k=model.params.k)
    if key in ("feature_min", "feature_max", "outcome_min", "outcome_max"):
        return dataclasses.replace(model.scaling, **{key: value})
    return dataclasses.replace(model, **{key: value})


def _first(value):
    """A corruption that sets the first number of a (nested) list to ``value``."""

    def corrupt(items):
        items = json.loads(json.dumps(items))
        inner = items
        while isinstance(inner[0], list):
            inner = inner[0]
        inner[0] = value
        return items

    return corrupt


# (model kind, key, corruption of the key's saved value, the text both reject it with)
_BAD_FIELDS = [
    ("mtl", "task_labels", lambda v: "abcd", "task_labels: expected a list of strings, got 'abcd'"),
    ("mtl", "task_labels", _first(1), "task_labels: expected a string, got 1"),
    ("mtl", "feature_names", lambda v: None, "feature_names: expected a list of strings, got None"),
    ("mtl", "weights", _first(math.inf), "weights: expected a finite number, got inf"),
    ("mtl", "weights", _first(True), "weights: expected a number, got True"),
    ("mtl", "weights", _first(10**400), "weights: expected a finite number, got inf"),
    ("mtl", "intercept", _first(-math.inf), "intercept: expected a finite number, got -inf"),
    ("mtl", "intercept", _first("0"), "intercept: expected a number, got '0'"),
    ("mtl", "lam", lambda v: math.inf, "lam must be finite and >= 0, got inf"),
    ("mtl", "lam", lambda v: "0.1", "lam: expected a number, got '0.1'"),
    ("mtl", "lam", lambda v: -(10**400), "lam must be finite and >= 0, got -inf"),
    ("mtl", "lam", lambda v: -1.0, "lam must be finite and >= 0, got -1.0"),
    ("mtl", "stl_setting", lambda v: 3, "stl_setting: expected a string or null, got 3"),
    ("mtl", "feature_min", _first("0"), "feature_min: expected a number, got '0'"),
    ("mtl", "feature_max", _first(True), "feature_max: expected a number, got True"),
    ("mtl", "feature_max", _first(math.inf), "feature_max: expected a finite number, got inf"),
    ("mtl", "outcome_min", lambda v: "0", "outcome_min: expected a number, got '0'"),
    ("mtl", "outcome_max", lambda v: math.inf, "outcome_max: expected a finite number, got inf"),
    ("cmtl", "assignments", lambda v: [0.5, 0.7, 0.5, 0.7], "assignments: expected an integer, got 0.5"),
    ("cmtl", "assignments", lambda v: "0101", "assignments: expected a list of integers, got '0101'"),
    ("cmtl", "kmeans_seed", lambda v: 1.5, "kmeans_seed: expected an integer, got 1.5"),
    ("cmtl", "rho1", lambda v: "1", "rho1: expected a number, got '1'"),
    ("cmtl", "rho2", lambda v: math.inf, "rho2 must be finite and >= 0, got inf"),
    ("cmtl", "k", lambda v: 2.5, "k: expected an integer, got 2.5"),
    ("cmtl", "k", lambda v: True, "k: expected an integer, got True"),
    ("cmtl", "cluster_matrix", _first(math.inf), "cluster_matrix: expected a finite number, got inf"),
    ("cmtl", "cluster_matrix", _first("0"), "cluster_matrix: expected a number, got '0'"),
    # Rules that a model file shares with a fit's arguments.
    ("cmtl", "kmeans_seed", lambda v: -1, "kmeans_seed must be a non-negative integer, got -1"),
    ("individual", "stl_penalty", lambda v: "none", "penalty 'none' requires lam = 0"),
]


@pytest.mark.parametrize(
    "kind, key, corrupt, message", _BAD_FIELDS,
    ids=[f"{kind}-{key}-{i}" for i, (kind, key, _, _) in enumerate(_BAD_FIELDS)],
)
def test_constructor_and_loader_reject_a_field_with_one_text(tmp_path, kind, key, corrupt, message):
    model = dataclasses.replace(_fitted(kind), trace=None)
    data = model_to_dict(model)
    holder = data["scaling"] if data["scaling"] and key in data["scaling"] else data
    value = corrupt(holder.get(key))
    with pytest.raises(ValueError) as built:
        _with_field(model, key, value)
    assert str(built.value) == message
    holder[key] = value
    # json writes inf as Infinity, which the reader rejects as a token; the
    # literal 1e400 overflows to inf only as it is read.
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data).replace("Infinity", "1e400"))
    with pytest.raises(ValueError) as loaded:
        load_model(path)
    assert str(loaded.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RelaxedClusterMatrix(matrix=np.full((2, 2), np.nan), k=1),
         "cluster_matrix: expected a finite number, got nan"),
        (lambda: dataclasses.replace(_fitted("mtl"), weights=np.full((4, 4), np.nan)),
         "weights: expected a finite number, got nan"),
        (lambda: dataclasses.replace(_fitted("mtl"), intercept=np.full(4, np.nan)),
         "intercept: expected a finite number, got nan"),
        (lambda: dataclasses.replace(_fitted("mtl"), lam=np.nan),
         "lam must be finite and >= 0, got nan"),
        (lambda: ScalingParams(feature_min=[np.nan], feature_max=[1.0]),
         "feature_min: expected a finite number, got nan"),
        (lambda: dataclasses.replace(_fitted("cmtl"), assignments=(0, 1, 0, 1.0)),
         "assignments: expected an integer, got 1.0"),
    ],
    ids=["cluster-matrix", "weights", "intercept", "lam", "feature-min", "assignment"],
)
def test_constructor_rejects_what_no_model_file_holds(build, message):
    # A model file cannot hold NaN: the reader rejects the token first.
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_rejects_json_nested_past_the_recursion_limit(tmp_path):
    # json's decoder raises RecursionError, not ValueError, on such a file.
    path = tmp_path / "m.json"
    path.write_text('{"weights": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(ValueError) as info:
        load_model(path)
    assert str(info.value).startswith(f"{path}: maximum recursion depth exceeded")
