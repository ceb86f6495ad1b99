"""JSON persistence for fitted models.

Models are stored as human-inspectable JSON with a ``format_version``
field. Weights round-trip exactly (JSON floats are shortest-repr
doubles), so evaluating a reloaded model matches the in-process model
bit for bit. Solver traces are reduced to a small summary on save and
are not reconstructed on load.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .dataset import ScalingParams, write_json
from .mtl import MtlModel

FORMAT_VERSION = 1


# JSON numbers load as exactly int or float; bool is a subclass of int.
_REAL_TYPES = (int, float)


def _finite(number: float, key: str) -> float:
    # json reads a literal too large for a double, such as 1e400, as inf.
    if not math.isfinite(number):
        raise ValueError(f"{key}: expected a finite number, got {number!r}")
    return number


def _number(value, key: str) -> float:
    if type(value) not in _REAL_TYPES:
        raise ValueError(f"{key}: expected a number, got {value!r}")
    return _finite(float(value), key)


def _integer(value, key: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{key}: expected an integer, got {value!r}")
    return value


def _list(value, key: str, of: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{key}: expected a list of {of}, got {value!r}")
    return value


def _strings(value, key: str) -> tuple[str, ...]:
    items = _list(value, key, "strings")
    for item in items:
        if not isinstance(item, str):
            raise ValueError(f"{key}: expected a string, got {item!r}")
    return tuple(items)


def _numbers(value, key: str, ndim: int) -> np.ndarray:
    """``ndim``-deep nested lists of real, non-bool numbers as a float array."""
    items = [value]
    for _ in range(ndim):
        items = list(chain.from_iterable(_list(item, key, "numbers") for item in items))
    if not set(map(type, items)) <= set(_REAL_TYPES):
        bad = next(item for item in items if type(item) not in _REAL_TYPES)
        raise ValueError(f"{key}: expected a number, got {bad!r}")
    try:
        array = np.array(value, dtype=np.float64)
    except ValueError:
        raise ValueError(f"{key}: rows differ in length") from None
    overflowed = array[~np.isfinite(array)]
    if overflowed.size:
        _finite(float(overflowed[0]), key)
    return array


def _optional_string(value, key: str) -> str | None:
    if value is not None and not isinstance(value, str):
        raise ValueError(f"{key}: expected a string or null, got {value!r}")
    return value


def _scaling_to_dict(scaling: ScalingParams | None):
    if scaling is None:
        return None
    out = {
        "feature_min": scaling.feature_min.tolist(),
        "feature_max": scaling.feature_max.tolist(),
    }
    if scaling.scales_outcome:
        out["outcome_min"] = float(scaling.outcome_min)
        out["outcome_max"] = float(scaling.outcome_max)
    return out


def _scaling_from_dict(data) -> ScalingParams | None:
    if data is None:
        return None
    if not isinstance(data, dict):
        raise ValueError(f"scaling: expected an object or null, got {data!r}")
    outcome = [
        None if data.get(key) is None else _number(data[key], key)
        for key in ("outcome_min", "outcome_max")
    ]
    return ScalingParams(
        feature_min=_numbers(data["feature_min"], "feature_min", 1),
        feature_max=_numbers(data["feature_max"], "feature_max", 1),
        outcome_min=outcome[0],
        outcome_max=outcome[1],
    )


def _trace_summary(trace):
    if trace is None:
        return None
    if isinstance(trace, (list, tuple)):
        return [_trace_summary(t) for t in trace]
    return {
        "iterations": trace.iterations,
        "converged": trace.converged,
        "final_objective": (
            float(trace.objective_per_iter[-1]) if len(trace.objective_per_iter) else None
        ),
    }


def model_to_dict(model) -> dict:
    """JSON-ready dict for a fitted model of any supported type."""
    common = {
        "format_version": FORMAT_VERSION,
        "model_type": model.model_type,
        "task_labels": list(model.task_labels),
        "feature_names": list(model.feature_names),
        "weights": model.weights.tolist(),
        "intercept": model.intercept.tolist(),
        "scaling": _scaling_to_dict(model.scaling),
        "trace": _trace_summary(model.trace),
    }
    if model.model_type == "cmtl":
        common.update(
            {
                "rho1": model.params.rho1,
                "rho2": model.params.rho2,
                "k": model.params.k,
                "cluster_matrix": model.cluster_matrix.matrix.tolist(),
                "assignments": list(model.assignments),
                "kmeans_seed": model.kmeans_seed,
            }
        )
        return common
    common["lam"] = model.lam
    if model.model_type == "stl":
        common["stl_setting"] = model.stl_setting
        common["stl_penalty"] = model.stl_penalty
    return common


def save_model(model, path) -> None:
    write_json(model_to_dict(model), path)


def _model_from_dict(data: dict):
    version = data.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {version!r}")
    model_type = data.get("model_type")
    task_labels = _strings(data["task_labels"], "task_labels")
    feature_names = _strings(data["feature_names"], "feature_names")
    weights = _numbers(data["weights"], "weights", 2)
    intercept = _numbers(data["intercept"], "intercept", 1)
    scaling = _scaling_from_dict(data.get("scaling"))

    if model_type == "cmtl":
        # Only a cmtl model loads the clustered model's module.
        from .cmtl import CmtlParams, RelaxedClusterMatrix

        params = CmtlParams(
            rho1=_number(data["rho1"], "rho1"),
            rho2=_number(data["rho2"], "rho2"),
            k=_integer(data["k"], "k"),
        )
        cluster_matrix = RelaxedClusterMatrix(
            matrix=_numbers(data["cluster_matrix"], "cluster_matrix", 2), k=params.k
        )
        assignments = _list(data["assignments"], "assignments", "integers")
        fields = {
            "cluster_matrix": cluster_matrix,
            "params": params,
            "assignments": tuple(_integer(a, "assignments") for a in assignments),
            "kmeans_seed": _integer(data["kmeans_seed"], "kmeans_seed"),
        }
    else:
        fields = {
            "lam": _number(data["lam"], "lam"),
            "stl_setting": _optional_string(data.get("stl_setting"), "stl_setting"),
            "stl_penalty": _optional_string(data.get("stl_penalty"), "stl_penalty"),
        }
    return MtlModel(
        weights=weights,
        feature_names=feature_names,
        task_labels=task_labels,
        intercept=intercept,
        scaling=scaling,
        model_type=model_type,
        **fields,
    )


def load_model(path):
    """Load a model saved by :func:`save_model`.

    A file that is not UTF-8 JSON text holding an object, a missing key, a
    value of the wrong type or shape, or a non-finite number (a ``NaN`` or
    ``Infinity`` token, or a literal such as ``1e400`` that overflows a
    double; :func:`save_model` never writes one), is a ValueError naming the
    file.
    """

    def reject_constant(token: str):
        raise ValueError(f"non-finite number {token} is not allowed")

    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            # Text that is not UTF-8 or not JSON is a ValueError too.
            data = json.load(fh, parse_constant=reject_constant)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: model file does not contain a JSON object")
    try:
        return _model_from_dict(data)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
