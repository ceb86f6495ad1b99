"""JSON persistence for fitted models.

Models are stored as human-inspectable JSON with a ``format_version``
field. Weights round-trip exactly (JSON floats are shortest-repr
doubles), so evaluating a reloaded model matches the in-process model
bit for bit. Solver traces are reduced to a small summary on save and
are not reconstructed on load.
"""

from __future__ import annotations

import json

import numpy as np

from .cmtl import ClusteredModel, CmtlParams, RelaxedClusterMatrix
from .dataset import ScalingParams
from .mtl import MtlModel

FORMAT_VERSION = 1


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
    return ScalingParams(
        feature_min=np.array(data["feature_min"], dtype=np.float64),
        feature_max=np.array(data["feature_max"], dtype=np.float64),
        outcome_min=data.get("outcome_min"),
        outcome_max=data.get("outcome_max"),
    )


def _trace_summary(trace):
    if trace is None:
        return None
    if isinstance(trace, (list, tuple)):
        return [_trace_summary(t) for t in trace]
    return {
        "iterations": trace.iterations,
        "converged": trace.converged,
        "final_objective": trace.objective_per_iter[-1] if trace.objective_per_iter else None,
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
    if isinstance(model, ClusteredModel):
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
    if not isinstance(model, MtlModel):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    common["lam"] = model.lam
    if model.model_type == "stl":
        common["stl_setting"] = model.stl_setting
        common["stl_penalty"] = model.stl_penalty
    return common


def save_model(model, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(model_to_dict(model), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _model_from_dict(data: dict):
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {version!r}")
    model_type = data.get("model_type")
    weights = np.array(data["weights"], dtype=np.float64)
    intercept = np.array(data["intercept"], dtype=np.float64)
    scaling = _scaling_from_dict(data.get("scaling"))
    task_labels = tuple(data["task_labels"])
    feature_names = tuple(data["feature_names"])

    if model_type == "cmtl":
        params = CmtlParams(rho1=data["rho1"], rho2=data["rho2"], k=int(data["k"]))
        cluster_matrix = RelaxedClusterMatrix(
            matrix=np.array(data["cluster_matrix"], dtype=np.float64), k=params.k
        )
        return ClusteredModel(
            weights=weights,
            cluster_matrix=cluster_matrix,
            params=params,
            assignments=tuple(int(a) for a in data["assignments"]),
            kmeans_seed=int(data["kmeans_seed"]),
            feature_names=feature_names,
            task_labels=task_labels,
            scaling=scaling,
            intercept=intercept,
        )
    if model_type in ("mtl", "stl"):
        return MtlModel(
            weights=weights,
            lam=float(data["lam"]),
            feature_names=feature_names,
            task_labels=task_labels,
            intercept=intercept,
            scaling=scaling,
            model_type=model_type,
            stl_setting=data.get("stl_setting"),
            stl_penalty=data.get("stl_penalty"),
        )
    raise ValueError(f"unknown model_type {model_type!r}")


def load_model(path):
    """Load a model saved by :func:`save_model`.

    A missing key, or a ``NaN`` or ``Infinity`` (which ``json`` accepts
    but :func:`save_model` never writes), is a ValueError naming the file.
    """

    def reject_constant(token: str):
        raise ValueError(f"{path}: non-finite number {token} is not allowed")

    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh, parse_constant=reject_constant)
    if not isinstance(data, dict):
        raise ValueError("model file does not contain a JSON object")
    try:
        return _model_from_dict(data)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
