"""JSON persistence for fitted models.

Models are stored as human-inspectable JSON with a ``format_version``
field. Weights round-trip exactly (JSON floats are shortest-repr
doubles), so evaluating a reloaded model matches the in-process model
bit for bit. Solver traces are reduced to a small summary on save and
are not reconstructed on load.
"""

from __future__ import annotations

import json

from .dataset import ScalingParams, write_json
from .mtl import MtlModel

FORMAT_VERSION = 1


def _scaling_to_dict(scaling: ScalingParams | None):
    if scaling is None:
        return None
    out = {"feature_min": scaling.feature_min.tolist(), "feature_max": scaling.feature_max.tolist()}
    if scaling.scales_outcome:  # ScalingParams holds the outcome bounds as floats
        out.update(outcome_min=scaling.outcome_min, outcome_max=scaling.outcome_max)
    return out


def _scaling_from_dict(data) -> ScalingParams | None:
    if data is None:
        return None
    if not isinstance(data, dict):
        raise ValueError(f"scaling: expected an object or null, got {data!r}")
    return ScalingParams(
        feature_min=data["feature_min"],
        feature_max=data["feature_max"],
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
    fields = {key: data[key] for key in ("task_labels", "feature_names", "weights", "intercept")}
    fields["scaling"] = _scaling_from_dict(data.get("scaling"))
    fields["model_type"] = data.get("model_type")
    if fields["model_type"] == "cmtl":
        # Only a cmtl model loads the clustered model's module.
        from .cmtl import CmtlParams, RelaxedClusterMatrix

        params = CmtlParams(rho1=data["rho1"], rho2=data["rho2"], k=data["k"])
        cluster_matrix = RelaxedClusterMatrix(matrix=data["cluster_matrix"], k=params.k)
        fields.update(cluster_matrix=cluster_matrix, params=params)
        fields.update({key: data[key] for key in ("assignments", "kmeans_seed")})
    else:
        fields["lam"] = data["lam"]
        fields.update({key: data.get(key) for key in ("stl_setting", "stl_penalty")})
    return MtlModel._from_file(**fields)


def load_model(path):
    """Load a model saved by :func:`save_model`.

    A file that is not UTF-8 JSON text holding an object, a ``NaN`` or
    ``Infinity`` token (:func:`save_model` never writes one), an unknown
    ``format_version``, a missing key or a ``scaling`` that is neither an
    object nor null is a ValueError naming the file. Each value then goes
    to the type that holds it (``MtlModel``, ``ScalingParams``,
    ``CmtlParams``, ``RelaxedClusterMatrix``), whose checks, the same as
    in code, name the key, say of a literal ``1e400``, which overflows.
    """

    def reject_constant(token: str):
        raise ValueError(f"non-finite number {token} is not allowed")

    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            # Text that is not UTF-8 or not JSON is a ValueError too.
            data = json.load(fh, parse_constant=reject_constant)
        except (ValueError, RecursionError) as exc:  # the latter for a list nested too deep
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: model file does not contain a JSON object")
    try:
        return _model_from_dict(data)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
