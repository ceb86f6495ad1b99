"""Multi-task linear regression with group sparsity and task clustering.

The public API re-exports the main entry points of each submodule.
Attribute access is lazy so that importing the package (or its CLI)
does not pull in numpy before thread environment variables are set.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# The choices of a model's kind, an STL fit, the solver's momentum and
# evaluate's total. The modules that check them and the command line, which
# offers them before numpy loads, all name these tuples.
_MODEL_TYPES = ("mtl", "cmtl", "stl")
_STL_SETTINGS = ("global", "individual")
_STL_PENALTIES = ("none", "ridge", "lasso")
_MOMENTUM_MODES = ("delayed", "standard", "none")
_TOTAL_MODES = ("pooled", "macro")

_EXPORTS = {
    # errors
    "TaskregError": "errors",
    "SchemaError": "errors",
    "ParseError": "errors",
    "DegenerateTaskError": "errors",
    "SolverError": "errors",
    "LineSearchError": "errors",
    "DivergenceError": "errors",
    # dataset
    "ScalingParams": "dataset",
    "TaskFactors": "dataset",
    "RowTable": "dataset",
    "load_csv": "dataset",
    "load_factors": "dataset",
    "write_csv": "dataset",
    "minmax_scale": "dataset",
    "stratified_split": "dataset",
    # solver
    "ProximalProblem": "fista",
    "SolverConfig": "fista",
    "SolveTrace": "fista",
    "solve": "fista",
    # joint-sparsity model
    "MtlModel": "mtl",
    "fit_mtl": "mtl",
    "prox_l21": "mtl",
    "lambda_max": "mtl",
    "l21_norm": "mtl",
    "StlSpec": "mtl",
    # clustered model
    "CmtlParams": "cmtl",
    "RelaxedClusterMatrix": "cmtl",
    "fit_cmtl": "cmtl",
    "extract_clusters": "cmtl",
    "project_spectral": "cmtl",
    "capped_simplex_project": "cmtl",
    # rankings
    "RankedFactor": "riskfactors",
    "RiskReport": "riskfactors",
    "rank_task_rfs": "riskfactors",
    "aggregate_population": "riskfactors",
    "aggregate_cluster_level": "riskfactors",
    "vote_merge_stl": "riskfactors",
    "build_report": "riskfactors",
    # baselines and evaluation
    "MaeReport": "baselines",
    "fit_stl": "baselines",
    "evaluate": "baselines",
    "write_mae_table": "baselines",
    # persistence
    "save_model": "serialize",
    "load_model": "serialize",
    "model_to_dict": "serialize",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
