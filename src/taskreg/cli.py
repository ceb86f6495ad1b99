"""Command-line front end for the end-to-end pipeline.

Subcommands: ``split`` (stratified train/test CSVs plus a manifest),
``train`` (fit a model and write it as JSON), ``evaluate`` (MAE table
for one or more models), ``riskfactors`` (multi-level ranking report),
and ``clusters`` (dump hard assignments and the relaxed cluster
matrix).

Every command accepts ``--config FILE`` with flat ``key=value`` lines;
explicit flags win over config values, which win over defaults. Keys
mirror the long flag names (hyphens or underscores both work), and keys
a command does not know are ignored so one file can serve the whole
pipeline.

BLAS runs one thread unless TASKREG_NUM_THREADS sets another count (or
a BLAS library's own variable, such as OPENBLAS_NUM_THREADS, does, when
TASKREG_NUM_THREADS is unset). This is applied before numpy loads, which
is why the numeric modules are imported inside the command handlers
rather than at the top. :func:`main` puts the variables back as it found
them when it returns.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import SolverError, TaskregError

_UNSET = object()


class _AppendOption(argparse.Action):
    """append action that tolerates a sentinel default."""

    def __call__(self, parser, namespace, values, option_string=None):
        current = getattr(namespace, self.dest, _UNSET)
        if current is _UNSET or current is None:
            current = []
            setattr(namespace, self.dest, current)
        current.append(values)


_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
_CONFIG_ALIASES = {"lambda": "lam"}


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _choice(*options):
    def cast(value: str):
        if value not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {value!r}")
        return value

    return cast


def _str_list(value) -> list[str]:
    if isinstance(value, list):
        return value
    parts = [p.strip() for p in str(value).split(",")]
    return [p for p in parts if p]


_COMMON_IO = (
    ("task_column", str, "task"),
    ("outcome_column", str, "outcome"),
)

_OPTION_TABLES = {
    "split": _COMMON_IO
    + (
        ("train_fraction", float, 0.6),
        ("seed", int, 0),
        ("train_out", str, "train.csv"),
        ("test_out", str, "test.csv"),
        ("manifest", str, "split_manifest.json"),
        ("scale_full", _parse_bool, False),
        ("scale_outcome", _parse_bool, False),
    ),
    "train": _COMMON_IO
    + (
        ("model", _choice("mtl", "cmtl", "stl"), None),
        ("lam", float, None),
        ("rho1", float, 1.0),
        ("rho2", float, 1.0),
        ("k", int, None),
        ("setting", _choice("global", "individual"), "individual"),
        ("penalty", _choice("none", "ridge", "lasso"), "none"),
        ("kmeans_seed", int, 0),
        ("max_iters", int, 1000),
        ("tol", float, 1e-6),
        ("momentum", _choice("delayed", "standard", "none"), "delayed"),
        ("no_scale", _parse_bool, False),
        ("scale_outcome", _parse_bool, False),
        ("intercept", _parse_bool, False),
        ("out", str, "model.json"),
    ),
    "evaluate": _COMMON_IO
    + (
        ("model", _str_list, None),
        ("out", str, "mae_report.csv"),
        ("total", _choice("pooled", "macro"), "pooled"),
    ),
    "riskfactors": (
        ("model", str, None),
        ("top", int, 10),
        ("levels", str, "task,population"),
        ("out_json", str, "riskfactors.json"),
        ("out_csv", str, "riskfactors.csv"),
        ("categories", str, None),
    ),
    "clusters": (
        ("model", str, None),
        ("out", str, "clusters.csv"),
        ("out_matrix", str, None),
    ),
}


def _configure_threads() -> None:
    """Set every BLAS thread variable to TASKREG_NUM_THREADS, or those unset to 1.

    The fits multiply matrices of a few hundred rows at most, where one
    thread is faster than several.
    """
    value = os.environ.get("TASKREG_NUM_THREADS")
    if value is None:
        for var in _THREAD_VARS:
            os.environ.setdefault(var, "1")
        return
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(
            f"TASKREG_NUM_THREADS must be a positive integer, got {value!r}"
        )
    for var in _THREAD_VARS:
        os.environ[var] = str(count)


def _load_config(path: str) -> dict[str, str]:
    config: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            key = _CONFIG_ALIASES.get(key, key)
            config[key] = value.strip()
    return config


def _resolve_options(args, config: dict[str, str]) -> None:
    for attr, caster, default in _OPTION_TABLES[args.command]:
        if getattr(args, attr) is not _UNSET:
            continue
        if attr in config:
            try:
                setattr(args, attr, caster(config[attr]))
            except ValueError as exc:
                raise ValueError(f"config key {attr}: {exc}") from None
        else:
            setattr(args, attr, default)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskreg",
        description="Multi-task linear regression with group sparsity and task clustering.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def io_flags(p):
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--task-column", dest="task_column", default=_UNSET)
        p.add_argument("--outcome-column", dest="outcome_column", default=_UNSET)

    p = sub.add_parser("split", help="stratified train/test split of a CSV")
    p.add_argument("input", help="input CSV path")
    io_flags(p)
    p.add_argument("--train-fraction", dest="train_fraction", type=float, default=_UNSET)
    p.add_argument("--seed", type=int, default=_UNSET)
    p.add_argument("--train-out", dest="train_out", default=_UNSET)
    p.add_argument("--test-out", dest="test_out", default=_UNSET)
    p.add_argument("--manifest", default=_UNSET)
    p.add_argument(
        "--scale-full",
        dest="scale_full",
        action="store_true",
        default=_UNSET,
        help="min-max scale on the full data before splitting",
    )
    p.add_argument("--scale-outcome", dest="scale_outcome", action="store_true", default=_UNSET)
    p.set_defaults(handler=cmd_split)

    p = sub.add_parser("train", help="fit a model and write it as JSON")
    p.add_argument("input", help="training CSV path")
    io_flags(p)
    p.add_argument("--model", choices=("mtl", "cmtl", "stl"), default=_UNSET)
    p.add_argument("--lambda", dest="lam", type=float, default=_UNSET)
    p.add_argument("--rho1", type=float, default=_UNSET)
    p.add_argument("--rho2", type=float, default=_UNSET)
    p.add_argument("--k", type=int, default=_UNSET, help="cluster count (cmtl)")
    p.add_argument("--setting", choices=("global", "individual"), default=_UNSET)
    p.add_argument("--penalty", choices=("none", "ridge", "lasso"), default=_UNSET)
    p.add_argument("--kmeans-seed", dest="kmeans_seed", type=int, default=_UNSET)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=_UNSET)
    p.add_argument("--tol", type=float, default=_UNSET)
    p.add_argument("--momentum", choices=("delayed", "standard", "none"), default=_UNSET)
    p.add_argument(
        "--no-scale",
        dest="no_scale",
        action="store_true",
        default=_UNSET,
        help="train on raw values (e.g. when split already scaled)",
    )
    p.add_argument("--scale-outcome", dest="scale_outcome", action="store_true", default=_UNSET)
    p.add_argument("--intercept", action="store_true", default=_UNSET)
    p.add_argument("--out", default=_UNSET)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate", help="MAE table for models on a test CSV")
    p.add_argument("test", help="test CSV path")
    io_flags(p)
    p.add_argument(
        "--model",
        action=_AppendOption,
        default=_UNSET,
        help="model JSON path; repeat for several models",
    )
    p.add_argument("--out", default=_UNSET)
    p.add_argument("--total", choices=("pooled", "macro"), default=_UNSET)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("riskfactors", help="ranked risk-factor report from a model")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--model", default=_UNSET, help="model JSON path")
    p.add_argument("--top", type=int, default=_UNSET)
    p.add_argument("--levels", default=_UNSET, help="comma list: task,cluster,population")
    p.add_argument("--out-json", dest="out_json", default=_UNSET)
    p.add_argument("--out-csv", dest="out_csv", default=_UNSET)
    p.add_argument("--categories", default=_UNSET, help="CSV mapping feature,category")
    p.set_defaults(handler=cmd_riskfactors)

    p = sub.add_parser("clusters", help="dump cluster assignments from a cmtl model")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--model", default=_UNSET, help="model JSON path")
    p.add_argument("--out", default=_UNSET)
    p.add_argument("--out-matrix", dest="out_matrix", default=_UNSET)
    p.set_defaults(handler=cmd_clusters)

    return parser


def _check_seed(value: int, option: str) -> None:
    if value < 0:
        raise ValueError(f"{option} must be a non-negative integer, got {value}")


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist (yet)
        return Path(a).resolve() == Path(b).resolve()


def _check_outputs(inputs, outputs) -> None:
    """Raise ValueError if an output names the same file as an input or an earlier output.

    ``inputs`` and ``outputs`` are (name, path) pairs; a path of None is
    skipped. Commands call this before they write anything.
    """
    named = [(name, path) for name, path in inputs if path is not None]
    for name, path in outputs:
        if path is None:
            continue
        for other, other_path in named:
            if _same_file(path, other_path):
                raise ValueError(f"{name} {path} names the same file as {other} {other_path}")
        named.append((name, path))


def cmd_split(args) -> int:
    from . import dataset

    _check_seed(args.seed, "--seed")
    _check_outputs(
        [("the input", args.input)],
        [("--train-out", args.train_out), ("--test-out", args.test_out),
         ("--manifest", args.manifest)],
    )
    rows = dataset.load_csv(args.input, args.task_column, args.outcome_column)
    if args.scale_full:
        dataset.minmax_scale(rows, scale_outcome=args.scale_outcome)
    train, test = dataset.stratified_split(rows, args.train_fraction, args.seed)
    dataset.write_csv(rows, train, args.train_out, args.task_column, args.outcome_column)
    dataset.write_csv(rows, test, args.test_out, args.task_column, args.outcome_column)
    manifest = {
        "command": "split",
        "input": str(args.input),
        "seed": args.seed,
        "train_fraction": args.train_fraction,
        "task_column": args.task_column,
        "outcome_column": args.outcome_column,
        "scaled_before_split": bool(args.scale_full),
        "scale_outcome": bool(args.scale_full and args.scale_outcome),
        "dropped_rows": rows.dropped_rows,
        "per_task": {
            label: {"total": full.size, "train": tr.size, "test": te.size}
            for label, full, tr, te in zip(rows.task_labels, rows.task_rows, train, test)
        },
    }
    with open(args.manifest, "w", encoding="utf-8", newline="") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(
        f"split {rows.n_rows} rows across {rows.n_tasks} tasks "
        f"-> {args.train_out}, {args.test_out}"
    )
    return 0


def _solver_config(args):
    from . import fista

    return fista.SolverConfig(
        max_iters=args.max_iters, rel_tol=args.tol, momentum=args.momentum
    )


def _trace_line(trace) -> str:
    if isinstance(trace, tuple):
        iters = sum(t.iterations for t in trace)
        converged = all(t.converged for t in trace)
        return f"solver: {iters} iterations over {len(trace)} fits, converged={converged}"
    return f"solver: {trace.iterations} iterations, converged={trace.converged}"


def cmd_train(args) -> int:
    from . import baselines, cmtl, dataset, mtl, serialize

    if args.model is None:
        raise ValueError("--model is required (mtl, cmtl, or stl)")
    _check_seed(args.kmeans_seed, "--kmeans-seed")
    _check_outputs([("the input", args.input)], [("--out", args.out)])
    factors = dataset.load_factors(args.input, args.task_column, args.outcome_column)
    if args.no_scale:
        params = None
    else:
        factors, params = factors.minmax_scaled(scale_outcome=args.scale_outcome)
    cfg = _solver_config(args)

    if args.model == "mtl":
        lam = 0.1 if args.lam is None else args.lam
        model = mtl.fit_mtl(factors, lam, cfg, fit_intercept=args.intercept, scaling=params)
    elif args.model == "cmtl":
        if args.intercept:
            raise ValueError("--intercept is not supported with the cmtl model")
        if args.k is None:
            raise ValueError("--k is required for the cmtl model")
        cmtl_params = cmtl.CmtlParams(rho1=args.rho1, rho2=args.rho2, k=args.k)
        model = cmtl.fit_cmtl(
            factors, cmtl_params, cfg, kmeans_seed=args.kmeans_seed, scaling=params
        )
    else:
        lam = args.lam
        if lam is None:
            lam = 0.0 if args.penalty == "none" else 0.1
        spec = baselines.StlSpec(setting=args.setting, penalty=args.penalty, lam=lam)
        model = baselines.fit_stl(
            factors, spec, cfg, fit_intercept=args.intercept, scaling=params
        )

    serialize.save_model(model, args.out)
    print(
        f"trained {args.model} on {factors.n_tasks} tasks, {factors.n_features} features "
        f"-> {args.out}"
    )
    print(_trace_line(model.trace))
    traces = model.trace if isinstance(model.trace, tuple) else (model.trace,)
    stopped = sum(not t.converged for t in traces)
    if stopped:
        which = "the solver" if len(traces) == 1 else f"{stopped} of {len(traces)} fits"
        print(
            f"warning: {which} stopped at the iteration cap (--max-iters {args.max_iters}) "
            "before converging; raise --max-iters or --tol",
            file=sys.stderr,
        )
    return 0


def cmd_evaluate(args) -> int:
    from . import baselines, serialize

    if not args.model:
        raise ValueError("at least one --model is required")
    _check_outputs(
        [("the test file", args.test), *(("--model", path) for path in args.model)],
        [("--out", args.out)],
    )
    names: list[str] = []
    for path in args.model:
        name = Path(path).stem
        suffix = 2
        while name in names:
            name = f"{Path(path).stem}_{suffix}"
            suffix += 1
        names.append(name)
    models = [serialize.load_model(path) for path in args.model]
    errors = baselines.evaluate(models, args.test, args.task_column, args.outcome_column)
    reports = {name: errors.report(k, args.total) for k, name in enumerate(names)}
    baselines.write_mae_table(reports, errors.outcomes, args.out)
    for name, rep in reports.items():
        print(f"{name}: total MAE {rep.total:.6g} ({args.total})")
    print(f"wrote {args.out}")
    return 0


def _load_categories(path: str) -> dict[str, str]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip().lower() for c in rows[0]] != ["feature", "category"]:
        raise ValueError(f"{path}: expected a CSV with header 'feature,category'")
    out: dict[str, str] = {}
    for row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"{path}: every row needs exactly feature,category")
        out[row[0]] = row[1]
    return out


def cmd_riskfactors(args) -> int:
    from . import riskfactors, serialize

    if args.model is None:
        raise ValueError("--model is required")
    _check_outputs(
        [("--model", args.model), ("--categories", args.categories)],
        [("--out-json", args.out_json), ("--out-csv", args.out_csv)],
    )
    model = serialize.load_model(args.model)
    levels = tuple(p.strip() for p in args.levels.split(",") if p.strip())
    if "cluster" in levels and model.model_type != "cmtl":
        raise ValueError("the cluster level requires a cmtl model")
    categories = _load_categories(args.categories) if args.categories else None
    top_k = min(args.top, model.n_features)
    assignments = model.assignments if model.model_type == "cmtl" else None
    report = riskfactors.build_report(
        model.weights,
        model.feature_names,
        model.task_labels,
        top_k=top_k,
        levels=levels,
        assignments=assignments,
        categories=categories,
    )
    riskfactors.write_report_json(report, args.out_json)
    riskfactors.write_report_csv(report, args.out_csv)
    print(f"top {top_k} risk factors ({', '.join(levels)}) -> {args.out_json}, {args.out_csv}")
    return 0


def cmd_clusters(args) -> int:
    from . import serialize

    if args.model is None:
        raise ValueError("--model is required")
    _check_outputs(
        [("--model", args.model)], [("--out", args.out), ("--out-matrix", args.out_matrix)]
    )
    model = serialize.load_model(args.model)
    if model.model_type != "cmtl":
        raise ValueError("the clusters command requires a cmtl model")
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["task", "cluster"])
        for label, cluster in zip(model.task_labels, model.assignments):
            writer.writerow([label, cluster])
    if args.out_matrix is not None:
        matrix = model.cluster_matrix.matrix
        with open(args.out_matrix, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["task"] + list(model.task_labels))
            for label, row in zip(model.task_labels, matrix):
                writer.writerow([label] + [repr(float(v)) for v in row])
    n_clusters = len(set(model.assignments))
    print(f"{model.n_tasks} tasks in {n_clusters} clusters -> {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # The thread variables are set for this run only: a caller keeps its own.
    saved = {var: os.environ.get(var) for var in _THREAD_VARS}
    try:
        _configure_threads()
        config = _load_config(args.config) if args.config else {}
        _resolve_options(args, config)
        return args.handler(args)
    except (TaskregError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, SolverError) and exc.objective_trail:
            tail = exc.objective_trail[-5:]
            formatted = ", ".join(f"{v:.6g}" for v in tail)
            print(f"last objective values: {formatted}", file=sys.stderr)
        return 2
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


if __name__ == "__main__":
    sys.exit(main())
