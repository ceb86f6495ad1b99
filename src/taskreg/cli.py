"""Command-line front end for the end-to-end pipeline.

Subcommands: ``split`` (stratified train/test CSVs plus a manifest),
``train`` (fit a model and write it as JSON), ``evaluate`` (MAE table
for one or more models), ``riskfactors`` (multi-level ranking report),
and ``clusters`` (dump hard assignments and the relaxed cluster
matrix).

Every command accepts ``--config FILE`` with flat ``key=value`` lines;
explicit flags win over config values, which win over defaults. Keys
mirror the long flag names (hyphens or underscores both work, and
``lambda`` may be written ``lam``), and keys a command does not know are
ignored so one file can serve the whole pipeline. A flag that the other
options leave unused, such as a ``train`` flag that the chosen model does
not use, is an error; such a config key is ignored. ``--intercept``, or
``intercept = true``, with ``--model cmtl`` is refused either way.

BLAS runs one thread unless TASKREG_NUM_THREADS sets another count (or
a BLAS library's own variable, such as OPENBLAS_NUM_THREADS, does, when
TASKREG_NUM_THREADS is unset). This is applied before numpy loads, which
is why the numeric modules are imported inside the command handlers
rather than at the top. :func:`main` puts the variables back as it found
them when it returns.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import os
import sys
import tempfile
from pathlib import Path

from . import __version__
from .errors import SolverError, TaskregError

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# Each command's options as (name, kind, default). The flag is --name with
# hyphens and the config key is name with hyphens or underscores. kind is a
# caster (str, int, float), a tuple of choices, bool (a flag that sets True)
# or list (a repeatable flag, or a comma list in a config file).
_COMMON_IO = (
    ("task_column", str, "task"),
    ("outcome_column", str, "outcome"),
)

_OPTIONS = {
    "split": _COMMON_IO
    + (
        ("train_fraction", float, 0.6),
        ("seed", int, 0),
        ("train_out", str, "train.csv"),
        ("test_out", str, "test.csv"),
        ("manifest", str, "split_manifest.json"),
        ("scale_full", bool, False),
        ("scale_outcome", bool, False),
    ),
    "train": _COMMON_IO
    + (
        ("model", ("mtl", "cmtl", "stl"), None),
        ("lambda", float, None),
        ("rho1", float, 1.0),
        ("rho2", float, 1.0),
        ("k", int, None),
        ("setting", ("global", "individual"), "individual"),
        ("penalty", ("none", "ridge", "lasso"), "none"),
        ("kmeans_seed", int, 0),
        ("max_iters", int, 1000),
        ("tol", float, 1e-6),
        ("momentum", ("delayed", "standard", "none"), "delayed"),
        ("no_scale", bool, False),
        ("scale_outcome", bool, False),
        ("intercept", bool, False),
        ("out", str, "model.json"),
    ),
    "evaluate": _COMMON_IO
    + (
        ("model", list, None),
        ("out", str, "mae_report.csv"),
        ("total", ("pooled", "macro"), "pooled"),
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

# The attribute of an option named by a Python keyword; either is a config key.
_DESTS = {"lambda": "lam"}

# The train options that only some models use, and the models that use each.
_MODEL_OPTIONS = {
    "lambda": ("mtl", "stl"),
    **dict.fromkeys(("setting", "penalty"), ("stl",)),
    **dict.fromkeys(("rho1", "rho2", "k", "kmeans_seed"), ("cmtl",)),
}


def _from_config(kind, text: str):
    """A config value cast as its option's flag would give it."""
    if kind is bool:
        lowered = text.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {text!r}")
    if kind is list:
        items = [item.strip() for item in text.split(",")]
        if "" in items:
            raise ValueError(f"expected a comma list of paths, got an empty item in {text!r}")
        return items
    if isinstance(kind, tuple):
        if text not in kind:
            raise ValueError(f"expected one of {', '.join(kind)}, got {text!r}")
        return text
    return kind(text)


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
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                key = key.strip().replace("-", "_")
                config[_DESTS.get(key, key)] = value.strip()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return config


def _resolve_options(args, config: dict[str, str]) -> set[str]:
    """Fill each option no flag gave from the config file, or else its default.

    Returns the names of the options that a flag gave.
    """
    given = set()
    for name, kind, default in _OPTIONS[args.command]:
        dest = _DESTS.get(name, name)
        if getattr(args, dest) is not None:
            given.add(name)
            continue
        if dest in config:
            try:
                setattr(args, dest, _from_config(kind, config[dest]))
            except ValueError as exc:
                raise ValueError(f"config key {dest}: {exc}") from None
        else:
            setattr(args, dest, default)
    return given


def _check_unused_flags(args, given: set[str]) -> None:
    """Raise ValueError for a flag that the command's other options leave unused.

    Those are split's --scale-outcome without --scale-full, and a train flag
    that the chosen model, or --no-scale, leaves unused. Only flags are checked:
    one config file serves every command and model, so its other keys are ignored.
    """
    if args.command == "split" and "scale_outcome" in given and not args.scale_full:
        raise ValueError("--scale-outcome does not apply without --scale-full")
    if args.command != "train" or args.model is None:
        return  # cmd_train reports a missing --model
    for name, models in _MODEL_OPTIONS.items():
        if name in given and args.model not in models:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to --model {args.model}")
    if "scale_outcome" in given and args.no_scale:
        raise ValueError("--scale-outcome does not apply with --no-scale")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskreg",
        description="Multi-task linear regression with group sparsity and task clustering.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary, positional, handler in (
        ("split", "stratified train/test split of a CSV", ("input", "input CSV path"),
         cmd_split),
        ("train", "fit a model and write it as JSON", ("input", "training CSV path"), cmd_train),
        ("evaluate", "MAE table for models on a test CSV", ("test", "test CSV path"),
         cmd_evaluate),
        ("riskfactors", "ranked risk-factor report from a model", None, cmd_riskfactors),
        ("clusters", "dump cluster assignments from a cmtl model", None, cmd_clusters),
    ):
        p = sub.add_parser(command, help=summary)
        if positional:
            p.add_argument(positional[0], help=positional[1])
        p.add_argument("--config", help="flat key=value config file")
        # An option no flag gives stays None until _resolve_options fills it.
        for name, kind, default in _OPTIONS[command]:
            if kind is bool:
                how = {"action": "store_true", "default": None}
            elif kind is list:
                how = {"action": "append"}
            elif isinstance(kind, tuple):
                how = {"choices": kind}
            else:
                how = {"type": kind}
            flag = "--" + name.replace("_", "-")
            shown = None if default is None or kind is bool else f"default: {default}"
            p.add_argument(flag, dest=_DESTS.get(name, name), help=shown, **how)
        p.set_defaults(handler=handler)
    return parser


@contextlib.contextmanager
def _naming(path):
    """Prefix a ValueError raised in the block with the file it is about."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@contextlib.contextmanager
def _spool_space():
    """Name the temporary directory in a full-disk error raised in the block."""
    try:
        yield
    except OSError as exc:
        if exc.errno not in (errno.ENOSPC, errno.EDQUOT):
            raise
        raise OSError(
            exc.errno,
            f"{exc.strerror} for split's temporary file in {tempfile.gettempdir()} "
            "(the TMPDIR environment variable names that directory)",
        ) from None


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

    dataset._seed(args.seed, "--seed")
    _check_outputs(
        [("the input", args.input), ("--config", args.config)],
        [("--train-out", args.train_out), ("--test-out", args.test_out),
         ("--manifest", args.manifest)],
    )
    opened = []  # the outputs split has begun to write, which a failed split removes
    try:
        # Unless it scales, split keeps the kept records' text in an unnamed
        # temporary file, which every exit from the block closes and so deletes.
        with contextlib.ExitStack() as stack:
            with _spool_space():
                spool = None if args.scale_full else stack.enter_context(tempfile.TemporaryFile())
                rows = dataset.load_csv(
                    args.input, args.task_column, args.outcome_column, spool=spool
                )
            if args.scale_full:
                with _naming(args.input):
                    dataset.minmax_scale(rows, scale_outcome=args.scale_outcome)
            train, test = dataset.stratified_split(rows, args.train_fraction, args.seed)
            opened.append(args.train_out)
            dataset.write_csv(rows, train, args.train_out, args.task_column, args.outcome_column)
            opened.append(args.test_out)
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
        opened.append(args.manifest)
        dataset.write_json(manifest, args.manifest)
    except BaseException as exc:
        if isinstance(exc, OSError) and opened and exc.filename == opened[-1]:
            opened.pop()  # it could not be opened, so split left it as it was
        for path in opened:
            if os.path.isfile(path):  # not a device such as /dev/null
                with contextlib.suppress(OSError):
                    os.remove(path)
        raise
    print(
        f"split {rows.n_rows} rows across {rows.n_tasks} tasks "
        f"-> {args.train_out}, {args.test_out}"
    )
    return 0


def _trace_line(trace) -> str:
    if isinstance(trace, tuple):  # a BlockTraces, one trace per task
        converged = all(t.converged for t in trace)
        return (
            f"solver: {trace.iterations} iterations over {len(trace)} fits, "
            f"converged={converged}"
        )
    return f"solver: {trace.iterations} iterations, converged={trace.converged}"


def cmd_train(args) -> int:
    from . import dataset, fista, serialize

    if args.model is None:
        raise ValueError("--model is required (mtl, cmtl, or stl)")
    if args.model == "cmtl":
        if args.intercept:
            raise ValueError("--intercept is not supported with the cmtl model")
        dataset._seed(args.kmeans_seed, "--kmeans-seed")
    _check_outputs([("the input", args.input), ("--config", args.config)], [("--out", args.out)])
    factors = dataset.load_factors(args.input, args.task_column, args.outcome_column)
    params = None
    with _naming(args.input):
        if not args.no_scale:
            factors, params = factors.minmax_scaled(scale_outcome=args.scale_outcome)
        # In the units of the fit: an outcome left unscaled can still overflow it.
        factors.check_finite()
    cfg = fista.SolverConfig(max_iters=args.max_iters, rel_tol=args.tol, momentum=args.momentum)

    # Each model loads only its own fitting module.
    if args.model == "mtl":
        from . import mtl

        lam = 0.1 if args.lam is None else args.lam
        model = mtl.fit_mtl(factors, lam, cfg, fit_intercept=args.intercept, scaling=params)
    elif args.model == "cmtl":
        if args.k is None:
            raise ValueError("--k is required for the cmtl model")
        from . import cmtl

        cmtl_params = cmtl.CmtlParams(rho1=args.rho1, rho2=args.rho2, k=args.k)
        model = cmtl.fit_cmtl(
            factors, cmtl_params, cfg, kmeans_seed=args.kmeans_seed, scaling=params
        )
    else:
        from . import baselines

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
        [("the test file", args.test), *(("--model", path) for path in args.model),
         ("--config", args.config)],
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
    with _naming(args.test):
        baselines.write_mae_table(reports, errors.outcomes, args.out)
    for name, rep in reports.items():
        print(f"{name}: total MAE {rep.total:.6g} ({args.total})")
    print(f"wrote {args.out}")
    return 0


def _load_categories(path: str, model) -> dict[str, str]:
    """The feature -> category rows of a categories CSV, each feature one of the model's."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not rows or [c.strip().lower() for c in rows[0]] != ["feature", "category"]:
        raise ValueError(f"{path}: expected a CSV with header 'feature,category'")
    out: dict[str, str] = {}
    for row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"{path}: every row needs exactly feature,category")
        if row[0] in out:
            raise ValueError(f"{path}: feature {row[0]!r} is listed twice")
        if row[0] not in model.feature_names:
            raise ValueError(f"{path}: feature {row[0]!r} is not a feature of the model")
        out[row[0]] = row[1]
    return out


def cmd_riskfactors(args) -> int:
    from . import riskfactors, serialize

    if args.model is None:
        raise ValueError("--model is required")
    _check_outputs(
        [("--model", args.model), ("--categories", args.categories), ("--config", args.config)],
        [("--out-json", args.out_json), ("--out-csv", args.out_csv)],
    )
    model = serialize.load_model(args.model)
    levels = tuple(p.strip() for p in args.levels.split(",") if p.strip())
    for level in levels:
        if levels.count(level) > 1:
            raise ValueError(f"--levels names {level!r} twice")
    categories = _load_categories(args.categories, model) if args.categories else None
    top_k = min(args.top, model.n_features)
    report = riskfactors.build_report(
        model.weights,
        model.feature_names,
        model.task_labels,
        top_k=top_k,
        levels=levels,
        assignments=model.assignments,  # None but for cmtl
        categories=categories,
    )
    riskfactors.write_report_json(report, args.out_json)
    riskfactors.write_report_csv(report, args.out_csv)
    print(f"top {top_k} risk factors ({', '.join(levels)}) -> {args.out_json}, {args.out_csv}")
    return 0


def cmd_clusters(args) -> int:
    """Write each task's cluster and, with --out-matrix, the relaxed cluster matrix.

    Both files are CSV in the dialect of :func:`taskreg.dataset.write_rows`;
    the matrix has one row and one column per task, each value by ``repr``.
    """
    from . import dataset, serialize

    if args.model is None:
        raise ValueError("--model is required")
    _check_outputs(
        [("--model", args.model), ("--config", args.config)],
        [("--out", args.out), ("--out-matrix", args.out_matrix)],
    )
    model = serialize.load_model(args.model)
    if model.model_type != "cmtl":
        raise ValueError("the clusters command requires a cmtl model")
    labels = model.task_labels
    dataset.write_rows([["task", "cluster"], *zip(labels, model.assignments)], args.out)
    if args.out_matrix is not None:
        matrix = model.cluster_matrix.matrix.tolist()
        rows = [[label, *map(repr, row)] for label, row in zip(labels, matrix)]
        dataset.write_rows([["task", *labels], *rows], args.out_matrix)
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
        _check_unused_flags(args, _resolve_options(args, config))
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
