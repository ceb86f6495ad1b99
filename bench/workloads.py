"""The benchmark's workloads: input panel, command sequence, output checks.

Every workload is one csv-in, report-out pipeline: ``split`` prepares
the panel, one or more ``train`` commands fit models, ``evaluate``
scores them on the held-out side, and report commands read the models
back. Commands are argument lists for ``taskreg.cli`` and name their
files relative to the run's work directory.

The checks compare outputs with what the generator planted. Each failed
check names the command whose output it rejects, so that the run counts
it as a failed command.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import panels

# E|e| for e ~ N(0, sd^2) is sd * sqrt(2/pi): the MAE of a perfect model.
_MAE_PER_SD = math.sqrt(2.0 / math.pi)

# Relative slack when the recomputed objective of the saved weights is
# compared with the solver's own last objective value.
_OBJECTIVE_RTOL = 1e-9


@dataclass(frozen=True)
class Command:
    """One CLI invocation. ``phase`` is setup, train, evaluate or report."""

    name: str
    phase: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_panel: Callable[[Path, int, bool], panels.Panel]
    commands: Callable[[panels.Panel, bool], list[Command]]
    primary_model: str
    # test_mae of the primary model may be at most this many noise floors.
    mae_factor: float
    extra_checks: Callable[[Path, panels.Panel], list[tuple[str, str]]]


def _columns(panel: panels.Panel) -> tuple[str, ...]:
    return ("--task-column", panel.task_column, "--outcome-column", panel.outcome_column)


def _split(panel: panels.Panel) -> Command:
    argv = (
        "split", Path(panel.path).name, *_columns(panel),
        "--train-fraction", "0.7", "--seed", "1",
        "--train-out", "train.csv", "--test-out", "test.csv", "--manifest", "split.json",
    )
    return Command("split", "setup", argv, ("train.csv", "test.csv", "split.json"))


def _train(panel: panels.Panel, out: str, *options: str) -> Command:
    argv = ("train", "train.csv", *_columns(panel), *options, "--out", out)
    return Command(f"train-{Path(out).stem}", "train", argv, (out,))


def _evaluate(panel: panels.Panel, *models: str) -> Command:
    argv = ["evaluate", "test.csv", *_columns(panel)]
    for model in models:
        argv += ["--model", model]
    argv += ["--out", "mae.csv"]
    return Command("evaluate", "evaluate", tuple(argv), ("mae.csv",))


def _riskfactors(model: str, levels: str) -> Command:
    argv = (
        "riskfactors", "--model", model, "--levels", levels,
        "--out-json", "rf.json", "--out-csv", "rf.csv",
    )
    return Command("riskfactors", "report", argv, ("rf.json", "rf.csv"))


# --- brfss-mtl -------------------------------------------------------------

# Full size: 6 x 2,500 rows, an eighth of the 119,929-row BRFSS panel, so
# that one run repeats the pipeline often enough for a steady median on a
# shared 2-core machine. Toy size serves the self-test.
_BRFSS_ROWS = {False: 2500, True: 600}
# Group-lasso penalty on the scaled train side: large enough to zero every
# column outside the planted support at either size, small enough to keep
# the test MAE within a few percent of the noise floor.
_MTL_LAMBDA = {False: "22", True: "14"}


def _brfss_panel(work: Path, seed: int, toy: bool) -> panels.Panel:
    return panels.write_brfss(work / "panel.csv", seed, rows_per_task=_BRFSS_ROWS[toy])


def _brfss_mtl_commands(panel: panels.Panel, toy: bool) -> list[Command]:
    return [
        _split(panel),
        _train(panel, "mtl.json", "--model", "mtl", "--lambda", _MTL_LAMBDA[toy]),
        _evaluate(panel, "mtl.json"),
        _riskfactors("mtl.json", "task,population"),
    ]


def _brfss_mtl_checks(work: Path, panel: panels.Panel) -> list[tuple[str, str]]:
    failures = []
    model = json.loads((work / "mtl.json").read_text())
    weights = np.array(model["weights"])
    nonzero = [
        name for name, norm in zip(model["feature_names"], np.linalg.norm(weights, axis=0))
        if norm > 0
    ]
    if nonzero != panel.truth["support"]:
        failures.append((
            "train-mtl",
            f"nonzero weight columns {nonzero} differ from the planted support "
            f"{panel.truth['support']}",
        ))
    report = json.loads((work / "rf.json").read_text())
    ranked = [entry["feature"] for entry in report.get("population", [])]
    stray = sorted(set(ranked) - set(panel.truth["support"]))
    if not ranked or stray:
        failures.append(("riskfactors", f"population ranking {ranked} has off-support {stray}"))
    return failures


# --- cohorts-cmtl ----------------------------------------------------------

# Full size: 64 tasks rather than 96, for the same reason as the brfss size.
_COHORT_TASKS = {False: 64, True: 12}


def _cohorts_panel(work: Path, seed: int, toy: bool) -> panels.Panel:
    return panels.write_cohorts(work / "panel.csv", seed, n_tasks=_COHORT_TASKS[toy])


def _cohorts_commands(panel: panels.Panel, toy: bool) -> list[Command]:
    clusters = Command(
        "clusters", "report", ("clusters", "--model", "cmtl.json", "--out", "clusters.csv"),
        ("clusters.csv",),
    )
    return [
        _split(panel),
        _train(
            panel, "cmtl.json", "--model", "cmtl", "--k", "4", "--rho1", "0.01",
            "--rho2", "0.01", "--max-iters", "3000", "--tol", "1e-6",
        ),
        _train(
            panel, "stl.json", "--model", "stl", "--setting", "individual",
            "--penalty", "lasso", "--lambda", "0.5",
        ),
        _evaluate(panel, "cmtl.json", "stl.json"),
        clusters,
        _riskfactors("cmtl.json", "task,cluster,population"),
    ]


def same_partition(found: dict[str, int], planted: dict[str, int]) -> bool:
    """True when two task -> cluster maps agree up to relabeling."""
    if set(found) != set(planted):
        return False
    forward: dict[int, int] = {}
    backward: dict[int, int] = {}
    for label, cluster in found.items():
        if forward.setdefault(cluster, planted[label]) != planted[label]:
            return False
        if backward.setdefault(planted[label], cluster) != cluster:
            return False
    return True


def _cohorts_checks(work: Path, panel: panels.Panel) -> list[tuple[str, str]]:
    failures = []
    with open(work / "clusters.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    found = {label: int(cluster) for label, cluster in rows}
    if not same_partition(found, panel.truth["clusters"]):
        failures.append(("clusters", "clusters.csv does not match the planted partition"))
    totals = mae_totals(work / "mae.csv")
    if not totals["cmtl"] < totals["stl"]:
        failures.append((
            "evaluate", f"cmtl MAE {totals['cmtl']:.6g} is not below STL MAE {totals['stl']:.6g}"
        ))
    report = json.loads((work / "rf.json").read_text())
    if report.get("assignments") != found:
        failures.append(("riskfactors", "report assignments differ from clusters.csv"))
    return failures


# --- brfss-dirty -----------------------------------------------------------


def _dirty_panel(work: Path, seed: int, toy: bool) -> panels.Panel:
    return panels.write_brfss(
        work / "panel.csv", seed, rows_per_task=_BRFSS_ROWS[toy], blank_fraction=0.03
    )


def _dirty_commands(panel: panels.Panel, toy: bool) -> list[Command]:
    return [
        _split(panel),
        _train(
            panel, "ridge.json", "--model", "stl", "--setting", "global",
            "--penalty", "ridge", "--lambda", "10",
        ),
        _evaluate(panel, "ridge.json"),
    ]


def _dirty_checks(work: Path, panel: panels.Panel) -> list[tuple[str, str]]:
    manifest = json.loads((work / "split.json").read_text())
    expected = panel.truth["blank_outcomes"]
    if manifest["dropped_rows"] != expected:
        return [("split", f"dropped_rows {manifest['dropped_rows']} != {expected} blank outcomes")]
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "brfss-mtl",
            "tall tasks (1,750 train rows each, 90 features): ingest does most of the work, "
            "the mtl fit is under a tenth of train_s, no eigh",
            _brfss_panel, _brfss_mtl_commands, "mtl.json", 1.15, _brfss_mtl_checks,
        ),
        Workload(
            "cohorts-cmtl",
            "64 short tasks in 4 planted clusters: 64x64 eigendecompositions, per-task "
            "loops, 64 STL solves and six process start-ups; ingest is small",
            _cohorts_panel, _cohorts_commands, "cmtl.json", 1.7, _cohorts_checks,
        ),
        Workload(
            "brfss-dirty",
            "3% blank outcomes take the dropped-row path, and one pooled ridge fit on "
            "the vstack of all tasks replaces per-task blocks",
            _dirty_panel, _dirty_commands, "ridge.json", 1.25, _dirty_checks,
        ),
    )
}


def mae_totals(path) -> dict[str, float]:
    """Model name -> TOTAL MAE from an ``evaluate`` report."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, total = rows[0], rows[-1]
    if total[0] != "TOTAL":
        raise ValueError(f"{path}: last row is not TOTAL")
    return {name: float(value) for name, value in zip(header[4:], total[4:])}


def _read_side(path, panel: panels.Panel):
    """Task labels, features and outcomes of a split output, in plain numpy."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    task = header.index(panel.task_column)
    outcome = header.index(panel.outcome_column)
    features = [j for j in range(len(header)) if j not in (task, outcome)]
    labels = np.array([row[task] for row in rows[1:]])
    values = np.array([row[:task] + row[task + 1:] for row in rows[1:]], dtype=np.float64)
    keep = [j - (j > task) for j in features]
    y_col = outcome - (outcome > task)
    return labels, [header[j] for j in features], values[:, keep], values[:, y_col]


def model_objective(model: dict, labels, names, x, y) -> float:
    """The fitted model's objective on the scaled training side.

    Written independently of the package from the model JSON: mtl is
    0.5 * sum of squared residuals + lam * sum of weight-column norms;
    cmtl is the per-task mean squared residual summed over tasks plus
    rho1*eta*(1+eta) * tr(W^T (eta*I + C)^{-1} W); the STL baselines are
    0.5 * squared residuals plus lam*||w||^2 (ridge) or lam*||w||_1
    (lasso), summed over tasks or over the pooled rows.
    """
    order = [names.index(name) for name in model["feature_names"]]
    x = x[:, order]
    scaling = model["scaling"]
    if scaling is not None:
        lo = np.array(scaling["feature_min"])
        span = np.array(scaling["feature_max"]) - lo
        x = np.where(span > 0, (x - lo) / np.where(span > 0, span, 1.0), 0.0)
    weights = np.array(model["weights"])
    intercept = np.array(model["intercept"])
    row_of = {label: t for t, label in enumerate(model["task_labels"])}
    rows = np.array([row_of[label] for label in labels])
    residual = np.einsum("ij,ij->i", x, weights[rows]) + intercept[rows] - y
    kind = model["model_type"]
    if kind == "mtl":
        return 0.5 * float(residual @ residual) + model["lam"] * float(
            np.linalg.norm(weights, axis=0).sum()
        )
    if kind == "cmtl":
        counts = np.bincount(rows, minlength=len(row_of))
        loss = float((np.bincount(rows, weights=residual**2, minlength=len(row_of)) / counts).sum())
        eta = model["rho2"] / model["rho1"]
        coupling = model["rho1"] * eta * (1.0 + eta)
        m = eta * np.eye(len(row_of)) + np.array(model["cluster_matrix"])
        return loss + coupling * float(np.sum(weights * np.linalg.solve(m, weights)))
    # A global STL model repeats one fitted vector on every task row.
    fitted = weights[:1] if model["stl_setting"] == "global" else weights
    penalty = {
        "ridge": float(np.sum(fitted**2)),
        "lasso": float(np.abs(fitted).sum()),
        "none": 0.0,
    }[model["stl_penalty"]]
    return 0.5 * float(residual @ residual) + model["lam"] * penalty


def check_outputs(work: Path, panel: panels.Panel, workload: Workload):
    """Run every output check once. Returns (failures, test_mae, final_objective).

    A failure is a (command name, message) pair. The two accuracy values
    are None when the files they come from are missing or unreadable.
    """
    failures: list[tuple[str, str]] = []
    primary = Path(workload.primary_model).stem
    test_mae = final_objective = None
    try:
        test_mae = mae_totals(work / "mae.csv")[primary]
        floor = panel.truth["noise_sd"] * _MAE_PER_SD
        if not test_mae <= workload.mae_factor * floor:
            failures.append((
                "evaluate",
                f"test MAE {test_mae:.6g} exceeds {workload.mae_factor} x noise floor {floor:.6g}",
            ))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        failures.append(("evaluate", f"unreadable MAE report: {exc}"))
    try:
        model = json.loads((work / workload.primary_model).read_text())
        final_objective = model_objective(model, *_read_side(work / "train.csv", panel))
        solver_last = model["trace"]["final_objective"]
        if not final_objective <= solver_last * (1 + _OBJECTIVE_RTOL) + _OBJECTIVE_RTOL:
            failures.append((
                f"train-{primary}",
                f"saved weights score {final_objective!r}, above the solver's last "
                f"objective {solver_last!r}",
            ))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        failures.append((f"train-{primary}", f"cannot recompute the objective: {exc}"))
    try:
        failures += workload.extra_checks(work, panel)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        failures.append(("outputs", f"output check could not run: {exc}"))
    return failures, test_mae, final_objective
