"""Seeded generators for the benchmark's input panels.

Each generator writes one CSV and returns a ``Panel`` holding the
parameters it was called with and the planted truth the output checks
compare against. The same seed always writes byte-identical files.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

AGE_GROUPS = ("18-24", "25-34", "35-44", "45-54", "55-64", "65+")

# Three-decimal feature cells: the integer k in [0, 1000] is written as
# k/1000, and k/1000.0 is exactly the double that parsing the cell gives.
_MILLI_CELLS = np.array([f"{k / 1000:.3f}" for k in range(1001)], dtype=object)

# The brfss panel's fixed shape: features, the size of the shared
# support, the share of nonzero feature cells and the outcome noise.
BRFSS_FEATURES = 90
BRFSS_SUPPORT = 15
BRFSS_NONZERO_SHARE = 0.1
BRFSS_NOISE_SD = 0.5

# The cohorts panel's fixed shape: rows per task, features, planted
# clusters, outcome noise and the spread of a task around its centre.
COHORT_ROWS = 60
COHORT_FEATURES = 40
COHORT_CLUSTERS = 4
COHORT_NOISE_SD = 1.0
COHORT_SPREAD = 0.1


@dataclass(frozen=True)
class Panel:
    """One generated CSV and what was planted in it."""

    path: str
    task_column: str
    outcome_column: str
    params: dict
    truth: dict = field(default_factory=dict)


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_brfss(path, seed: int, *, rows_per_task: int, blank_fraction: float = 0.0) -> Panel:
    """A BRFSS-shaped panel: six age-group tasks sharing one sparse support.

    Five tasks get ``rows_per_task`` rows and the last one row more; rows
    of all tasks are interleaved. Feature cells are three-decimal values
    in [0, 1]; like the indicator-heavy BRFSS predictors, only a
    BRFSS_NONZERO_SHARE of them is nonzero. Every task's weight vector is
    nonzero exactly on one shared set of BRFSS_SUPPORT features, and
    y = X w_t + N(0, BRFSS_NOISE_SD^2). A ``blank_fraction`` share of
    outcome cells is left empty, which the loader drops and counts.
    """
    params = {
        "generator": "brfss",
        "seed": seed,
        "rows_per_task": rows_per_task,
        "n_tasks": len(AGE_GROUPS),
        "n_features": BRFSS_FEATURES,
        "support_size": BRFSS_SUPPORT,
        "nonzero_share": BRFSS_NONZERO_SHARE,
        "noise_sd": BRFSS_NOISE_SD,
        "blank_fraction": blank_fraction,
    }
    rng = np.random.default_rng([seed, 1])
    n_tasks = len(AGE_GROUPS)
    counts = [rows_per_task] * (n_tasks - 1) + [rows_per_task + 1]
    n_rows = sum(counts)

    support = np.sort(rng.choice(BRFSS_FEATURES, size=BRFSS_SUPPORT, replace=False))
    # One fixed set of signed magnitudes in a seeded order: the sum of the
    # weights, and with it the problem's conditioning and the solver's
    # iteration count, stays about the same for every seed.
    signed = np.linspace(1.0, 3.0, BRFSS_SUPPORT) * np.resize([1.0, -1.0], BRFSS_SUPPORT)
    base = signed[rng.permutation(BRFSS_SUPPORT)]
    weights = np.zeros((n_tasks, BRFSS_FEATURES))
    weights[:, support] = base * (1.0 + 0.25 * rng.uniform(-1.0, 1.0, (n_tasks, BRFSS_SUPPORT)))

    task_of_row = np.repeat(np.arange(n_tasks), counts)
    rng.shuffle(task_of_row)
    milli = rng.integers(0, 1001, size=(n_rows, BRFSS_FEATURES))
    milli[rng.random((n_rows, BRFSS_FEATURES)) >= BRFSS_NONZERO_SHARE] = 0
    x = milli / 1000.0
    noise = BRFSS_NOISE_SD * rng.standard_normal(n_rows)
    y = np.einsum("ij,ij->i", x, weights[task_of_row]) + noise
    blank = np.zeros(n_rows, dtype=bool)
    n_blank = int(round(blank_fraction * n_rows))
    if n_blank:
        blank[rng.choice(n_rows, size=n_blank, replace=False)] = True

    names = [f"f{j:02d}" for j in range(BRFSS_FEATURES)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["age_group", *names, "y"]) + "\n")
        cells = _MILLI_CELLS[milli].tolist()
        for i, row in enumerate(cells):
            outcome = "" if blank[i] else f"{y[i]:.4f}"
            fh.write(f"{AGE_GROUPS[task_of_row[i]]},{','.join(row)},{outcome}\n")

    truth = {
        "support": [names[j] for j in support],
        "blank_outcomes": n_blank,
        "noise_sd": BRFSS_NOISE_SD,
    }
    return Panel(str(path), "age_group", "y", params, truth)


def write_cohorts(path, seed: int, *, n_tasks: int) -> Panel:
    """Many short tasks in planted clusters: task t belongs to t mod COHORT_CLUSTERS.

    Each task has COHORT_ROWS rows of COHORT_FEATURES features. Each
    cluster has a centre weight vector; a task's weights are its centre
    plus N(0, COHORT_SPREAD^2) per entry. The centres are orthogonal with
    norm sqrt(COHORT_FEATURES), so every seed plants the same geometry in
    a new orientation and the fitted objective varies little with the
    seed. Features are uniform on [0, 1], so min-max scaling barely
    moves them and no intercept is needed; y = X w_t + N(0,
    COHORT_NOISE_SD^2), and every cell is written with repr so it parses
    back exactly.
    """
    params = {
        "generator": "cohorts",
        "seed": seed,
        "n_tasks": n_tasks,
        "rows_per_task": COHORT_ROWS,
        "n_features": COHORT_FEATURES,
        "n_clusters": COHORT_CLUSTERS,
        "noise_sd": COHORT_NOISE_SD,
        "spread": COHORT_SPREAD,
    }
    rng = np.random.default_rng([seed, 2])
    basis, _ = np.linalg.qr(rng.standard_normal((COHORT_FEATURES, COHORT_CLUSTERS)))
    centres = math.sqrt(COHORT_FEATURES) * basis.T
    labels = [f"cohort{t:02d}" for t in range(n_tasks)]
    names = [f"x{j:02d}" for j in range(COHORT_FEATURES)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["cohort", *names, "y"]) + "\n")
        for t, label in enumerate(labels):
            w = centres[t % COHORT_CLUSTERS] + COHORT_SPREAD * rng.standard_normal(COHORT_FEATURES)
            x = rng.uniform(0.0, 1.0, (COHORT_ROWS, COHORT_FEATURES))
            y = x @ w + COHORT_NOISE_SD * rng.standard_normal(COHORT_ROWS)
            for row, outcome in zip(x.tolist(), y.tolist()):
                fh.write(f"{label},{','.join(map(repr, row))},{outcome!r}\n")

    truth = {
        "clusters": {label: t % COHORT_CLUSTERS for t, label in enumerate(labels)},
        "noise_sd": COHORT_NOISE_SD,
    }
    return Panel(str(path), "cohort", "y", params, truth)
