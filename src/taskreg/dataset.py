"""Loading, scaling, and splitting of multi-task tabular data.

A data file holds one observation per row. One column names the task the
row belongs to, one column holds the numeric outcome, and every remaining
column is a numeric feature shared by all tasks. Rows are grouped by task
value (in order of first appearance) into :class:`TaskData` blocks,
preserving file order within each task.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTaskError, ParseError, SchemaError


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TaskData:
    """One task's design matrix and outcome vector."""

    label: str
    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        x = _frozen_array(self.X)
        y = _frozen_array(self.Y)
        if x.ndim != 2:
            raise ValueError(f"task {self.label!r}: X must be 2-D, got shape {x.shape}")
        if y.ndim != 1:
            raise ValueError(f"task {self.label!r}: Y must be 1-D, got shape {y.shape}")
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"task {self.label!r}: X has {x.shape[0]} rows but Y has {y.shape[0]}"
            )
        if x.shape[0] < 1:
            raise ValueError(f"task {self.label!r} has no rows")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError(f"task {self.label!r} contains non-finite values")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class MultiTaskDataset:
    """An ordered collection of tasks sharing one feature space.

    ``dropped_rows`` counts rows discarded at load time for a missing
    outcome; it is informational and not part of the value semantics.
    """

    tasks: tuple[TaskData, ...]
    feature_names: tuple[str, ...]
    dropped_rows: int = 0

    def __post_init__(self):
        tasks = tuple(self.tasks)
        names = tuple(self.feature_names)
        if not tasks:
            raise ValueError("dataset needs at least one task")
        if not names:
            raise ValueError("dataset needs at least one feature")
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")
        j = len(names)
        for task in tasks:
            if task.X.shape[1] != j:
                raise ValueError(
                    f"task {task.label!r} has {task.X.shape[1]} features, expected {j}"
                )
        labels = [t.label for t in tasks]
        if len(set(labels)) != len(labels):
            raise ValueError("task labels must be unique")
        object.__setattr__(self, "tasks", tasks)
        object.__setattr__(self, "feature_names", names)

    @property
    def task_labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.tasks)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def n_rows(self) -> int:
        return sum(t.n for t in self.tasks)


@dataclass(frozen=True)
class ScalingParams:
    """Per-feature (min, max) ranges, plus optional outcome range.

    Transforms map x to (x - min) / (max - min). Columns with max = min
    map to 0 and invert back to min, so a transform/invert round trip is
    the identity on the fitted data.
    """

    feature_min: np.ndarray
    feature_max: np.ndarray
    outcome_min: float | None = None
    outcome_max: float | None = None

    def __post_init__(self):
        lo = _frozen_array(self.feature_min)
        hi = _frozen_array(self.feature_max)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("feature_min and feature_max must be 1-D and equal length")
        if np.any(lo > hi):
            raise ValueError("feature_min must be <= feature_max")
        if (self.outcome_min is None) != (self.outcome_max is None):
            raise ValueError("outcome_min and outcome_max must be set together")
        object.__setattr__(self, "feature_min", lo)
        object.__setattr__(self, "feature_max", hi)

    @property
    def n_features(self) -> int:
        return self.feature_min.shape[0]

    @property
    def scales_outcome(self) -> bool:
        return self.outcome_min is not None

    def _span(self) -> np.ndarray:
        return self.feature_max - self.feature_min

    def transform_features(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(
                f"expected a matrix with {self.n_features} columns, got shape {x.shape}"
            )
        span = self._span()
        out = np.zeros_like(x)
        nz = span > 0
        out[:, nz] = (x[:, nz] - self.feature_min[nz]) / span[nz]
        return out

    def invert_features(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(
                f"expected a matrix with {self.n_features} columns, got shape {x.shape}"
            )
        return x * self._span() + self.feature_min

    def transform_outcome(self, y: np.ndarray) -> np.ndarray:
        if not self.scales_outcome:
            raise ValueError("outcome scaling was not fitted")
        y = np.asarray(y, dtype=np.float64)
        span = self.outcome_max - self.outcome_min
        if span > 0:
            return (y - self.outcome_min) / span
        return np.zeros_like(y)

    def invert_outcome(self, y: np.ndarray) -> np.ndarray:
        if not self.scales_outcome:
            raise ValueError("outcome scaling was not fitted")
        y = np.asarray(y, dtype=np.float64)
        return y * (self.outcome_max - self.outcome_min) + self.outcome_min


def load_csv(path, task_column: str, outcome_column: str) -> MultiTaskDataset:
    """Read a CSV file into a MultiTaskDataset.

    The header row is required. Rows with an empty outcome cell are
    dropped and counted in ``dropped_rows``. An empty or non-numeric
    feature cell is a :class:`ParseError`; there is no imputation.

    The body is parsed in one vectorized pass. Whenever that pass cannot
    show that its result equals the per-cell reader's, the file is read
    again cell by cell, so errors and edge cases behave the same either way.
    """
    ds = _load_table(path, task_column, outcome_column)
    return ds if ds is not None else _load_cells(path, task_column, outcome_column)


def _load_table(path, task_column: str, outcome_column: str) -> MultiTaskDataset | None:
    """The vectorized reader: the dataset, or None to defer to :func:`_load_cells`.

    ``np.loadtxt`` reads a subset of what ``float()`` reads and gives the
    same double for it. Whatever it might read differently returns None:
    a header problem, a cell only ``float()`` reads (``1_0``), a blank
    line (which ``loadtxt`` skips), a ragged row, a non-finite feature of
    a kept row, a non-finite outcome, or a task whose rows were all dropped.
    """
    codes: dict[str, int] = {}
    body_lines = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
        if (
            header is None
            or len(set(header)) != len(header)
            or task_column not in header
            or outcome_column not in header
            or task_column == outcome_column
            or len(header) < 3
        ):
            return None
        task_idx = header.index(task_column)
        outcome_idx = header.index(outcome_column)

        def body():
            nonlocal body_lines
            for body_lines, line in enumerate(fh, start=1):
                yield line

        def task_code(text: str) -> int:
            return codes.setdefault(text, len(codes))

        try:
            with warnings.catch_warnings():
                # An all-blank body is caught by the line count below.
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(
                    body(),
                    delimiter=",",
                    comments=None,
                    quotechar='"',
                    ndmin=2,
                    converters={task_idx: task_code, outcome_idx: _outcome_cell},
                )
        except ValueError:
            return None
    if table.shape != (body_lines, len(header)):
        return None

    feature_idx = [i for i in range(len(header)) if i not in (task_idx, outcome_idx)]
    task_of_row = table[:, task_idx]
    outcome = table[:, outcome_idx]
    kept = ~np.isnan(outcome)
    tasks = []
    for label, code in codes.items():
        rows = kept & (task_of_row == code)
        x = table[np.ix_(rows, feature_idx)]
        if x.shape[0] == 0 or not np.isfinite(x).all():
            return None
        tasks.append(TaskData(label=label, X=x, Y=outcome[rows]))
    return MultiTaskDataset(
        tasks=tuple(tasks),
        feature_names=tuple(header[i] for i in feature_idx),
        dropped_rows=int(body_lines - np.count_nonzero(kept)),
    )


def _outcome_cell(text: str) -> float:
    """An outcome cell for ``np.loadtxt``: NaN marks a blank (dropped) row."""
    text = text.strip()
    if text == "":
        return math.nan
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite outcome {text!r}")
    return value


def _load_cells(path, task_column: str, outcome_column: str) -> MultiTaskDataset:
    """The per-cell reader behind :func:`load_csv`; it owns every error message."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: file is empty, header row required") from None
        if len(set(header)) != len(header):
            dupes = sorted({c for c in header if header.count(c) > 1})
            raise SchemaError(f"{path}: duplicate column names {dupes}")
        for required in (task_column, outcome_column):
            if required not in header:
                raise SchemaError(f"{path}: missing required column {required!r}")
        if task_column == outcome_column:
            raise SchemaError("task column and outcome column must differ")
        task_idx = header.index(task_column)
        outcome_idx = header.index(outcome_column)
        feature_names = [c for c in header if c not in (task_column, outcome_column)]
        if not feature_names:
            raise SchemaError(f"{path}: no feature columns besides task and outcome")
        feature_idx = [header.index(c) for c in feature_names]

        rows_by_task: dict[str, list[list[float]]] = {}
        outcomes_by_task: dict[str, list[float]] = {}
        dropped = 0
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row {line_no} has {len(row)} fields, expected {len(header)}"
                )
            label = row[task_idx]
            rows_by_task.setdefault(label, [])
            outcomes_by_task.setdefault(label, [])
            raw_outcome = row[outcome_idx].strip()
            if raw_outcome == "":
                dropped += 1
                continue
            outcome = _parse_cell(raw_outcome, path, line_no, outcome_column)
            features = [
                _parse_cell(row[i].strip(), path, line_no, header[i]) for i in feature_idx
            ]
            rows_by_task[label].append(features)
            outcomes_by_task[label].append(outcome)

    if not rows_by_task:
        raise SchemaError(f"{path}: no data rows")
    tasks = []
    for label in rows_by_task:
        if not rows_by_task[label]:
            raise DegenerateTaskError(
                f"{path}: task {label!r} has no rows left after dropping missing outcomes"
            )
        tasks.append(
            TaskData(
                label=label,
                X=np.asarray(rows_by_task[label], dtype=np.float64),
                Y=np.asarray(outcomes_by_task[label], dtype=np.float64),
            )
        )
    return MultiTaskDataset(
        tasks=tuple(tasks), feature_names=tuple(feature_names), dropped_rows=dropped
    )


def _parse_cell(text: str, path, line_no: int, column: str) -> float:
    if text == "":
        raise ParseError(f"{path}: row {line_no}, column {column!r}: missing value")
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"{path}: row {line_no}, column {column!r}: cannot parse {text!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"{path}: row {line_no}, column {column!r}: non-finite value {text!r}")
    return value


def minmax_scale(
    ds: MultiTaskDataset, *, scale_outcome: bool = False
) -> tuple[MultiTaskDataset, ScalingParams]:
    """Map each feature column to [0, 1], pooled across all tasks.

    Constant columns map to 0. When ``scale_outcome`` is set the outcome
    is scaled the same way and the range is stored in the params.
    """
    stacked = np.vstack([t.X for t in ds.tasks])
    lo = stacked.min(axis=0)
    hi = stacked.max(axis=0)
    outcome_lo = outcome_hi = None
    if scale_outcome:
        all_y = np.concatenate([t.Y for t in ds.tasks])
        outcome_lo = float(all_y.min())
        outcome_hi = float(all_y.max())
    params = ScalingParams(
        feature_min=lo, feature_max=hi, outcome_min=outcome_lo, outcome_max=outcome_hi
    )
    return apply_scale(ds, params), params


def apply_scale(ds: MultiTaskDataset, params: ScalingParams) -> MultiTaskDataset:
    """Apply stored scaling to a dataset (test values may leave [0, 1])."""
    if params.n_features != ds.n_features:
        raise ValueError(
            f"params cover {params.n_features} features, dataset has {ds.n_features}"
        )
    tasks = []
    for t in ds.tasks:
        y = params.transform_outcome(t.Y) if params.scales_outcome else t.Y
        tasks.append(TaskData(label=t.label, X=params.transform_features(t.X), Y=y))
    return MultiTaskDataset(
        tasks=tuple(tasks), feature_names=ds.feature_names, dropped_rows=ds.dropped_rows
    )


def stratified_split(
    ds: MultiTaskDataset, train_fraction: float, seed: int
) -> tuple[MultiTaskDataset, MultiTaskDataset]:
    """Split every task into train/test with a per-task seeded shuffle.

    Task t is shuffled by a PRNG seeded from (seed, t); the first
    round(train_fraction * n_t) shuffled rows (half-up rounding, clamped
    so both sides stay nonempty) form the train side. The same seed always
    reproduces the same split.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    for t in ds.tasks:
        if t.n < 2:
            raise DegenerateTaskError(
                f"task {t.label!r} has {t.n} row(s); need at least 2 to split"
            )
    train_tasks = []
    test_tasks = []
    for t_index, t in enumerate(ds.tasks):
        rng = np.random.default_rng([seed, t_index])
        order = rng.permutation(t.n)
        n_train = int(math.floor(train_fraction * t.n + 0.5))
        n_train = min(max(n_train, 1), t.n - 1)
        train_rows = order[:n_train]
        test_rows = order[n_train:]
        train_tasks.append(TaskData(label=t.label, X=t.X[train_rows], Y=t.Y[train_rows]))
        test_tasks.append(TaskData(label=t.label, X=t.X[test_rows], Y=t.Y[test_rows]))
    train = MultiTaskDataset(tasks=tuple(train_tasks), feature_names=ds.feature_names)
    test = MultiTaskDataset(tasks=tuple(test_tasks), feature_names=ds.feature_names)
    return train, test


def write_csv(ds: MultiTaskDataset, path, task_column: str, outcome_column: str) -> None:
    """Write a dataset back to CSV (task column first, outcome last).

    Floats are written with repr so a write/load round trip is exact.
    """
    if task_column in ds.feature_names or outcome_column in ds.feature_names:
        raise ValueError("task/outcome column names collide with feature names")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([task_column, *ds.feature_names, outcome_column])
        for t in ds.tasks:
            for i in range(t.n):
                writer.writerow(
                    [t.label, *(repr(v) for v in t.X[i].tolist()), repr(float(t.Y[i]))]
                )
