"""Loading, scaling, and splitting of multi-task tabular data.

A data file holds one observation per row. One column names the task the
row belongs to, one column holds the numeric outcome, and every remaining
column is a numeric feature shared by all tasks. Rows are grouped by task
value (in order of first appearance), preserving file order within each
task.

Every reader parses a file in fixed-size chunks (:func:`stream_csv`) and
hands each chunk's kept rows to a sink: :func:`load_csv` keeps the rows
as one table (:class:`RowTable`), which :func:`minmax_scale` scales in
place and :func:`stratified_split` and :func:`write_csv` address through
per-task index arrays; :func:`load_factors` keeps only one small QR
factor per task (:class:`TaskFactors`), which is all a least-squares fit
needs of the rows; and evaluation keeps only the prediction errors
(:class:`taskreg.baselines.MaeAccumulator`).
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import warnings
from dataclasses import dataclass, field, fields
from typing import Callable, Protocol

import numpy as np

from .errors import DegenerateTaskError, ParseError, SchemaError

# Body lines stream_csv parses at a time. Peak memory grows with it (a
# 512-line chunk of 90 features is a 0.4 MB table), while the per-chunk
# overhead of np.loadtxt and of the sinks shrinks.
_CHUNK_LINES = 512

# Rows write_csv formats at a time (and minmax_scale gathers at a
# time). Each distinct double of a block is formatted once; a larger
# block finds more repeats but holds more strings (128 rows of 90
# features add about 1 MB to peak memory).
_WRITE_BLOCK_ROWS = 128


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _value_eq(self, other):
    """``==`` for the dataclasses below: arrays by ``np.array_equal``, the rest by ``==``.

    Fields declared with ``compare=False`` are left out.
    """
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(
        _same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare
    )


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

    __eq__ = _value_eq

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

    def transform_features(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The scaled features; ``out=x`` scales ``x`` in place."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(
                f"expected a matrix with {self.n_features} columns, got shape {x.shape}"
            )
        span = self._span()
        out = np.subtract(x, self.feature_min, out=out)
        np.divide(out, span, out=out, where=span > 0)
        out[:, span == 0] = 0.0
        return out

    def invert_features(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(
                f"expected a matrix with {self.n_features} columns, got shape {x.shape}"
            )
        return x * self._span() + self.feature_min

    def transform_outcome(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The scaled outcomes; ``out=y`` scales ``y`` in place."""
        if not self.scales_outcome:
            raise ValueError("outcome scaling was not fitted")
        y = np.asarray(y, dtype=np.float64)
        span = self.outcome_max - self.outcome_min
        if span > 0:
            out = np.subtract(y, self.outcome_min, out=out)
            return np.divide(out, span, out=out)
        if out is None:
            return np.zeros_like(y)
        out[...] = 0.0
        return out

    def invert_outcome(self, y: np.ndarray) -> np.ndarray:
        if not self.scales_outcome:
            raise ValueError("outcome scaling was not fitted")
        y = np.asarray(y, dtype=np.float64)
        return y * (self.outcome_max - self.outcome_min) + self.outcome_min


def check_model_axes(task_labels, feature_names, scaling: ScalingParams | None) -> None:
    """Raise ValueError unless a model's labels and names are unique and its scaling fits them.

    Fitted models call this when they are built, so a model file that
    breaks it does not load.
    """
    for what, names in (("task labels", task_labels), ("feature names", feature_names)):
        seen = set()
        for name in names:
            if name in seen:
                raise ValueError(f"{what} must be unique, {name!r} repeats")
            seen.add(name)
    if scaling is not None and scaling.n_features != len(feature_names):
        raise ValueError(
            f"scaling covers {scaling.n_features} features, the model has {len(feature_names)}"
        )


def _augmented(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The rows [X | 1 | y] whose R factor :class:`TaskFactors` keeps."""
    return np.column_stack([x, np.ones(y.shape[0]), y])


def _fold(r: np.ndarray, *rows: np.ndarray) -> np.ndarray:
    """The R factor of [r; rows...]: one TSQR step (Demmel et al., SIAM J. Sci. Comput. 2012)."""
    return np.linalg.qr(np.vstack([r, *rows]), mode="r")


@dataclass(frozen=True)
class TaskFactors:
    """Each task's rows reduced to what a least-squares fit needs of them.

    ``factors[t]`` is the upper-triangular R of a QR factorization of the
    rows [X_t | 1 | y_t], with at most J+2 rows. R_t^T R_t is the Gram
    matrix of those columns, so ||X_t w + b - y_t|| = ||R_t [w; b; -1]||
    for any w and b, and a fit can run on R_t in place of the rows.
    ``counts`` holds the true row counts n_t, which the shape of R_t does
    not show once n_t > J+2. The feature and outcome ranges cover every
    row, for min-max scaling. ``dropped_rows`` counts the rows dropped at
    load time for a blank outcome; it is not part of the value.
    """

    task_labels: tuple[str, ...]
    feature_names: tuple[str, ...]
    factors: tuple[np.ndarray, ...]
    counts: tuple[int, ...]
    feature_min: np.ndarray
    feature_max: np.ndarray
    outcome_min: float
    outcome_max: float
    dropped_rows: int = field(default=0, compare=False)

    __eq__ = _value_eq

    def __post_init__(self):
        labels = tuple(self.task_labels)
        names = tuple(self.feature_names)
        counts = tuple(int(n) for n in self.counts)
        if not labels or len(self.factors) != len(labels) or len(counts) != len(labels):
            raise ValueError("need one factor and one row count per task, and at least one task")
        if len(set(labels)) != len(labels) or len(set(names)) != len(names):
            raise ValueError("task labels and feature names must be unique")
        width = len(names) + 2
        factors = []
        for label, r, n in zip(labels, self.factors, counts):
            r = _frozen_array(r)
            if r.ndim != 2 or r.shape[1] != width or r.shape[0] > min(n, width) or n < 1:
                raise ValueError(
                    f"task {label!r}: factor of shape {r.shape} does not fit {n} row(s) "
                    f"of width {width}"
                )
            factors.append(r)
        lo = _frozen_array(self.feature_min)
        hi = _frozen_array(self.feature_max)
        if lo.shape != (len(names),) or hi.shape != lo.shape:
            raise ValueError(f"feature_min and feature_max must have shape ({len(names)},)")
        object.__setattr__(self, "task_labels", labels)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "factors", tuple(factors))
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "feature_min", lo)
        object.__setattr__(self, "feature_max", hi)
        object.__setattr__(self, "outcome_min", float(self.outcome_min))
        object.__setattr__(self, "outcome_max", float(self.outcome_max))

    @property
    def n_tasks(self) -> int:
        return len(self.task_labels)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def minmax_scaled(self, *, scale_outcome: bool = False) -> tuple["TaskFactors", ScalingParams]:
        """What :func:`minmax_scale` does to the rows, done on the factors.

        The params are the ones :func:`minmax_scale` fits to the same rows.
        Scaling is affine, [X | 1 | y] maps to [X~ | 1 | y~] = [X | 1 | y] A
        for one (J+2)-square A, so each scaled factor is qr(R_t A).
        """
        params = ScalingParams(
            feature_min=self.feature_min,
            feature_max=self.feature_max,
            outcome_min=self.outcome_min if scale_outcome else None,
            outcome_max=self.outcome_max if scale_outcome else None,
        )
        j = self.n_features
        # A constant column has span 0 and maps to 0, as in ScalingParams.
        span = self.feature_max - self.feature_min
        inverse = np.divide(1.0, span, out=np.zeros(j), where=span > 0)
        a = np.eye(j + 2)
        a[:j, :j] = np.diag(inverse)
        a[j, :j] = -self.feature_min * inverse
        outcome_range = np.array([self.outcome_min, self.outcome_max])
        if scale_outcome:
            span_y = self.outcome_max - self.outcome_min
            inverse_y = 1.0 / span_y if span_y > 0 else 0.0
            a[j + 1, j + 1] = inverse_y
            a[j, j + 1] = -self.outcome_min * inverse_y
            outcome_range = params.transform_outcome(outcome_range)
        feature_range = params.transform_features(np.vstack([self.feature_min, self.feature_max]))
        scaled = TaskFactors(
            task_labels=self.task_labels,
            feature_names=self.feature_names,
            factors=tuple(np.linalg.qr(r @ a, mode="r") for r in self.factors),
            counts=self.counts,
            feature_min=feature_range[0],
            feature_max=feature_range[1],
            outcome_min=outcome_range[0],
            outcome_max=outcome_range[1],
            dropped_rows=self.dropped_rows,
        )
        return scaled, params

    def design_stack(self, *, intercept: bool) -> np.ndarray:
        """Each task's R factor of its fit design [X_t | 1 | y_t], as one array.

        Without ``intercept`` the ones column is left out. The last column
        holds the outcome, so with R_t = [A_t | b_t] the residual norm
        ||X_t w - y_t|| of a weight vector w is ||A_t w - b_t||
        (:func:`residuals`). The factors are stacked into one
        (T, rows, width) array for batched matmuls: ``rows`` is the tallest
        factor's, and shorter factors are padded with zero rows, which
        leave every residual norm unchanged.
        """
        design = self.factors
        if not intercept:
            keep = [*range(self.n_features), self.n_features + 1]
            design = [np.linalg.qr(r[:, keep], mode="r") for r in design]
        stack = np.zeros((len(design), max(r.shape[0] for r in design), design[0].shape[1]))
        for t, r in enumerate(design):
            stack[t, : r.shape[0]] = r
        return stack


def residuals(stack: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each task's residual A_t w_t - b_t on a design stack of R_t = [A_t | b_t].

    This and :func:`residual_gradient` are the least-squares data term of
    every fit. ``stack`` is :meth:`TaskFactors.design_stack`, with one
    weight vector per task in the rows of ``w``, or a single factor with
    one weight vector.
    """
    return np.matmul(stack[..., :-1], w[..., None])[..., 0] - stack[..., -1]


def residual_gradient(stack: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Each task's gradient A_t^T r_t of 0.5 * ||r_t||^2, from its :func:`residuals`."""
    return np.matmul(residual[..., None, :], stack[..., :-1])[..., 0, :]


class RowSink(Protocol):
    """Where :func:`stream_csv` sends the kept rows of a data set."""

    def add(
        self, labels: tuple[str, ...], task: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> None:
        """Take one chunk of kept rows, in file order.

        ``labels`` names the tasks seen so far in order of first
        appearance, and ``task`` holds each row's index into it; ``x``
        holds the features in the order of the header's feature columns
        and ``y`` the outcomes. The sink may keep the arrays but not
        write to them.
        """

    def finish(self, labels: tuple[str, ...], dropped_rows: int):
        """The result, once every chunk is in; each task in ``labels`` had a kept row."""


def stream_csv(path, task_column: str, outcome_column: str, sink_for: Callable[..., RowSink]):
    """Feed the kept rows of a CSV file to a sink, and return what it finishes with.

    ``sink_for(feature_names)`` makes the sink once the header is read.
    The body is parsed :data:`_CHUNK_LINES` lines at a time and each
    chunk's kept rows go to the sink, so only what the sink keeps grows
    with the row count. Whenever a chunk cannot be shown to parse as the
    per-cell reader would read it, the whole file is read cell by cell
    instead and a new sink takes each task's rows as one chunk, so the
    errors, the kept rows and ``dropped_rows`` are the same either way.
    """
    result = _read_chunks(path, task_column, outcome_column, sink_for)
    if result is None:
        result = _load_cells(path, task_column, outcome_column, sink_for)
    return result


def load_csv(path, task_column: str, outcome_column: str) -> "RowTable":
    """Read the kept rows of a CSV file into one :class:`RowTable`.

    The header row is required. Rows with an empty outcome cell are
    dropped and counted in ``dropped_rows``. An empty or non-numeric
    feature cell is a :class:`ParseError`; there is no imputation. The
    file is read by :func:`stream_csv`. The table is allocated once, for
    as many rows as the file has line ends, and is never copied to grow.
    """
    return stream_csv(
        path, task_column, outcome_column, lambda names: _TableSink(names, _line_ends(path))
    )


def load_factors(path, task_column: str, outcome_column: str) -> TaskFactors:
    """Read a CSV file into :class:`TaskFactors` without holding its rows.

    The file is read by :func:`stream_csv`, and each task's kept rows are
    folded into its factor as they come, so memory does not grow with the
    row count. The kept rows and ``dropped_rows`` are those of :func:`load_csv`.
    """
    return stream_csv(path, task_column, outcome_column, _FactorSink)


@dataclass(frozen=True, eq=False)
class RowTable:
    """The kept rows of a data file as one table, grouped by task through index arrays.

    ``table`` holds one row [x | y] per kept row, in file order, and
    ``task_rows[t]`` the indices of task t's rows in it, in file order.
    """

    table: np.ndarray
    task_rows: tuple[np.ndarray, ...]
    task_labels: tuple[str, ...]
    feature_names: tuple[str, ...]
    dropped_rows: int = 0

    @property
    def n_rows(self) -> int:
        return self.table.shape[0]

    @property
    def n_tasks(self) -> int:
        return len(self.task_labels)


class _TableSink:
    """The kept rows as one :class:`RowTable`, for :func:`load_csv`.

    The table is allocated once for ``capacity`` rows, a bound on the kept
    rows, so it is never copied to grow; the rows past the last kept one
    are never written, so their pages are never touched.
    """

    def __init__(self, feature_names, capacity: int):
        self.feature_names = feature_names
        self.table = np.empty((capacity, len(feature_names) + 1))
        self.codes = np.empty(capacity, dtype=np.intp)
        self.rows = 0

    def add(self, labels, task, x, y):
        end = self.rows + task.size
        self.table[self.rows : end, :-1] = x
        self.table[self.rows : end, -1] = y
        self.codes[self.rows : end] = task
        self.rows = end

    def finish(self, labels, dropped_rows):
        codes = self.codes[: self.rows]
        order = np.argsort(codes, kind="stable")
        ends = np.cumsum(np.bincount(codes, minlength=len(labels)))[:-1]
        return RowTable(
            table=self.table[: self.rows],
            task_rows=tuple(np.split(order, ends)),
            task_labels=labels,
            feature_names=self.feature_names,
            dropped_rows=dropped_rows,
        )


def _line_ends(path) -> int:
    """A bound on the body records of a CSV file: its count of line ends.

    A text read with ``newline=""`` ends a line at "\\n", "\\r\\n" or a lone
    "\\r". The header ends at one, and every body record but the last ends
    at one, or the file ends. (A "\\r\\n" that straddles two blocks counts
    twice, which keeps the count a bound.)
    """
    ends = 0
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            if block.endswith(b"\r"):
                block += fh.read(1)
            ends += block.count(b"\n") + block.count(b"\r") - block.count(b"\r\n")
    return ends


class _FactorSink:
    """Each task's R factor (see :class:`TaskFactors`), for :func:`load_factors`.

    A task's rows wait until at least J+2 of them, the height of a full R,
    have come, and are then folded in with one QR, so that a task whose
    rows are spread thinly over many chunks is not re-triangularized for
    each chunk.
    """

    def __init__(self, feature_names):
        self.feature_names = feature_names
        self.width = len(feature_names) + 2
        self.lo = np.full(self.width, np.inf)
        self.hi = np.full(self.width, -np.inf)
        self.factors: list[np.ndarray] = []
        self.counts: list[int] = []
        self.waiting: list[list[np.ndarray]] = []
        self.waiting_rows: list[int] = []

    def add(self, labels, task, x, y):
        rows = _augmented(x, y)
        if rows.shape[0]:
            self.lo = np.minimum(self.lo, rows.min(axis=0))
            self.hi = np.maximum(self.hi, rows.max(axis=0))
        new_tasks = len(labels) - len(self.factors)
        self.factors += [np.empty((0, self.width))] * new_tasks
        self.counts += [0] * new_tasks
        self.waiting += [[] for _ in range(new_tasks)]
        self.waiting_rows += [0] * new_tasks
        for code in np.unique(task):
            block = rows[task == code]
            self.counts[code] += block.shape[0]
            self.waiting[code].append(block)
            self.waiting_rows[code] += block.shape[0]
            if self.waiting_rows[code] >= self.width:
                self._fold(code)

    def _fold(self, code):
        self.factors[code] = _fold(self.factors[code], *self.waiting[code])
        self.waiting[code] = []
        self.waiting_rows[code] = 0

    def finish(self, labels, dropped_rows):
        for code, waiting in enumerate(self.waiting):
            if waiting:
                self._fold(code)
        j = len(self.feature_names)
        return TaskFactors(
            task_labels=labels,
            feature_names=self.feature_names,
            factors=tuple(self.factors),
            counts=tuple(self.counts),
            feature_min=self.lo[:j],
            feature_max=self.hi[:j],
            outcome_min=self.lo[j + 1],
            outcome_max=self.hi[j + 1],
            dropped_rows=dropped_rows,
        )


def _read_chunks(path, task_column: str, outcome_column: str, sink_for):
    """The chunk loop behind :func:`stream_csv`: the sink's result, or None to defer to :func:`_load_cells`.

    ``np.loadtxt`` reads a subset of what ``float()`` reads and gives the
    same double for it. Whatever it might read differently returns None:
    a header problem, a cell only ``float()`` reads (``1_0``), a blank
    line (which ``loadtxt`` skips), a ragged row, a non-finite feature of
    a kept row, a non-finite outcome, or a task whose rows were all
    dropped. So does a chunk that ends inside a quoted field: ``loadtxt``
    would close that field at the chunk's end and read its rest as a new
    record of the next one. (A quoted field that runs on within a chunk
    already makes the chunk's record count differ from its line count.)
    """
    codes: dict[str, int] = {}
    kept_per_task = np.zeros(0, dtype=np.intp)
    lines_read = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        layout = _read_header(fh, task_column, outcome_column)
        if layout is None:
            return None
        header, task_idx, outcome_idx, feature_idx = layout
        sink = sink_for(tuple(header[i] for i in feature_idx))
        while lines := list(itertools.islice(fh, _CHUNK_LINES)):
            table = _parse_lines(lines, len(header), task_idx, outcome_idx, codes)
            if table is None or _ends_inside_quotes(lines[-1]):
                return None
            lines_read += len(lines)
            outcome = table[:, outcome_idx]
            kept = ~np.isnan(outcome)
            # Fancy indexing copies, so the sink holds nothing of the table.
            x = table[np.ix_(kept, feature_idx)]
            if not np.isfinite(x).all():
                return None
            task = table[kept, task_idx].astype(np.intp)
            counts = np.bincount(task, minlength=len(codes))
            counts[: kept_per_task.size] += kept_per_task
            kept_per_task = counts
            y = outcome[kept]
            # The sink holds copies; the chunk's text and table go before it works.
            del lines, table, outcome
            sink.add(tuple(codes), task, x, y)
    if not codes or not kept_per_task.all():
        return None
    return sink.finish(tuple(codes), lines_read - int(kept_per_task.sum()))


def _read_header(fh, task_column: str, outcome_column: str):
    """(header, task index, outcome index, feature indices), or None on any header problem."""
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
    feature_idx = [i for i in range(len(header)) if i not in (task_idx, outcome_idx)]
    return header, task_idx, outcome_idx, feature_idx


def _parse_lines(lines, width: int, task_idx: int, outcome_idx: int, codes: dict[str, int]):
    """``np.loadtxt`` over body lines: one row of ``width`` values per line, or None.

    A task cell becomes its label's code in ``codes``, which numbers
    labels in order of first appearance and is extended in place. An
    outcome cell goes through :func:`_outcome_cell`.
    """
    line_count = 0

    def counted():
        nonlocal line_count
        for line_count, line in enumerate(lines, start=1):
            yield line

    def task_code(text: str) -> int:
        return codes.setdefault(text, len(codes))

    try:
        with warnings.catch_warnings():
            # An all-blank body is caught by the line count below.
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(
                counted(),
                delimiter=",",
                comments=None,
                quotechar='"',
                ndmin=2,
                converters={task_idx: task_code, outcome_idx: _outcome_cell},
            )
    except ValueError:
        return None
    return table if table.shape == (line_count, width) else None


def _ends_inside_quotes(line: str) -> bool:
    """Whether a CSV line ends inside a quoted field, so that its record runs on."""
    fields = next(csv.reader([line]), [])
    return bool(fields) and fields[-1].endswith(("\n", "\r"))


def _outcome_cell(text: str) -> float:
    """An outcome cell for ``np.loadtxt``: NaN marks a blank (dropped) row."""
    text = text.strip()
    if text == "":
        return math.nan
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite outcome {text!r}")
    return value


def _load_cells(path, task_column: str, outcome_column: str, sink_for):
    """The per-cell reader behind :func:`stream_csv`; it owns every error message.

    Once the whole file is read, the sink made by ``sink_for`` takes each
    task's rows as one chunk, and its result is returned.
    """
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
    labels = tuple(rows_by_task)
    for label in labels:
        if not rows_by_task[label]:
            raise DegenerateTaskError(
                f"{path}: task {label!r} has no rows left after dropping missing outcomes"
            )
    sink = sink_for(tuple(feature_names))
    for code, label in enumerate(labels):
        x = np.asarray(rows_by_task[label], dtype=np.float64)
        y = np.asarray(outcomes_by_task[label], dtype=np.float64)
        sink.add(labels, np.full(y.size, code), x, y)
    return sink.finish(labels, dropped)


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


def minmax_scale(table: RowTable, *, scale_outcome: bool = False) -> ScalingParams:
    """Map each feature column of the table to [0, 1] in place, pooled across all tasks.

    Constant columns map to 0. When ``scale_outcome`` is set the outcome
    is scaled the same way and the range is stored in the params. The
    ranges are folded over the rows task by task, a block at a time.
    Where a column's minimum is zero, its sign (+0.0 or -0.0), and so the
    sign of each scaled zero, depends on that order, which does not
    depend on how the tasks' rows interleave in the file.
    """
    grouped = np.concatenate(table.task_rows)
    lo = hi = None
    for start in range(0, grouped.size, _WRITE_BLOCK_ROWS):
        block = table.table[grouped[start : start + _WRITE_BLOCK_ROWS], :-1]
        block_lo, block_hi = block.min(axis=0), block.max(axis=0)
        lo = block_lo if lo is None else np.minimum(lo, block_lo)
        hi = block_hi if hi is None else np.maximum(hi, block_hi)
    outcome_lo = outcome_hi = None
    if scale_outcome:
        y = table.table[grouped, -1]
        outcome_lo, outcome_hi = float(y.min()), float(y.max())
    params = ScalingParams(
        feature_min=lo, feature_max=hi, outcome_min=outcome_lo, outcome_max=outcome_hi
    )
    x = table.table[:, :-1]
    params.transform_features(x, out=x)
    if scale_outcome:
        params.transform_outcome(table.table[:, -1], out=table.table[:, -1])
    return params


def stratified_split(
    table: RowTable, train_fraction: float, seed: int
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Split every task into train/test with a per-task seeded shuffle.

    Returns (train, test), each with one array per task of row indices
    into the table. Task t is shuffled as numpy's
    ``default_rng([seed, t]).permutation(n_t)`` shuffles it (drawn by
    :class:`taskreg._stream.Stream`); the first
    round(train_fraction * n_t) shuffled rows (half-up rounding, clamped
    so both sides stay nonempty) form the train side. The same seed always
    reproduces the same split.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    for label, rows in zip(table.task_labels, table.task_rows):
        if rows.size < 2:
            raise DegenerateTaskError(
                f"task {label!r} has {rows.size} row(s); need at least 2 to split"
            )
    from ._stream import Stream

    train, test = [], []
    for t_index, rows in enumerate(table.task_rows):
        n = rows.size
        order = rows[np.array(Stream([seed, t_index]).permutation(n), dtype=np.intp)]
        n_train = min(max(int(math.floor(train_fraction * n + 0.5)), 1), n - 1)
        train.append(order[:n_train])
        test.append(order[n_train:])
    return tuple(train), tuple(test)


def write_csv(table: RowTable, task_rows, path, task_column: str, outcome_column: str) -> None:
    """Write the rows ``task_rows[t]`` of each task t to CSV (task column first, outcome last).

    Floats are written with repr so a write/load round trip is exact.
    Rows go out in blocks of :data:`_WRITE_BLOCK_ROWS`; the bytes are those
    of writing each row with ``csv.writer`` (see :func:`_csv_line`).
    """
    names = table.feature_names
    if task_column in names or outcome_column in names:
        raise ValueError("task/outcome column names collide with feature names")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_line([task_column, *names, outcome_column]))
        for label, rows in zip(table.task_labels, task_rows):
            prefix = _csv_line([label, ""])[:-1]
            for start in range(0, rows.size, _WRITE_BLOCK_ROWS):
                block = table.table[rows[start : start + _WRITE_BLOCK_ROWS]]
                fh.write(_format_rows(prefix, block))


def _csv_line(cells) -> str:
    """One CSV line as ``csv.writer`` writes it, ending in "\\n".

    Under a "\\n" terminator ``csv.writer`` leaves a field with a lone CR
    unquoted, and a reader takes that CR for a line end; writing with a
    "\\r\\n" terminator quotes it too, and only the terminator is swapped back.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(cells)
    return buf.getvalue()[:-2] + "\n"


def _format_rows(prefix: str, block: np.ndarray) -> str:
    """CSV lines for the rows of ``block``, each after ``prefix``, as ``csv.writer`` writes them.

    Each distinct double is formatted by ``repr`` once, told apart by its
    bits so that -0.0 and 0.0 stay distinct. No cell needs quoting: a float
    repr holds no comma, quote or line break.
    """
    bits, inverse = np.unique(block.view(np.int64).ravel(), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    rows = text[inverse].reshape(block.shape).tolist()
    return prefix + ("\n" + prefix).join(map(",".join, rows)) + "\n"
