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
(:class:`taskreg.baselines.MaeAccumulator`). ``load_csv(...,
spool=file)``, which ``taskreg split`` reads with unless it scales,
writes each kept record's text to the spool file in place of keeping its
doubles, and keeps only where each record ends (:class:`Records`);
:func:`write_csv` then copies the records back from the spool: cells
keep their text and columns their order, line ends become "\\n", and a
byte-order mark is dropped.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import warnings
from dataclasses import dataclass, field, fields
from typing import Callable, Protocol

import numpy as np

from .errors import DegenerateTaskError, ParseError, SchemaError

# Body lines (or records) stream_csv parses at a time. Peak memory grows
# with it (a 512-line chunk of 90 features is a 0.4 MB table), while the
# per-chunk overhead of np.loadtxt and of the sinks shrinks.
_CHUNK_LINES = 512

# Rows write_csv writes at a time (and minmax_scale gathers at a time).
# Records are copied a block at a time. Of a table of doubles, each
# distinct double of a block is formatted once; a larger block finds
# more repeats but holds more strings (128 rows of 90 features add about
# 1 MB to peak memory).
_WRITE_BLOCK_ROWS = 128


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


# The field checkers of the model types, the solver settings and the fits, which a model
# file's values, a caller's and the command line's go through alike. Each takes a JSON value,
# a tuple or a numpy array, and names the field ``key`` in its message. A bool is not a number.
# A penalty or tolerance is ``_nonnegative``; a seed of numpy's generator is ``_seed``.
_REAL_TYPES = (int, float, np.integer, np.floating)


def _finite(number: float, key: str) -> float:
    # json reads a literal too large for a double, such as 1e400, as inf.
    if not math.isfinite(number):
        raise ValueError(f"{key}: expected a finite number, got {number!r}")
    return number


def _real(value, key: str) -> float:
    """``value`` as a float; an integer past the largest double is +-inf, as 1e400 reads."""
    if isinstance(value, bool) or not isinstance(value, _REAL_TYPES):
        raise ValueError(f"{key}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _number(value, key: str) -> float:
    return _finite(_real(value, key), key)


def _nonnegative(value, key: str) -> float:
    number = _real(value, key)
    if not (math.isfinite(number) and number >= 0):
        raise ValueError(f"{key} must be finite and >= 0, got {number}")
    return number


def _integer(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{key}: expected an integer, got {value!r}")
    return int(value)


def _seed(value, key: str) -> int:
    seed = _integer(value, key)
    if seed < 0:
        raise ValueError(f"{key} must be a non-negative integer, got {seed}")
    return seed


def _list(value, key: str, of: str):
    if isinstance(value, np.ndarray) and value.ndim:
        value = value.tolist()
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key}: expected a list of {of}, got {value!r}")
    return value


def _strings(value, key: str) -> tuple[str, ...]:
    """A list of distinct strings, such as a model's task labels or feature names."""
    items, seen = _list(value, key, "strings"), set()
    for item in items:
        if not isinstance(item, str):
            raise ValueError(f"{key}: expected a string, got {item!r}")
        if item in seen:
            raise ValueError(f"{key.replace('_', ' ')} must be unique, {item!r} repeats")
        seen.add(item)
    return tuple(items)


def _numbers(value, key: str, ndim: int) -> np.ndarray:
    """A finite ``ndim``-D numeric array, or ``ndim``-deep nested lists of numbers, read-only."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        array = np.array(value, dtype=np.float64)
    else:
        items = [value]
        for _ in range(ndim):
            items = list(itertools.chain.from_iterable(_list(i, key, "numbers") for i in items))
        if not set(map(type, items)) <= {int, float}:
            for item in items:
                _real(item, key)
        try:
            array = np.array(value, dtype=np.float64)
        except ValueError:
            raise ValueError(f"{key}: rows differ in length") from None
        except OverflowError:  # an integer past the largest double
            array = np.array([_real(item, key) for item in items])
    overflowed = array[~np.isfinite(array)]
    if overflowed.size:
        _finite(float(overflowed[0]), key)
    if array.ndim != ndim:
        raise ValueError(f"{key} must be {ndim}-D, got shape {array.shape}")
    array.setflags(write=False)
    return array


def _optional_string(value, key: str) -> str | None:
    if value is not None and not isinstance(value, str):
        raise ValueError(f"{key}: expected a string or null, got {value!r}")
    return value


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
    map to 0. Construction checks that each bound is a finite number (not
    a bool or a string), that the feature bounds are 1-D of one length with
    min <= max, that the outcome bounds come together, and that no span overflows.
    """

    feature_min: np.ndarray
    feature_max: np.ndarray
    outcome_min: float | None = None
    outcome_max: float | None = None

    __eq__ = _value_eq

    def __post_init__(self):
        lo = _numbers(self.feature_min, "feature_min", 1)
        hi = _numbers(self.feature_max, "feature_max", 1)
        if lo.shape != hi.shape:
            raise ValueError("feature_min and feature_max must be 1-D and equal length")
        if np.any(lo > hi):
            raise ValueError("feature_min must be <= feature_max")
        if (self.outcome_min is None) != (self.outcome_max is None):
            raise ValueError("outcome_min and outcome_max must be set together")
        # A span past the largest double would scale every value to 0 or NaN.
        with np.errstate(over="ignore"):
            wide = np.flatnonzero(~np.isfinite(hi - lo))
        if wide.size:
            j = wide[0]
            bounds = f"[{float(lo[j])!r}, {float(hi[j])!r}]"
            raise ValueError(f"the range {bounds} of feature {j} is too wide to scale")
        if self.outcome_min is not None:
            lo_y = _number(self.outcome_min, "outcome_min")
            hi_y = _number(self.outcome_max, "outcome_max")
            if not math.isfinite(hi_y - lo_y):
                raise ValueError(f"the outcome range [{lo_y!r}, {hi_y!r}] is too wide to scale")
            object.__setattr__(self, "outcome_min", lo_y)
            object.__setattr__(self, "outcome_max", hi_y)
        object.__setattr__(self, "feature_min", lo)
        object.__setattr__(self, "feature_max", hi)

    @property
    def n_features(self) -> int:
        return self.feature_min.shape[0]

    @property
    def scales_outcome(self) -> bool:
        return self.outcome_min is not None

    def transform_features(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The scaled features; ``out=x`` scales ``x`` in place."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(
                f"expected a matrix with {self.n_features} columns, got shape {x.shape}"
            )
        span = self.feature_max - self.feature_min
        out = np.subtract(x, self.feature_min, out=out)
        np.divide(out, span, out=out, where=span > 0)
        out[:, span == 0] = 0.0
        return out

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
        self._settle(tuple(map(_frozen_array, self.factors)))

    @classmethod
    def _adopt(cls, factors: tuple[np.ndarray, ...], **fields) -> "TaskFactors":
        """TaskFactors that keep ``factors``, float64 arrays just made for them, as they are.

        Construction copies each factor; this makes each one read-only in
        place instead. The checks are those of construction.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "dropped_rows", 0)
        for name, value in fields.items():
            object.__setattr__(out, name, value)
        for r in factors:
            r.setflags(write=False)
        out._settle(factors)
        return out

    def _settle(self, factors: tuple[np.ndarray, ...]) -> None:
        """Check the fields, then store them, ``factors`` (read-only arrays) among them."""
        labels = _strings(self.task_labels, "task_labels")
        names = _strings(self.feature_names, "feature_names")
        counts = tuple(int(n) for n in self.counts)
        if not labels or len(factors) != len(labels) or len(counts) != len(labels):
            raise ValueError("need one factor and one row count per task, and at least one task")
        width = len(names) + 2
        for label, r, n in zip(labels, factors, counts):
            if r.ndim != 2 or r.shape[1] != width or r.shape[0] > min(n, width) or n < 1:
                raise ValueError(
                    f"task {label!r}: factor of shape {r.shape} does not fit {n} row(s) "
                    f"of width {width}"
                )
        lo = _frozen_array(self.feature_min)
        hi = _frozen_array(self.feature_max)
        if lo.shape != (len(names),) or hi.shape != lo.shape:
            raise ValueError(f"feature_min and feature_max must have shape ({len(names)},)")
        object.__setattr__(self, "task_labels", labels)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "factors", factors)
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

    def check_finite(self, *, squares: bool = True) -> None:
        """Raise ValueError if a factor is not finite, naming the column of largest magnitude.

        A finite cell near the largest double can overflow the QR fold of
        its task's rows, and with ``squares`` one past about 1.3e154 the
        running sum of squares that bounds each fit's data term. The task
        named is the first such one; no fit can start from it.
        """
        total = 0.0
        for label, r in zip(self.task_labels, self.factors):
            if squares:
                with np.errstate(over="ignore"):
                    total += float(np.vdot(r, r))
            if not (np.isfinite(r).all() and math.isfinite(total)):
                lo = np.append(self.feature_min, self.outcome_min)
                hi = np.append(self.feature_max, self.outcome_max)
                peak = np.where(np.abs(lo) > np.abs(hi), lo, hi)
                j = int(np.abs(peak).argmax())
                names = [f"feature {name!r}" for name in self.feature_names]
                raise ValueError(
                    f"{[*names, 'the outcome'][j]} reaches {float(peak[j])!r}, too large in "
                    f"magnitude to fit task {label!r}"
                )

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
        self.check_finite(squares=False)
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
        scaled = TaskFactors._adopt(
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
        width = self.n_features + (2 if intercept else 1)
        keep = [*range(self.n_features), self.n_features + 1]
        # Without the ones column a task's factor is qr(R_t[:, keep]), of at most width rows.
        stack = np.zeros((self.n_tasks, max(min(r.shape[0], width) for r in self.factors), width))
        for t, r in enumerate(self.factors):
            if not intercept:
                r = np.linalg.qr(r[:, keep], mode="r")
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
    """Where :func:`stream_csv` sends the kept rows of a data set.

    A sink made for ``stream_csv(..., keep_text=True)`` is made as
    ``sink_for(feature_names, header)`` and its ``add`` also takes the
    chunk's ``text``: ``(text, ends)``, the kept records' text, each
    record ending in "\\n", and the offset in it of each record's end
    (in characters). Its ``x`` and ``y`` are None: the doubles are parsed
    and checked, not kept; :class:`_RecordSink` writes the text to a spool.
    """

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


def stream_csv(
    path,
    task_column: str,
    outcome_column: str,
    sink_for: Callable[..., RowSink],
    *,
    keep_text: bool = False,
):
    """Feed the kept rows of a CSV file to a sink, and return what it finishes with.

    ``sink_for(feature_names)`` makes the sink once the header is read
    (``sink_for(feature_names, header)`` with ``keep_text``, whose sink
    also gets each chunk's record text; see :class:`RowSink`).
    The body is read in one pass, :data:`_CHUNK_LINES` records at a time
    (:func:`_body_chunks`), and each chunk's kept rows go to the sink, so
    only what the sink keeps grows with the row count. A row with a blank
    outcome is dropped and counted in ``dropped_rows``. A leading UTF-8
    byte-order mark is skipped, and text that is not UTF-8 is a ValueError
    naming the file. Once the body is read, a file with no body record is
    a :class:`SchemaError`, and a task all of whose rows were dropped a
    :class:`DegenerateTaskError`.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            layout = _read_header(fh, path, task_column, outcome_column)
            header, _, _, feature_idx = layout
            feature_names = tuple(header[i] for i in feature_idx)
            sink = sink_for(feature_names, header) if keep_text else sink_for(feature_names)
            codes: dict[str, int] = {}
            kept_per_task = np.zeros(0, dtype=np.intp)
            records = 0
            for chunk_records, task, x, y, text in _body_chunks(fh, path, layout, codes, keep_text):
                records += chunk_records
                counts = np.bincount(task, minlength=len(codes))
                counts[: kept_per_task.size] += kept_per_task
                kept_per_task = counts
                if keep_text:
                    sink.add(tuple(codes), task, x, y, text)
                else:
                    sink.add(tuple(codes), task, x, y)
                # The next chunk is parsed while these names would still hold this one.
                del task, x, y, text
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not codes:
        raise SchemaError(f"{path}: no data rows")
    for label, kept in zip(codes, kept_per_task):
        if not kept:
            raise DegenerateTaskError(
                f"{path}: task {label!r} has no rows left after dropping missing outcomes"
            )
    return sink.finish(tuple(codes), records - int(kept_per_task.sum()))


def load_csv(
    path, task_column: str, outcome_column: str, *, spool: io.BufferedIOBase | None = None
) -> "RowTable":
    """Read the kept rows of a CSV file into one :class:`RowTable`.

    The header row is required. Rows with an empty outcome cell are
    dropped and counted in ``dropped_rows``. An empty or non-numeric
    feature cell is a :class:`ParseError`; there is no imputation. The
    file is read once, by :func:`stream_csv`, and the table grows in place
    by each chunk's kept rows (:class:`_TableSink`).

    With a ``spool``, an empty file open for binary reading and writing,
    each kept record's text goes to the spool in place of its doubles, and
    the table holds only where each record ends there (:class:`Records`,
    kept by :class:`_RecordSink`). Every cell is still parsed, so the
    errors and the dropped rows are the same, and :func:`write_csv` then
    copies the records. The caller owns the spool and closes it once the
    table is written; memory then does not grow with the records' text.
    """
    if spool is not None:
        def sink_for(feature_names, header):
            return _RecordSink(feature_names, header, spool)

        return stream_csv(path, task_column, outcome_column, sink_for, keep_text=True)
    return stream_csv(path, task_column, outcome_column, _TableSink)


def load_factors(path, task_column: str, outcome_column: str) -> TaskFactors:
    """Read a CSV file into :class:`TaskFactors` without holding its rows.

    The file is read by :func:`stream_csv`, and each task's kept rows are
    folded into its factor as they come, so memory does not grow with the
    row count. The kept rows and ``dropped_rows`` are those of :func:`load_csv`.
    """
    return stream_csv(path, task_column, outcome_column, _FactorSink)


@dataclass(frozen=True, eq=False)
class Records:
    """The kept records of a data file as UTF-8 text in a spool file, in file order.

    ``spool`` holds the records one after another from offset 0, each
    ending in "\\n"; ``ends[i]`` is the byte offset of record i's end
    there. ``header`` is the header line. Only the ends are in memory.
    """

    header: bytes
    spool: io.BufferedIOBase
    ends: np.ndarray

    def __len__(self) -> int:
        return self.ends.size

    def take(self, rows: np.ndarray) -> bytes:
        """The records ``rows`` names, in that order, read back from the spool.

        Each record is one ``os.pread``, which leaves the file position
        alone and maps no page of the spool into memory.
        """
        # The first record starts at 0, any other where the one before it ends.
        starts = np.where(rows == 0, 0, self.ends[rows - 1])
        fd = self.spool.fileno()
        spans = zip(starts.tolist(), self.ends[rows].tolist())
        return b"".join([os.pread(fd, end - start, start) for start, end in spans])


@dataclass(frozen=True, eq=False)
class RowTable:
    """The kept rows of a data file as one table, grouped by task through index arrays.

    ``table`` holds one row [x | y] per kept row, in file order, or, from
    ``load_csv(..., spool=file)``, where each kept record's text ends in
    the spool (:class:`Records`). ``task_rows[t]`` holds the indices of
    task t's rows in it, in file order.
    """

    table: np.ndarray | Records
    task_rows: tuple[np.ndarray, ...]
    task_labels: tuple[str, ...]
    feature_names: tuple[str, ...]
    dropped_rows: int = 0

    @property
    def n_rows(self) -> int:
        return len(self.table)

    @property
    def n_tasks(self) -> int:
        return len(self.task_labels)


def _append(array: np.ndarray, values) -> None:
    """Grow ``array`` in place by ``values`` along its first axis.

    ``ndarray.resize`` is a ``realloc``, so the array has no spare rows.
    ``refcheck=False`` is safe only while nothing holds a view of it across the call.
    """
    start = array.shape[0]
    array.resize((start + len(values), *array.shape[1:]), refcheck=False)
    array[start:] = values


def _task_rows(codes: np.ndarray, n_tasks: int) -> tuple[np.ndarray, ...]:
    """Each task's row indices, in row order, from each row's task code."""
    order = np.argsort(codes, kind="stable")
    return tuple(np.split(order, np.cumsum(np.bincount(codes, minlength=n_tasks))[:-1]))


class _TableSink:
    """The kept rows as one :class:`RowTable`, for :func:`load_csv`.

    The table and the row codes grow in place by each chunk's rows
    (:func:`_append`), so the finished table has no spare rows.
    """

    def __init__(self, feature_names):
        self.feature_names = feature_names
        self.table = np.empty((0, len(feature_names) + 1))
        self.codes = np.empty(0, dtype=np.intp)

    def add(self, labels, task, x, y):
        start = self.codes.size
        end = start + task.size
        # refcheck=False is safe only while nothing holds a view of the table across add.
        self.table.resize((end, self.table.shape[1]), refcheck=False)
        self.table[start:, :-1] = x
        self.table[start:, -1] = y
        _append(self.codes, task)

    def finish(self, labels, dropped_rows):
        return RowTable(
            table=self.table,
            task_rows=_task_rows(self.codes, len(labels)),
            task_labels=labels,
            feature_names=self.feature_names,
            dropped_rows=dropped_rows,
        )


class _RecordSink:
    """The kept records' text in a spool, as a :class:`RowTable`, for ``load_csv(..., spool=f)``.

    Each chunk's text is written to the spool as it comes, in UTF-8; the
    record ends, as byte offsets into the spool, and the row codes grow in
    place (:func:`_append`). Neither the text nor the doubles are kept.
    """

    def __init__(self, feature_names, header, spool):
        self.feature_names = feature_names
        self.header = _csv_line(header).encode("utf-8")
        self.spool = spool
        self.size = 0
        self.ends = np.empty(0, dtype=np.int64)
        self.codes = np.empty(0, dtype=np.intp)

    def add(self, labels, task, x, y, text):
        block, ends = text
        data = block.encode("utf-8")
        # Character offsets are byte offsets only in ASCII text.
        if not block.isascii():
            bounds = [0, *ends.tolist()]
            lengths = [len(block[a:b].encode("utf-8")) for a, b in zip(bounds, bounds[1:])]
            ends = np.cumsum(lengths, dtype=np.int64)
        self.spool.write(data)
        _append(self.ends, ends + self.size)
        self.size += len(data)
        _append(self.codes, task)

    def finish(self, labels, dropped_rows):
        # Records.take reads the spool's file descriptor, past its buffer.
        self.spool.flush()
        records = Records(header=self.header, spool=self.spool, ends=self.ends)
        return RowTable(
            table=records,
            task_rows=_task_rows(self.codes, len(labels)),
            task_labels=labels,
            feature_names=self.feature_names,
            dropped_rows=dropped_rows,
        )


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
        # Not np.unique, which loads numpy.ma on numpy 2.
        for code in np.flatnonzero(np.bincount(task)):
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
        return TaskFactors._adopt(
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


def _read_header(fh, path, task_column: str, outcome_column: str):
    """(header, task index, outcome index, feature indices) of the header, or a SchemaError."""
    header = next(csv.reader(fh), None)
    if header is None:
        raise SchemaError(f"{path}: file is empty, header row required")
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
    feature_idx = [i for i in range(len(header)) if i not in (task_idx, outcome_idx)]
    if not feature_idx:
        raise SchemaError(f"{path}: no feature columns besides task and outcome")
    return header, task_idx, outcome_idx, feature_idx


def _body_chunks(fh, path, layout, codes: dict[str, int], keep_text: bool):
    """The body after the header, one chunk at a time: (records, task, x, y, text) of its kept rows.

    ``codes`` numbers task labels in order of first appearance, and
    ``task`` holds each kept row's code. ``text`` is None, or with
    ``keep_text`` the kept records' ``(text, ends)``, and then ``x`` and
    ``y`` are None (see :class:`RowSink`).
    Chunks of :data:`_CHUNK_LINES` lines go through ``np.loadtxt``
    (:func:`_parse_chunk`). A chunk that cannot be shown to parse as
    ``float()`` would is read cell by cell (:func:`_cell_chunks`), and the
    next chunk goes back to ``np.loadtxt``.
    """
    row = 2  # the header is row 1
    while lines := list(itertools.islice(fh, _CHUNK_LINES)):
        chunk = _parse_chunk(lines, layout, codes, keep_text)
        if chunk is None:
            chunk = _cell_chunks(lines, fh, path, layout, codes, row, keep_text)
        row += chunk[0]
        # The sink holds copies; the chunk's text goes before it works, and
        # the chunk before the next one is parsed.
        del lines
        yield chunk
        del chunk


def _parse_chunk(lines, layout, codes: dict[str, int], keep_text: bool):
    """A chunk's (records, task, x, y, text) by ``np.loadtxt``; None where ``float()`` might differ.

    ``np.loadtxt`` reads a subset of what ``float()`` reads and gives the
    same double for it. Whatever it might read differently returns None: a
    cell only ``float()`` reads (``1_0``), a blank line (which ``loadtxt``
    skips), a ragged row, a non-finite feature of a kept row or a
    non-finite outcome. So does a chunk that ends inside a quoted field:
    ``loadtxt`` would close that field at the chunk's end and read its
    rest as a new record of the next one. (A quoted field that runs on
    within a chunk already makes the chunk's record count differ from its
    line count.) The chunk's new labels join ``codes`` only if it parses.
    Each record is one line, so with ``keep_text`` its text is that line
    (:func:`_line_records`).
    """
    header, task_idx, outcome_idx, feature_idx = layout
    chunk_codes = dict(codes)
    table = _parse_lines(lines, len(header), task_idx, outcome_idx, chunk_codes)
    if table is None or _ends_inside_quotes(lines[-1]):
        return None
    outcome = table[:, outcome_idx]
    kept = ~np.isnan(outcome)
    # A kept row's task code and outcome are finite, so this tests its features.
    if not np.isfinite(table).all(axis=1)[kept].all():
        return None
    codes.update(chunk_codes)
    task = table[kept, task_idx].astype(np.intp)
    if keep_text:
        text = _line_records(itertools.compress(lines, kept.tolist()))
        return len(lines), task, None, None, text
    # Fancy indexing copies, so the sink holds nothing of the table.
    return len(lines), task, table[np.ix_(kept, feature_idx)], outcome[kept], None


def _line_records(lines):
    """The ``(text, ends)`` of records that are one line each, every line end made "\\n".

    A line ends in "\\n", "\\r\\n" or a lone "\\r" (as a file opened with
    ``newline=""`` splits it), or, as the file's last line, in nothing; a
    CR can stand nowhere else in it.
    """
    lines = list(lines)
    text = "".join(lines)
    if "\r" in text or not text.endswith("\n"):
        lines = [line.rstrip("\r\n") + "\n" for line in lines]
        text = "".join(lines)
    return text, np.cumsum(np.fromiter(map(len, lines), dtype=np.int64, count=len(lines)))


def _parse_lines(lines, width: int, task_idx: int, outcome_idx: int, codes: dict[str, int]):
    """``np.loadtxt`` over a list of body lines: one row of ``width`` values per line, or None.

    A task cell becomes its label's code in ``codes``, which numbers
    labels in order of first appearance and is extended in place. An
    outcome cell goes through :func:`_outcome_cell`.
    """

    def task_code(text: str) -> int:
        return codes.setdefault(text, len(codes))

    try:
        with warnings.catch_warnings():
            # An all-blank body is caught by the line count below.
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(
                lines,
                delimiter=",",
                comments=None,
                quotechar='"',
                ndmin=2,
                converters={task_idx: task_code, outcome_idx: _outcome_cell},
            )
    except ValueError:
        return None
    return table if table.shape == (len(lines), width) else None


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


def _cell_chunks(lines, fh, path, layout, codes: dict[str, int], row: int, keep_text: bool):
    """For :func:`_body_chunks`, the chunk of the records that start in ``lines``, cell by cell.

    Each cell is parsed by ``float()``, and ``csv.reader`` reads a quoted
    field that runs over line ends whole; one that runs past the last of
    ``lines`` takes the rest of its lines from ``fh``. ``row`` is the first
    record's row number. A malformed record raises its :class:`ParseError` here.
    With ``keep_text`` a kept record's text is its fields as
    :func:`_csv_line` writes them: each cell's own text, quoted where needed.
    """
    header, task_idx, outcome_idx, feature_idx = layout
    reader = csv.reader(itertools.chain(lines, fh))
    records, task, x, y, text = 0, [], [], [], []
    while reader.line_num < len(lines):
        fields = next(reader)
        record = row + records
        records += 1
        if len(fields) != len(header):
            raise ParseError(
                f"{path}: row {record} has {len(fields)} fields, expected {len(header)}"
            )
        code = codes.setdefault(fields[task_idx], len(codes))
        outcome = fields[outcome_idx].strip()
        if outcome == "":
            continue
        y.append(_parse_cell(outcome, path, record, header[outcome_idx]))
        x.append([_parse_cell(fields[i].strip(), path, record, header[i]) for i in feature_idx])
        task.append(code)
        if keep_text:
            text.append(_csv_line(fields))
    task = np.array(task, dtype=np.intp)
    if keep_text:
        ends = np.cumsum(list(map(len, text)), dtype=np.int64)
        return records, task, None, None, ("".join(text), ends)
    return records, task, np.array(x).reshape(len(y), len(feature_idx)), np.array(y), None


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
    reproduces the same split; ``seed`` is an integer >= 0.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    seed = _seed(seed, "seed")
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
    """Write the rows ``task_rows[t]`` of each task t to CSV.

    A table of :class:`Records` is written as its header and a copy of
    each named record, read back from the spool, so cells keep their text
    and columns their order.
    A table of doubles is written task column first and outcome last,
    each double by ``repr``, so a write/load round trip is exact; the
    bytes are those of writing each row with ``csv.writer`` (see
    :func:`_csv_line`). Either way rows go out in blocks of
    :data:`_WRITE_BLOCK_ROWS`.
    """
    names = table.feature_names
    if task_column in names or outcome_column in names:
        raise ValueError("task/outcome column names collide with feature names")
    if isinstance(table.table, Records):
        with open(path, "wb") as fh:
            fh.write(table.table.header)
            for rows in task_rows:
                for start in range(0, rows.size, _WRITE_BLOCK_ROWS):
                    fh.write(table.table.take(rows[start : start + _WRITE_BLOCK_ROWS]))
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_line([task_column, *names, outcome_column]))
        for label, rows in zip(table.task_labels, task_rows):
            prefix = _csv_line([label, ""])[:-1]
            for start in range(0, rows.size, _WRITE_BLOCK_ROWS):
                block = table.table[rows[start : start + _WRITE_BLOCK_ROWS]]
                fh.write(_format_rows(prefix, block))


def write_rows(rows, path) -> None:
    """Write each row of ``rows``, a list of cells, to ``path`` as one CSV line.

    This is the dialect of every CSV file taskreg writes: UTF-8, "\\n"
    line ends and ``csv`` quoting, with a field that holds a CR or an LF
    quoted (:func:`_csv_line`), so the file reads back through
    ``csv.reader`` row for row.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(map(_csv_line, rows))


def write_json(data, path) -> None:
    """Write ``data`` to ``path`` as JSON: indent 2, a final newline, no NaN or infinity."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(data, fh, indent=2, allow_nan=False)
        fh.write("\n")


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
