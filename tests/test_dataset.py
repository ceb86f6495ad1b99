"""Loading, scaling, and splitting behavior."""

import csv
import dataclasses
import io
import json
import re
import tempfile

import numpy as np
import pytest

import oracles
from oracles import (
    MultiTaskDataset,
    TaskData,
    factors,
    invert_features,
    row_table,
    write_csv_rows,
)
from taskreg import (
    DegenerateTaskError,
    ParseError,
    ScalingParams,
    SchemaError,
    load_csv,
    load_factors,
    minmax_scale,
    stratified_split,
    write_csv,
)
from taskreg import cli, dataset


def _rows(path, task_column, outcome_column):
    """The table load_csv reads, one copy per task."""
    return MultiTaskDataset.from_table(load_csv(path, task_column, outcome_column))


class _CellReaderReached(Exception):
    """Raised in place of the cell reader, where the loadtxt chunks hand the file to it."""


def _loadtxt_only(monkeypatch, load, path, task_column, outcome_column):
    """``load`` on the loadtxt chunks alone: its result, or None where the cell reader would run."""

    def refuse(*args):
        raise _CellReaderReached

    with monkeypatch.context() as m:
        m.setattr(dataset, "_cell_chunks", refuse)
        try:
            return load(path, task_column, outcome_column)
        except _CellReaderReached:
            return None


def _chunked_rows(monkeypatch, path, task_column, outcome_column):
    """load_csv's loadtxt chunks alone: the dataset, or None where the cell reader takes over."""
    table = _loadtxt_only(monkeypatch, load_csv, path, task_column, outcome_column)
    return None if table is None else MultiTaskDataset.from_table(table)


def _cell_rows(monkeypatch, path, task_column, outcome_column):
    """load_csv with every record read by the cell reader."""
    with monkeypatch.context() as m:
        m.setattr(dataset, "_parse_lines", lambda *args: None)
        return _rows(path, task_column, outcome_column)


def _minmax_scale(ds, **options):
    """The package's minmax_scale on a dataset's rows: the scaled rows and the params."""
    table = row_table(ds)
    params = minmax_scale(table, **options)
    return MultiTaskDataset.from_table(table), params


def _stratified_split(ds, train_fraction, seed):
    """The package's stratified_split of a dataset's rows, as (train, test) datasets."""
    table = row_table(ds)
    return tuple(
        MultiTaskDataset.from_table(dataclasses.replace(table, task_rows=side))
        for side in stratified_split(table, train_fraction, seed)
    )


def _write_csv(ds, path, task_column, outcome_column):
    """The package's write_csv of every row of a dataset."""
    table = row_table(ds)
    write_csv(table, table.task_rows, path, task_column, outcome_column)


def _chunked_factors(monkeypatch, path, task_column, outcome_column):
    """load_factors' loadtxt chunks alone, as :func:`_chunked_rows`."""
    return _loadtxt_only(monkeypatch, load_factors, path, task_column, outcome_column)


def _chunk_lines(monkeypatch, lines, columns):
    """Have stream_csv read ``lines`` body lines per chunk of a file of ``columns`` columns."""
    monkeypatch.setattr(dataset, "_CHUNK_CELLS", lines * columns)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


BASIC = """task,age,bmi,outcome
a,1,2,10
a,2,3,11
b,3,4,12
b,4,5,13
b,5,6,
"""


def test_load_basic_shapes(tmp_path):
    ds = _rows(_write(tmp_path, BASIC), "task", "outcome")
    assert ds.task_labels == ("a", "b")
    assert ds.feature_names == ("age", "bmi")
    assert ds.n_tasks == 2
    assert ds.n_features == 2
    assert ds.tasks[0].n == 2
    assert ds.tasks[1].n == 2
    assert ds.dropped_rows == 1
    np.testing.assert_array_equal(ds.tasks[0].X, [[1, 2], [2, 3]])
    np.testing.assert_array_equal(ds.tasks[1].Y, [12, 13])


def test_load_minimal_one_row(tmp_path):
    ds = _rows(_write(tmp_path, "t,x,y\nonly,5,7\n"), "t", "y")
    assert ds.n_tasks == 1
    assert ds.n_features == 1
    assert ds.tasks[0].n == 1
    assert float(ds.tasks[0].X[0, 0]) == 5.0


def test_load_fhs_shaped(tmp_path):
    # 633 rows, 79 feature columns, 4 task values.
    rng = np.random.default_rng(41)
    n_rows, n_feat = 633, 79
    labels = [f"vhd{i % 4}" for i in range(n_rows)]
    lines = ["task," + ",".join(f"f{j}" for j in range(n_feat)) + ",y"]
    values = rng.random((n_rows, n_feat + 1))
    for label, row in zip(labels, values):
        lines.append(label + "," + ",".join(f"{v:.4f}" for v in row))
    table = load_csv(_write(tmp_path, "\n".join(lines) + "\n"), "task", "y")
    assert table.n_tasks == 4
    assert len(table.feature_names) == 79
    assert table.n_rows == 633


def test_load_brfss_shaped(tmp_path):
    # 119,929 rows, 90 feature columns, 6 task values; exercises bulk load.
    rng = np.random.default_rng(42)
    n_feat = 90
    counts = [19988] * 5 + [119_929 - 5 * 19988]
    path = tmp_path / "big.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("age_group," + ",".join(f"f{j}" for j in range(n_feat)) + ",y\n")
        for t, count in enumerate(counts):
            block = rng.random((count, n_feat + 1))
            buf = io.StringIO()
            np.savetxt(buf, block, fmt="%.3f", delimiter=",")
            label = f"age{t}"
            fh.writelines(f"{label},{line}\n" for line in buf.getvalue().splitlines())
    table = load_csv(path, "age_group", "y")
    assert table.n_tasks == 6
    assert len(table.feature_names) == 90
    assert table.n_rows == 119_929
    assert [rows.size for rows in table.task_rows] == counts


def test_load_errors(tmp_path):
    with pytest.raises(SchemaError, match="missing required column 'task'"):
        load_csv(_write(tmp_path, "a,b\n1,2\n"), "task", "b")
    with pytest.raises(SchemaError, match="missing required column 'y'"):
        load_csv(_write(tmp_path, "task,b\nx,2\n"), "task", "y")
    with pytest.raises(SchemaError, match="duplicate column"):
        load_csv(_write(tmp_path, "task,b,b,y\nx,1,2,3\n"), "task", "y")
    with pytest.raises(SchemaError, match="must differ"):
        load_csv(_write(tmp_path, "task,b,y\nx,1,2\n"), "task", "task")
    with pytest.raises(SchemaError, match="no feature columns"):
        load_csv(_write(tmp_path, "task,y\nx,1\n"), "task", "y")
    with pytest.raises(SchemaError, match="header row required"):
        load_csv(_write(tmp_path, ""), "task", "y")
    with pytest.raises(SchemaError, match="no data rows"):
        load_csv(_write(tmp_path, "task,b,y\n"), "task", "y")


def test_load_cell_errors(tmp_path):
    with pytest.raises(ParseError, match="row 2, column 'b'"):
        load_csv(_write(tmp_path, "task,b,y\nx,oops,3\n"), "task", "y")
    with pytest.raises(ParseError, match="missing value"):
        load_csv(_write(tmp_path, "task,b,y\nx,,3\n"), "task", "y")
    with pytest.raises(ParseError, match="non-finite"):
        load_csv(_write(tmp_path, "task,b,y\nx,inf,3\n"), "task", "y")
    with pytest.raises(ParseError, match="row 3 has 2 fields"):
        load_csv(_write(tmp_path, "task,b,y\nx,1,3\nx,1\n"), "task", "y")


def test_load_all_outcomes_missing_for_task(tmp_path):
    text = "task,b,y\na,1,2\nq,1,\nq,2,\n"
    with pytest.raises(DegenerateTaskError, match="'q'"):
        load_csv(_write(tmp_path, text), "task", "y")


def _random_panel(seed, *, newline, final_newline, cell):
    """A CSV whose body the vectorized reader must parse exactly like the cell reader."""
    rng = np.random.default_rng(seed)
    labels = ['"rural, north"', "south", '"say ""hi"", east"', "west"]
    lines = ["site,f0,f1,f2,outcome"]
    for _ in range(40):
        values = rng.normal(size=4) * 10.0 ** rng.integers(-3, 4, size=4)
        values[rng.random(4) < 0.1] = -0.0
        cells = [cell(v) for v in values]
        if rng.random() < 0.15:
            cells[-1] = rng.choice(["", " "])
        lines.append(",".join([labels[rng.integers(len(labels))], *cells]))
    lines.append(",".join([labels[0], *(cell(v) for v in rng.normal(size=4))]))
    return newline.join(lines) + (newline if final_newline else "")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("cell", [lambda v: repr(float(v)), lambda v: f"{v:.3f}"], ids=["repr", "milli"])
def test_vectorized_load_matches_cell_reader(tmp_path, monkeypatch, seed, newline, final_newline,
                                             cell):
    text = _random_panel(seed, newline=newline, final_newline=final_newline, cell=cell)
    path = tmp_path / "panel.csv"
    path.write_bytes(text.encode("utf-8"))
    fast = _chunked_rows(monkeypatch, path, "site", "outcome")
    assert fast is not None  # the vectorized pass was taken
    slow = _cell_rows(monkeypatch, path, "site", "outcome")
    assert fast.task_labels == slow.task_labels
    assert fast.feature_names == slow.feature_names
    assert fast.dropped_rows == slow.dropped_rows > 0
    for a, b in zip(fast.tasks, slow.tasks):
        assert a.X.shape == b.X.shape
        assert a.X.tobytes() == b.X.tobytes()
        assert a.Y.tobytes() == b.Y.tobytes()
    assert load_csv(path, "site", "outcome").task_labels == slow.task_labels
    assert "rural, north" in slow.task_labels and 'say "hi", east' in slow.task_labels


@pytest.mark.parametrize(
    "body, error, message",
    [
        ("x,1,3\n\nx,2,4\n", ParseError, "row 3 has 0 fields, expected 3"),
        ("x,1,3\nx,1,3,4\n", ParseError, "row 3 has 4 fields, expected 3"),
        ("x,1,3,4\nx,1,3,4\n", ParseError, "row 2 has 4 fields, expected 3"),
        ("x,1,3\nx,2,nan\n", ParseError, "row 3, column 'y': non-finite value 'nan'"),
        ("x,1,3\nx,2,-inf\n", ParseError, "row 3, column 'y': non-finite value '-inf'"),
        ("x,1,3\nx, ,4\n", ParseError, "row 3, column 'b': missing value"),
        ("x,1,3\nx,inf,4\n", ParseError, "row 3, column 'b': non-finite value 'inf'"),
        ("a,1,2\nq,1,\nq,2,\n", DegenerateTaskError,
         "task 'q' has no rows left after dropping missing outcomes"),
    ],
    ids=["blank-line", "extra-field", "extra-field-every-row", "nan-outcome", "inf-outcome",
         "empty-feature", "inf-feature", "task-all-dropped"],
)
def test_fallback_keeps_cell_reader_messages(tmp_path, monkeypatch, body, error, message):
    path = _write(tmp_path, "task,b,y\n" + body)
    if error is DegenerateTaskError:
        # Checked once the last chunk is in, so the loadtxt chunks raise it too.
        with pytest.raises(error, match=re.escape(message)):
            _chunked_rows(monkeypatch, path, "task", "y")
    else:
        assert _chunked_rows(monkeypatch, path, "task", "y") is None
    with pytest.raises(error) as excinfo:
        load_csv(path, "task", "y")
    assert str(excinfo.value) == f"{path}: {message}"


def test_fallback_accepts_what_float_accepts(tmp_path, monkeypatch):
    # float() reads "1_0" as 10.0; np.loadtxt rejects it, so the cell reader decides.
    path = _write(tmp_path, "task,b,y\nx,1_0,2\nx,3,4_0\n")
    assert _chunked_rows(monkeypatch, path, "task", "y") is None
    ds = _rows(path, "task", "y")
    np.testing.assert_array_equal(ds.tasks[0].X.ravel(), [10.0, 3.0])
    np.testing.assert_array_equal(ds.tasks[0].Y, [2.0, 40.0])


def test_dropped_row_features_are_not_parsed(tmp_path, monkeypatch):
    # A dropped row's features never reach a number, on either path.
    parsed = _write(tmp_path, "task,b,y\nx,1,2\nx,inf,\n", name="inf.csv")
    assert _chunked_rows(monkeypatch, parsed, "task", "y") is not None
    unparsed = _write(tmp_path, "task,b,y\nx,1,2\nx,oops,\n", name="oops.csv")
    for path in (parsed, unparsed):
        ds = load_csv(path, "task", "y")
        assert ds.dropped_rows == 1 and ds.n_rows == 1


def _toy(columns, labels=("a",), outcomes=None):
    """One or more tasks over the given feature column(s)."""
    columns = np.atleast_2d(np.asarray(columns, dtype=np.float64))
    tasks = []
    for label in labels:
        y = np.zeros(columns.shape[0]) if outcomes is None else np.asarray(outcomes)
        tasks.append(TaskData(label=label, X=columns, Y=y))
    names = tuple(f"f{j}" for j in range(columns.shape[1]))
    return MultiTaskDataset(tasks=tuple(tasks), feature_names=names)


def test_minmax_scale_examples():
    ds = _toy([[2.0], [4.0], [6.0]])
    scaled, params = _minmax_scale(ds)
    np.testing.assert_allclose(scaled.tasks[0].X.ravel(), [0.0, 0.5, 1.0])
    assert params.feature_min[0] == 2.0 and params.feature_max[0] == 6.0

    const, _ = _minmax_scale(_toy([[7.0], [7.0]]))
    np.testing.assert_array_equal(const.tasks[0].X.ravel(), [0.0, 0.0])

    unit = _toy([[0.0], [0.25], [1.0]])
    scaled_unit, _ = _minmax_scale(unit)
    np.testing.assert_allclose(scaled_unit.tasks[0].X, unit.tasks[0].X, atol=1e-15)


def test_minmax_round_trip():
    rng = np.random.default_rng(7)
    ds = _toy(rng.uniform(-5, 9, size=(20, 4)))
    scaled, params = _minmax_scale(ds)
    back = invert_features(params, scaled.tasks[0].X)
    np.testing.assert_allclose(back, ds.tasks[0].X, atol=1e-12)


def test_outcome_scaling():
    ds = _toy([[1.0], [2.0]], outcomes=[10.0, 30.0])
    scaled, params = _minmax_scale(ds, scale_outcome=True)
    np.testing.assert_allclose(scaled.tasks[0].Y, [0.0, 1.0])
    np.testing.assert_allclose(params.invert_outcome(scaled.tasks[0].Y), [10.0, 30.0])
    assert params.scales_outcome


def test_apply_scale_examples():
    # Stored params map new rows, which may leave [0, 1].
    params = ScalingParams(feature_min=np.array([0.0]), feature_max=np.array([10.0]))
    x = np.array([[5.0], [12.0]])
    np.testing.assert_allclose(params.transform_features(x).ravel(), [0.5, 1.2])

    const = ScalingParams(feature_min=np.array([3.0]), feature_max=np.array([3.0]))
    assert const.transform_features(np.array([[99.0]]))[0, 0] == 0.0

    wide = ScalingParams(feature_min=np.zeros(2), feature_max=np.ones(2))
    with pytest.raises(ValueError, match="2 columns"):
        wide.transform_features(x)


def test_scaling_params_validation():
    with pytest.raises(ValueError, match="<="):
        ScalingParams(feature_min=np.array([2.0]), feature_max=np.array([1.0]))
    with pytest.raises(ValueError, match="together"):
        ScalingParams(
            feature_min=np.array([0.0]), feature_max=np.array([1.0]), outcome_min=0.0
        )


def _split_ds(n_per_task=10, n_tasks=3, seed=5):
    rng = np.random.default_rng(seed)
    tasks = tuple(
        TaskData(
            label=f"t{t}",
            X=rng.random((n_per_task, 3)),
            Y=rng.random(n_per_task),
        )
        for t in range(n_tasks)
    )
    return MultiTaskDataset(tasks=tasks, feature_names=("a", "b", "c"))


def test_split_sixty_forty():
    train, test = _stratified_split(_split_ds(10), 0.6, seed=0)
    assert all(t.n == 6 for t in train.tasks)
    assert all(t.n == 4 for t in test.tasks)


def test_split_two_rows():
    train, test = _stratified_split(_split_ds(2), 0.5, seed=0)
    assert all(t.n == 1 for t in train.tasks)
    assert all(t.n == 1 for t in test.tasks)


def test_split_deterministic_and_conserving():
    ds = _split_ds(13)
    first = _stratified_split(ds, 0.6, seed=9)
    second = _stratified_split(ds, 0.6, seed=9)
    for a, b in zip(first[0].tasks, second[0].tasks):
        np.testing.assert_array_equal(a.X, b.X)
    # Row multisets of train + test partition the original rows.
    for orig, tr, te in zip(ds.tasks, first[0].tasks, first[1].tasks):
        assert tr.n + te.n == orig.n
        combined = np.vstack([tr.X, te.X])
        assert sorted(map(tuple, combined.tolist())) == sorted(map(tuple, orig.X.tolist()))
    third = _stratified_split(ds, 0.6, seed=10)
    assert any(
        not np.array_equal(a.X, b.X) for a, b in zip(first[0].tasks, third[0].tasks)
    )


def test_split_errors():
    with pytest.raises(DegenerateTaskError):
        _stratified_split(_split_ds(1), 0.5, seed=0)
    with pytest.raises(ValueError, match="train_fraction"):
        _stratified_split(_split_ds(4), 1.0, seed=0)
    with pytest.raises(ValueError, match="train_fraction"):
        _stratified_split(_split_ds(4), 0.0, seed=0)
    # The rule of split's --seed, not numpy's unnamed one.
    with pytest.raises(ValueError) as info:
        _stratified_split(_split_ds(4), 0.5, seed=-1)
    assert str(info.value) == "seed must be a non-negative integer, got -1"
    with pytest.raises(ValueError) as info:
        _stratified_split(_split_ds(4), 0.5, seed=1.5)
    assert str(info.value) == "seed: expected an integer, got 1.5"


def test_write_load_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    ds = _split_ds(6)
    path = tmp_path / "round.csv"
    _write_csv(ds, path, "task", "outcome")
    back = _rows(path, "task", "outcome")
    assert back.task_labels == ds.task_labels
    assert back.feature_names == ds.feature_names
    for a, b in zip(ds.tasks, back.tasks):
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.Y, b.Y)


def test_task_data_validation():
    with pytest.raises(ValueError, match="2-D"):
        TaskData(label="a", X=np.zeros(3), Y=np.zeros(3))
    with pytest.raises(ValueError, match="rows"):
        TaskData(label="a", X=np.zeros((2, 2)), Y=np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        TaskData(label="a", X=np.array([[np.nan]]), Y=np.zeros(1))


def test_dataset_validation():
    t = TaskData(label="a", X=np.zeros((1, 2)), Y=np.zeros(1))
    with pytest.raises(ValueError, match="unique"):
        MultiTaskDataset(tasks=(t, t), feature_names=("x", "y"))
    with pytest.raises(ValueError, match="2 features"):
        MultiTaskDataset(tasks=(t,), feature_names=("x", "y", "z"))
    # Arrays are exposed read-only.
    ds = MultiTaskDataset(tasks=(t,), feature_names=("x", "y"))
    with pytest.raises(ValueError):
        ds.tasks[0].X[0, 0] = 1.0


def _chunked_panel(seed, chunk, *, newline):
    """A CSV whose chunks of ``chunk`` body lines split tasks, blanks and labels awkwardly.

    The "bulk" task has far more rows than J+2 = 5 and straddles every
    chunk boundary; "pair" has two rows, fewer than J+2; "late" first
    appears in the last chunk; outcome cells on the lines either side of
    a boundary are often blank; quoted labels hold commas and quotes, and
    some cells are -0.0.
    """
    rng = np.random.default_rng(seed)
    labels = ["bulk", '"rural, north"', '"say ""hi"", east"', "pair"]
    n_lines = 4 * chunk + chunk // 2 + 1
    task_of_line = rng.choice([0, 0, 1, 2], size=n_lines)
    task_of_line[rng.choice(n_lines - chunk, size=2, replace=False)] = 3
    lines = ["site,f0,f1,f2,outcome"]
    for i, task in enumerate(task_of_line):
        label = "late" if i >= n_lines - 3 else labels[task]
        values = rng.normal(size=4) * 10.0 ** rng.integers(-2, 3, size=4)
        values[rng.random(4) < 0.1] = -0.0
        cells = [repr(float(v)) for v in values]
        at_boundary = i % chunk in (0, chunk - 1)
        if task in (0, 1) and at_boundary and rng.random() < 0.5:
            cells[-1] = ""
        lines.append(",".join([label, *cells]))
    return newline.join(lines) + newline


def _gram(r):
    return r.T @ r


@pytest.mark.parametrize("chunk", [4, 7, None], ids=["chunk4", "chunk7", "default"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("seed", [0, 1])
def test_streamed_factors_match_loaded_rows(tmp_path, monkeypatch, seed, newline, chunk):
    # The panel has 5 columns; by default a chunk is as many lines as the cell budget allows.
    if chunk is None:
        chunk = dataset._CHUNK_CELLS // 5
    else:
        _chunk_lines(monkeypatch, chunk, 5)
    text = _chunked_panel(seed, chunk, newline=newline)
    path = tmp_path / "panel.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _chunked_factors(monkeypatch, path, "site", "outcome") is not None  # no fallback
    streamed = load_factors(path, "site", "outcome")
    ds = _rows(path, "site", "outcome")
    ref = factors(ds)
    assert streamed.task_labels == ref.task_labels
    assert streamed.task_labels[-1] == "late"
    assert {"rural, north", 'say "hi", east'} <= set(streamed.task_labels)
    assert streamed.feature_names == ref.feature_names
    assert streamed.counts == ref.counts == tuple(t.n for t in ds.tasks)
    assert streamed.counts[streamed.task_labels.index("pair")] == 2
    assert streamed.dropped_rows == ref.dropped_rows == ds.dropped_rows > 0
    np.testing.assert_array_equal(streamed.feature_min, ref.feature_min)
    np.testing.assert_array_equal(streamed.feature_max, ref.feature_max)
    assert (streamed.outcome_min, streamed.outcome_max) == (ref.outcome_min, ref.outcome_max)
    for a, b in zip(streamed.factors, ref.factors):
        assert a.shape[0] <= 5 and a.shape == b.shape
        scale = np.abs(_gram(b)).max()
        np.testing.assert_allclose(_gram(a), _gram(b), rtol=0, atol=1e-12 * scale)


def _fallback_cases():
    header = "task,b,y\n"
    # With 3-line chunks, the second chunk starts at body line 4.
    return [
        ("ragged-row", header + "x,1,3\nx,2,4\nx,1,3\nx,1\n"),
        ("blank-feature", header + "x,1,3\nx,2,4\nx,1,3\nx, ,4\n"),
        ("inf-feature", header + "x,1,3\nx,2,4\nx,1,3\nx,inf,4\n"),
        ("nan-outcome", header + "x,1,3\nx,2,4\nx,1,3\nx,2,nan\n"),
        ("blank-line", header + "x,1,3\nx,2,4\nx,1,3\n\nx,2,4\n"),
        ("task-all-dropped", header + "a,1,2\nq,1,\nq,2,\na,3,4\nq,5,\n"),
        ("quoted-newline", header + 'x,1,3\nx,"2\n5",4\nx,1,3\n'),
        # The record has 5 fields. Cut after '"3', each half has 3 and would parse.
        ("quoted-newline-at-boundary", header + 'x,1,3\nx,2,4\nx,1,"3\n5",2,7\nx,1,3\n'),
        ("no-data-rows", header),
    ]


@pytest.mark.parametrize("name, text", _fallback_cases(), ids=[c[0] for c in _fallback_cases()])
def test_streamed_fallback_keeps_load_csv_errors(tmp_path, monkeypatch, name, text):
    _chunk_lines(monkeypatch, 3, 3)
    path = _write(tmp_path, text)
    with pytest.raises(Exception) as expected:
        load_csv(path, "task", "y")
    if name in ("task-all-dropped", "no-data-rows"):
        # Checked once the last chunk is in, so the loadtxt chunks raise it too.
        with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
            _chunked_factors(monkeypatch, path, "task", "y")
    else:
        assert _chunked_factors(monkeypatch, path, "task", "y") is None
    with pytest.raises(type(expected.value)) as got:
        load_factors(path, "task", "y")
    assert str(got.value) == str(expected.value)
    # Row numbers carry on from the chunks np.loadtxt read.
    with pytest.raises(type(expected.value)) as cells:
        _cell_rows(monkeypatch, path, "task", "y")
    assert str(cells.value) == str(expected.value)


@pytest.mark.parametrize("line", [2, 3], ids=["inside-chunk", "across-boundary"])
def test_quoted_newline_in_label_falls_back(tmp_path, monkeypatch, line):
    # A quoted label may hold a newline; wherever it falls, the file goes to
    # the per-cell reader, which reads it.
    _chunk_lines(monkeypatch, line, 3)
    body = ["a,1,2", "a,2,3", "a,3,5"]
    body.insert(line - 1, '"a\nb",4,1')
    path = _write(tmp_path, "task,f,y\n" + "\n".join(body) + "\n")
    assert _chunked_factors(monkeypatch, path, "task", "y") is None
    loaded = load_factors(path, "task", "y")
    assert loaded.task_labels == ("a", "a\nb")
    assert loaded.counts == (3, 1)


def test_a_chunk_handed_to_the_cell_reader_adds_no_label(tmp_path, monkeypatch):
    # The label column comes last, so the chunk's last line, cut inside the
    # quoted label, has all three fields and parses; its label "b\n" is no
    # label of the file, which the cell reader reads whole as "b\nc".
    _chunk_lines(monkeypatch, 2, 3)
    path = _write(tmp_path, 'f,y,task\n1,2,a\n1,2,"b\nc"\n3,4,a\n')
    assert _chunked_factors(monkeypatch, path, "task", "y") is None
    loaded = load_factors(path, "task", "y")
    assert loaded.task_labels == ("a", "b\nc")
    assert loaded.counts == (2, 1)


def test_streamed_reader_accepts_what_float_accepts(tmp_path):
    path = _write(tmp_path, "task,b,y\nx,1_0,2\nx,3,4_0\n")
    streamed = load_factors(path, "task", "y")
    ref = factors(_rows(path, "task", "y"))
    np.testing.assert_array_equal(streamed.feature_max, [10.0])
    assert streamed.outcome_max == 40.0
    np.testing.assert_allclose(_gram(streamed.factors[0]), _gram(ref.factors[0]), rtol=1e-15)


def test_only_the_chunk_that_fails_loadtxt_is_read_cell_by_cell(tmp_path, monkeypatch):
    # Three 4-line chunks. The first holds a cell only float() reads, the
    # second a dropped row and the third a new label: the cell reader takes
    # the first chunk alone, and np.loadtxt reads the other two.
    _chunk_lines(monkeypatch, 4, 3)
    body = [f"t{i % 2},{i}.25,{-3 * i}" for i in range(12)]
    body[0] = "t0,1_0,7"
    body[5] = "t1,5.5,"
    body[10] = "t2,0.125,9"
    path = _write(tmp_path, "task,f,y\n" + "\n".join(body) + "\n")
    calls = []
    parse_lines = dataset._parse_lines
    monkeypatch.setattr(dataset, "_parse_lines", lambda *a: calls.append(a) or parse_lines(*a))
    mixed = _rows(path, "task", "y")
    assert len(calls) == 3
    cells = _cell_rows(monkeypatch, path, "task", "y")
    assert mixed.task_labels == cells.task_labels == ("t0", "t1", "t2")
    assert mixed.dropped_rows == cells.dropped_rows == 1
    for a, b in zip(mixed.tasks, cells.tasks):
        assert a.X.tobytes() == b.X.tobytes()
        assert a.Y.tobytes() == b.Y.tobytes()
    assert mixed.tasks[0].X[0, 0] == 10.0
    factors_read = load_factors(path, "task", "y")
    assert len(calls) == 6
    assert factors_read.counts == (5, 5, 1)


@pytest.mark.parametrize("chunk", [8, 512, None], ids=["chunk8", "chunk512", "default"])
def test_interleaved_and_grouped_rows_give_the_same_factors(tmp_path, monkeypatch, chunk):
    # Three tasks whose rows interleave, so a chunk holds fewer than J+2 = 7
    # rows of a task (at 8 lines), about 170 (at 512) or, in the default
    # 2,340-line chunk of 7 columns, all of its about 500; and the same rows
    # grouped by task. R is unique only up to row signs: compare R^T R.
    if chunk is not None:
        _chunk_lines(monkeypatch, chunk, 7)
    rng = np.random.default_rng(21)
    n_rows = 1500
    task = rng.integers(3, size=n_rows)
    x = rng.normal(size=(n_rows, 5)) * 10.0 ** rng.integers(-2, 3, size=5)
    y = x @ rng.normal(size=5) + rng.normal(size=n_rows)
    table = np.column_stack([x, y]).tolist()
    lines = [",".join([f"t{t}", *map(repr, row)]) for t, row in zip(task, table)]
    header = "task," + ",".join(f"f{j}" for j in range(5)) + ",y\n"
    interleaved = _write(tmp_path, header + "\n".join(lines) + "\n", name="interleaved.csv")
    grouped_lines = [lines[i] for i in np.argsort(task, kind="stable")]
    grouped = _write(tmp_path, header + "\n".join(grouped_lines) + "\n", name="grouped.csv")

    folded = []
    fold = dataset._fold
    monkeypatch.setattr(dataset, "_fold", lambda r, *rows: folded.append(rows) or fold(r, *rows))
    a = load_factors(interleaved, "task", "y")
    # Rows wait until J+2 of a task are in; only a task's last fold may take fewer.
    sizes = [sum(block.shape[0] for block in rows) for rows in folded]
    assert sum(sizes) == n_rows
    assert sum(size < 7 for size in sizes) <= 3
    b = load_factors(grouped, "task", "y")
    assert sorted(a.task_labels) == list(b.task_labels) == ["t0", "t1", "t2"]
    for label, r_b, n_b in zip(b.task_labels, b.factors, b.counts):
        r_a = a.factors[a.task_labels.index(label)]
        assert a.counts[a.task_labels.index(label)] == n_b
        gram_a, gram_b = _gram(r_a), _gram(r_b)
        np.testing.assert_allclose(gram_a, gram_b, rtol=0, atol=1e-12 * np.abs(gram_b).max())
    np.testing.assert_array_equal(a.feature_min, b.feature_min)
    np.testing.assert_array_equal(a.feature_max, b.feature_max)


@pytest.mark.parametrize("scale_outcome", [False, True])
def test_factor_scaling_matches_minmax_scale(scale_outcome):
    rng = np.random.default_rng(11)
    x = rng.uniform(2.0, 9.0, size=(30, 3))
    x[:, 1] = 4.0  # a constant column maps to 0
    ds = _toy(x, labels=("a", "b"), outcomes=50.0 + 20.0 * rng.random(30))
    scaled_rows, params = oracles.minmax_scale(ds, scale_outcome=scale_outcome)
    scaled, factor_params = factors(ds).minmax_scaled(scale_outcome=scale_outcome)
    ref = factors(scaled_rows)
    for name in ("feature_min", "feature_max"):
        np.testing.assert_array_equal(getattr(factor_params, name), getattr(params, name))
    assert (factor_params.outcome_min, factor_params.outcome_max) == (
        params.outcome_min,
        params.outcome_max,
    )
    np.testing.assert_array_equal(scaled.feature_min, ref.feature_min)
    np.testing.assert_array_equal(scaled.feature_max, ref.feature_max)
    assert scaled.outcome_min == pytest.approx(ref.outcome_min, abs=1e-15)
    assert scaled.outcome_max == pytest.approx(ref.outcome_max, abs=1e-15)
    for a, b in zip(scaled.factors, ref.factors):
        np.testing.assert_allclose(_gram(a), _gram(b), rtol=0, atol=1e-12 * np.abs(_gram(b)).max())


def test_a_callers_factors_are_copied_and_new_ones_adopted():
    # A library caller's stack is copied, so changing it later changes
    # nothing; the loader's and minmax_scaled's own are kept as made.
    rng = np.random.default_rng(12)
    f = factors(_toy(rng.uniform(size=(30, 3)), labels=("a", "b"), outcomes=rng.random(30)))
    fields = {field.name: getattr(f, field.name) for field in dataclasses.fields(f)}
    mine = f.factors.copy()
    built = dataset.TaskFactors(**{**fields, "factors": mine})
    assert not np.shares_memory(built.factors, mine) and not built.factors.flags.writeable
    mine[0, 0, 0] += 1.0
    assert built == f
    made = f.factors.copy()
    adopted = dataset.TaskFactors._adopt(**{**fields, "factors": made})
    assert adopted.factors is made and not made.flags.writeable
    assert adopted == f
    with pytest.raises(ValueError, match="do not fit rows of width 5"):
        dataset.TaskFactors._adopt(**{**fields, "factors": made[:, :, :-1].copy()})
    assert not f.minmax_scaled()[0].factors.flags.writeable


def test_each_factor_is_upper_triangular_within_its_row_count():
    rng = np.random.default_rng(13)
    ds = _toy(rng.uniform(size=(3, 3)), labels=("a", "b"), outcomes=rng.random(3))
    f = factors(ds)
    assert f.factors.shape == (2, 3, 5)  # three rows per task, padded to none
    fields = {field.name: getattr(f, field.name) for field in dataclasses.fields(f)}
    below = f.factors.copy()
    below[1, 2, 0] = 1e-300
    with pytest.raises(ValueError, match="task 'b': factor does not fit 3 row"):
        dataset.TaskFactors(**{**fields, "factors": below})
    # A task of 2 rows has no nonzero third row.
    with pytest.raises(ValueError, match="task 'a': factor does not fit 2 row"):
        dataset.TaskFactors(**{**fields, "counts": (2, 3)})
    with pytest.raises(ValueError, match="one factor and one row count per task"):
        dataset.TaskFactors(**{**fields, "factors": f.factors[0]})
    taller = np.concatenate([f.factors, np.zeros((2, 3, 5))], axis=1)
    with pytest.raises(ValueError, match=r"factors of shape \(2, 6, 5\) do not fit"):
        dataset.TaskFactors(**{**fields, "factors": taller})
    # Zero padding rows past every task's count are allowed, up to J+2.
    padded = np.concatenate([f.factors, np.zeros((2, 2, 5))], axis=1)
    assert dataset.TaskFactors(**{**fields, "factors": padded}).factors.shape == (2, 5, 5)


@pytest.mark.parametrize("sizes", [(3, 40, 9), (2, 4, 1)], ids=["some-full", "all-short"])
def test_design_stacks_are_the_r_factors_of_the_fit_designs(sizes):
    # Without an intercept the design is a read-only view of the stack, of
    # at most J+1 rows; with one, each task is re-triangularized.
    rng = np.random.default_rng(14)
    xs = [rng.normal(size=(n, 5)) * 10.0 ** rng.integers(-2, 3, size=5) for n in sizes]
    ds = MultiTaskDataset(
        tasks=tuple(
            TaskData(label=f"t{i}", X=x, Y=rng.normal(size=x.shape[0])) for i, x in enumerate(xs)
        ),
        feature_names=tuple(f"f{j}" for j in range(5)),
    )
    f = factors(ds)
    height = min(max(sizes), 7)
    assert f.factors.shape == (3, height, 7)
    plain = f.design_stack(intercept=False)
    assert plain.shape == (3, min(height, 6), 6)
    assert np.shares_memory(plain, f.factors) and not plain.flags.writeable
    with_ones = f.design_stack(intercept=True)
    assert with_ones.shape == (3, height, 7) and not np.shares_memory(with_ones, f.factors)
    for task, a, b in zip(ds.tasks, plain, with_ones):
        ones = np.ones(task.n)
        for design, stacked in (([task.X, task.Y], a), ([task.X, ones, task.Y], b)):
            r = np.linalg.qr(np.column_stack(design), mode="r")
            gram, expected = stacked.T @ stacked, r.T @ r
            np.testing.assert_allclose(
                gram, expected, rtol=0, atol=1e-12 * np.abs(expected).max()
            )
            assert not np.tril(stacked, -1).any()


def _copied(ds, *, dropped_rows):
    tasks = tuple(TaskData(label=t.label, X=t.X.copy(), Y=t.Y.copy()) for t in ds.tasks)
    return MultiTaskDataset(tasks=tasks, feature_names=ds.feature_names, dropped_rows=dropped_rows)


def test_dataset_types_compare_by_value():
    ds = _split_ds(5)
    same = _copied(ds, dropped_rows=7)
    assert same == ds  # dropped_rows is not part of the value
    assert not same != ds
    assert same.tasks[1] == ds.tasks[1]
    assert ds.tasks[0] != ds.tasks[1]
    t = ds.tasks[0]
    assert t != TaskData(label=t.label, X=t.X, Y=t.Y + 1.0)
    assert t != TaskData(label="other", X=t.X, Y=t.Y)
    assert ds != MultiTaskDataset(tasks=ds.tasks[:2], feature_names=ds.feature_names)
    assert ds != MultiTaskDataset(tasks=ds.tasks, feature_names=("a", "b", "z"))
    assert ds != "not a dataset" and t != ds

    assert factors(same) == factors(ds)
    scaled, params = oracles.minmax_scale(ds, scale_outcome=True)
    assert factors(scaled) != factors(ds)
    _, params_again = factors(ds).minmax_scaled(scale_outcome=True)
    assert params_again == params
    assert params != ScalingParams(feature_min=params.feature_min, feature_max=params.feature_max)
    wider = ScalingParams(feature_min=params.feature_min, feature_max=params.feature_max + 1.0)
    assert wider != ScalingParams(feature_min=params.feature_min, feature_max=params.feature_max)


_WRITER_LABELS = ("", "a,b", 'q"t', "x\ny", "cr\r", " sp ", "é")
_WRITER_VALUES = (
    -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 0.0001, 1e16,
    9007199254740993.0, -1.5e300, 3.0, -42.0, 0.1,
)


# csv.writer leaves a lone CR unquoted under the "\n" line terminator, and
# a reader takes it for a line end; write_csv quotes it, and the panels
# below that load their output back leave it out.
_UNREADABLE_LABEL = "cr\r"


def _writer_panel(seed=0, sizes=(1, 127, 128, 129, 1000, 128, 129), labels=_WRITER_LABELS):
    """Tasks named by awkward labels, sized around the writer's block, with edge-case cells.

    Column f0 repeats the edge values, f1 is all distinct, f2 holds
    integral floats and f3 signed zeros; the outcome is all distinct.
    """
    rng = np.random.default_rng(seed)
    tasks = []
    for label, n in zip(labels, sizes):
        x = np.column_stack([
            rng.choice(_WRITER_VALUES, size=n),
            rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n),
            rng.integers(-5, 6, size=n).astype(float),
            np.where(rng.random(n) < 0.5, -0.0, 0.0),
        ])
        tasks.append(TaskData(label=label, X=x, Y=rng.normal(size=n) * 1e3))
    return MultiTaskDataset(tasks=tuple(tasks), feature_names=("f0", "f1", "f2", "f3"))


@pytest.mark.parametrize("block", [1, 7, None], ids=["block1", "block7", "default"])
@pytest.mark.parametrize("seed", [0, 1])
def test_write_csv_matches_row_writer(tmp_path, monkeypatch, seed, block):
    if block is None:
        assert dataset._WRITE_BLOCK_ROWS == 128  # the panel's task sizes straddle it
    else:
        monkeypatch.setattr(dataset, "_WRITE_BLOCK_ROWS", block)
    ds = _writer_panel(seed)
    _write_csv(ds, tmp_path / "blocks.csv", "task", "outcome")
    write_csv_rows(ds, tmp_path / "rows.csv", "task", "outcome")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def _readable_panel(seed=0, sizes=(1, 127, 128, 129, 1000, 128)):
    labels = tuple(x for x in _WRITER_LABELS if x != _UNREADABLE_LABEL)
    return _writer_panel(seed, sizes, labels)


def test_records_are_copied_back_in_blocks_of_about_a_chunks_cells(tmp_path, monkeypatch):
    # 6 columns: a block is 128 records by default, and 7 under a 42-cell
    # budget; the copied bytes are the same.
    source = tmp_path / "panel.csv"
    write_csv_rows(_readable_panel(), source, "task", "outcome")
    take = dataset.Records.take
    written, largest = [], []
    for cells in (None, 42):
        if cells is not None:
            monkeypatch.setattr(dataset, "_CHUNK_CELLS", cells)
        taken = []
        monkeypatch.setattr(
            dataset.Records, "take", lambda self, rows: taken.append(rows.size) or take(self, rows)
        )
        with tempfile.TemporaryFile() as spool:
            table = load_csv(source, "task", "outcome", spool=spool)
            write_csv(table, table.task_rows, tmp_path / "out.csv", "task", "outcome")
        written.append((tmp_path / "out.csv").read_bytes())
        largest.append(max(taken))
    assert largest == [128, 7]
    assert written[0] == written[1] == source.read_bytes()


def test_write_csv_round_trip_equals_dataset(tmp_path):
    ds = _readable_panel()
    path = tmp_path / "round.csv"
    _write_csv(ds, path, "task", "outcome")
    back = _rows(path, "task", "outcome")
    assert back == ds
    # The bits survive too, -0.0 included, which np.array_equal does not check.
    for a, b in zip(ds.tasks, back.tasks):
        assert a.X.tobytes() == b.X.tobytes() and a.Y.tobytes() == b.Y.tobytes()


def test_write_csv_rejects_colliding_columns(tmp_path):
    with pytest.raises(ValueError, match="collide"):
        _write_csv(_writer_panel(), tmp_path / "x.csv", "f1", "outcome")


@pytest.mark.parametrize("scale", [(), ("--scale-full", "--scale-outcome")], ids=["raw", "scaled"])
def test_split_writes_row_writer_bytes(tmp_path, scale):
    source = tmp_path / "panel.csv"
    # A 0.6 split of these sizes gives sides of 1, 127, 128, 129 and 128 rows, and more.
    write_csv_rows(_readable_panel(2, (2, 212, 213, 215, 1000, 320)), source, "task", "outcome")
    out = {name: tmp_path / f"{name}.csv" for name in ("train", "test")}
    argv = ["split", str(source), "--seed", "5", "--train-out", str(out["train"]),
            "--test-out", str(out["test"]), "--manifest", str(tmp_path / "m.json"), *scale]
    assert cli.main(argv) == 0
    ds = _rows(source, "task", "outcome")
    if scale:
        ds, _ = oracles.minmax_scale(ds, scale_outcome=True)
    sides = dict(zip(("train", "test"), oracles.stratified_split(ds, 0.6, seed=5)))
    for name, side in sides.items():
        expected = tmp_path / f"expected_{name}.csv"
        write_csv_rows(side, expected, "task", "outcome")
        assert out[name].read_bytes() == expected.read_bytes()


def _split_oracle(source, out, fraction, seed, scale):
    """What ``split`` writes and prints, by the per-task scale -> split -> write of the oracles."""
    ds = _rows(source, "site", "outcome")
    dropped = ds.dropped_rows
    if scale:
        ds, _ = oracles.minmax_scale(ds, scale_outcome=True)
    train, test = oracles.stratified_split(ds, fraction, seed)
    write_csv_rows(train, out / "train.csv", "site", "outcome")
    write_csv_rows(test, out / "test.csv", "site", "outcome")
    manifest = {
        "command": "split", "input": str(source), "seed": seed, "train_fraction": fraction,
        "task_column": "site", "outcome_column": "outcome", "scaled_before_split": scale,
        "scale_outcome": scale, "dropped_rows": dropped,
        "per_task": {
            full.label: {"total": full.n, "train": tr.n, "test": te.n}
            for full, tr, te in zip(ds.tasks, train.tasks, test.tasks)
        },
    }
    (out / "split.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    sides = f"{out / 'train.csv'}, {out / 'test.csv'}"
    return f"split {ds.n_rows} rows across {ds.n_tasks} tasks -> {sides}\n"


def _assert_split_matches_oracle(tmp_path, capsys, text, *, fraction=0.6, seed=3, scale=False,
                                 copies=False):
    """``split`` prints and writes what the oracles do.

    With ``copies`` each side is held to :func:`_copied_sides` (every
    record as the cell reader reads it), and its doubles to the oracles'.
    """
    source = tmp_path / "panel.csv"
    source.write_bytes(text.encode("utf-8"))
    got, expected = tmp_path / "cli", tmp_path / "oracle"
    got.mkdir()
    expected.mkdir()
    argv = ["split", str(source), "--task-column", "site", "--train-fraction", str(fraction),
            "--seed", str(seed), "--train-out", str(got / "train.csv"),
            "--test-out", str(got / "test.csv"), "--manifest", str(got / "split.json")]
    capsys.readouterr()
    assert cli.main(argv + (["--scale-full", "--scale-outcome"] if scale else [])) == 0
    printed = capsys.readouterr().out
    assert printed == _split_oracle(source, expected, fraction, seed, scale).replace(
        str(expected), str(got))
    assert (got / "split.json").read_bytes() == (expected / "split.json").read_bytes()
    if not copies:
        for name in ("train.csv", "test.csv"):
            assert (got / name).read_bytes() == (expected / name).read_bytes(), name
        return
    with open(source, encoding="utf-8-sig", newline="") as fh:
        header, *body = csv.reader(fh)
    records = [(fields[0], oracles.csv_record(fields)) for fields in body if fields[-1].strip()]
    copied = _copied_sides(oracles.csv_record(header), records, fraction, seed)
    for name, side in zip(("train.csv", "test.csv"), copied):
        assert (got / name).read_bytes().decode("utf-8") == side, name
        _assert_same_bits(_rows(got / name, "site", "outcome"),
                          _rows(expected / name, "site", "outcome"))


def _copied_sides(header, records, fraction, seed):
    """The train and test text of a split that copies each kept record's text.

    ``records`` holds the (label, text) of each kept record in file order;
    each task's records are shuffled and cut as oracles.stratified_split
    shuffles and cuts its rows.
    """
    texts = {}
    for label, text in records:
        texts.setdefault(label, []).append(text)
    places = MultiTaskDataset(
        tasks=tuple(
            TaskData(label, X=np.arange(len(rows), dtype=float)[:, None], Y=np.zeros(len(rows)))
            for label, rows in texts.items()
        ),
        feature_names=("place",),
    )
    return tuple(
        header + "".join(texts[task.label][int(i)] for task in side.tasks for i in task.X[:, 0])
        for side in oracles.stratified_split(places, fraction, seed)
    )


def _assert_same_bits(got, expected):
    """Two datasets hold the same labels, names and doubles, bit for bit (signed zeros too)."""
    assert got.task_labels == expected.task_labels
    assert got.feature_names == expected.feature_names
    for a, b in zip(got.tasks, expected.tasks):
        assert a.X.tobytes() == b.X.tobytes() and a.Y.tobytes() == b.Y.tobytes(), a.label


def _float_repr(value):
    return repr(float(value))


def _grouped(text, newline):
    """The same panel with its body lines sorted by label, so each task's rows are contiguous."""
    header, *body = text.rstrip(newline).split(newline)
    return newline.join([header, *sorted(body, key=lambda line: line.rsplit(",", 4)[0])]) + newline


@pytest.mark.parametrize("scale", [False, True], ids=["raw", "scaled"])
@pytest.mark.parametrize("chunk", [1, 7, 512])
@pytest.mark.parametrize("layout", ["interleaved", "grouped"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_split_matches_library_path(tmp_path, monkeypatch, capsys, seed, newline, layout, chunk,
                                    scale):
    _chunk_lines(monkeypatch, chunk, 5)
    text = _random_panel(seed, newline=newline, final_newline=True, cell=_float_repr)
    if layout == "grouped":
        text = _grouped(text, newline)
    _assert_split_matches_oracle(tmp_path, capsys, text, seed=seed, scale=scale)


@pytest.mark.parametrize("scale", [False, True], ids=["raw", "scaled"])
@pytest.mark.parametrize("chunk", [1, 7, 512])
def test_split_of_chunked_panel_matches_library_path(tmp_path, monkeypatch, capsys, chunk, scale):
    # "pair" has two rows, which a 0.9 split clamps to one each side.
    _chunk_lines(monkeypatch, chunk, 5)
    text = _chunked_panel(4, 7, newline="\n")
    _assert_split_matches_oracle(tmp_path, capsys, text, fraction=0.9, scale=scale)


@pytest.mark.parametrize("scale", [False, True], ids=["raw", "scaled"])
@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace("south,", '"cr\rsouth",'),
        lambda text: text.replace("south,", '"line\nsouth",'),
        lambda text: text + "\nsouth,1_0,2.5,-0.0,7.0",
    ],
    ids=["lone-cr-label", "quoted-newline-label", "underscore-cell"],
)
def test_split_through_cell_reader_matches_library_path(tmp_path, monkeypatch, capsys, edit,
                                                        scale):
    text = edit(_random_panel(0, newline="\n", final_newline=False, cell=_float_repr))
    source = _write(tmp_path, text, name="edited.csv")
    # The cell reader reads it.
    assert _chunked_rows(monkeypatch, source, "site", "outcome") is None
    if scale:
        _assert_split_matches_oracle(tmp_path, capsys, text, scale=scale)
        return
    # Unscaled, split copies each record as the cell reader read it, so a
    # 1_0 cell stays 1_0; each side still loads to the repr oracle's doubles.
    _assert_split_matches_oracle(tmp_path, capsys, text, copies=True)


def _copy_panel(seed):
    """A panel and its records: (file text, [(label, output line or None if dropped)]).

    Cells are %.3f text, with -0.0, 5e-324 and 1e16 among them; records
    end in CRLF after a BOM, the last in nothing; some outcomes are
    blank. The cell reader must read three records: two whose quoted
    label holds a lone CR, kept quoted, and one with a 1_0 cell, whose
    needlessly quoted label is written back unquoted.
    """
    rng = np.random.default_rng(seed)
    labels = {'"rural, north"': "rural, north", "south": "south", "east": "east"}
    records = []
    for _ in range(30):
        label = list(labels)[rng.integers(len(labels))]
        values = rng.normal(size=3) * 10.0 ** rng.integers(-2, 3, size=3)
        values[rng.random(3) < 0.1] = -0.0
        cells = [f"{v:.3f}" for v in values]
        if rng.random() < 0.15:
            cells[-1] = rng.choice(["", " "])
        records.append((label, ",".join([label, *cells])))
    special = [
        ("south", "south,-0.0,5e-324,1e16"),
        ("east", "east,1e16,-0.0,5e-324"),
        ('"cr\rsouth"', '"cr\rsouth",0.500,-0.000,1.250'),
        ('"cr\rsouth"', '"cr\rsouth",1.500,2.000,-0.0'),
        ('"south"', '"south",1_0,0.125,3.000'),
    ]
    for record in special:
        records.insert(rng.integers(len(records)), record)
    records.append(("east", "east,0.250,0.500,0.750"))
    text = "\ufeffsite,f0,f1,outcome\r\n" + "\r\n".join(line for _, line in records)
    parsed = []
    for label, line in records:
        label = labels.get(label, label.strip('"'))
        if not line.rsplit(",", 1)[1].strip():
            parsed.append((label, None))
        else:
            parsed.append((label, line.replace('"south",1_0', "south,1_0") + "\n"))
    return text, parsed


@pytest.mark.parametrize("chunk", [1, 7, 512])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_split_copies_each_kept_record(tmp_path, monkeypatch, seed, chunk):
    _chunk_lines(monkeypatch, chunk, 4)
    text, records = _copy_panel(seed)
    source = tmp_path / "panel.csv"
    source.write_bytes(text.encode("utf-8"))
    sides = [tmp_path / "train.csv", tmp_path / "test.csv"]
    argv = ["split", str(source), "--task-column", "site", "--seed", str(seed),
            "--train-out", str(sides[0]), "--test-out", str(sides[1]),
            "--manifest", str(tmp_path / "split.json")]
    assert cli.main(argv) == 0
    # Each kept record's own text, its line end made "\n"; the header without the BOM.
    kept = [(label, line) for label, line in records if line is not None]
    expected = _copied_sides("site,f0,f1,outcome\n", kept, 0.6, seed)
    for path, side in zip(sides, expected):
        assert path.read_bytes().decode("utf-8") == side
    # Each side loads to the oracle split's doubles, bit for bit.
    oracle = oracles.stratified_split(_rows(source, "site", "outcome"), 0.6, seed)
    for path, side in zip(sides, oracle):
        _assert_same_bits(_rows(path, "site", "outcome"), side)
    # train fits the same model to the copied side as to the library's side of doubles.
    table = load_csv(source, "site", "outcome")
    library = tmp_path / "library.csv"
    write_csv(table, stratified_split(table, 0.6, seed)[0], library, "site", "outcome")
    models = [tmp_path / "copied.json", tmp_path / "library.json"]
    for path, model in zip((sides[0], library), models):
        argv = ["train", str(path), "--task-column", "site", "--model", "mtl", "--out", str(model)]
        assert cli.main(argv) == 0
    assert models[0].read_bytes() == models[1].read_bytes()


@pytest.mark.parametrize("scale", [False, True], ids=["raw", "scaled"])
def test_split_scaling_keeps_the_sign_of_a_zero_minimum(tmp_path, capsys, scale):
    # f0 and the outcome have minimum 0 and hold both zeros. The last zero
    # is +0.0 in file order but -0.0 with the rows stacked task by task, as
    # minmax_scale stacks them, and x - min keeps the sign of -0.0 only
    # when min is +0.0.
    text = "site,f0,f1,outcome\na,1.0,2.0,1.0\nb,-0.0,3.0,-0.0\na,0.0,4.0,0.0\nb,1.0,5.0,1.0\n"
    _assert_split_matches_oracle(tmp_path, capsys, text, scale=scale)


@pytest.mark.parametrize(
    "text, fraction, error",
    [
        ("site,f,outcome\na,1,2\na,2,3\nb,3,4\nb,4,\n", 0.6,
         "task 'b' has 1 row(s); need at least 2 to split"),
        ("site,f,outcome\na,1,2\na,2,3\n", 1.0, "train_fraction must be in (0, 1), got 1.0"),
    ],
    ids=["one-row-task", "fraction"],
)
def test_split_errors_keep_their_text(tmp_path, capsys, text, fraction, error):
    source = _write(tmp_path, text)
    with pytest.raises((DegenerateTaskError, ValueError), match=r"^" + re.escape(error) + "$"):
        stratified_split(load_csv(source, "site", "outcome"), fraction, seed=0)
    argv = ["split", str(source), "--task-column", "site", "--train-fraction", str(fraction),
            "--train-out", str(tmp_path / "tr.csv"), "--test-out", str(tmp_path / "te.csv"),
            "--manifest", str(tmp_path / "m.json")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


@pytest.mark.parametrize("scale_outcome", [False, True])
def test_table_scaling_matches_minmax_scale(tmp_path, scale_outcome):
    source = _write(tmp_path, _chunked_panel(1, 16, newline="\n"))
    table = load_csv(source, "site", "outcome")
    params = minmax_scale(table, scale_outcome=scale_outcome)
    expected, expected_params = oracles.minmax_scale(_rows(source, "site", "outcome"),
                                                     scale_outcome=scale_outcome)
    assert params == expected_params
    for a, b in zip(MultiTaskDataset.from_table(table).tasks, expected.tasks):
        assert a.X.tobytes() == b.X.tobytes() and a.Y.tobytes() == b.Y.tobytes()


def test_load_csv_opens_its_input_once(tmp_path, monkeypatch):
    path = _write(tmp_path, _chunked_panel(0, 7, newline="\n"))
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(dataset, "open", counting_open, raising=False)
    load_csv(path, "site", "outcome")
    assert opened == [path]


@pytest.mark.parametrize("final_newline", [True, False])
def test_split_bytes_do_not_depend_on_line_endings(tmp_path, final_newline):
    sides = {}
    for name, newline in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        source = tmp_path / f"{name}.csv"
        text = _random_panel(2, newline=newline, final_newline=final_newline, cell=_float_repr)
        source.write_bytes(text.encode("utf-8"))
        out = {side: tmp_path / f"{name}_{side}.csv" for side in ("train", "test")}
        argv = ["split", str(source), "--task-column", "site", "--train-out", str(out["train"]),
                "--test-out", str(out["test"]), "--manifest", str(tmp_path / f"{name}.json")]
        assert cli.main(argv) == 0
        sides[name] = [path.read_bytes() for path in out.values()]
    assert sides["crlf"] == sides["lf"]
    assert sides["cr"] == sides["lf"]
