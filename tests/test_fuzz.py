"""A seeded fuzz of model files and config files through the commands that read them.

Each slice draws from stdlib ``random`` with a fixed seed and runs the
commands in process.

Saved mtl, individual-stl and cmtl models are mutated at random: a value
swapped for one of another type, a key or list item deleted, a value
nested one level deeper or one shallower, bools, numbers that overflow a
double (the literal ``1e400``, an integer of 400 digits) and finite
numbers near the largest or the smallest double. Each mutated file goes
through ``evaluate``, ``riskfactors`` and ``clusters``.

A config file that sets every ``split`` and ``train`` option is mutated at
random: a key set, in either spelling, to any option's choice, to empty or
bool text, or to a number past or near the ends of a double; a line
deleted, repeated or broken; rho1 and rho2 set together to a pair whose
coupling overflows. Each mutated file goes through ``split`` and through
``train`` for every model and with no model named.

A training panel is mutated at random, cell by cell and byte by byte: a
cell set to a number that overflows or nearly overflows a double, to text
that ``float()`` does or does not read, or emptied; a byte inserted,
deleted or replaced, among them field and line breaks, quotes and bytes
that are not UTF-8. Each mutated panel goes through ``split``, through
``train`` for mtl, cmtl, individual ridge STL and global lasso STL, and
through ``evaluate`` of every model that trained. There the numbers of
each JSON file and of each CSV column that holds numbers are parsed and
checked, since a task label may read ``nan``.

Each command must exit 0 or 2, print nothing on stderr but one ``error:``
line when it fails (or, after a train, the iteration-cap warning), and print
or write no number that is not finite. Any warning fails the test.

Two tests after the slices pin outcomes the panel slice met on the same
panel: an outcome standard deviation whose squares overflow, and an
outcome range whose inverted scale cannot hold a prediction.
"""

import csv
import json
import math
import random
import re
import time

import numpy as np
import pytest

from taskreg import cli

_SEED = 20
_CASES_PER_MODEL = 60
_BUDGET_S = 10.0

# Stand-ins for a value of another type. No string holds "nan" or "inf".
_OTHERS = ["x", "", "0.5", 0, 1, -3, 0.5, None, [], {}, [1, 2], ["a"], {"a": 1}, [[0.0]]]
# json.dumps writes each of these strings; the file then holds the bare literal.
_LITERALS = {"<+1e400>": "1e400", "<-1e400>": "-1e400"}
_EXTREMES = [1e308, -1e308, 1.7976931348623157e308, 5e-324, 10**400, -(10**400), *_LITERALS]
_NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")
# What train prints on stderr when a fit stops at its --max-iters cap.
_CAP_WARNING = re.compile(
    r"warning: (the solver|\d+ of \d+ fits) stopped at the iteration cap "
    r"\(--max-iters \d+\) before converging; raise --max-iters or --tol\n"
)


def _write_panel(path, n_tasks=3, n_rows=20, n_features=5, seed=3):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n_tasks, n_features))
    lines = ["task," + ",".join(f"f{j}" for j in range(n_features)) + ",outcome"]
    for t in range(n_tasks):
        x = rng.uniform(size=(n_rows, n_features))
        y = x @ w[t] + 0.05 * rng.normal(size=n_rows)
        for i in range(n_rows):
            lines.append(",".join([f"task{t}", *map(repr, map(float, [*x[i], y[i]]))]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The test side of a split panel and the mtl, individual-stl and cmtl models trained on it."""
    root = tmp_path_factory.mktemp("fuzz")
    _write_panel(root / "panel.csv")
    train, test = root / "train.csv", root / "test.csv"
    assert cli.main(["split", str(root / "panel.csv"), "--seed", "1", "--train-out", str(train),
                     "--test-out", str(test), "--manifest", str(root / "split.json")]) == 0
    options = {
        "mtl": ["--model", "mtl", "--scale-outcome"],
        "stl": ["--model", "stl", "--setting", "individual", "--penalty", "lasso",
                "--lambda", "0.05"],
        "cmtl": ["--model", "cmtl", "--k", "2", "--max-iters", "300"],
    }
    models = {}
    for kind, extra in options.items():
        path = root / f"{kind}.json"
        assert cli.main(["train", str(train), *extra, "--out", str(path)]) == 0, kind
        models[kind] = json.loads(path.read_text())
    return root, test, models


def _nodes(value, path=()):
    """Every (path, value) below ``value``, the root left out."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield path + (key,), item
        if isinstance(item, (dict, list)):
            yield from _nodes(item, path + (key,))


def _mutate(data, rng):
    """Apply one random change to ``data`` in place."""
    path, value = rng.choice(list(_nodes(data)))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    kind = rng.choice(["swap", "delete", "nest", "unnest", "bool", "extreme", "extreme"])
    if kind == "delete":
        del parent[key]
    elif kind == "nest":
        parent[key] = [value]
    elif kind == "unnest" and isinstance(value, list) and value:
        parent[key] = value[0]
    elif kind == "unnest" and isinstance(value, dict) and value:
        parent[key] = next(iter(value.values()))
    elif kind == "bool":
        parent[key] = rng.choice([True, False])
    elif kind == "extreme":
        parent[key] = rng.choice(_EXTREMES)
    else:
        parent[key] = rng.choice([other for other in _OTHERS if other != value])


def _no_non_finite_text(path):
    text = path.read_text(encoding="utf-8")
    assert not _NON_FINITE.search(text), (path.name, text)


def _run(capsys, argv, outputs, check=_no_non_finite_text):
    """Run one command and hold it to the contract; ``check`` reads each output it wrote."""
    for path in outputs:
        path.unlink(missing_ok=True)
    code = cli.main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    assert code in (0, 2), (argv, code, captured)
    if code == 0:
        assert captured.err == "" or _CAP_WARNING.fullmatch(captured.err), (argv, captured.err)
    else:
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert not _NON_FINITE.search(captured.out), captured.out
    for path in outputs:
        if path.exists():
            check(path)


@pytest.mark.filterwarnings("error")
def test_mutated_model_files_end_in_a_result_or_an_error(saved, capsys):
    root, test, models = saved
    rng = random.Random(_SEED)
    mae, rf_json, rf_csv, clusters, matrix = (
        root / name for name in ("mae.csv", "rf.json", "rf.csv", "clusters.csv", "cmat.csv")
    )
    start = time.perf_counter()
    for kind, original in models.items():
        for case in range(_CASES_PER_MODEL):
            data = json.loads(json.dumps(original))
            for _ in range(rng.choice([1, 1, 2])):
                if isinstance(data, (dict, list)) and data:
                    _mutate(data, rng)
            text = json.dumps(data)
            for placeholder, literal in _LITERALS.items():
                text = text.replace(f'"{placeholder}"', literal)
            model = root / "m.json"
            model.write_text(text, encoding="utf-8")
            _run(capsys, ["evaluate", test, "--model", model, "--out", mae], [mae])
            _run(capsys, ["riskfactors", "--model", model, "--levels", "task,population",
                          "--out-json", rf_json, "--out-csv", rf_csv], [rf_json, rf_csv])
            _run(capsys, ["clusters", "--model", model, "--out", clusters,
                          "--out-matrix", matrix], [clusters, matrix])
    assert time.perf_counter() - start < _BUDGET_S


_CONFIG_SEED = 30
_CONFIGS = 60
_CONFIG_BUDGET_S = 10.0

# A config file that every command and model reads without error.
_BASE_CONFIG = {
    "train_fraction": "0.6", "seed": "1", "lambda": "0.05", "rho1": "0.1", "rho2": "0.1",
    "k": "2", "setting": "individual", "penalty": "lasso", "kmeans_seed": "0",
    "max_iters": "300", "tol": "1e-6", "momentum": "delayed",
}
# Every key of split and train in both spellings, lam beside lambda. The
# outputs are given as flags, which beat the file, so a mutated value never
# names a path the test would write to.
_KEYS = sorted(
    {spelling for command in ("split", "train") for name, _, _ in cli._OPTIONS[command]
     for spelling in (name, name.replace("_", "-"))} | {"lam", "bogus"}
)
_CHOICES = sorted(
    {choice for command in ("split", "train", "evaluate") for _, kind, _ in cli._OPTIONS[command]
     if isinstance(kind, tuple) for choice in kind}
)
_VALUES = [
    *_CHOICES, "", "true", "false", "yes", "off", "True", "0", "1", "-1", "2", "0.5", "1.5",
    "1e308", "-1e308", "1e-320", "1e400", "-1e400", str(10**400), str(-(10**400)),
    "nan", "inf", "0x10", "1_0", " 1 ", "a,b",
]
# Finite rho pairs whose eta = rho2/rho1 or coupling rho1*eta*(1+eta) overflows.
_RHO_PAIRS = [
    ("1e-320", "1"), ("5e-324", "0.5"), ("1e-310", "0.1"), ("1e200", "1e300"), ("1", "1e308"),
    ("1e308", "1e308"),
]


def _mutate_config(lines, rng):
    """Apply one random change to ``lines``, a config file's lines, in place."""
    kind = rng.choice(["set", "set", "set", "set", "delete", "repeat", "break", "rho"])
    if kind == "set":
        lines.append(f"{rng.choice(_KEYS)} = {rng.choice(_VALUES)}")
    elif kind == "delete":
        del lines[rng.randrange(len(lines))]
    elif kind == "repeat":
        lines.append(rng.choice(lines))
    elif kind == "break":
        lines.append(rng.choice(["no equals sign", "= 1", "seed ==1", "# seed = -1", "   "]))
    else:
        rho1, rho2 = rng.choice(_RHO_PAIRS)
        lines += [f"rho1 = {rho1}", f"rho2 = {rho2}"]


@pytest.mark.filterwarnings("error")
def test_mutated_config_files_end_in_a_result_or_an_error(saved, capsys):
    root, _, _ = saved
    rng = random.Random(_CONFIG_SEED)
    panel, train = root / "panel.csv", root / "train.csv"
    outputs = [root / name for name in ("c_train.csv", "c_test.csv", "c_split.json", "c.json")]
    config = root / "fuzz.cfg"
    start = time.perf_counter()
    for case in range(_CONFIGS):
        lines = [f"{key} = {value}" for key, value in _BASE_CONFIG.items()]
        for _ in range(rng.choice([1, 2, 3])):
            _mutate_config(lines, rng)
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _run(capsys, ["split", panel, "--config", config, "--train-out", outputs[0],
                      "--test-out", outputs[1], "--manifest", outputs[2]], outputs[:3])
        for model in (["--model", "mtl"], ["--model", "cmtl"], ["--model", "stl"], []):
            _run(capsys, ["train", train, *model, "--config", config, "--out", outputs[3]],
                 outputs[3:])
    assert time.perf_counter() - start < _CONFIG_BUDGET_S


_PANEL_SEED = 40
_PANELS = 150
_PANEL_BUDGET_S = 10.0

# A cell's new text: a number past, near or at the ends of a double, or
# other text, which float() may or may not read. Two cells in three are numbers.
_NUMBERS = [
    "1e20", "1e154", "-1e154", "1e200", "1e308", "-1e308", "1.7976931348623157e308", "1e400",
    "-1e400", "5e-324", "1e-320", "0", "-0", "nan", "inf", "-Infinity",
]
_TEXTS = ["", " ", "1_0", " 1 ", "0x10", "1e", "x", '"1"', '"a,b"', "task0", "task2", "1,2"]
# A byte inserted or swapped in: field and line breaks, quotes, and bytes that are not UTF-8.
_BYTES = [b",", b"\n", b"\r", b'"', b" ", b"0", b"9", b".", b"e", b"-", b"\x00", b"\xff", b"\xc3"]
# Every train the slice runs, by model file name.
_TRAINS = {
    "mtl": ["--model", "mtl"],
    "cmtl": ["--model", "cmtl", "--k", "2"],
    "ridge": ["--model", "stl", "--penalty", "ridge", "--lambda", "0.1"],
    "lasso": ["--model", "stl", "--setting", "global", "--penalty", "lasso", "--lambda", "0.05"],
}


def _mutate_panel(data: bytes, rng) -> bytes:
    """``data``, a panel file's bytes, with one random change to a cell or a byte."""
    if rng.random() < 0.6:
        lines = data.split(b"\n")
        row = rng.randrange(len(lines))
        cells = lines[row].split(b",")
        text = rng.choice(_NUMBERS if rng.random() < 2 / 3 else _TEXTS)
        cells[rng.randrange(len(cells))] = text.encode()
        lines[row] = b",".join(cells)
        return b"\n".join(lines)
    at = rng.randrange(len(data) + 1)
    kind = rng.choice(["insert", "delete", "replace"])
    keep = at + 1 if kind != "insert" else at
    return data[:at] + (b"" if kind == "delete" else rng.choice(_BYTES)) + data[keep:]


def _finite_json(value, path):
    """Check that every number in the JSON value ``value`` is finite."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            _finite_json(item, path)
    elif isinstance(value, float):
        assert math.isfinite(value), (path.name, value)


def _no_non_finite_number(path):
    """Check the numbers of a JSON file, or of every CSV column but the task labels."""
    with open(path, encoding="utf-8", newline="") as fh:
        if path.suffix == ".json":
            _finite_json(json.load(fh, parse_constant=float), path)
            return
        header, *rows = list(csv.reader(fh))
    numeric = [j for j, name in enumerate(header) if name != "task"]
    for row in rows:
        for j in numeric:
            try:
                value = float(row[j])
            except ValueError:
                continue  # text that is no number: no number to check
            assert math.isfinite(value), (path.name, row)


@pytest.mark.filterwarnings("error")
def test_mutated_panels_end_in_a_result_or_an_error(saved, capsys):
    root, _, _ = saved
    rng = random.Random(_PANEL_SEED)
    original = (root / "panel.csv").read_bytes()
    panel = root / "p.csv"
    sides = [root / name for name in ("p_train.csv", "p_test.csv", "p_split.json")]
    models = {name: root / f"p_{name}.json" for name in _TRAINS}
    mae = root / "p_mae.csv"
    start = time.perf_counter()
    for case in range(_PANELS):
        data = original
        for _ in range(rng.choice([1, 1, 2, 3])):
            data = _mutate_panel(data, rng)
        panel.write_bytes(data)
        scaling = rng.choice([[], ["--no-scale"], ["--scale-outcome"]])
        _run(capsys, ["split", panel, "--seed", "1", "--train-out", sides[0],
                      "--test-out", sides[1], "--manifest", sides[2]], sides,
             _no_non_finite_number)
        for name, options in _TRAINS.items():
            _run(capsys, ["train", panel, *options, *scaling, "--max-iters", "300",
                          "--out", models[name]], [models[name]], _no_non_finite_number)
        trained = [path for path in models.values() if path.exists()]
        if trained:
            argv = ["evaluate", panel, *(arg for path in trained for arg in ("--model", path))]
            _run(capsys, [*argv, "--out", mae], [mae], _no_non_finite_number)
    assert time.perf_counter() - start < _PANEL_BUDGET_S


def _panel_with_outcomes(path, task, values):
    """``_write_panel``'s panel with the first outcomes of ``task`` set to ``values``; its outcomes."""
    _write_panel(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [i for i, line in enumerate(lines) if line.startswith(f"task{task},")]
    for i, value in zip(rows, values):
        lines[i] = lines[i].rsplit(",", 1)[0] + f",{value}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {
        label: np.array([float(line.rsplit(",", 1)[1]) for line in lines[1:]
                         if line.startswith(f"{label},")])
        for label in ("task0", "task1", "task2")
    }


# The squared deviations of an outcome of 1e160 overflow; the standard
# deviation itself does not.
@pytest.mark.filterwarnings("error")
def test_evaluate_reports_an_outcome_sd_whose_squares_overflow(tmp_path, capsys):
    outcomes = _panel_with_outcomes(tmp_path / "p.csv", 0, ["1e160"])
    model, table = tmp_path / "m.json", tmp_path / "mae.csv"
    assert cli.main(["train", str(tmp_path / "p.csv"), "--model", "stl", "--setting",
                     "individual", "--penalty", "ridge", "--scale-outcome",
                     "--out", str(model)]) == 0
    capsys.readouterr()
    assert cli.main(["evaluate", str(tmp_path / "p.csv"), "--model", str(model),
                     "--out", str(table)]) == 0
    assert capsys.readouterr().err == ""
    _no_non_finite_number(table)
    with open(table, encoding="utf-8", newline="") as fh:
        rows = {row["task"]: row for row in csv.DictReader(fh)}
    y = outcomes["task0"]
    top = np.abs(y).max()
    assert float(rows["task0"]["outcome_sd"]) == pytest.approx(top * (y / top).std(), rel=1e-12)


# Two task1 outcomes of 1e308: the range's span is finite, but undoing the
# scale of a prediction one span past it is not.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "options",
    [["--model", "mtl"], ["--model", "stl", "--setting", "individual", "--penalty", "ridge"]],
    ids=["mtl", "stl-ridge"],
)
def test_train_refuses_an_outcome_range_that_cannot_hold_a_prediction(tmp_path, capsys, options):
    panel = tmp_path / "p.csv"
    outcomes = _panel_with_outcomes(panel, 1, ["1e308", "1e308"])
    lo = min(float(y.min()) for y in outcomes.values())
    model = tmp_path / "m.json"
    capsys.readouterr()
    code = cli.main(["train", str(panel), *options, "--scale-outcome", "--out", str(model)])
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {panel}: the outcome range [{lo!r}, 1e+308] is too wide to scale\n"
    )
    assert captured.out == ""
    assert code == 2
    assert not model.exists()
