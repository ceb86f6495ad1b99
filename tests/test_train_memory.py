"""How the peak memory of `taskreg train`, `evaluate` and `split` grows with the file,
and which modules the commands load.

`train`, `evaluate` and `split` stream the file, so their memory does
not grow with it: `train` holds per-task factors, not rows; `evaluate`
holds each test row's outcome and absolute error, not its features;
`split` holds where each kept record ends in its temporary spool file,
not the record. `split --scale-full` must hold every kept row to scale
it, and holds them once, in one table of doubles.

Each run is a child process whose peak RSS comes from ``os.wait4``. On
Linux a child's ``ru_maxrss`` starts from the peak of the process whose
memory it was started from, so the test process (which holds numpy and
pytest) starts a bare interpreter, and that interpreter starts ``train``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import taskreg
from taskreg import cli

_SRC = Path(taskreg.__file__).resolve().parents[1]

# Runs argv[1:] as a child and prints its exit code and peak RSS in KiB.
_MEASURE = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _write_panel(path, n_rows, n_features=40, n_tasks=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n_rows, n_features))
    y = x @ rng.normal(size=n_features) + 0.1 * rng.normal(size=n_rows)
    task = rng.integers(n_tasks, size=n_rows)
    header = "task," + ",".join(f"f{j}" for j in range(n_features)) + ",outcome"
    table = np.column_stack([task, x, y])
    fmt = ["t%d"] + ["%.4f"] * (n_features + 1)
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=header, comments="")


def _peak_mb(*args):
    """Peak RSS of ``taskreg <args>`` run in a grandchild process."""
    env = dict(os.environ, PYTHONPATH=str(_SRC), TASKREG_NUM_THREADS="1")
    argv = [sys.executable, "-c", _MEASURE, "-m", "taskreg.cli", *map(str, args)]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    code, peak_kib = result.stdout.split()[-2:]
    assert code == "0", result.stderr
    return int(peak_kib) / 1024.0


def _train_peak_mb(tmp_path, n_rows):
    path = tmp_path / f"rows{n_rows}.csv"
    _write_panel(path, n_rows)
    return _peak_mb("train", path, "--model", "mtl", "--out", tmp_path / "model.json")


def _evaluate_peak_mb(tmp_path, n_rows, model):
    path = tmp_path / f"test{n_rows}.csv"
    _write_panel(path, n_rows, seed=1)
    return _peak_mb("evaluate", path, "--model", model, "--out", tmp_path / "mae.csv")


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB only on Linux")
def test_train_peak_memory_does_not_grow_with_rows(tmp_path):
    small = _train_peak_mb(tmp_path, 3_000)
    large = _train_peak_mb(tmp_path, 12_000)
    assert large - small < 2.0, f"peak RSS {small:.1f} MB at 3,000 rows, {large:.1f} MB at 12,000"


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB only on Linux")
def test_train_peak_memory_holds_when_the_cell_reader_takes_over(tmp_path):
    # A cell only float() reads, in the last row, hands the last chunk alone
    # to the cell reader, which feeds the same sink.
    plain = tmp_path / "plain.csv"
    _write_panel(plain, 12_000)
    header, *body = plain.read_text(encoding="utf-8").splitlines()
    cells = body[-1].split(",")
    cells[1] = "1_0"
    underscored = tmp_path / "underscored.csv"
    underscored.write_text("\n".join([header, *body[:-1], ",".join(cells)]) + "\n",
                           encoding="utf-8")
    peaks = [_peak_mb("train", path, "--model", "mtl", "--out", tmp_path / "model.json")
             for path in (plain, underscored)]
    assert peaks[1] - peaks[0] < 2.0, (
        f"peak RSS {peaks[0]:.1f} MB plain, {peaks[1]:.1f} MB with a 1_0 cell"
    )


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB only on Linux")
def test_evaluate_peak_memory_does_not_grow_with_rows(tmp_path):
    train = tmp_path / "train.csv"
    _write_panel(train, 3_000)
    model = tmp_path / "model.json"
    assert cli.main(["train", str(train), "--model", "mtl", "--out", str(model)]) == 0
    small = _evaluate_peak_mb(tmp_path, 3_000, model)
    large = _evaluate_peak_mb(tmp_path, 12_000, model)
    assert large - small < 2.0, f"peak RSS {small:.1f} MB at 3,000 rows, {large:.1f} MB at 12,000"


def _split_peak_mb(tmp_path, n_rows, *extra):
    path = tmp_path / f"rows{n_rows}.csv"
    _write_panel(path, n_rows)
    return _peak_mb("split", path, "--train-out", tmp_path / "train.csv",
                    "--test-out", tmp_path / "test.csv", "--manifest", tmp_path / "m.json", *extra)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB only on Linux")
def test_split_peak_memory_does_not_grow_with_rows(tmp_path):
    small = _split_peak_mb(tmp_path, 3_000)
    large = _split_peak_mb(tmp_path, 12_000)
    assert large - small < 2.0, f"peak RSS {small:.1f} MB at 3,000 rows, {large:.1f} MB at 12,000"


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB only on Linux")
def test_split_scale_full_peak_memory_grows_by_one_copy(tmp_path):
    small = _split_peak_mb(tmp_path, 3_000, "--scale-full")
    large = _split_peak_mb(tmp_path, 12_000, "--scale-full")
    # One table row holds 40 features, the outcome and the task: 42 doubles.
    added_table_mb = (12_000 - 3_000) * 42 * 8 / 2**20
    assert large - small < 1.25 * added_table_mb, (
        f"peak RSS {small:.1f} MB at 3,000 rows, {large:.1f} MB at 12,000; "
        f"the added rows' table is {added_table_mb:.1f} MB"
    )


# Runs `taskreg argv[2:]` in process and prints its exit code and, for each
# module in the comma list argv[1], whether it was imported.
_LOADS = """
import sys
from taskreg import cli
code = cli.main(sys.argv[2:])
print(code, *(name in sys.modules for name in sys.argv[1].split(",")))
"""


def _loaded(modules, *argv) -> dict:
    """Which of ``modules`` the script ``argv[0]`` run with ``modules, *argv[1:]`` leaves loaded."""
    env = dict(os.environ, PYTHONPATH=str(_SRC), TASKREG_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", argv[0], ",".join(modules), *map(str, argv[1:])],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    code, *flags = result.stdout.split()[-1 - len(modules):]
    assert code == "0", result.stderr
    return dict(zip(modules, (flag == "True" for flag in flags)))


def _numpy_loads(module) -> bool:
    """Whether importing numpy alone loads ``module``."""
    return _loaded([module], "import sys, numpy; print(0, sys.argv[1] in sys.modules)")[module]


def _pipeline(tmp_path):
    """A split panel and the commands of a pipeline on it: (split, trains, evaluate, reports)."""
    source = tmp_path / "panel.csv"
    _write_panel(source, 400, n_features=6)
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    models = {name: tmp_path / f"{name}.json" for name in ("mtl", "stl", "stl-global", "cmtl")}
    split = ["split", source, "--seed", "3", "--train-out", train, "--test-out", test,
             "--manifest", tmp_path / "split.json"]
    trains = {
        "mtl": ["train", train, "--model", "mtl", "--lambda", "0.5", "--out", models["mtl"]],
        "stl": ["train", train, "--model", "stl", "--penalty", "lasso", "--lambda", "0.5",
                "--out", models["stl"]],
        "stl-global": ["train", train, "--model", "stl", "--setting", "global",
                       "--penalty", "ridge", "--lambda", "0.5", "--out", models["stl-global"]],
        "cmtl": ["train", train, "--model", "cmtl", "--k", "2", "--max-iters", "50",
                 "--out", models["cmtl"]],
    }
    evaluate = ["evaluate", test, *(arg for m in models.values() for arg in ("--model", m)),
                "--out", tmp_path / "mae.csv"]
    reports = {
        "clusters": ["clusters", "--model", models["cmtl"], "--out", tmp_path / "clusters.csv"],
        "riskfactors": ["riskfactors", "--model", models["mtl"], "--out-json",
                        tmp_path / "rf.json", "--out-csv", tmp_path / "rf.csv"],
    }
    return split, trains, evaluate, reports, models, test


def test_no_command_imports_numpy_random(tmp_path):
    # split and cmtl's k-means draw numpy's stream without numpy's random
    # package, whose modules and OpenSSL would add several MB of peak RSS.
    if _numpy_loads("numpy.random"):
        pytest.skip("this numpy imports numpy.random with numpy itself")
    split, trains, evaluate, reports, _, _ = _pipeline(tmp_path)
    for argv in [split, *trains.values(), evaluate, *reports.values()]:
        assert not _loaded(["numpy.random"], _LOADS, *argv)["numpy.random"], argv[:3]


def test_train_does_not_import_numpy_ma(tmp_path):
    # np.unique loads numpy.ma on numpy 2, about 15 ms and 1.3 MB of peak RSS.
    if _numpy_loads("numpy.ma"):
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    split, trains, *_ = _pipeline(tmp_path)
    _loaded(["numpy.ma"], _LOADS, *split)  # only writes the train file here
    for name, argv in trains.items():
        assert not _loaded(["numpy.ma"], _LOADS, *argv)["numpy.ma"], name


def test_commands_on_other_models_do_not_import_cmtl(tmp_path):
    # The clustered model's module loads only for a cmtl fit or a cmtl model file.
    split, trains, _, _, models, test = _pipeline(tmp_path)
    cmtl = ["taskreg.cmtl"]
    _loaded(cmtl, _LOADS, *split)
    for name in ("mtl", "stl", "stl-global"):
        assert _loaded(cmtl, _LOADS, *trains[name]) == {"taskreg.cmtl": False}, name
    evaluate = ["evaluate", test, "--model", models["mtl"], "--out", test.with_name("mae.csv")]
    assert _loaded(cmtl, _LOADS, *evaluate) == {"taskreg.cmtl": False}
    riskfactors = ["riskfactors", "--model", models["mtl"], "--out-json",
                   tmp_path / "rf.json", "--out-csv", tmp_path / "rf.csv"]
    assert _loaded(cmtl, _LOADS, *riskfactors) == {"taskreg.cmtl": False}
    assert _loaded(cmtl, _LOADS, *trains["cmtl"]) == {"taskreg.cmtl": True}
