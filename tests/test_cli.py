"""End-to-end command-line behavior, run in process through main()."""

import csv
import errno
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from taskreg import cli
from taskreg.dataset import load_csv
from taskreg.serialize import load_model

from oracles import MultiTaskDataset, evaluate


def _write_csv(path, n_tasks=3, n_rows=10, n_features=5, seed=100, task_col="task", outcome_col="outcome"):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n_tasks, n_features))
    lines = [task_col + "," + ",".join(f"f{j}" for j in range(n_features)) + f",{outcome_col}"]
    for t in range(n_tasks):
        x = rng.uniform(0.0, 1.0, size=(n_rows, n_features))
        y = x @ w[t] + 0.05 * rng.normal(size=n_rows)
        for i in range(n_rows):
            cells = [f"task{t}"] + [repr(float(v)) for v in x[i]] + [repr(float(y[i]))]
            lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _split(tmp_path, csv_path, *extra):
    argv = [
        "split",
        str(csv_path),
        "--train-out",
        str(tmp_path / "train.csv"),
        "--test-out",
        str(tmp_path / "test.csv"),
        "--manifest",
        str(tmp_path / "manifest.json"),
        *extra,
    ]
    assert cli.main(argv) == 0
    return tmp_path / "train.csv", tmp_path / "test.csv", tmp_path / "manifest.json"


def test_split_defaults_and_manifest(tmp_path):
    csv_path = _write_csv(tmp_path / "data.csv")
    train, test, manifest = _split(tmp_path, csv_path)
    data = json.loads(manifest.read_text())
    assert data["train_fraction"] == 0.6
    assert data["seed"] == 0
    for label, counts in data["per_task"].items():
        assert counts["total"] == 10
        assert counts["train"] == 6
        assert counts["test"] == 4
    assert train.exists() and test.exists()


def test_split_deterministic_per_seed(tmp_path):
    csv_path = _write_csv(tmp_path / "data.csv")
    a = tmp_path / "a"
    b = tmp_path / "b"
    c = tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    t1, _, m1 = _split(a, csv_path, "--seed", "4")
    t2, _, m2 = _split(b, csv_path, "--seed", "4")
    t3, _, _ = _split(c, csv_path, "--seed", "5")
    assert t1.read_bytes() == t2.read_bytes()
    assert m1.read_bytes() == m2.read_bytes()
    assert t1.read_bytes() != t3.read_bytes()


def test_split_missing_column_message(tmp_path, capsys):
    csv_path = _write_csv(tmp_path / "data.csv", task_col="group")
    code = cli.main(["split", str(csv_path), "--train-out", str(tmp_path / "t.csv"),
                     "--test-out", str(tmp_path / "e.csv"), "--manifest", str(tmp_path / "m.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "'task'" in err


def _train(tmp_path, train_csv, out_name, *extra):
    out = tmp_path / out_name
    argv = ["train", str(train_csv), "--out", str(out), "--max-iters", "400", *extra]
    assert cli.main(argv) == 0
    return out


def test_split_output_with_lone_cr_label_trains(tmp_path):
    # A quoted label holding a lone CR loads; split must write it so that it loads again.
    source = _write_csv(tmp_path / "data.csv")
    source.write_text(source.read_text().replace("task1,", '"cr\r",'), encoding="utf-8")
    train, test, _ = _split(tmp_path, source)
    for side in (train, test):
        assert load_csv(side, "task", "outcome").task_labels == ("task0", "cr\r", "task2")
    _train(tmp_path, train, "mtl.json", "--model", "mtl", "--lambda", "0.05")


@pytest.mark.parametrize("case", ["written", "parse-error", "missing-directory"])
def test_split_closes_and_deletes_its_spool(tmp_path, monkeypatch, capsys, case):
    # split keeps the kept records' text in a temporary file; whatever
    # happens after it is opened, the file is closed and leaves nothing.
    spool_dir = tmp_path / "spool"
    spool_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spool_dir))
    spools = []
    opened = tempfile.TemporaryFile

    def recording(*args, **kwargs):
        spools.append(opened(*args, **kwargs))
        return spools[-1]

    monkeypatch.setattr(cli.tempfile, "TemporaryFile", recording)
    # 1,800 rows in 512-line chunks of 7 columns: the last is read after
    # three chunks have gone to the spool.
    from taskreg import dataset

    monkeypatch.setattr(dataset, "_CHUNK_CELLS", 512 * 7)
    source = _write_csv(tmp_path / "data.csv", n_rows=600)
    test_out = tmp_path / "test.csv"
    if case == "parse-error":
        text = source.read_text(encoding="utf-8")
        source.write_text(text[: text.rstrip("\n").rfind(",")] + ",oops\n", encoding="utf-8")
    if case == "missing-directory":
        test_out = tmp_path / "missing" / "test.csv"
    argv = ["split", str(source), "--train-out", str(tmp_path / "train.csv"),
            "--test-out", str(test_out), "--manifest", str(tmp_path / "manifest.json")]
    capsys.readouterr()
    assert cli.main(argv) == (0 if case == "written" else 2)
    err = capsys.readouterr().err
    if case == "parse-error":
        assert err == (f"error: {source}: row 1801, column 'outcome': "
                       "cannot parse 'oops' as a number\n")
    if case == "missing-directory":
        # A failed split leaves no side and no manifest behind.
        assert sorted(path.name for path in tmp_path.iterdir()) == ["data.csv", "spool"]
    assert len(spools) == 1 and spools[0].closed
    assert list(spool_dir.iterdir()) == []


@pytest.mark.parametrize("scale_full", [False, True], ids=["spool", "scale-full"])
@pytest.mark.parametrize("missing", ["--train-out", "--test-out", "--manifest"])
def test_failed_split_leaves_no_output(tmp_path, capsys, missing, scale_full):
    source = _write_csv(tmp_path / "data.csv")
    outputs = {"--train-out": "train.csv", "--test-out": "test.csv", "--manifest": "m.json"}
    (tmp_path / "out").mkdir()
    argv = ["split", str(source), *(["--scale-full"] if scale_full else [])]
    for flag, name in outputs.items():
        argv += [flag, str(tmp_path / ("missing" if flag == missing else "out") / name)]
    assert cli.main(argv) == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def test_split_opens_each_output_once(tmp_path, monkeypatch):
    # A named pipe as an output would see its end at a first close.
    source = _write_csv(tmp_path / "data.csv")
    outputs = [str(tmp_path / name) for name in ("train.csv", "test.csv", "m.json")]
    opens = []
    builtin_open = open

    def counting(file, *args, **kwargs):
        opens.append(str(file))
        return builtin_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting)
    argv = ["split", str(source), "--train-out", outputs[0], "--test-out", outputs[1],
            "--manifest", outputs[2]]
    assert cli.main(argv) == 0
    assert [path for path in opens if path in outputs] == outputs


def test_failed_split_keeps_an_output_it_could_not_open(tmp_path, monkeypatch, capsys):
    from taskreg import dataset

    def refused(data, path):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

    monkeypatch.setattr(dataset, "write_json", refused)
    source = _write_csv(tmp_path / "data.csv")
    manifest = tmp_path / "m.json"
    manifest.write_text("kept\n", encoding="utf-8")
    argv = ["split", str(source), "--train-out", str(tmp_path / "train.csv"),
            "--test-out", str(tmp_path / "test.csv"), "--manifest", str(manifest)]
    assert cli.main(argv) == 2
    assert "Permission denied" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["data.csv", "m.json"]
    assert manifest.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize(
    "command, first, second",
    [("riskfactors", "--out-json", "--out-csv"), ("clusters", "--out", "--out-matrix")],
)
def test_a_failed_report_leaves_no_output(tmp_path, capsys, command, first, second):
    # The first output is written before the second's directory turns out to be missing.
    model = _train(tmp_path, _write_csv(tmp_path / "data.csv"), "m.json", "--model", "cmtl",
                   "--k", "2")
    before = sorted(path.name for path in tmp_path.iterdir())
    argv = [command, "--model", str(model), first, str(tmp_path / "first.out"),
            second, str(tmp_path / "missing" / "second.out")]
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == before


def test_a_train_whose_model_file_fails_partway_leaves_no_output(tmp_path, monkeypatch, capsys):
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def partway(data, fh, **kwargs):
        fh.write("{\n")
        raise full

    monkeypatch.setattr(json, "dump", partway)
    source = _write_csv(tmp_path / "data.csv")
    out = tmp_path / "m.json"
    capsys.readouterr()
    assert cli.main(["train", str(source), "--model", "mtl", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["data.csv"]


def test_split_reports_a_full_spool_disk(tmp_path, monkeypatch, capsys):
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    class FullDisk(io.BytesIO):
        def write(self, data):
            raise full

    spools = []

    def full_disk(*args, **kwargs):
        spools.append(FullDisk())
        return spools[-1]

    monkeypatch.setattr(cli.tempfile, "TemporaryFile", full_disk)
    source = _write_csv(tmp_path / "data.csv")
    argv = ["split", str(source), "--train-out", str(tmp_path / "train.csv"),
            "--test-out", str(tmp_path / "test.csv"), "--manifest", str(tmp_path / "m.json")]
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)} for split's temporary file "
        f"in {tempfile.gettempdir()} (the TMPDIR environment variable names that directory)\n"
    )
    assert len(spools) == 1 and spools[0].closed
    assert sorted(path.name for path in tmp_path.iterdir()) == ["data.csv"]


def _report_outputs(tmp_path, label):
    """Each CSV report of a panel whose task1 is ``label`` and whose f0 is named 'f,"0'.

    The riskfactors report also files f0 under the category ``label``.
    Returns output name -> (path, expected row width).
    """
    source = _write_csv(tmp_path / "data.csv", n_rows=20)
    quoted = '"{}",'.format(label.replace('"', '""'))
    text = source.read_text().replace("task1,", quoted)
    source.write_text(text.replace(",f0,", ',"f,""0",', 1), encoding="utf-8")
    mtl = _train(tmp_path, source, "mtl.json", "--model", "mtl")
    cmtl = _train(tmp_path, source, "cmtl.json", "--model", "cmtl", "--k", "2")
    categories = tmp_path / "categories.csv"
    with open(categories, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([["feature", "category"], ['f,"0', label], ["f1", "b"]])
    d = {name: tmp_path / name for name in ("c.csv", "m.csv", "mae.csv", "rf.csv")}
    runs = [
        ["clusters", "--model", cmtl, "--out", d["c.csv"], "--out-matrix", d["m.csv"]],
        ["evaluate", source, "--model", mtl, "--model", cmtl, "--out", d["mae.csv"]],
        ["riskfactors", "--model", cmtl, "--levels", "task,cluster,population",
         "--categories", categories, "--out-json", tmp_path / "rf.json", "--out-csv", d["rf.csv"]],
    ]
    for argv in runs:
        assert cli.main([str(a) for a in argv]) == 0
    return {"clusters": (d["c.csv"], 2), "matrix": (d["m.csv"], 4),
            "mae": (d["mae.csv"], 6), "riskfactors": (d["rf.csv"], 5)}


@pytest.mark.parametrize("label", ["cr\r", 'q,"t'], ids=["cr", "comma-quote"])
@pytest.mark.parametrize("output", ["clusters", "matrix", "mae", "riskfactors"])
def test_every_csv_output_reads_back(tmp_path, label, output):
    path, width = _report_outputs(tmp_path, label)[output]
    data = path.read_bytes().decode("utf-8")
    rows = list(csv.reader(io.StringIO(data, newline="")))
    assert {len(row) for row in rows} == {width}
    labels = [row[1] for row in rows] if output == "riskfactors" else [row[0] for row in rows]
    assert label in labels
    if output == "matrix":
        assert rows[0] == ["task", "task0", label, "task2"]
    if output == "riskfactors":
        assert ["feature", "category"] == rows[0][2::2]
        assert ['f,"0', label] in [row[2::2] for row in rows]
    if "\r" not in label:
        # The bytes of the csv.writer rendering every report had before.
        old = io.StringIO()
        csv.writer(old, lineterminator="\n").writerows(rows)
        assert data == old.getvalue()


def test_train_each_model_kind(tmp_path):
    csv_path = _write_csv(tmp_path / "data.csv")
    train, test, _ = _split(tmp_path, csv_path)
    mtl_path = _train(tmp_path, train, "mtl.json", "--model", "mtl", "--lambda", "0.05")
    stl_path = _train(
        tmp_path, train, "stl.json", "--model", "stl", "--penalty", "lasso", "--lambda", "0.02"
    )
    cmtl_path = _train(
        tmp_path, train, "cmtl.json", "--model", "cmtl", "--k", "2", "--rho1", "0.5", "--rho2", "0.5"
    )
    assert load_model(mtl_path).model_type == "mtl"
    stl = load_model(stl_path)
    assert stl.model_type == "stl" and stl.stl_penalty == "lasso"
    cmtl = load_model(cmtl_path)
    assert cmtl.model_type == "cmtl"
    assert len(set(cmtl.assignments)) <= 2

    code = cli.main(["evaluate", str(test), "--model", str(mtl_path), "--model",
                     str(stl_path), "--out", str(tmp_path / "mae.csv")])
    assert code == 0
    header = (tmp_path / "mae.csv").read_text().splitlines()[0]
    assert header == "task,n,outcome_mean,outcome_sd,mtl,stl"


def test_train_error_paths(tmp_path, capsys):
    csv_path = _write_csv(tmp_path / "data.csv")
    train, _, _ = _split(tmp_path, csv_path)
    assert cli.main(["train", str(train), "--out", str(tmp_path / "m.json")]) == 2
    assert "--model is required" in capsys.readouterr().err
    assert cli.main(["train", str(train), "--model", "cmtl", "--out", str(tmp_path / "m.json")]) == 2
    assert "--k is required" in capsys.readouterr().err
    assert (
        cli.main(
            ["train", str(train), "--model", "cmtl", "--k", "2", "--intercept",
             "--out", str(tmp_path / "m.json")]
        )
        == 2
    )
    assert "--intercept" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.main(["train", str(train), "--model", "forest"])


@pytest.mark.parametrize(
    "options, message",
    [
        (("--model", "mtl", "--rho1", "-1"), "--rho1 does not apply to --model mtl"),
        (("--model", "mtl", "--k", "3"), "--k does not apply to --model mtl"),
        (("--model", "cmtl", "--k", "2", "--lambda", "5", "--setting", "global"),
         "--lambda does not apply to --model cmtl"),
        (("--model", "cmtl", "--k", "2", "--penalty", "lasso"),
         "--penalty does not apply to --model cmtl"),
        (("--model", "stl", "--k", "99", "--rho2", "-5"), "--rho2 does not apply to --model stl"),
        (("--model", "stl", "--kmeans-seed", "1"), "--kmeans-seed does not apply to --model stl"),
        (("--model", "mtl", "--no-scale", "--scale-outcome"),
         "--scale-outcome does not apply with --no-scale"),
    ],
    ids=["mtl-rho1", "mtl-k", "cmtl-lambda", "cmtl-penalty", "stl-rho2", "stl-kmeans-seed",
         "no-scale"],
)
def test_train_rejects_a_flag_the_model_does_not_use(tmp_path, capsys, options, message):
    train = _write_csv(tmp_path / "data.csv")
    out = tmp_path / "m.json"
    code = cli.main(["train", str(train), *options, "--out", str(out)])
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert code == 2
    assert captured.out == ""
    assert not out.exists()


def test_split_rejects_scale_outcome_without_scale_full(tmp_path, capsys):
    csv_path = _write_csv(tmp_path / "data.csv")
    outputs = [tmp_path / name for name in ("train.csv", "test.csv", "manifest.json")]
    argv = ["split", str(csv_path), "--train-out", str(outputs[0]), "--test-out", str(outputs[1]),
            "--manifest", str(outputs[2])]
    code = cli.main([*argv, "--scale-outcome"])
    captured = capsys.readouterr()
    assert captured.err == "error: --scale-outcome does not apply without --scale-full\n"
    assert code == 2
    assert captured.out == ""
    assert not any(path.exists() for path in outputs)
    # --scale-full from the config file makes the flag apply.
    config = tmp_path / "run.cfg"
    config.write_text("scale-full = true\n", encoding="utf-8")
    assert cli.main([*argv, "--scale-outcome", "--config", str(config)]) == 0
    assert json.loads(outputs[2].read_text())["scale_outcome"] is True
    # A config key is ignored, as train ignores it under --no-scale.
    config.write_text("scale-outcome = true\n", encoding="utf-8")
    assert cli.main([*argv, "--config", str(config)]) == 0
    assert json.loads(outputs[2].read_text())["scale_outcome"] is False


def test_train_ignores_config_keys_the_model_does_not_use(tmp_path, capsys):
    # One config file serves every model, so another model's keys are no error.
    train = _write_csv(tmp_path / "data.csv")
    config = tmp_path / "run.cfg"
    config.write_text(
        "lambda = 0.05\nsetting = global\npenalty = ridge\nrho1 = 0.5\nrho2 = 0.5\n"
        "k = 2\nkmeans-seed = 4\nscale-outcome = true\n",
        encoding="utf-8",
    )
    for model in ("mtl", "cmtl", "stl"):
        out = tmp_path / f"{model}.json"
        argv = ["train", str(train), "--model", model, "--no-scale", "--config", str(config)]
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert load_model(out).model_type == model
    # A cmtl key is no error for them even where cmtl would refuse its value.
    config.write_text("kmeans-seed = -1\n", encoding="utf-8")
    for model in ("mtl", "stl"):
        argv = ["train", str(train), "--model", model, "--config", str(config)]
        assert cli.main([*argv, "--out", str(tmp_path / f"{model}.json")]) == 0
    # A config key the fit cannot honour is still refused, as the flag is:
    # with one text, before the input (here missing) is read.
    config.write_text("intercept = true\n", encoding="utf-8")
    capsys.readouterr()
    argv = ["train", str(tmp_path / "missing.csv"), "--model", "cmtl", "--k", "2",
            "--out", str(tmp_path / "m.json")]
    for given in (["--config", str(config)], ["--intercept"]):
        assert cli.main([*argv, *given]) == 2
        assert capsys.readouterr().err == (
            "error: --intercept is not supported with the cmtl model\n"
        )


def test_evaluate_is_column_order_invariant(tmp_path):
    csv_path = _write_csv(tmp_path / "data.csv")
    train, test, _ = _split(tmp_path, csv_path)
    model = _train(tmp_path, train, "m.json", "--model", "mtl", "--lambda", "0.05")

    # Rewrite the test CSV with feature columns reversed.
    lines = test.read_text().splitlines()
    header = lines[0].split(",")
    order = [0] + list(range(len(header) - 2, 0, -1)) + [len(header) - 1]
    permuted = tmp_path / "test_permuted.csv"
    permuted.write_text(
        "\n".join(",".join(line.split(",")[j] for j in order) for line in lines) + "\n",
        encoding="utf-8",
    )

    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli.main(["evaluate", str(test), "--model", str(model), "--out", str(out_a)]) == 0
    assert cli.main(["evaluate", str(permuted), "--model", str(model), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_evaluate_unknown_feature_named(tmp_path, capsys):
    csv_path = _write_csv(tmp_path / "data.csv")
    train, test, _ = _split(tmp_path, csv_path)
    model = _train(tmp_path, train, "m.json", "--model", "mtl")
    renamed = tmp_path / "renamed.csv"
    renamed.write_text(test.read_text().replace("f3", "mystery"), encoding="utf-8")
    code = cli.main(["evaluate", str(renamed), "--model", str(model), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "missing model features: f3" in capsys.readouterr().err
    # An added column (nothing missing) is reported as unknown by name.
    widened = tmp_path / "widened.csv"
    lines = test.read_text().splitlines()

    def widen(line, value):
        cells = line.split(",")
        cells.insert(len(cells) - 1, value)  # just before the outcome column
        return ",".join(cells)

    body = [widen(lines[0], "mystery")] + [widen(line, "0.0") for line in lines[1:]]
    widened.write_text("\n".join(body) + "\n", encoding="utf-8")
    code = cli.main(["evaluate", str(widened), "--model", str(model), "--out", str(tmp_path / "y.csv")])
    assert code == 2
    assert "unknown features: mystery" in capsys.readouterr().err


def test_evaluate_rejects_nan_weight(tmp_path, capsys):
    csv_path = _write_csv(tmp_path / "data.csv")
    train, test, _ = _split(tmp_path, csv_path)
    model = _train(tmp_path, train, "m.json", "--model", "mtl")
    data = json.loads(model.read_text())
    data["weights"][0][0] = float("nan")  # json.dumps writes it as a bare NaN
    model.write_text(json.dumps(data))
    code = cli.main(["evaluate", str(test), "--model", str(model), "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {model}: non-finite number NaN is not allowed\n"
    assert "total MAE" not in captured.out


def test_model_missing_key_is_an_error(tmp_path, capsys):
    csv_path = _write_csv(tmp_path / "data.csv")
    train, test, _ = _split(tmp_path, csv_path)
    model = _train(tmp_path, train, "m.json", "--model", "mtl")
    data = json.loads(model.read_text())
    del data["lam"]
    model.write_text(json.dumps(data))
    code = cli.main(["evaluate", str(test), "--model", str(model), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {model}: missing key 'lam'\n"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("task_labels", 5, "task_labels: expected a list of strings, got 5"),
        ("rho1", "0.01", "rho1: expected a number, got '0.01'"),
        ("k", 2.7, "k: expected an integer, got 2.7"),
        ("assignments", [0.5, 0.5, 0.5], "assignments: expected an integer, got 0.5"),
    ],
    ids=["task_labels", "rho1", "k", "assignments"],
)
def test_clusters_rejects_wrongly_typed_model_field(tmp_path, capsys, key, value, message):
    csv_path = _write_csv(tmp_path / "data.csv")
    train, _, _ = _split(tmp_path, csv_path)
    model = _train(tmp_path, train, "cmtl.json", "--model", "cmtl", "--k", "2")
    data = json.loads(model.read_text())
    data[key] = value
    model.write_text(json.dumps(data))
    out = tmp_path / "clusters.csv"
    code = cli.main(["clusters", "--model", str(model), "--out", str(out)])
    assert capsys.readouterr().err == f"error: {model}: {message}\n"
    assert code == 2
    assert not out.exists()


def test_riskfactors_outputs(tmp_path):
    csv_path = _write_csv(tmp_path / "data.csv")
    train, _, _ = _split(tmp_path, csv_path)
    model = _train(tmp_path, train, "cmtl.json", "--model", "cmtl", "--k", "2")
    out_json = tmp_path / "rf.json"
    out_csv = tmp_path / "rf.csv"
    code = cli.main(
        ["riskfactors", "--model", str(model), "--top", "3",
         "--levels", "task,cluster,population",
         "--out-json", str(out_json), "--out-csv", str(out_csv)]
    )
    assert code == 0
    report = json.loads(out_json.read_text())
    assert report["top_k"] == 3
    assert set(report["per_task"]) == {"task0", "task1", "task2"}
    assert all(len(rows) == 3 for rows in report["per_task"].values())
    assert "per_cluster" in report and "population" in report
    assert out_csv.read_text().splitlines()[0] == "level,group,feature,value"


def test_riskfactors_top_clamped_to_feature_count(tmp_path):
    csv_path = _write_csv(tmp_path / "data.csv", n_features=4)
    train, _, _ = _split(tmp_path, csv_path)
    model = _train(tmp_path, train, "m.json", "--model", "mtl")
    out_json = tmp_path / "rf.json"
    code = cli.main(
        ["riskfactors", "--model", str(model), "--out-json", str(out_json),
         "--out-csv", str(tmp_path / "rf.csv")]
    )
    assert code == 0
    report = json.loads(out_json.read_text())
    assert report["top_k"] == 4  # default 10 clamped to J
    assert "per_cluster" not in report  # default levels: task, population


def test_riskfactors_cluster_level_needs_cmtl(tmp_path, capsys):
    csv_path = _write_csv(tmp_path / "data.csv")
    train, _, _ = _split(tmp_path, csv_path)
    model = _train(tmp_path, train, "m.json", "--model", "mtl")
    code = cli.main(
        ["riskfactors", "--model", str(model), "--levels", "cluster",
         "--out-json", str(tmp_path / "rf.json"), "--out-csv", str(tmp_path / "rf.csv")]
    )
    assert code == 2
    assert "cmtl" in capsys.readouterr().err


def test_riskfactors_rejects_a_feature_listed_twice_in_categories(tmp_path, capsys):
    train = _write_csv(tmp_path / "data.csv")
    model = _train(tmp_path, train, "m.json", "--model", "mtl")
    categories = tmp_path / "categories.csv"
    categories.write_text("feature,category\nf0,diet\nf1,sleep\nf0,smoking\n", encoding="utf-8")
    out_json = tmp_path / "rf.json"
    code = cli.main(
        ["riskfactors", "--model", str(model), "--categories", str(categories),
         "--out-json", str(out_json), "--out-csv", str(tmp_path / "rf.csv")]
    )
    assert capsys.readouterr().err == f"error: {categories}: feature 'f0' is listed twice\n"
    assert code == 2
    assert not out_json.exists()


def test_riskfactors_rejects_a_category_feature_the_model_does_not_have(tmp_path, capsys):
    train = _write_csv(tmp_path / "data.csv")
    model = _train(tmp_path, train, "m.json", "--model", "mtl")
    categories = tmp_path / "categories.csv"
    categories.write_text("feature,category\nf0,a\nf99,b\n", encoding="utf-8")
    outputs = [tmp_path / "rf.json", tmp_path / "rf.csv"]
    capsys.readouterr()
    code = cli.main(
        ["riskfactors", "--model", str(model), "--categories", str(categories),
         "--out-json", str(outputs[0]), "--out-csv", str(outputs[1])]
    )
    captured = capsys.readouterr()
    assert captured.err == f"error: {categories}: feature 'f99' is not a feature of the model\n"
    assert code == 2
    assert captured.out == ""
    assert not any(path.exists() for path in outputs)


def test_riskfactors_rejects_a_level_named_twice(tmp_path, capsys):
    train = _write_csv(tmp_path / "data.csv")
    model = _train(tmp_path, train, "m.json", "--model", "mtl")
    out_json = tmp_path / "rf.json"
    code = cli.main(
        ["riskfactors", "--model", str(model), "--levels", "task,population, task",
         "--out-json", str(out_json), "--out-csv", str(tmp_path / "rf.csv")]
    )
    assert capsys.readouterr().err == "error: --levels names 'task' twice\n"
    assert code == 2
    assert not out_json.exists()


def test_clusters_command(tmp_path, capsys):
    csv_path = _write_csv(tmp_path / "data.csv")
    train, _, _ = _split(tmp_path, csv_path)
    cmtl_model = _train(tmp_path, train, "cmtl.json", "--model", "cmtl", "--k", "2")
    out = tmp_path / "clusters.csv"
    matrix_out = tmp_path / "matrix.csv"
    code = cli.main(["clusters", "--model", str(cmtl_model), "--out", str(out),
                     "--out-matrix", str(matrix_out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "task,cluster"
    assert len(lines) == 4
    matrix_lines = matrix_out.read_text().splitlines()
    assert matrix_lines[0] == "task,task0,task1,task2"
    assert len(matrix_lines) == 4

    mtl_model = _train(tmp_path, train, "m.json", "--model", "mtl")
    assert cli.main(["clusters", "--model", str(mtl_model), "--out", str(out)]) == 2
    assert "requires a cmtl model" in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path):
    csv_path = _write_csv(tmp_path / "data.csv")
    config = tmp_path / "run.conf"
    config.write_text(
        "# shared pipeline settings\n"
        "train-fraction = 0.5\n"
        "seed = 3\n"
        "lambda = 0.25\n"
        "model = mtl\n"
        "unknown-key = ignored\n",
        encoding="utf-8",
    )
    a = tmp_path / "a"
    a.mkdir()
    _, _, manifest = _split(a, csv_path, "--config", str(config))
    assert json.loads(manifest.read_text())["train_fraction"] == 0.5
    assert json.loads(manifest.read_text())["seed"] == 3
    # Explicit flag beats the config value.
    b = tmp_path / "b"
    b.mkdir()
    _, _, manifest_b = _split(b, csv_path, "--config", str(config), "--train-fraction", "0.8")
    assert json.loads(manifest_b.read_text())["train_fraction"] == 0.8
    # The lambda alias feeds the train command from the same file.
    model_path = tmp_path / "m.json"
    assert cli.main(["train", str(a / "train.csv"), "--config", str(config),
                     "--out", str(model_path), "--max-iters", "300"]) == 0
    assert load_model(model_path).lam == 0.25


def test_config_parse_error(tmp_path, capsys):
    csv_path = _write_csv(tmp_path / "data.csv")
    config = tmp_path / "bad.conf"
    config.write_text("this line has no equals sign\n", encoding="utf-8")
    code = cli.main(["split", str(csv_path), "--config", str(config)])
    assert code == 2
    assert "expected key=value" in capsys.readouterr().err


def test_thread_env_applied(tmp_path, monkeypatch):
    for var in cli._THREAD_VARS:
        monkeypatch.setenv(var, "sentinel")
    monkeypatch.setenv("TASKREG_NUM_THREADS", "3")
    seen = []
    split = cli.cmd_split
    monkeypatch.setattr(
        cli, "cmd_split", lambda args: seen.append(dict(os.environ)) or split(args)
    )
    csv_path = _write_csv(tmp_path / "data.csv")
    _split(tmp_path, csv_path)
    for var in cli._THREAD_VARS:
        assert seen[0][var] == "3"
        assert os.environ[var] == "sentinel"


def test_main_restores_thread_env(monkeypatch, capsys):
    # main sets the variables for its own run only, whether it succeeds or fails.
    monkeypatch.delenv("TASKREG_NUM_THREADS", raising=False)
    for var in cli._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "5")
    assert cli.main(["split", "/nonexistent.csv"]) == 2
    assert "error:" in capsys.readouterr().err
    assert "OMP_NUM_THREADS" not in os.environ
    assert {var: os.environ.get(var) for var in cli._THREAD_VARS} == {
        var: "5" if var == "MKL_NUM_THREADS" else None for var in cli._THREAD_VARS
    }


def test_configure_threads_cases(monkeypatch):
    # Unset: one thread, except where the user set a library's own variable.
    monkeypatch.delenv("TASKREG_NUM_THREADS", raising=False)
    for var in cli._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    cli._configure_threads()
    assert {var: os.environ[var] for var in cli._THREAD_VARS} == {
        var: "2" if var == "OPENBLAS_NUM_THREADS" else "1" for var in cli._THREAD_VARS
    }
    # Set: it overrides every variable.
    monkeypatch.setenv("TASKREG_NUM_THREADS", "4")
    cli._configure_threads()
    assert all(os.environ[var] == "4" for var in cli._THREAD_VARS)
    # Invalid: an error, whatever the variables hold.
    monkeypatch.setenv("TASKREG_NUM_THREADS", "0")
    with pytest.raises(ValueError, match="TASKREG_NUM_THREADS"):
        cli._configure_threads()


def test_every_choice_is_the_library_tuple_and_the_parser_loads_no_numpy():
    from taskreg import baselines, fista, mtl

    choices = {
        (command, name): kind
        for command, options in cli._OPTIONS.items()
        for name, kind, _ in options
        if isinstance(kind, tuple)
    }
    library = {
        ("train", "model"): mtl._MODEL_TYPES,
        ("train", "setting"): mtl._STL_SETTINGS,
        ("train", "penalty"): mtl._STL_PENALTIES,
        ("train", "momentum"): fista._MOMENTUM_MODES,
        ("evaluate", "total"): baselines._TOTAL_MODES,
    }
    assert choices.keys() == library.keys()
    for row, kind in choices.items():
        assert kind is library[row], row
    # The reason the choices live in the package root: a fresh interpreter
    # builds the whole parser without loading numpy.
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, taskreg.cli as c; c._build_parser(); sys.exit('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr


def test_thread_env_invalid(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TASKREG_NUM_THREADS", "several")
    csv_path = _write_csv(tmp_path / "data.csv")
    code = cli.main(["split", str(csv_path)])
    assert code == 2
    assert "TASKREG_NUM_THREADS" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["--version"])
    assert exc_info.value.code == 0
    assert "taskreg" in capsys.readouterr().out


@pytest.mark.parametrize(
    "options, message",
    [
        (("--model", "mtl", "--tol", "nan"), "rel_tol must be finite and >= 0, got nan"),
        (("--model", "mtl", "--tol", "inf"), "rel_tol must be finite and >= 0, got inf"),
        (("--model", "mtl", "--lambda", "nan"), "lam must be finite and >= 0, got nan"),
        (("--model", "mtl", "--lambda", "inf"), "lam must be finite and >= 0, got inf"),
        (("--model", "stl", "--penalty", "ridge", "--lambda", "nan"),
         "lam must be finite and >= 0, got nan"),
        (("--model", "stl", "--penalty", "lasso", "--lambda", "inf"),
         "lam must be finite and >= 0, got inf"),
        (("--model", "cmtl", "--k", "2", "--rho1", "nan"), "rho1 must be finite and >= 0, got nan"),
        (("--model", "cmtl", "--k", "2", "--rho1", "inf"), "rho1 must be finite and >= 0, got inf"),
        (("--model", "cmtl", "--k", "2", "--rho2", "nan"), "rho2 must be finite and >= 0, got nan"),
        (("--model", "cmtl", "--k", "2", "--rho2", "inf"), "rho2 must be finite and >= 0, got inf"),
        # One rule, so one text for both models that take --lambda.
        (("--model", "mtl", "--lambda", "-1"), "lam must be finite and >= 0, got -1.0"),
        (("--model", "stl", "--lambda", "-1"), "lam must be finite and >= 0, got -1.0"),
        # Finite rho1 and rho2 whose eta, or whose coupling, overflows.
        (("--model", "cmtl", "--k", "2", "--rho1", "1e-320", "--rho2", "1"),
         "rho1 = 1e-320 and rho2 = 1.0 overflow the coupling rho1*eta*(1+eta), eta = rho2/rho1"),
        (("--model", "cmtl", "--k", "2", "--rho1", "1e200", "--rho2", "1e300"),
         "rho1 = 1e+200 and rho2 = 1e+300 overflow the coupling rho1*eta*(1+eta), "
         "eta = rho2/rho1"),
    ],
    ids=["tol-nan", "tol-inf", "mtl-lambda-nan", "mtl-lambda-inf", "stl-lambda-nan",
         "stl-lambda-inf", "rho1-nan", "rho1-inf", "rho2-nan", "rho2-inf", "mtl-lambda-negative",
         "stl-lambda-negative", "rho-eta-overflows", "rho-coupling-overflows"],
)
def test_train_rejects_non_finite_hyperparameter(tmp_path, capsys, options, message):
    train = _write_csv(tmp_path / "data.csv")
    out = tmp_path / "m.json"
    code = cli.main(["train", str(train), *options, "--out", str(out)])
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert code == 2
    assert captured.out == ""
    assert not out.exists()


def test_train_cmtl_with_tiny_rho(tmp_path, capsys, monkeypatch):
    # Tasks of 4 rows in 5 features: a weight metric ridged by delta = 2e-300
    # alone is singular in floating point, so it is floored. A factorization
    # that fails all the same is an error, not a traceback.
    from taskreg import cmtl

    train = _write_csv(tmp_path / "data.csv", n_rows=4)
    out = tmp_path / "m.json"
    argv = ["train", str(train), "--model", "cmtl", "--k", "2", "--rho1", "1e-300",
            "--rho2", "1e-300", "--out", str(out)]
    assert cli.main(argv) == 0
    assert "converged=True" in capsys.readouterr().out
    out.unlink()
    monkeypatch.setattr(cmtl, "_METRIC_FLOOR", 0.0)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: Matrix is not positive definite\n"
    assert not out.exists()


def test_train_warns_when_a_fit_does_not_converge(tmp_path, capsys):
    train = _write_csv(tmp_path / "data.csv")
    out = tmp_path / "m.json"
    code = cli.main(["train", str(train), "--model", "mtl", "--max-iters", "3", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines() == [
        f"trained mtl on 3 tasks, 5 features -> {out}",
        "solver: 3 iterations, converged=False",
    ]
    assert captured.err == (
        "warning: the solver stopped at the iteration cap (--max-iters 3) before "
        "converging; raise --max-iters or --tol\n"
    )


def test_train_converged_fit_writes_nothing_to_stderr(tmp_path, capsys):
    train = _write_csv(tmp_path / "data.csv")
    out = tmp_path / "m.json"
    code = cli.main(["train", str(train), "--model", "stl", "--penalty", "ridge",
                     "--lambda", "0.1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "converged=True" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize(
    "options, module, penalty",
    [
        (("--model", "mtl"), "mtl", "l21_norm"),
        (("--model", "stl", "--setting", "global"), "baselines", "_penalty_value"),
        (("--model", "stl", "--setting", "individual"), "baselines", "_penalty_value"),
    ],
    ids=["mtl", "stl-global", "stl-individual"],
)
def test_train_prints_the_objective_trail_of_a_solver_error(
    tmp_path, capsys, monkeypatch, options, module, penalty
):
    # The penalty turns infinite from its 4th call: the start point and two
    # iterations finish, and the objective of iteration 3 is non-finite.
    target = importlib.import_module(f"taskreg.{module}")
    calls = []

    def broken(*args, _penalty=getattr(target, penalty)):
        calls.append(args)
        return _penalty(*args) + (np.inf if len(calls) >= 4 else 0.0)

    monkeypatch.setattr(target, penalty, broken)
    train = _write_csv(tmp_path / "data.csv")
    out = tmp_path / "m.json"
    code = cli.main(["train", str(train), "--out", str(out), *options])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    first, second = captured.err.splitlines()
    assert first == "error: objective non-finite at iteration 3"
    values = re.fullmatch(r"last objective values: (\S+), (\S+)", second).groups()
    assert all(np.isfinite(float(v)) for v in values)
    assert not out.exists()


def _repeat_first(names):
    return [names[0], names[0], *names[2:]]


def _narrow_scaling(scaling):
    return {**scaling, "feature_min": scaling["feature_min"][:-1],
            "feature_max": scaling["feature_max"][:-1]}


_INCONSISTENT_MODELS = [
    ("feature_names", _repeat_first, "feature names must be unique, 'f0' repeats"),
    ("task_labels", _repeat_first, "task labels must be unique, 'task0' repeats"),
    ("scaling", _narrow_scaling, "scaling covers 4 features, the model has 5"),
]


@pytest.mark.parametrize("command", ["riskfactors", "evaluate"])
@pytest.mark.parametrize("model_args", [("mtl",), ("cmtl", "--k", "2")], ids=["mtl", "cmtl"])
@pytest.mark.parametrize(
    "key, corrupt, message", _INCONSISTENT_MODELS, ids=[c[0] for c in _INCONSISTENT_MODELS]
)
def test_inconsistent_model_json_is_an_error(
    tmp_path, capsys, command, model_args, key, corrupt, message
):
    csv_path = _write_csv(tmp_path / "data.csv")
    train, test, _ = _split(tmp_path, csv_path)
    model = _train(tmp_path, train, "m.json", "--model", *model_args)
    data = json.loads(model.read_text())
    data[key] = corrupt(data[key])
    model.write_text(json.dumps(data))
    out = tmp_path / "out.csv"
    if command == "riskfactors":
        argv = ["riskfactors", "--model", str(model), "--out-json", str(tmp_path / "rf.json"),
                "--out-csv", str(out)]
    else:
        argv = ["evaluate", str(test), "--model", str(model), "--out", str(out)]
    code = cli.main(argv)
    assert capsys.readouterr().err == f"error: {model}: {message}\n"
    assert code == 2
    assert not out.exists()


# Each corruption writes the string "1e400"; the test unquotes it, since
# json.dumps(inf) writes Infinity, which the reader rejects as a token, while
# a literal 1e400 overflows to inf only as it is read.
_OVERFLOWING_MODELS = [
    ("weights", lambda w: [["1e400", *w[0][1:]], *w[1:]],
     "weights: expected a finite number, got inf"),
    ("intercept", lambda b: ["-1e400", *b[1:]], "intercept: expected a finite number, got -inf"),
    ("scaling", lambda s: {**s, "feature_max": ["1e400", *s["feature_max"][1:]]},
     "feature_max: expected a finite number, got inf"),
]


@pytest.mark.parametrize("command", ["riskfactors", "evaluate"])
@pytest.mark.parametrize("model_args", [("mtl",), ("cmtl", "--k", "2")], ids=["mtl", "cmtl"])
@pytest.mark.parametrize(
    "key, corrupt, message", _OVERFLOWING_MODELS, ids=[c[0] for c in _OVERFLOWING_MODELS]
)
def test_overflowing_number_in_model_json_is_an_error(
    tmp_path, capsys, command, model_args, key, corrupt, message
):
    csv_path = _write_csv(tmp_path / "data.csv")
    train, test, _ = _split(tmp_path, csv_path)
    model = _train(tmp_path, train, "m.json", "--model", *model_args)
    data = json.loads(model.read_text())
    data[key] = corrupt(data[key])
    model.write_text(re.sub(r'"(-?1e400)"', r"\1", json.dumps(data)))
    outputs = [tmp_path / "rf.json", tmp_path / "rf.csv", tmp_path / "mae.csv"]
    if command == "riskfactors":
        argv = ["riskfactors", "--model", str(model), "--out-json", str(outputs[0]),
                "--out-csv", str(outputs[1])]
    else:
        argv = ["evaluate", str(test), "--model", str(model), "--out", str(outputs[2])]
    capsys.readouterr()
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert captured.err == f"error: {model}: {message}\n"
    assert captured.out == ""
    assert code == 2
    assert not any(path.exists() for path in outputs)


def _overflowing_test_side(tmp_path):
    """A 3-task x 20-row panel split with --seed 1, two of whose task1 test outcomes are 1e308."""
    source = _write_csv(tmp_path / "data.csv", n_rows=20)
    _, test, _ = _split(tmp_path, source, "--seed", "1")
    held = [line for line in test.read_text().splitlines() if line.startswith("task1,")][:2]
    text = source.read_text()
    for line in held:
        text = text.replace(line, line.rsplit(",", 1)[0] + ",1e308")
    source.write_text(text)
    train, test, _ = _split(tmp_path, source, "--seed", "1")
    assert test.read_text().count(",1e308\n") == 2
    return train, test


def _scaled_mean(values):
    top = np.abs(values).max()
    return top * (values / top).mean()


# Any warning is an error here.
@pytest.mark.filterwarnings("error")
def test_evaluate_scales_a_mean_whose_sum_overflows(tmp_path, capsys):
    # Two task1 outcomes of 1e308, and so two errors near it, overflow a
    # plain sum; each mean is finite, and is that of the values over their
    # largest magnitude, scaled back.
    train, test = _overflowing_test_side(tmp_path)
    model = _train(tmp_path, train, "m.json", "--model", "mtl")
    out = tmp_path / "mae_report.csv"
    capsys.readouterr()
    assert cli.main(["evaluate", str(test), "--model", str(model), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    header, *rows = csv.reader(out.read_text(encoding="utf-8").splitlines())
    assert header == ["task", "n", "outcome_mean", "outcome_sd", "m"]
    cells = {row[0]: [float(cell) for cell in row[2:]] for row in rows}
    assert np.isfinite(list(cells.values())).all()

    fitted = load_model(model)
    ds = MultiTaskDataset.from_table(load_csv(test, "task", "outcome"))
    outcomes, errors = {}, {}
    for task in ds.tasks:
        x = fitted.scaling.transform_features(task.X)
        row = fitted.task_labels.index(task.label)
        outcomes[task.label] = task.Y
        errors[task.label] = np.abs(x @ fitted.weights[row] + fitted.intercept[row] - task.Y)
    outcomes["TOTAL"] = np.concatenate(list(outcomes.values()))
    errors["TOTAL"] = np.concatenate(list(errors.values()))
    for label in ("task1", "TOTAL"):
        with np.errstate(over="ignore"):
            assert not np.isfinite(outcomes[label].sum()) and not np.isfinite(errors[label].sum())
        mean, _, mae = cells[label]
        np.testing.assert_allclose(mean, _scaled_mean(outcomes[label]), rtol=1e-12)
        np.testing.assert_allclose(mae, _scaled_mean(errors[label]), rtol=1e-12)
    # A mean whose sum does not overflow keeps the plain mean's bits.
    assert cells["task0"][0] == float(outcomes["task0"].mean())


def _huge_weights(data):
    data["weights"] = [[1e308] * len(row) for row in data["weights"]]


def _huge_outcome_range(data):
    # A range that maps a scaled -1 and 2 back finitely, which the model must,
    # and a task1 intercept that puts its scaled predictions near 10.
    data["scaling"].update(outcome_min=-1e307, outcome_max=5.9e307)
    data["intercept"][1] += 10.0


# Weights near the largest double predict inf for every row (the sum of
# products overflows); so does undoing an outcome scale of such a span for
# a prediction far past the range.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "edit, task", [(_huge_weights, "task0"), (_huge_outcome_range, "task1")],
    ids=["weights", "outcome"],
)
def test_evaluate_reports_an_overflowing_prediction_as_an_error(tmp_path, capsys, edit, task):
    csv_path = _write_csv(tmp_path / "data.csv")
    train, test, _ = _split(tmp_path, csv_path)
    model = _train(tmp_path, train, "m.json", "--model", "mtl", "--scale-outcome")
    data = json.loads(model.read_text())
    edit(data)
    model.write_text(json.dumps(data))
    out = tmp_path / "mae_report.csv"
    capsys.readouterr()
    code = cli.main(["evaluate", str(test), "--model", str(model), "--out", str(out)])
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {test}: task '{task}': the mean absolute error of model 'm' is not finite\n"
    )
    assert code == 2
    assert not out.exists()


def _write_wide_csv(path, column):
    """_write_csv's panel with 1e308 and -1e308 in one column: finite cells, a span that is not."""
    lines = _write_csv(path).read_text(encoding="utf-8").splitlines()
    for i, value in ((1, "1e308"), (2, "-1e308")):
        cells = lines[i].split(",")
        cells[column] = value
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


_WIDE = "[-1e+308, 1e+308]"


# Any warning is an error here: each command must fail with its error line alone.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "column, command, message",
    [
        (1, ["split", "--scale-full"], f"the range {_WIDE} of feature 0 is too wide to scale"),
        (1, ["train", "--model", "mtl"], f"the range {_WIDE} of feature 0 is too wide to scale"),
        (-1, ["train", "--model", "mtl", "--scale-outcome"],
         f"the outcome range {_WIDE} is too wide to scale"),
        (-1, ["train", "--model", "stl", "--scale-outcome"],
         f"the outcome range {_WIDE} is too wide to scale"),
    ],
    ids=["split-feature", "train-feature", "mtl-outcome", "stl-outcome"],
)
def test_a_range_too_wide_to_scale_is_an_error(tmp_path, capsys, column, command, message):
    csv_path = _write_wide_csv(tmp_path / "data.csv", column)
    if command[0] == "split":
        outputs = [tmp_path / name for name in ("train.csv", "test.csv", "split.json")]
        argv = [command[0], str(csv_path), *command[1:], "--train-out", str(outputs[0]),
                "--test-out", str(outputs[1]), "--manifest", str(outputs[2])]
    else:
        outputs = [tmp_path / "model.json"]
        argv = [command[0], str(csv_path), *command[1:], "--out", str(outputs[0])]
    capsys.readouterr()
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert captured.err == f"error: {csv_path}: {message}\n"
    assert captured.out == ""
    assert code == 2
    assert not any(path.exists() for path in outputs)


# A feature cell of 1e154 in task1 overflows the squared norms of the line
# search's trials. The mtl and stl fits give up with one error line; the
# prox of the mtl trials, like the rest of the search, must not warn.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "options, code",
    [
        (["--model", "mtl"], 2),
        (["--model", "stl", "--penalty", "ridge", "--lambda", "0.1"], 2),
        (["--model", "stl", "--setting", "global", "--penalty", "lasso", "--lambda", "0.1"], 2),
        (["--model", "cmtl", "--k", "2"], 0),
    ],
    ids=["mtl", "stl-ridge", "stl-global-lasso", "cmtl"],
)
def test_an_overflowing_line_search_trial_does_not_warn(tmp_path, capsys, options, code):
    csv_path = _write_csv(tmp_path / "data.csv", n_rows=20)
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    cells = lines[22].split(",")
    assert cells[0] == "task1"
    cells[1] = "1e154"
    lines[22] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "m.json"
    capsys.readouterr()
    assert cli.main(["train", str(csv_path), "--no-scale", *options, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: no acceptable step after 100 backtracks")
        assert err.count("\n") == 1
        assert not out.exists()
    else:
        assert err == ""
        assert out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["riskfactors", "evaluate"])
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda s: {**s, "feature_min": [-1e308, *s["feature_min"][1:]],
                    "feature_max": [1e308, *s["feature_max"][1:]]},
         f"the range {_WIDE} of feature 0 is too wide to scale"),
        (lambda s: {**s, "outcome_min": -1e308, "outcome_max": 1e308},
         f"the outcome range {_WIDE} is too wide to scale"),
    ],
    ids=["feature", "outcome"],
)
def test_model_whose_scaling_range_is_too_wide_is_an_error(
    tmp_path, capsys, command, corrupt, message
):
    csv_path = _write_csv(tmp_path / "data.csv")
    train, test, _ = _split(tmp_path, csv_path)
    model = _train(tmp_path, train, "m.json", "--model", "mtl", "--scale-outcome")
    data = json.loads(model.read_text())
    data["scaling"] = corrupt(data["scaling"])
    model.write_text(json.dumps(data))
    outputs = [tmp_path / "rf.json", tmp_path / "rf.csv", tmp_path / "mae.csv"]
    if command == "riskfactors":
        argv = ["riskfactors", "--model", str(model), "--out-json", str(outputs[0]),
                "--out-csv", str(outputs[1])]
    else:
        argv = ["evaluate", str(test), "--model", str(model), "--out", str(outputs[2])]
    capsys.readouterr()
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert captured.err == f"error: {model}: {message}\n"
    assert captured.out == ""
    assert code == 2
    assert not any(path.exists() for path in outputs)


def _write_huge_cell_csv(path, value, column=1, task=0):
    """_write_csv's panel at 20 rows per task, ``value`` in ``column`` of ``task``'s first row."""
    lines = _write_csv(path, n_rows=20).read_text(encoding="utf-8").splitlines()
    row = 1 + 20 * task
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


_SCALED_FITS = [
    ("--model", "mtl"),
    ("--model", "stl", "--setting", "individual"),
    ("--model", "stl", "--setting", "global", "--penalty", "ridge"),
    ("--model", "cmtl", "--k", "1"),
]
_SCALED_FIT_IDS = ["mtl", "stl-individual", "stl-global", "cmtl"]


# Any warning is an error here: train must fail with its error line alone.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "column, value, options",
    [
        *((1, "1e308", options) for options in _SCALED_FITS),
        (1, "1e308", ("--model", "mtl", "--no-scale")),
        (-1, "1.7e308", ("--model", "mtl")),
    ],
    ids=[*_SCALED_FIT_IDS, "mtl-no-scale", "outcome"],
)
def test_a_cell_too_large_to_fit_is_an_error(tmp_path, capsys, column, value, options):
    # The cell is finite, but the QR fold of task0's rows overflows on it.
    csv_path = _write_huge_cell_csv(tmp_path / "data.csv", value, column)
    out = tmp_path / "model.json"
    capsys.readouterr()
    code = cli.main(["train", str(csv_path), *options, "--out", str(out)])
    captured = capsys.readouterr()
    what = "feature 'f0'" if column == 1 else "the outcome"
    assert captured.err == (
        f"error: {csv_path}: {what} reaches {float(value)!r}, too large in magnitude "
        "to fit task 'task0'\n"
    )
    assert captured.out == ""
    assert code == 2
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("options", _SCALED_FITS, ids=_SCALED_FIT_IDS)
def test_a_large_cell_that_folds_still_fits(tmp_path, capsys, options):
    csv_path = _write_huge_cell_csv(tmp_path / "data.csv", "1e300")
    out = tmp_path / "model.json"
    assert cli.main(["train", str(csv_path), *options, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert load_model(out).n_tasks == 3


_HUGE_OUTCOME_FITS = [*_SCALED_FITS[:3], ("--model", "cmtl", "--k", "2")]


# The factors are finite, but the squared norm of task1's outcome column overflows.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [(), ("--no-scale",)], ids=["scaled", "no-scale"])
@pytest.mark.parametrize("options", _HUGE_OUTCOME_FITS, ids=_SCALED_FIT_IDS)
def test_an_outcome_too_large_to_square_is_an_error(tmp_path, capsys, options, scale):
    csv_path = _write_huge_cell_csv(tmp_path / "data.csv", "1e200", column=-1, task=1)
    out = tmp_path / "model.json"
    capsys.readouterr()
    code = cli.main(["train", str(csv_path), *options, *scale, "--out", str(out)])
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {csv_path}: the outcome reaches 1e+200, too large in magnitude "
        "to fit task 'task1'\n"
    )
    assert captured.out == ""
    assert code == 2
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("options", _HUGE_OUTCOME_FITS, ids=_SCALED_FIT_IDS)
def test_a_huge_outcome_fits_once_scaled(tmp_path, capsys, options):
    csv_path = _write_huge_cell_csv(tmp_path / "data.csv", "1e200", column=-1, task=1)
    out = tmp_path / "model.json"
    argv = ["train", str(csv_path), *options, "--scale-outcome", "--out", str(out)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""
    assert load_model(out).n_tasks == 3


# Just under the square-overflow cutoff the factors pass check_finite, but the
# line search's trial points overflow; they fail the descent test, silently.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["1e154", "1.3e154"])
@pytest.mark.parametrize("scale", [(), ("--no-scale",)], ids=["scaled", "no-scale"])
@pytest.mark.parametrize("options", _SCALED_FITS[:3], ids=_SCALED_FIT_IDS[:3])
def test_an_outcome_near_the_square_cutoff_fits_without_warnings(
    tmp_path, capsys, options, scale, value
):
    csv_path = _write_huge_cell_csv(tmp_path / "data.csv", value, column=-1, task=1)
    out = tmp_path / "model.json"
    capsys.readouterr()
    assert cli.main(["train", str(csv_path), *options, *scale, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert load_model(out).n_tasks == 3


@pytest.mark.filterwarnings("error")
def test_an_unscaled_large_feature_is_the_line_search_error_alone(tmp_path, capsys):
    csv_path = _write_huge_cell_csv(tmp_path / "data.csv", "1e100")
    out = tmp_path / "model.json"
    capsys.readouterr()
    argv = ["train", str(csv_path), "--model", "mtl", "--no-scale", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: no acceptable step ")
    assert not out.exists()


@pytest.mark.parametrize(
    "content, message",
    [
        (b"", "Expecting value: line 1 column 1 (char 0)"),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"[1, 2]", "model file does not contain a JSON object"),
    ],
    ids=["empty", "not-utf8", "array"],
)
@pytest.mark.parametrize("command", ["riskfactors", "evaluate"])
def test_unreadable_model_file_is_named(tmp_path, capsys, command, content, message):
    model = tmp_path / "m.json"
    model.write_bytes(content)
    out = tmp_path / "out.csv"
    if command == "riskfactors":
        argv = ["riskfactors", "--model", str(model), "--out-json", str(tmp_path / "rf.json"),
                "--out-csv", str(out)]
    else:
        test = _write_csv(tmp_path / "test.csv")
        argv = ["evaluate", str(test), "--model", str(model), "--out", str(out)]
    code = cli.main(argv)
    assert capsys.readouterr().err == f"error: {model}: {message}\n"
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("which", ["split", "train", "evaluate", "config", "categories"])
def test_input_that_is_not_utf8_is_named(tmp_path, capsys, which):
    data = _write_csv(tmp_path / "data.csv")
    model = _train(tmp_path, data, "m.json", "--model", "mtl")
    bad = tmp_path / "bad"
    good = {"config": "seed = 1\n", "categories": "feature,category\nf0,a\n"}.get(which)
    text = good.encode("utf-8") if good else data.read_bytes()
    bad.write_bytes(text[:21] + b"\xff" + text[21:])
    out = tmp_path / "out"
    argv = {
        "split": ["split", str(bad), "--train-out", str(out), "--test-out", str(tmp_path / "o2"),
                  "--manifest", str(tmp_path / "o3")],
        "train": ["train", str(bad), "--model", "mtl", "--out", str(out)],
        "evaluate": ["evaluate", str(bad), "--model", str(model), "--out", str(out)],
        "config": ["split", str(data), "--config", str(bad), "--train-out", str(out)],
        "categories": ["riskfactors", "--model", str(model), "--categories", str(bad),
                       "--out-json", str(out), "--out-csv", str(tmp_path / "o2")],
    }[which]
    capsys.readouterr()
    code = cli.main(argv)
    captured = capsys.readouterr()
    # The position is the codec's, within its read buffer, so only its form is pinned.
    assert re.fullmatch(
        re.escape(f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position ")
        + r"\d+: invalid start byte\n",
        captured.err,
    ), captured.err
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("which", ["split", "train", "evaluate", "config", "categories", "model"])
def test_input_that_starts_with_a_byte_order_mark_reads_as_without(tmp_path, which):
    # Spreadsheet programs save "CSV UTF-8" with a leading BOM; every text input skips it.
    data = _write_csv(tmp_path / "data.csv")
    files = {
        "data": data,
        "model": _train(tmp_path, data, "m.json", "--model", "mtl"),
        "config": tmp_path / "run.cfg",
        "categories": tmp_path / "categories.csv",
    }
    files["config"].write_text("lambda = 5\n", encoding="utf-8")
    files["categories"].write_text("feature,category\nf0,a\n", encoding="utf-8")
    key = which if which in files else "data"
    bom = tmp_path / "bom"
    bom.write_bytes(b"\xef\xbb\xbf" + files[key].read_bytes())
    written = []
    for source in (files[key], bom):
        f = {**files, key: source}
        out = tmp_path / f"out{len(written)}"
        out.mkdir()
        riskfactors = ["riskfactors", "--model", str(f["model"]), "--out-json",
                       str(out / "rf.json"), "--out-csv", str(out / "rf.csv")]
        argv = {
            "split": ["split", str(f["data"]), "--train-out", str(out / "train.csv"),
                      "--test-out", str(out / "test.csv"),
                      "--manifest", str(tmp_path / f"{out.name}.json")],
            "train": ["train", str(f["data"]), "--model", "mtl", "--out", str(out / "m.json")],
            "evaluate": ["evaluate", str(f["data"]), "--model", str(f["model"]),
                         "--out", str(out / "mae.csv")],
            "config": ["train", str(f["data"]), "--config", str(f["config"]), "--model", "mtl",
                       "--out", str(out / "m.json")],
            "categories": [*riskfactors, "--categories", str(f["categories"])],
            "model": riskfactors,
        }[which]
        assert cli.main(argv) == 0
        written.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert written[0] == written[1]
    if which == "config":
        assert load_model(tmp_path / "out1" / "m.json").lam == 5.0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["split", "{missing}", "--seed", "-1"], "--seed must be a non-negative integer, got -1"),
        (["train", "{missing}", "--model", "cmtl", "--k", "2", "--kmeans-seed", "-3"],
         "--kmeans-seed must be a non-negative integer, got -3"),
    ],
    ids=["split-seed", "train-kmeans-seed"],
)
def test_negative_seed_is_rejected_before_any_work(tmp_path, capsys, argv, message):
    # The input file does not exist, so reading it first would report that instead.
    missing = str(tmp_path / "missing.csv")
    code = cli.main([arg.replace("{missing}", missing) for arg in argv]
                    + ["--config", str(_config(tmp_path))])
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert code == 2
    assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]


def _config(tmp_path):
    # Output paths under tmp_path, so that nothing written goes unnoticed.
    path = tmp_path / "run.cfg"
    path.write_text(
        f"out = {tmp_path / 'model.json'}\ntrain_out = {tmp_path / 'train.csv'}\n"
        f"test_out = {tmp_path / 'test.csv'}\nmanifest = {tmp_path / 'manifest.json'}\n",
        encoding="utf-8",
    )
    return path


def _interleaved_test_set(tmp_path):
    """A train CSV and a test CSV whose tasks interleave row by row, plus two fitted models."""
    csv_path = _write_csv(tmp_path / "data.csv", n_tasks=4, n_rows=40)
    train, test, _ = _split(tmp_path, csv_path)
    lines = test.read_text(encoding="utf-8").splitlines()
    body = lines[1:]
    order = np.random.default_rng(5).permutation(len(body))
    test.write_text("\n".join([lines[0], *(body[i] for i in order)]) + "\n", encoding="utf-8")
    mtl = _train(tmp_path, train, "mtl.json", "--model", "mtl", "--lambda", "0.05")
    stl = _train(tmp_path, train, "stl.json", "--model", "stl", "--penalty", "ridge",
                 "--lambda", "0.01", "--intercept", "--scale-outcome")
    return test, [mtl, stl]


def test_evaluate_output_does_not_depend_on_chunk_size(tmp_path, monkeypatch, capsys):
    from taskreg import dataset

    test, models = _interleaved_test_set(tmp_path)
    capsys.readouterr()
    outputs = []
    for chunk in (1, 7, 512):
        # 7 columns: the task, 5 features and the outcome.
        monkeypatch.setattr(dataset, "_CHUNK_CELLS", chunk * 7)
        out = tmp_path / f"mae{chunk}.csv"
        argv = ["evaluate", str(test), "--out", str(out)]
        for model in models:
            argv += ["--model", str(model)]
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out.replace(str(out), "OUT")
        outputs.append((out.read_bytes(), printed))
    assert outputs[1:] == outputs[:1] * 2

    # The dataset fed one task per chunk gives the same values, and an
    # independent x @ w prediction the same MAE to roundoff.
    ds = MultiTaskDataset.from_table(load_csv(test, "task", "outcome"))
    table = outputs[0][0].decode().splitlines()
    assert [line.split(",")[0] for line in table[1:]] == [*ds.task_labels, "TOTAL"]
    for column, path in enumerate(models, start=4):
        model = load_model(path)
        report = evaluate(model, ds)
        assert [line.split(",")[column] for line in table[1:]] == [
            *(repr(report.per_task[label]) for label in ds.task_labels), repr(report.total)
        ]
        for task in ds.tasks:
            row = model.task_labels.index(task.label)
            x = model.scaling.transform_features(task.X)
            pred = x @ model.weights[row] + model.intercept[row]
            if model.scaling.scales_outcome:
                pred = model.scaling.invert_outcome(pred)
            expected = np.abs(pred - task.Y).mean()
            assert abs(report.per_task[task.label] - expected) <= 1e-12 * expected


def test_evaluate_reads_cells_only_float_reads(tmp_path, capsys):
    # "1_0" sends the file to the per-cell reader; the table is that of "10".
    test, models = _interleaved_test_set(tmp_path)
    lines = test.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[1] = "10"
    plain = tmp_path / "plain.csv"
    plain.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n", encoding="utf-8")
    cells[1] = "1_0"
    underscored = tmp_path / "underscored.csv"
    underscored.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n",
                           encoding="utf-8")
    tables = []
    for source in (plain, underscored):
        out = tmp_path / f"mae-{source.stem}.csv"
        assert cli.main(["evaluate", str(source), "--model", str(models[0]),
                         "--out", str(out)]) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]


def test_train_reads_cells_only_float_reads(tmp_path, monkeypatch):
    # "1_0" hands the file to the per-cell reader from its chunk on; the
    # chunks and so the folds are those of "10", and so are the model's bytes.
    from taskreg import dataset

    monkeypatch.setattr(dataset, "_CHUNK_CELLS", 7 * 7)  # 7 lines of 7 columns
    lines = _write_csv(tmp_path / "data.csv", n_rows=40).read_text(encoding="utf-8").splitlines()
    cells = lines[60].split(",")
    models = []
    for cell in ("10", "1_0"):
        cells[1] = cell
        source = tmp_path / f"train-{cell}.csv"
        source.write_text("\n".join([*lines[:60], ",".join(cells), *lines[61:]]) + "\n",
                          encoding="utf-8")
        model = _train(tmp_path, source, f"mtl-{cell}.json", "--model", "mtl", "--lambda", "1",
                       "--max-iters", "5000")
        models.append(model.read_bytes())
    assert models[0] == models[1]


def test_evaluate_error_order(tmp_path, capsys):
    test, models = _interleaved_test_set(tmp_path)
    lines = test.read_text(encoding="utf-8").splitlines()
    broken_row = tmp_path / "broken_row.csv"
    broken_row.write_text("\n".join([lines[0], lines[1] + ",9", *lines[2:]]) + "\n",
                          encoding="utf-8")
    broken_model = tmp_path / "broken.json"
    broken_model.write_text("{", encoding="utf-8")
    out = str(tmp_path / "x.csv")

    # A malformed model file is reported before a malformed test row.
    code = cli.main(["evaluate", str(broken_row), "--model", str(models[0]),
                     "--model", str(broken_model), "--out", out])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {broken_model}: ")

    # An unknown task is reported only once the body has parsed, so a
    # malformed row still wins over it.
    unknown = [lines[0], *lines[1:], "stranger" + lines[1][lines[1].index(","):]]
    for name, body in (("unknown", unknown), ("unknown_broken", [*unknown, lines[1] + ",9"])):
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(body) + "\n", encoding="utf-8")
        assert cli.main(["evaluate", str(path), "--model", str(models[0]), "--out", out]) == 2
        err = capsys.readouterr().err
        if name == "unknown":
            assert err == "error: model has no task 'stranger'\n"
        else:
            assert err == f"error: {path}: row {len(body)} has 8 fields, expected 7\n"


def _files(root):
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture
def collision_dir(tmp_path):
    """A data file, its split, a cmtl model, a hard link to the data and an empty sub/."""
    d = tmp_path
    data = _write_csv(d / "data.csv")
    train, _, _ = _split(d, data)
    _train(d, train, "m.json", "--model", "cmtl", "--k", "2")
    os.link(data, d / "link.csv")
    (d / "sub").mkdir()
    return d


@pytest.mark.parametrize(
    "argv, message",
    [
        (["split", "{d}/data.csv", "--train-out", "{d}/data.csv"],
         "--train-out {d}/data.csv names the same file as the input {d}/data.csv"),
        (["split", "{d}/data.csv", "--train-out", "{d}/x.csv", "--test-out", "{d}/x.csv"],
         "--test-out {d}/x.csv names the same file as --train-out {d}/x.csv"),
        (["split", "{d}/data.csv", "--train-out", "{d}/q.csv", "--manifest", "{d}/q.csv"],
         "--manifest {d}/q.csv names the same file as --train-out {d}/q.csv"),
        (["split", "{d}/data.csv", "--test-out", "{d}/sub/../data.csv"],
         "--test-out {d}/sub/../data.csv names the same file as the input {d}/data.csv"),
        (["split", "{d}/data.csv", "--train-out", "{d}/link.csv"],
         "--train-out {d}/link.csv names the same file as the input {d}/data.csv"),
        (["split", "{d}/data.csv", "--train-out", "{d}/new.csv",
          "--test-out", "{d}/sub/../new.csv"],
         "--test-out {d}/sub/../new.csv names the same file as --train-out {d}/new.csv"),
        (["train", "{d}/train.csv", "--model", "mtl", "--out", "{d}/train.csv"],
         "--out {d}/train.csv names the same file as the input {d}/train.csv"),
        (["evaluate", "{d}/test.csv", "--model", "{d}/m.json", "--out", "{d}/test.csv"],
         "--out {d}/test.csv names the same file as the test file {d}/test.csv"),
        (["evaluate", "{d}/test.csv", "--model", "{d}/m.json", "--out", "{d}/m.json"],
         "--out {d}/m.json names the same file as --model {d}/m.json"),
        (["riskfactors", "--model", "{d}/m.json", "--out-json", "{d}/m.json"],
         "--out-json {d}/m.json names the same file as --model {d}/m.json"),
        (["riskfactors", "--model", "{d}/m.json", "--out-json", "{d}/r", "--out-csv", "{d}/r"],
         "--out-csv {d}/r names the same file as --out-json {d}/r"),
        (["clusters", "--model", "{d}/m.json", "--out", "{d}/c", "--out-matrix", "{d}/c"],
         "--out-matrix {d}/c names the same file as --out {d}/c"),
        (["split", "{d}/data.csv", "--train-out", "{d}/sub/run.cfg"],
         "--train-out {d}/sub/run.cfg names the same file as --config {d}/sub/run.cfg"),
        (["riskfactors", "--model", "{d}/m.json", "--out-csv", "{d}/sub/../sub/run.cfg"],
         "--out-csv {d}/sub/../sub/run.cfg names the same file as --config {d}/sub/run.cfg"),
    ],
    ids=["split-input", "split-sides", "split-manifest", "split-dotdot", "split-hard-link",
         "split-new-file", "train-input", "evaluate-test", "evaluate-model",
         "riskfactors-model", "riskfactors-outputs", "clusters-outputs", "split-config",
         "riskfactors-config"],
)
def test_output_naming_an_input_or_another_output_is_rejected(
    collision_dir, capsys, argv, message
):
    d = str(collision_dir)
    # Every other output path is a fresh name in the directory, so any write shows.
    config = collision_dir / "sub" / "run.cfg"
    config.write_text(
        "".join(f"{key} = {d}/default_{key}\n"
                for key in ("train_out", "test_out", "manifest", "out", "out_json", "out_csv")),
        encoding="utf-8",
    )
    before = _files(collision_dir)
    code = cli.main([arg.replace("{d}", d) for arg in argv] + ["--config", str(config)])
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.replace('{d}', d)}\n"
    assert captured.out == ""
    assert code == 2
    assert _files(collision_dir) == before


_POSITIONALS = {"split": ["data.csv"], "train": ["data.csv"], "evaluate": ["test.csv"]}
# The flags an option applies only with.
_NEEDS = {("split", "scale_outcome"): ["--scale-full"]}
_OPTION_ROWS = [(command, *row) for command, rows in cli._OPTIONS.items() for row in rows]


def _flag_and_config_values(flag, kind, default):
    """Argv words giving an option by its flag, and a config value meaning the same."""
    if kind is bool:
        return [flag], "yes"
    if kind is list:
        return [flag, "a.json", flag, "b.json"], "a.json, b.json"
    if isinstance(kind, tuple):
        value = next(choice for choice in kind if choice != default)
    else:
        value = {int: "7", float: "0.25", str: "x.txt"}[kind]
    return [flag, value], value


@pytest.mark.parametrize("spelling", ["flag", "attribute"])
@pytest.mark.parametrize(
    "command, name, kind, default", _OPTION_ROWS, ids=[f"{r[0]}-{r[1]}" for r in _OPTION_ROWS]
)
def test_config_line_sets_what_its_flag_sets(
    tmp_path, monkeypatch, command, name, kind, default, spelling
):
    seen = []
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args: seen.append(vars(args)) or 0)
    dest = cli._DESTS.get(name, name)
    flag = "--" + name.replace("_", "-")
    flag_words, text = _flag_and_config_values(flag, kind, default)
    config = tmp_path / "run.cfg"
    config.write_text(f"{flag[2:] if spelling == 'flag' else dest} = {text}\n", encoding="utf-8")
    argv = [command, *_POSITIONALS.get(command, []), *_NEEDS.get((command, name), [])]
    assert cli.main([*argv, *flag_words]) == 0
    assert cli.main([*argv, "--config", str(config)]) == 0
    by_flag, by_config = ({k: v for k, v in args.items() if k != "config"} for args in seen)
    assert by_config == by_flag
    assert type(by_config[dest]) is type(by_flag[dest])
    assert by_flag[dest] != default


@pytest.mark.parametrize(
    "command, line, message",
    [
        ("split", "scale-full = maybe", "scale_full: expected a boolean, got 'maybe'"),
        ("evaluate", "model = a.json,,b.json",
         "model: expected a comma list of paths, got an empty item in 'a.json,,b.json'"),
        ("train", "momentum = bogus",
         "momentum: expected one of delayed, standard, none, got 'bogus'"),
        ("split", "seed = 1.5", "seed: invalid literal for int() with base 10: '1.5'"),
        ("train", "lambda = big", "lam: could not convert string to float: 'big'"),
    ],
    ids=["bool", "list", "choice", "int", "float"],
)
def test_malformed_config_value_is_named(tmp_path, monkeypatch, capsys, command, line, message):
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args: pytest.fail("handler ran"))
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    code = cli.main([command, *_POSITIONALS.get(command, []), "--config", str(config)])
    captured = capsys.readouterr()
    assert captured.err == f"error: config key {message}\n"
    assert captured.out == ""
    assert code == 2
