"""Every function in ``src/taskreg`` is reached by a command, or is on a short allowlist.

A fresh interpreter runs ``cli.main`` over the pipeline's commands on tiny
panels, under ``sys.setprofile``, and records the code object of every
call. Every ``def`` that ``ast`` finds in the package is then either
among them or on :data:`ALLOWED`, each entry with its reason. A fresh
interpreter makes the run independent of what other tests imported: the
package's lazy ``__getattr__`` runs on the first import of a submodule,
as it does for the ``taskreg`` command.

The commands cover every model kind, every STL setting and penalty, the
intercept, scaling on and off, every momentum rule, pooled and macro
totals, every riskfactors level with categories, ``clusters
--out-matrix``, a config file, a cell only ``float()`` reads (``1_0``),
and error inputs that reach whole functions: a fit whose line search
fails and a model file holding ``NaN``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "taskreg"

# Functions no command reaches, as "<module>.<qualified name>": the reason each may stay.
ALLOWED = {
    "__init__.__dir__": "the package's dir() hook; no command lists the package",
    "dataset.RowSink.add": "a Protocol declaration; the sinks implement it",
    "dataset.RowSink.finish": "a Protocol declaration; the sinks implement it",
    "dataset._value_eq": "model and parameter ==, which the library offers and no command uses",
    "dataset._same": "called only by _value_eq",
    "mtl.lambda_max": "the README Library example calls it to choose --lambda",
    "riskfactors.vote_merge_stl": "the paper's ensemble step, not yet wired to a command",
}

# Runs in the child: argv lists from stdin, the reached code objects out as JSON.
_CHILD_SCRIPT = """
import json, sys
runs, out_path = json.load(sys.stdin), sys.argv[1]
reached = set()

def profile(frame, event, arg):
    if event == "call":
        reached.add(frame.f_code)

sys.setprofile(profile)
from taskreg import cli
codes = []
for argv in runs:
    codes.append(cli.main(argv))
sys.setprofile(None)
found = [(c.co_filename, c.co_firstlineno, c.co_name) for c in reached]
with open(out_path, "w") as fh:
    json.dump({"codes": codes, "reached": found}, fh)
"""


def _write_panel(path, n_tasks, rows, n_features, seed, *, blank_outcome=False, cell=None):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n_tasks, n_features))
    lines = ["task," + ",".join(f"f{j}" for j in range(n_features)) + ",outcome"]
    for t in range(n_tasks):
        for _ in range(rows):
            x = rng.uniform(0, 1, size=n_features)
            y = float(x @ w[t] + 0.1 * rng.normal())
            lines.append(f"t{t}," + ",".join(repr(float(v)) for v in x) + f",{y!r}")
    if blank_outcome:
        lines[3] = lines[3].rsplit(",", 1)[0] + ","
    if cell is not None:  # in place of the first data row's first feature
        cells = lines[1].split(",")
        cells[1] = cell
        lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _runs(d: Path):
    """Each command's argv, once the files it reads are written into ``d``."""

    def f(name):
        return str(d / name)

    _write_panel(d / "panel.csv", 4, 12, 3, 0, blank_outcome=True)
    _write_panel(d / "odd.csv", 4, 12, 3, 1, cell="1_0")
    _write_panel(d / "huge.csv", 2, 6, 2, 2, cell="1e20")
    (d / "categories.csv").write_text("feature,category\nf0,a\nf1,b\nf2,a\n")
    (d / "run.cfg").write_text("# one file for the pipeline\ntask-column = task\nlam = 0.05\n")
    (d / "nan.json").write_text('{"weights": NaN}')
    runs = [
        ["split", f("panel.csv"), "--seed", "1", "--train-out", f("train.csv"),
         "--test-out", f("test.csv"), "--manifest", f("split.json"), "--config", f("run.cfg")],
        ["split", f("odd.csv"), "--scale-full", "--scale-outcome", "--train-fraction", "0.5",
         "--train-out", f("scaled_train.csv"), "--test-out", f("scaled_test.csv"),
         "--manifest", f("split.json")],
    ]
    models = []

    def train(name, *flags):
        models.append(f(f"{name}.json"))
        runs.append(["train", f("train.csv"), *flags, "--out", models[-1]])

    train("mtl", "--model", "mtl", "--config", f("run.cfg"))
    train("mtl_icpt", "--model", "mtl", "--intercept", "--scale-outcome", "--momentum", "none")
    train("mtl_raw", "--model", "mtl", "--no-scale", "--momentum", "standard")
    train("cmtl", "--model", "cmtl", "--k", "2", "--rho1", "0.1", "--rho2", "0.1")
    for setting in ("individual", "global"):
        for penalty in ("none", "ridge", "lasso"):
            train(f"stl_{setting}_{penalty}", "--model", "stl", "--setting", setting,
                  "--penalty", penalty, "--intercept", "--max-iters", "3")
    return runs + [
        ["train", f("odd.csv"), "--model", "mtl", "--out", f("odd.json")],
        ["evaluate", f("test.csv"), *(a for m in models for a in ("--model", m)),
         "--model", models[0], "--out", f("mae.csv")],
        ["evaluate", f("test.csv"), "--model", models[0], "--total", "macro",
         "--out", f("macro.csv")],
        ["riskfactors", "--model", f("cmtl.json"), "--top", "2",
         "--levels", "task,cluster,population", "--categories", f("categories.csv"),
         "--out-json", f("rf.json"), "--out-csv", f("rf.csv")],
        ["riskfactors", "--model", models[0], "--out-json", f("rf2.json"),
         "--out-csv", f("rf2.csv")],
        ["clusters", "--model", f("cmtl.json"), "--out", f("clusters.csv"),
         "--out-matrix", f("cmat.csv")],
        # Error inputs: a cell of 1e20 makes the unscaled fit's line search
        # fail, and a model file holding NaN is rejected by the JSON reader.
        ["train", f("huge.csv"), "--model", "mtl", "--no-scale", "--out", f("bad.json")],
        ["clusters", "--model", f("nan.json"), "--out", f("c2.csv")],
    ]


def _defs():
    """Each def in the package: (file, first line, name) -> "<module>.<qualified name>"."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(str(path), first, child.name)] = f"{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return out


def test_every_function_is_reached_by_a_command_or_allowed(tmp_path):
    runs = _runs(tmp_path)
    result = tmp_path / "reached.json"
    child = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, str(result)],
        input=json.dumps(runs), text=True, capture_output=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert child.returncode == 0, child.stderr
    data = json.loads(result.read_text())
    # Every command succeeds but the two error inputs at the end.
    assert data["codes"] == [0] * (len(runs) - 2) + [2, 2], child.stderr
    reached = {
        (str(Path(f).resolve()), line, name) for f, line, name in data["reached"]
    }
    defs = _defs()
    unreached = sorted(name for key, name in defs.items() if key not in reached)
    missing = [name for name in unreached if name not in ALLOWED]
    assert not missing, "no command reaches: " + ", ".join(missing)
    stale = sorted(set(ALLOWED) - set(unreached))
    assert not stale, "allowed but reached, or no longer defined: " + ", ".join(stale)
