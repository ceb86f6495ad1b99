"""Self-test of the benchmark harness at toy size.

    python3 bench/selftest.py

Runs from the root of a checkout in well under a minute:

1. ``BENCHMARK.json`` lists the harness's metrics with the same names and
   units (``error_rate`` aside: it reads 0 on correct code, so it is
   reported in each run's table and as ``failed``/``attempted``).
2. Every workload, untraced and traced on a toy-size panel, emits every
   end-to-end or per-layer metric with its unit and a sample count, its
   last line carries exactly the listed metrics, and nothing fails.
3. Deliberately corrupted outputs are caught and counted as failed
   commands: an mtl model JSON with one planted-support column zeroed,
   and a clusters file with two clusters merged into one.

Exits 0 when all of this holds and 1 with the first mismatch otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import sys

import run
import tracing
from workloads import WORKLOADS


class SelfTestFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def check_listing() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    emitted = {k: v for k, v in run.END_TO_END.items() if k != "error_rate"}
    expect(listed == emitted, f"BENCHMARK.json end_to_end {listed} != harness {emitted}")
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(listed == tracing.PER_LAYER, "BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    listed = [(w["name"], w["why"]) for w in spec["workloads"]]
    expect(listed == [(w.name, w.why) for w in WORKLOADS.values()],
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")


def check_run(name: str, trace: bool) -> None:
    result = run.run_workload(name, seed=1, seconds=0, trace=trace, toy=True)
    label = f"{name} trace={int(trace)}"
    expected = tracing.PER_LAYER if trace else run.END_TO_END
    expect(list(result["metrics"]) == list(expected), f"{label}: metric names differ")
    for metric, unit in expected.items():
        m = result["metrics"][metric]
        expect(m["unit"] == unit, f"{label}: {metric} unit {m['unit']!r} != {unit!r}")
        expect(m["samples"] >= 1, f"{label}: {metric} has no samples")
        expect(math.isfinite(m["value"]), f"{label}: {metric} is {m['value']}")
    expect(result["failed"] == 0, f"{label}: clean run failed: {result['messages']}")
    line = run.contract_line([result], trace)
    expect(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(line)}")
    expect(line["correct"] and line["attempted"] == result["attempted"], f"{label}: {line}")
    print(f"ok  {label}: {len(expected)} metrics, {result['attempted']} commands")


def zero_support_column(work, panel) -> None:
    path = work / "mtl.json"
    model = json.loads(path.read_text())
    j = model["feature_names"].index(panel.truth["support"][0])
    for row in model["weights"]:
        row[j] = 0.0
    path.write_text(json.dumps(model, indent=2) + "\n")


def merge_two_clusters(work, _panel) -> None:
    path = work / "clusters.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1:] = [[label, "0" if cluster == "1" else cluster] for label, cluster in rows[1:]]
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def check_corruption(name: str, corrupt, blamed: str) -> None:
    workload = WORKLOADS[name]
    work = run.BENCH / ".work" / f"selftest-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        panel = workload.make_panel(work, 1, True)
        commands = workload.commands(panel, True)
        session = run.Session(workload, panel, commands, work)
        rep = run.run_rep(commands, run.subprocess_launcher(work))
        expect(not rep.failed, f"{name}: the uncorrupted pipeline failed: {rep.messages}")
        corrupt(work, panel)
        session.add(rep)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    expect(blamed in rep.failed, f"{name}: {corrupt.__name__} not caught: {rep.messages}")
    error_rate = run.end_to_end_metrics(session)["error_rate"]["value"]
    expect(session.failed >= 1 and error_rate > 0, f"{name}: failure not counted")
    print(f"ok  {name}: {corrupt.__name__} caught as a failed {blamed}, "
          f"error_rate {error_rate:.3g}")


def main() -> int:
    if not (run.SRC / "taskreg" / "cli.py").is_file():
        print(f"error: no taskreg sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    try:
        check_listing()
        for name in WORKLOADS:
            for trace in (False, True):
                check_run(name, trace)
        check_corruption("brfss-mtl", zero_support_column, "train-mtl")
        check_corruption("cohorts-cmtl", merge_two_clusters, "clusters")
    except SelfTestFailure as exc:
        print(f"FAIL {exc}")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
