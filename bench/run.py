"""Benchmark of the taskreg csv-in, report-out pipeline.

    python3 bench/run.py --workload brfss-mtl --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout; it imports and runs the package
under ``src/``. A seeded generator writes the workload's panel CSV into
a scratch directory under ``bench/.work/`` before any timing starts.
The program under test only ever sees that CSV.

``--trace 0`` runs the real CLI (``python -m taskreg.cli ...``) as child
processes, one after another: one client in a closed loop, each child
pinned to one BLAS thread. It repeats the whole command sequence until
``--seconds`` is spent (at least three times) and reports the median of
each end-to-end metric; after each pass it times ``evaluate`` twice
more. Wall time is taken around each child; CPU time and peak RSS come
from ``os.wait4`` on that one child (see ``spawn.py``).

``--trace 1`` measures the start-up of one CLI process, then runs the
sequence in this process through ``taskreg.cli.main`` in pairs of
passes, one without and one with spans around each module's functions
(see ``tracing.py``), and reports the per-layer metrics. The pairs
alternate which pass runs first; the median of the per-pair differences
is the tracing overhead.

Every repetition checks each command's exit code and solver
convergence; the first also checks the outputs against what the
generator planted, and later ones must write byte-identical outputs.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
table of every metric with its unit and sample count. The full result,
with the generator parameters, the SHA-256 of the input CSV and, when
traced, every span, is written to ``bench/results/``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, here and in every child.
for _var in ("TASKREG_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import panels
import tracing
from workloads import WORKLOADS, check_outputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_REPS = 3
# evaluate is short, so its wall time is noisier than the others': each
# untraced repetition times it this many more times after the pipeline.
EXTRA_EVALUATIONS = 2
STARTUP_SAMPLES = 5
# A child that runs longer than this is killed and counted as failed.
COMMAND_TIMEOUT_S = 120.0
# A run of one workload stops, without a result, after this many seconds
# beyond its --seconds budget, so that a hung command cannot hang the run.
RUN_GRACE_S = 120

# End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "evaluate_s": "s",
    "pipeline_s": "s",
    "pipeline_cpu_s": "s",
    "setup_peak_rss_mb": "MB",
    "train_peak_rss_mb": "MB",
    "evaluate_peak_rss_mb": "MB",
    "test_mae": "outcome",
    "final_objective": "objective",
    "error_rate": "ratio",
}


@dataclass
class CommandRun:
    name: str
    phase: str
    wall: float
    cpu: float
    rss_mb: float
    exit_code: int
    output: str


@dataclass
class Rep:
    runs: list[CommandRun]
    wall: float
    # Extra passes over the evaluate-phase commands, outside ``wall``.
    extra: list[list[CommandRun]] = field(default_factory=list)
    failed: set[str] = field(default_factory=set)
    messages: list[str] = field(default_factory=list)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], cwd: Path, log: Path) -> tuple[float, float, float, int]:
    """Run one child through ``spawn.py``; returns (wall s, cpu s, peak RSS MB, exit code)."""
    helper = [sys.executable, str(BENCH / "spawn.py"), str(COMMAND_TIMEOUT_S), str(log), "--"]
    proc = subprocess.Popen(
        helper + argv, cwd=cwd, env=_child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate()
    except BaseException:
        # Stop the helper and the command it started, then re-raise.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"spawn.py exited with {proc.returncode} for {argv}")
    m = json.loads(out)
    return m["wall_s"], m["cpu_s"], m["peak_rss_mb"], m["exit_code"]


def subprocess_launcher(work: Path):
    def launch(cmd) -> CommandRun:
        log = work / f"{cmd.name}.log"
        wall, cpu, rss, code = run_child(
            [sys.executable, "-m", "taskreg.cli", *cmd.argv], work, log
        )
        return CommandRun(cmd.name, cmd.phase, wall, cpu, rss, code,
                          log.read_text(errors="replace"))

    return launch


def inprocess_launcher(work: Path, tracer: tracing.Tracer):
    from taskreg import cli

    def launch(cmd) -> CommandRun:
        tracer.command = cmd.name
        buf = io.StringIO()
        here = os.getcwd()
        os.chdir(work)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main(list(cmd.argv))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is one failed command, not a failed run
            code = 1
            buf.write(traceback.format_exc())
        finally:
            os.chdir(here)
        wall = time.perf_counter() - start
        return CommandRun(cmd.name, cmd.phase, wall, 0.0, 0.0, code, buf.getvalue())

    return launch


def run_rep(commands, launch, extra_evaluations: int = 0) -> Rep:
    """Run the command sequence once, then the evaluate-phase commands
    ``extra_evaluations`` more times; flags commands that exit non-zero or
    that fit a model without converging."""
    runs = [launch(cmd) for cmd in commands]
    # Commands run back to back, so the pipeline's latency is their sum;
    # the harness's own work between them is left out.
    rep = Rep(runs, sum(run.wall for run in runs))
    evaluations = [cmd for cmd in commands if cmd.phase == "evaluate"]
    rep.extra = [[launch(cmd) for cmd in evaluations] for _ in range(extra_evaluations)]
    labelled = [(run.name, run) for run in runs] + [
        (f"{run.name} #{i + 2}", run) for i, extra in enumerate(rep.extra) for run in extra
    ]
    for label, run in labelled:
        if run.exit_code != 0:
            rep.failed.add(label)
            rep.messages.append(f"{label}: exit code {run.exit_code}: {run.output[-500:]}")
        elif run.phase == "train" and "converged=True" not in run.output:
            rep.failed.add(label)
            rep.messages.append(f"{label}: solver did not report converged=True")
    return rep


def output_hashes(work: Path, commands) -> dict[str, dict[str, str | None]]:
    out = {}
    for cmd in commands:
        out[cmd.name] = {
            name: panels.sha256_of(work / name) if (work / name).exists() else None
            for name in cmd.outputs
        }
    return out


class Session:
    """The repetitions of one run, with the checks applied to each."""

    def __init__(self, workload, panel, commands, work: Path):
        self.workload = workload
        self.panel = panel
        self.commands = commands
        self.work = work
        self.reps: list[Rep] = []
        self.first_hashes = None
        self.solver: dict[str, str] = {}
        self.test_mae = None
        self.final_objective = None

    def add(self, rep: Rep) -> None:
        hashes = output_hashes(self.work, self.commands)
        if self.first_hashes is None:
            self.first_hashes = hashes
            self.solver = {
                run.name: line
                for run in rep.runs
                for line in run.output.splitlines()
                if line.startswith("solver:")
            }
            failures, self.test_mae, self.final_objective = check_outputs(
                self.work, self.panel, self.workload
            )
            names = {cmd.name for cmd in self.commands}
            for command, message in failures:
                # A check that cannot name its command blames the last one.
                rep.failed.add(command if command in names else self.commands[-1].name)
                rep.messages.append(f"{command}: {message}")
        else:
            for name, files in hashes.items():
                if files != self.first_hashes[name]:
                    rep.failed.add(name)
                    rep.messages.append(f"{name}: output differs from the first repetition")
        self.reps.append(rep)

    @property
    def attempted(self) -> int:
        return sum(len(rep.runs) + sum(map(len, rep.extra)) for rep in self.reps)

    @property
    def failed(self) -> int:
        return sum(len(rep.failed) for rep in self.reps)


def _phase_runs(rep: Rep, phase: str) -> list[CommandRun]:
    return [run for run in rep.runs if run.phase == phase]


def _summary(samples: list[float], unit: str) -> dict:
    return {
        "value": statistics.median(samples),
        "unit": unit,
        "samples": len(samples),
        "min": min(samples),
        "max": max(samples),
    }


def end_to_end_metrics(session: Session) -> dict[str, dict]:
    reps = session.reps
    samples = {
        "setup_s": [sum(r.wall for r in _phase_runs(rep, "setup")) for rep in reps],
        "train_s": [sum(r.wall for r in _phase_runs(rep, "train")) for rep in reps],
        "evaluate_s": [
            sum(r.wall for r in runs)
            for rep in reps
            for runs in (_phase_runs(rep, "evaluate"), *rep.extra)
        ],
        "pipeline_s": [rep.wall for rep in reps],
        "pipeline_cpu_s": [sum(r.cpu for r in rep.runs) for rep in reps],
        "setup_peak_rss_mb": [max(r.rss_mb for r in _phase_runs(rep, "setup")) for rep in reps],
        "train_peak_rss_mb": [max(r.rss_mb for r in _phase_runs(rep, "train")) for rep in reps],
        "evaluate_peak_rss_mb": [
            max(r.rss_mb for r in _phase_runs(rep, "evaluate")) for rep in reps
        ],
    }
    out = {name: _summary(values, END_TO_END[name]) for name, values in samples.items()}
    for name, value in (("test_mae", session.test_mae),
                        ("final_objective", session.final_objective)):
        # 0 stands in for a value the failed checks could not read.
        out[name] = _summary([0.0 if value is None else value], END_TO_END[name])
    out["error_rate"] = {
        "value": session.failed / session.attempted,
        "unit": END_TO_END["error_rate"],
        "samples": session.attempted,
    }
    return out


def startup_seconds() -> list[float]:
    """Wall time of a child that imports numpy and the CLI, then exits."""
    argv = [sys.executable, "-c", "import numpy, taskreg.cli"]
    log = BENCH / ".work" / f"startup-{os.getpid()}.log"
    try:
        return [run_child(argv, ROOT, log)[0] for _ in range(STARTUP_SAMPLES)]
    finally:
        log.unlink(missing_ok=True)


def repeat(run_once, seconds: float, start: float) -> None:
    """Call ``run_once`` at least MIN_REPS times, and again while the next
    call is expected to end within ``seconds`` of ``start``."""
    first = time.perf_counter()
    done = 0
    while True:
        run_once()
        done += 1
        now = time.perf_counter()
        if done >= MIN_REPS and now - start + (now - first) / done > seconds:
            return


def traced_metrics(workload, panel, commands, work: Path, seconds: float):
    """Per-layer metrics; returns (session, metrics, spans of every rep)."""
    start = time.perf_counter()
    startup = startup_seconds()
    session = Session(workload, panel, commands, work)
    overheads = []
    per_rep = []
    spans = []

    def untraced_pass() -> float:
        rep = run_rep(commands, inprocess_launcher(work, tracing.Tracer()))
        session.add(rep)
        return rep.wall

    def traced_pass() -> float:
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            rep = run_rep(commands, inprocess_launcher(work, tracer))
        session.add(rep)
        per_rep.append(tracing.layer_metrics(tracer.spans))
        spans.append([span.to_dict() for span in tracer.spans])
        return rep.wall

    def traced_pair():
        # One pass of the sequence with spans and one without, in this
        # process; which runs first alternates, so that neither pass
        # always pays the other's after-effects.
        if len(overheads) % 2 == 0:
            untraced = untraced_pass()
            traced = traced_pass()
        else:
            traced = traced_pass()
            untraced = untraced_pass()
        overheads.append(traced - untraced)

    repeat(traced_pair, seconds, start)
    metrics = {"cli.startup_s": _summary(startup, "s")}
    for name, unit in tracing.PER_LAYER.items():
        if name in ("cli.startup_s", "trace.overhead_s"):
            continue
        metrics[name] = _summary([values[name] for values in per_rep], unit)
    quartiles = statistics.quantiles(overheads, n=4)
    metrics["trace.overhead_s"] = {**_summary(overheads, "s"),
                                   "q1": quartiles[0], "q3": quartiles[2]}
    for name in tracing.COUNTS:
        if len({values[name] for values in per_rep}) != 1:
            session.reps[-1].messages.append(f"note: {name} differs between repetitions")
    return session, metrics, spans


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """One benchmark run of one workload; returns the full result record."""
    workload = WORKLOADS[name]
    work = BENCH / ".work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        panel = workload.make_panel(work, seed, toy)
        inputs = {Path(panel.path).name: panels.sha256_of(panel.path)}
        commands = workload.commands(panel, toy)
        spans = None
        if trace:
            session, metrics, spans = traced_metrics(workload, panel, commands, work, seconds)
        else:
            session = Session(workload, panel, commands, work)
            launch = subprocess_launcher(work)
            repeat(
                lambda: session.add(run_rep(commands, launch, EXTRA_EVALUATIONS)),
                seconds,
                time.perf_counter(),
            )
            metrics = end_to_end_metrics(session)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "toy": toy,
        "generator": panel.params,
        "inputs_sha256": inputs,
        "commands": [list(cmd.argv) for cmd in commands],
        "solver": session.solver,
        "repetitions": len(session.reps),
        "attempted": session.attempted,
        "failed": session.failed,
        "messages": [m for rep in session.reps for m in rep.messages],
        "metrics": metrics,
        "spans": spans,
    }


def print_table(result: dict) -> None:
    print(
        f"# {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"repetitions {result['repetitions']}  "
        f"failed {result['failed']}/{result['attempted']} commands"
    )
    for file, digest in result["inputs_sha256"].items():
        print(f"# input {file} sha256 {digest}")
    for command, line in result["solver"].items():
        print(f"# {command} {line}")
    for message in result["messages"]:
        print(f"# {message}")
    print(f"{'metric':32s} {'value':>16s} {'unit':10s} {'samples':>7s}")
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:16.6g} {m['unit']:10s} {m['samples']:7d}")


def contract_line(results: list[dict], trace: bool) -> dict:
    """The last output line: only the metrics BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for name in listed:
            m = result["metrics"][name]
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }


class RunDeadline(BaseException):
    """Raised by the run's alarm; a BaseException so no handler absorbs it."""


def _deadline(_signum, _frame):
    raise RunDeadline


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "taskreg" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no taskreg sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import taskreg

    if Path(taskreg.__file__).resolve().parent != SRC / "taskreg":
        print(f"error: imported taskreg from {taskreg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(len(names) * (int(args.seconds) + RUN_GRACE_S))
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except RunDeadline:
        print("error: the run overran its time limit; a command may hang", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    for result in results:
        path = out_dir / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
        print_table(result)
    print(json.dumps(contract_line(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
