"""qaplan benchmark: sweep throughput, set-up and memory through the CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S --trace 0|1
    python3 perfbench/run.py --record-golden

The loop is closed with one client: one CLI call at a time, each in a fresh
interpreter (perfbench/child.py) that writes its table with --out. Every
call is checked: exit code, no traceback, only warning lines on stderr, and
for seed 0 the sha256 of the table and the warning count recorded in
golden.json; for other seeds the row count. Metric names, units and the
workloads come from BENCHMARK.json.

--trace 0 measures the end-to-end metrics. --trace 1 makes the separate
traced run: set-up probes, then untraced and traced runs of the workload in
turn; the traced calls wrap each layer from outside (perfbench/spans.py).

The last line of output is one json object with the keys correct,
attempted, failed and metrics. The exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

CALL_TIMEOUT_S = 120
PROBES = 7  # set-up probe spawns per kind in the traced run
NOTE = ("shared machine: other tenants' load makes timings noisy; "
        "compare medians from runs made back to back")
EXTENSIONS = {"csv": "csv", "table": "txt"}
WARNING_PREFIX = "qaplan: warning: "


def now_ns() -> int:
    # CLOCK_MONOTONIC is system-wide, so child.py's marks compare with ours.
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


@dataclass
class Outcome:
    """One finished call: its checks, timings and resource use."""

    call: workloads.Call
    problems: List[str]
    exit_code: int
    warnings: int
    out_sha256: str
    start_ns: int
    end_ns: int
    maxrss_kib: int
    marks: dict

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def setup_ns(self) -> int:
        return self.marks["config_ns"] - self.start_ns

    @property
    def main_ns(self) -> int:
        return self.marks["main_exit_ns"] - self.marks["main_enter_ns"]


def spawn(args: List[str], tag: str) -> Tuple[int, int, int, int]:
    """Run the interpreter on `args`; return exit code, start, end, peak RSS.

    stdout and stderr go to WORK/<tag>.stdout and WORK/<tag>.stderr. The
    peak resident set comes from wait4, in KiB.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.path.join(WORK, f"{tag}.stdout"), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.path.join(WORK, f"{tag}.stderr"), flags, 0o644),
    ]
    env = {k: v for k, v in os.environ.items() if k != "QAPLAN_CONFIG"}
    start = now_ns()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env,
                         file_actions=actions)
    previous = signal.signal(signal.SIGALRM,
                             lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(CALL_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    end = now_ns()
    return os.waitstatus_to_exitcode(status), start, end, usage.ru_maxrss


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def run_call(call: workloads.Call, index: int, mode: str,
             golden: Optional[dict]) -> Outcome:
    out_path = os.path.join(WORK, f"out-{index}.{EXTENSIONS[call.fmt]}")
    report_path = os.path.join(WORK, f"report-{index}.json")
    for stale in (out_path, report_path):
        if os.path.exists(stale):
            os.remove(stale)
    tag = f"call-{index}"
    code, start, end, rss = spawn([CHILD, mode, report_path, *call.argv(out_path)], tag)
    stdout = _read(os.path.join(WORK, f"{tag}.stdout"))
    stderr = _read(os.path.join(WORK, f"{tag}.stderr")).decode("utf-8", "replace")

    problems = []
    lines = stderr.splitlines()
    warnings = sum(1 for line in lines if line.startswith(WARNING_PREFIX))
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    elif warnings != len(lines):
        problems.append("stderr: " + next(
            line for line in lines if not line.startswith(WARNING_PREFIX)))
    if stdout:
        problems.append(f"{len(stdout)} bytes on stdout despite --out")
    try:
        table = _read(out_path)
    except OSError:
        table = b""
        problems.append("no output file")
    sha = hashlib.sha256(table).hexdigest()
    if golden is not None:
        for key, got in (("exit", code), ("warnings", warnings), ("out_sha256", sha)):
            if got != golden[key]:
                problems.append(f"{key} {got} differs from golden {golden[key]}")
    else:
        expected_code = 3 if warnings else 0
        if code != expected_code:
            problems.append(f"exit {code}, expected {expected_code}")
        elif table:
            rows = workloads.count_rows(call.fmt, table.decode("utf-8"))
            if rows != call.points * call.rows_per_point:
                problems.append(f"{rows} rows for {call.points} points")
    marks = {}
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            marks = json.load(fh)
    elif not problems:
        problems.append("child wrote no report")
    return Outcome(call, problems, code, warnings, sha, start, end, rss, marks)


class Session:
    """Runs one workload's calls and tallies attempts and failures."""

    def __init__(self, workload: str, seed: int, tiny: bool, golden: Optional[list]):
        self.workload = workload
        self.calls = workloads.calls(workload, seed, tiny)
        self.golden = golden
        self.attempted = 0
        self.failed = 0

    def iteration(self, mode: str) -> List[Outcome]:
        outcomes = []
        for i, call in enumerate(self.calls):
            outcome = run_call(call, i, mode, self.golden[i] if self.golden else None)
            self.attempted += 1
            if not outcome.ok:
                self.failed += 1
                print(f"FAILED {self.workload} {call.command} --format {call.fmt}: "
                      + "; ".join(outcome.problems), file=sys.stderr)
            outcomes.append(outcome)
        return outcomes

    def repeat(self, seconds: float, modes: Tuple[str, ...]) -> Dict[str, List[List[Outcome]]]:
        """Iterations in each of `modes` in turn until `seconds` pass."""
        runs: Dict[str, List[List[Outcome]]] = {mode: [] for mode in modes}
        deadline = now_ns() + int(seconds * 1e9)
        while not runs[modes[-1]] or now_ns() < deadline:
            for mode in modes:
                runs[mode].append(self.iteration(mode))
        return runs


def _ok(iterations: List[List[Outcome]]) -> List[List[Outcome]]:
    return [it for it in iterations if all(o.ok for o in it)]


def eval_us_per_point(iteration: List[Outcome]) -> float:
    """cli.main entry to return, summed over the calls, per grid point."""
    points = sum(o.call.points for o in iteration)
    return sum(o.main_ns for o in iteration) / points / 1e3


def tenth_percentile(values: List[float]) -> float:
    """The typical time of the run's uncontended phases.

    Other tenants' load comes in phases of 10-60 s that slow every call by
    up to 1.5x, so a run's times have a fast and a slow mode, in shares
    that change from run to run. The median flips between the two modes;
    a low percentile stays in the fast one.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def timed_metrics(session: Session, seconds: float) -> Dict[str, float]:
    iterations = session.repeat(seconds, ("timed",))["timed"]
    good = _ok(iterations)
    if not good:
        return {}
    return {
        "setup_s": tenth_percentile([o.setup_ns / 1e9 for it in good for o in it]),
        "wall_s": tenth_percentile(
            [sum(o.end_ns - o.start_ns for o in it) / 1e9 for it in good]),
        "us_per_point": tenth_percentile([eval_us_per_point(it) for it in good]),
        "peak_rss_mib": max(o.maxrss_kib for it in iterations for o in it) / 1024,
        "ok_frac": (session.attempted - session.failed) / session.attempted,
        "_samples": len(good),
    }


def layer_metrics(iteration: List[Outcome]) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration, summed over its calls."""
    spans: Dict[str, List[int]] = {}
    points = rows = size = distinct = 0
    for outcome in iteration:
        trace = outcome.marks["trace"]
        for name, stats in trace["spans"].items():
            acc = spans.setdefault(name, [0, 0, 0])
            for i, value in enumerate(stats):
                acc[i] += value
        points += trace["points"]
        rows += trace["rows"]
        size += trace["bytes"]
        distinct += trace["distinct_scenarios"]

    def calls(*names: str) -> int:
        return sum(spans.get(n, (0, 0, 0))[0] for n in names)

    def total_ns(*names: str) -> int:
        return sum(spans.get(n, (0, 0, 0))[1] for n in names)

    def self_ns(name: str) -> int:
        return spans.get(name, (0, 0, 0))[2]

    def per(value: float, count: float) -> float:
        return value / count if count else 0.0

    ran = ("ran_power.bs_power", "ran_power.cran_power")
    return {
        "config.load_config_ms": per(total_ns("config.load_config"),
                                     calls("config.load_config")) / 1e6,
        "cli.expand_points_us_per_point": total_ns("cli.expand_points") / points / 1e3,
        "cli.rows_self_us_per_point": self_ns("cli.cmd") / points / 1e3,
        "workload.calls_per_point": calls("workload.workload") / points,
        "workload.self_us_per_call": per(self_ns("workload.workload"),
                                         calls("workload.workload")) / 1e3,
        "workload.distinct_frac": per(distinct, calls("workload.workload")),
        "qubit_budget.calls_per_point": calls("qubit_budget.total_budget") / points,
        "qubit_budget.self_us_per_call": per(self_ns("qubit_budget.total_budget"),
                                             calls("qubit_budget.total_budget")) / 1e3,
        "economics.compare_calls_per_point": calls("economics.compare") / points,
        "economics.compare_self_us_per_call": per(self_ns("economics.compare"),
                                                  calls("economics.compare")) / 1e3,
        "economics.cost_report_us_per_call": per(total_ns("economics.cost_report"),
                                                 calls("economics.cost_report")) / 1e3,
        "economics.offload_advantage_calls_per_point":
            calls("economics.offload_advantage_w") / points,
        "ran_power.calls_per_point": calls(*ran) / points,
        "ran_power.us_per_call": per(total_ns(*ran), calls(*ran)) / 1e3,
        "cmos.cmos_power_calls_per_point": calls("cmos.cmos_power") / points,
        "qa_hardware.qmi_runtime_calls_per_point":
            calls("qa_hardware.qmi_runtime_us") / points,
        "timeline.year_available_us_per_call": per(total_ns("timeline.year_available"),
                                                   calls("timeline.year_available")) / 1e3,
        "emit.render_us_per_row": per(total_ns("emit.render"), rows) / 1e3,
        "emit.bytes_per_row": per(size, rows),
    }


def probe_s(code: str) -> float:
    """Median wall time of a fresh interpreter running `code`."""
    times = []
    for _ in range(PROBES):
        exit_code, start, end, _ = spawn(["-c", code], "probe")
        if exit_code != 0:
            raise RuntimeError(f"set-up probe {code!r} exited {exit_code}")
        times.append((end - start) / 1e9)
    return statistics.median(times)


def traced_metrics(session: Session, seconds: float) -> Dict[str, float]:
    interpreter = probe_s("pass")
    imported = probe_s(f"import sys; sys.path.insert(0, {SRC!r}); import qaplan.cli")
    runs = session.repeat(seconds, ("timed", "traced"))
    untraced, traced = _ok(runs["timed"]), _ok(runs["traced"])
    metrics: Dict[str, float] = {
        "setup.interpreter_s": interpreter,
        "setup.import_s": imported - interpreter,
        "failed_frac": session.failed / session.attempted,
    }
    if not (untraced and traced):
        return metrics
    per_iteration = [layer_metrics(it) for it in traced]
    for name in per_iteration[0]:
        metrics[name] = statistics.median(m[name] for m in per_iteration)
    metrics["trace.overhead_frac"] = (
        statistics.median(eval_us_per_point(it) for it in traced)
        / statistics.median(eval_us_per_point(it) for it in untraced) - 1)
    metrics["_samples"] = len(traced)
    return metrics


def load_golden(workload: str) -> list:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def record_golden() -> int:
    """Write golden.json from one seed-0 run of every workload."""
    golden, failed = {}, False
    for name in workloads.NAMES:
        session = Session(name, 0, False, None)
        entries = []
        for outcome in session.iteration("timed"):
            failed |= not outcome.ok
            entries.append({"command": outcome.call.command, "format": outcome.call.fmt,
                            "exit": outcome.exit_code, "warnings": outcome.warnings,
                            "out_sha256": outcome.out_sha256})
        golden[name] = entries
    if failed:
        print("not recording: a call failed its checks", file=sys.stderr)
        return 1
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    return 0


def _commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": _commit(),
        "note": NOTE,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="3 values per sweep axis; for the smoke test")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from seed-0 runs")
    args = parser.parse_args(argv)
    invoked = now_ns()
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if not args.record_golden and args.workload != "all" and args.workload not in names:
        parser.error(f"--workload must be one of {names} or 'all'")
    os.makedirs(WORK, exist_ok=True)
    # Fills the bytecode caches, which users pay for once per install, and
    # stops here when the sources are missing.
    if spawn(["-c", f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; "
              "import qaplan.cli, spans"], "warm-up")[0] != 0:
        print(f"cannot import qaplan.cli from {SRC}", file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden()
    metric_spec = spec["per_layer" if args.trace else "end_to_end"]

    correct, attempted, failed = True, 0, 0
    result: Dict[str, dict] = {}
    for name in names if args.workload == "all" else [args.workload]:
        golden = load_golden(name) if args.seed == 0 and not args.tiny else None
        session = Session(name, args.seed, args.tiny, golden)
        measure = traced_metrics if args.trace else timed_metrics
        metrics = measure(session, args.seconds)
        samples = metrics.pop("_samples", 0)
        attempted += session.attempted
        failed += session.failed
        for m in metric_spec:
            if m["name"] not in metrics:
                correct = False
                print(f"{name:24} {m['name']:44} missing", file=sys.stderr)
                continue
            value = metrics[m["name"]]
            print(f"{name:24} {m['name']:44} {value:14.6g} {m['unit']:10} (n={samples})")
            key = m["name"] if args.workload != "all" else f"{name}:{m['name']}"
            result[key] = {"value": value, "unit": m["unit"]}
    correct = correct and failed == 0
    env = environment()
    env["invocation_wall_s"] = (now_ns() - invoked) / 1e9
    print("environment " + json.dumps(env))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
