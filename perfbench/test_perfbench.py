"""Tests of the benchmark itself: tracing, grids, checks and a smoke run.

Run from the repository root: python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qaplan import cli  # noqa: E402

with open(run.BENCHMARK, encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _namespaces():
    """Every entry of every qaplan module, and of its module-level dicts."""
    entries = {}
    for name, module in list(sys.modules.items()):
        if name != "qaplan" and not name.startswith("qaplan."):
            continue
        for key, value in vars(module).items():
            entries[(name, key)] = value
            if isinstance(value, dict) and key != "__builtins__":
                for k, v in value.items():
                    entries[(name, key, k)] = v
    return entries


def test_install_wraps_every_namespace_and_restore_undoes_it():
    before = _namespaces()
    original = sys.modules["qaplan.workload"].workload
    installed = spans.install(spans.Tracer())
    try:
        for module in ("qaplan.cli", "qaplan.economics", "qaplan.timeline",
                       "qaplan.tables", "qaplan.workload"):
            wrapper = sys.modules[module].workload
            assert wrapper is not original and wrapper.__wrapped__ is original
        assert cli._COMMANDS["economics"].__wrapped__ is before[
            ("qaplan.cli", "cmd_economics")]
    finally:
        spans.restore(installed)
    after = _namespaces()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []


def _traced_main(argv):
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        code = cli.main(argv)
    finally:
        spans.restore(installed)
    return code, tracer


@pytest.mark.parametrize("command", ["economics", "timeline"])
def test_traced_counts_repeat_exactly_and_output_is_unchanged(tmp_path, command):
    argv = [command, "--format", "csv", "--config", workloads.CRAN3_CONFIG,
            "--sweep", "bandwidth_mhz=100,400", "--sweep", "antennas=8,64",
            "--sweep", "samples=1,50"]
    plain = cli.main(argv + ["--out", str(tmp_path / "plain.csv")])
    first = _traced_main(argv + ["--out", str(tmp_path / "first.csv")])
    second = _traced_main(argv + ["--out", str(tmp_path / "second.csv")])
    assert plain == first[0] == second[0]
    text = (tmp_path / "plain.csv").read_bytes()
    assert (tmp_path / "first.csv").read_bytes() == text
    assert (tmp_path / "second.csv").read_bytes() == text

    def counts(tracer):
        return ({name: stats[0] for name, stats in tracer.stats.items()},
                tracer.points, tracer.rows, tracer.bytes, len(tracer.scenarios))

    assert counts(first[1]) == counts(second[1])
    calls, points, _, _, distinct = counts(first[1])
    assert points == 8 and distinct == 4  # the samples axis repeats scenarios
    if command == "economics":  # one comparison per point and cmos node
        assert calls["economics.compare"] == calls["workload.workload"] == 3 * points
    else:  # one budget per point, one advantage per point and node
        assert calls["qubit_budget.total_budget"] == points
        assert calls["economics.offload_advantage_w"] == 3 * points


NAMED_GRIDS = {
    "grid30k-economics-csv": {"bandwidth_mhz": list(range(10, 1001, 10)),
                              "antennas": list(range(1, 101)),
                              "samples": [1, 20, 50]},
    "cran3-mixed-table": {"bandwidth_mhz": list(range(20, 1001, 20)),
                          "antennas": [8, 16, 32, 64, 128],
                          "modulation_bits": [2, 4, 6, 8]},
}
AXIS_RANGES = {"bandwidth_mhz": (10, 1000), "antennas": (1, 128),
               "samples": (1, 50), "modulation_bits": (1, 8)}


def test_seed_zero_is_the_named_grid():
    for name, grid in NAMED_GRIDS.items():
        assert dict(workloads.calls(name, 0)[0].axes) == grid


@pytest.mark.parametrize("name", workloads.NAMES)
def test_other_seeds_draw_same_sized_grids_in_range(name):
    named = workloads.calls(name, 0)
    for seed in (1, 2, 17):
        drawn = workloads.calls(name, seed)
        assert drawn == workloads.calls(name, seed)
        assert drawn != named
        assert [(c.command, c.fmt, c.points) for c in drawn] == \
            [(c.command, c.fmt, c.points) for c in named]
        for (axis, values), (named_axis, _) in zip(drawn[0].axes, named[0].axes):
            low, high = AXIS_RANGES[axis]
            assert axis == named_axis
            assert values == sorted(set(values))
            assert low <= values[0] and values[-1] <= high


def test_benchmark_and_golden_name_every_call():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    with open(run.GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    for name in workloads.NAMES:
        assert [(g["command"], g["format"]) for g in golden[name]] == \
            [(c.command, c.fmt) for c in workloads.calls(name, 0)]


def test_run_call_rejects_wrong_exit_warnings_digest_and_rows():
    os.makedirs(run.WORK, exist_ok=True)
    call = workloads.calls("grid30k-economics-csv", 0, tiny=True)[0]
    good = run.run_call(call, 0, "timed", None)
    assert good.ok, good.problems
    assert good.setup_ns > 0 and good.main_ns > 0
    golden = {"exit": good.exit_code, "warnings": good.warnings,
              "out_sha256": good.out_sha256}
    assert run.run_call(call, 0, "timed", golden).ok
    for key, wrong in (("exit", 9), ("warnings", 99), ("out_sha256", "0" * 64)):
        assert not run.run_call(call, 0, "timed", {**golden, key: wrong}).ok
    miscounted = dataclasses.replace(call, rows_per_point=2)
    assert not run.run_call(miscounted, 0, "timed", None).ok


def test_tenth_percentile_keeps_the_fast_mode():
    fast, slow = [2.0, 2.1, 2.05, 1.95], [2.9, 3.0, 3.1, 2.95, 3.05] * 3
    assert 1.95 <= run.tenth_percentile(fast + slow) <= 2.1
    assert run.tenth_percentile([4.2]) == 4.2


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_every_metric_appears(name, trace):
    done = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "0",
                "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    printed = {line.split()[1] for line in done.stdout.splitlines()[:-1]
               if line.startswith(name)}
    assert printed == {m["name"] for m in spec}


def test_fails_without_a_result_where_sources_are_missing(tmp_path):
    shutil.copy(run.BENCHMARK, tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = _run(tmp_path, "--workload", workloads.NAMES[0], "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
