"""A centralized deployment costs the same per row at any site count."""

import contextlib
import io
import json
import time
import tracemalloc

from qaplan.cli import EXIT_OK, main
from qaplan.cmos import CMOS_14NM
from qaplan.economics import MAX_N_BS, CranTopology, deployment_columns
from qaplan.qa_hardware import QA_PROJECTED
from qaplan.workload import BbuTask, CellScenario, workload

# 50 bandwidths x 4 antenna counts x 3 nodes = 600 power rows per call.
GRID = ["--sweep", "bandwidth_mhz=" + ",".join(str(b) for b in range(20, 1001, 20)),
        "--sweep", "antennas=8,16,32,64"]


def _seconds(path) -> float:
    argv = ["power", "--format", "csv", "--config", str(path)] + GRID
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    assert code == EXIT_OK
    return elapsed


def test_ten_thousand_sites_cost_under_twice_three_per_row(tmp_path):
    paths = {}
    for n_bs in (3, MAX_N_BS):
        paths[n_bs] = tmp_path / f"cran{n_bs}.json"
        paths[n_bs].write_text(json.dumps({
            "topology": {"kind": "cran", "n_bs": n_bs},
            "cmos": ["65nm", "14nm", "1.5nm"],
        }), encoding="utf-8")
    times = {n_bs: [] for n_bs in paths}
    for _ in range(5):  # interleaved, so load on the machine hits both alike
        for n_bs, path in paths.items():
            times[n_bs].append(_seconds(path))
    few, many = min(times[3]), min(times[MAX_N_BS])
    assert many < 2 * few, (few, many)


def _deployments_peak(n_bs: int) -> int:
    load = workload(CellScenario(400, 6, 0.5, 64))
    args = ([[load.tops[t]] for t in BbuTask], [64], CMOS_14NM, QA_PROJECTED,
            CranTopology(n_bs=n_bs))
    deployment_columns(*args)  # warm up first
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        deployment_columns(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_one_deployments_call_holds_the_same_memory_at_any_site_count():
    assert _deployments_peak(3) == _deployments_peak(MAX_N_BS)
