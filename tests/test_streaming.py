"""Points and rows stream from the expansion into the renderer: memory stays flat."""

import contextlib
import os
import tracemalloc

import pytest

from qaplan.cli import (EXIT_WARNINGS, _expand_points, _Warnings, cmd_economics, cmd_power,
                        cmd_qubits, cmd_targets, cmd_timeline, main)
from qaplan.config import default_config, parse_config, parse_sweep


def _grid(bandwidth_step: int) -> dict:
    # The benchmark's 30k-point economics grid at a bandwidth step of 10.
    return parse_sweep({"bandwidth_mhz": list(range(10, 1001, bandwidth_step)),
                        "antennas": list(range(1, 101)), "samples": [1, 20, 50]})


def _traced_peak(cfg) -> int:
    """Traced peak bytes from the expansion of the sweep of `cfg` on, while
    the economics rows are read one at a time, each capacity warning
    written out as it is gathered, as `main` does."""
    warnings = _Warnings()
    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            rows = cmd_economics(cfg, warnings).rows
            count = 0
            for _ in rows:
                count += 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert count == len(rows) == len(_expand_points(cfg, []))
    assert warnings.count  # capacity warnings were written as the rows were read
    return peak


def test_reading_the_rows_keeps_memory_flat():
    # Neither the points nor their names are held: a block of scenarios
    # at a time is.
    small = default_config()._replace(sweep=_grid(100))
    large = default_config()._replace(sweep=_grid(10))
    assert (len(_expand_points(small, [])), len(_expand_points(large, []))) == (3_000, 30_000)
    small_peak, large_peak = _traced_peak(small), _traced_peak(large)
    assert large_peak < 1 << 20, large_peak
    assert large_peak < 2 * small_peak, (small_peak, large_peak)


@pytest.mark.parametrize("command,per_node", [
    (cmd_targets, False), (cmd_power, True), (cmd_qubits, False),
    (cmd_economics, True), (cmd_timeline, False),
])
def test_row_count_is_known_before_reading(command, per_node):
    cfg = parse_config({"cmos": ["65nm", "14nm"]})._replace(sweep={"antennas": [8, 16, 32]})
    rows = command(cfg, []).rows
    expected = len(_expand_points(cfg, [])) * (2 if per_node else 1)
    assert len(rows) == expected
    assert sum(1 for _ in rows) == expected
    assert len(rows) == expected  # still answered once read


def test_a_text_table_holds_each_constant_cell_once_per_block(tmp_path):
    # A text table holds every text until each width is known. The 30k-point
    # qubits table repeats its samples, runtime, covered fraction and
    # capacity over a block's rows: each is formatted once per block and
    # held as one text. A text per row held a traced peak of 29.6 MB.
    sweep = [f"{axis}={','.join(map(str, values))}" for axis, values in (
        ("bandwidth_mhz", range(10, 1001, 10)), ("antennas", range(1, 101)),
        ("samples", (1, 20, 50)))]
    argv = ["qubits", "--format", "table", "--out", str(tmp_path / "qubits.txt")]
    for flag in sweep:
        argv += ["--sweep", flag]
    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == EXIT_WARNINGS
    assert (tmp_path / "qubits.txt").read_text(encoding="utf-8").count("\n") == 30_003
    assert peak <= 23.0e6, peak
