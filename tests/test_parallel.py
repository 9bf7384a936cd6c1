"""Csv and json calls rendered on several processes (`qaplan.parallel`).

A call renders on several processes only where it may use several cores,
so each test fixes the cores a call sees by replacing
`os.sched_getaffinity`; one core forces today's serial path, whose bytes
the parallel path must give. Output is read at the file descriptors, so a
worker that wrote anything would show.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading

import pytest

import qaplan
import qaplan.cli as cli
from qaplan import parallel
from qaplan.cli import BLOCKS_PER_PROCESS, EXIT_CONFIG, EXIT_DOMAIN, EXIT_WARNINGS, main
from qaplan.config import ENV_CONFIG_PATH, load_config, parse_sweep_flags
from qaplan.emit import Column, Table, iter_parts, render
from qaplan.tables import PAPER_TABLES


def _bandwidths(blocks):
    """`blocks` bandwidths, one whole block each (100 antennas at two sample
    counts). Small and large ones take turns, so every range holds rows that
    warn on capacity."""
    return ",".join(str(40 * (i // 2 + 1) if i % 2 == 0 else 40 * (blocks - i // 2))
                    for i in range(blocks))


def _sweep(blocks):
    """A sweep of `blocks` blocks, after a bandwidth that every point skips."""
    return ["--sweep", f"bandwidth_mhz=-1,{_bandwidths(blocks)}",
            "--sweep", "antennas=" + ",".join(map(str, range(1, 101))), "--sweep", "samples=1,50"]


# Enough blocks for two processes.
_BLOCKS = 2 * BLOCKS_PER_PROCESS
_SWEEP = _sweep(_BLOCKS)


# Where a worker that came back into the caller leaves its mark.
_RETURNED = []

# The cores this process may use, read past any faked set.
_AFFINITY = os.sched_getaffinity


@pytest.fixture(autouse=True)
def _no_env_config_and_no_worker_returns(monkeypatch, tmp_path):
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    _RETURNED[:] = [tmp_path / "a-worker-returned"]
    home = _AFFINITY(0)
    yield
    os.sched_setaffinity(0, home)  # a call gives back the faked set it read
    assert not _RETURNED[0].exists()


@pytest.fixture
def outcomes(monkeypatch):
    """Whether each `parallel.render` call gave the text (True) or failed
    (False)."""
    got = []
    real = parallel.render

    def spied(*args):
        text = real(*args)
        got.append(text is not None)
        return text

    monkeypatch.setattr(parallel, "render", spied)
    return got


def _call(capfd, monkeypatch, argv, cores=None):
    """`main(argv)` where the process may use `cores` cores, or those it
    may use where None: its exit code, stdout and stderr. No child process
    outlives the call."""
    if cores is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    capfd.readouterr()
    parent = os.getpid()
    try:
        code = main(argv)
    finally:
        if os.getpid() != parent:  # a worker came back: mark it for the parent, and end it
            _RETURNED[0].touch()
            os._exit(1)
    out, err = capfd.readouterr()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return code, out, err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_subcommand_gives_one_cores_bytes(capfd, monkeypatch, outcomes, command, fmt):
    argv = [command, "--format", fmt, *_SWEEP]
    one = _call(capfd, monkeypatch, argv, 1)
    assert outcomes == []
    assert _call(capfd, monkeypatch, argv, 2) == one
    assert outcomes == [True]
    code, out, err = one
    assert code == EXIT_WARNINGS and out
    if command in ("qubits", "economics"):  # capacity warnings, in both processes' ranges
        assert "exceeds refrigerator capacity" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("cores", [3, 4])
def test_three_and_four_processes_give_one_cores_bytes(capfd, monkeypatch, outcomes, fmt,
                                                       cores, tmp_path):
    # Workers in the middle render neither the header nor the footer; with
    # --out, the file holds the same bytes.
    argv = ["economics", "--format", fmt, *_sweep(4 * BLOCKS_PER_PROCESS),
            "--out", str(tmp_path / "out")]
    one = _call(capfd, monkeypatch, argv, 1)
    serial = (tmp_path / "out").read_bytes()
    (tmp_path / "out").unlink()
    assert _call(capfd, monkeypatch, argv, cores) == one
    assert (tmp_path / "out").read_bytes() == serial
    assert outcomes == [True]
    if fmt == "json":
        rows = json.loads(serial)["rows"]
        assert len(rows) == 4 * BLOCKS_PER_PROCESS * 100 * 2


def test_the_caller_is_given_back_its_cores(capfd, monkeypatch, outcomes):
    # Each process runs on one core while the blocks render; the caller then
    # has again every core it had. On one core the call stays on it.
    home = _AFFINITY(0)
    got = _call(capfd, monkeypatch, ["economics", "--format", "csv", *_SWEEP])
    assert _AFFINITY(0) == home
    assert outcomes == ([True] if len(home) > 1 else [])
    assert got == _call(capfd, monkeypatch, ["economics", "--format", "csv", *_SWEEP], 1)


def test_configured_scenarios_split_into_ranges(capfd, monkeypatch, outcomes, tmp_path):
    # No sweep: blocks of the configured scenarios, the last one short.
    count = _BLOCKS * cli.BLOCK + 5
    path = tmp_path / "many.json"
    path.write_text(json.dumps({"scenarios": [
        {"name": f"cell-{i}", "bandwidth_mhz": 10 + i % 990, "antennas": 1 + i % 128}
        for i in range(count)]}))
    argv = ["economics", "--format", "json", "--config", str(path)]
    one = _call(capfd, monkeypatch, argv, 1)
    assert _call(capfd, monkeypatch, argv, 2) == one
    assert outcomes == [True]
    assert len(json.loads(one[1])["rows"]) == count


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_block_ranges_render_pieces_of_the_whole_text(fmt):
    # A cli table of many blocks, and tables of one block or none: the
    # paper tables, one built from dicts and an empty one.
    cfg = load_config(None)._replace(sweep=parse_sweep_flags(_SWEEP[1::2]))
    columns = [Column("name", "Name"), Column("x", "X", ".2f")]
    tables = [(cli.cmd_qubits(cfg, []), _BLOCKS),
              *[(build(), 1) for build in PAPER_TABLES.values()],
              (Table("dicts", columns, [{"name": "a", "x": 1.5}, {"name": "b", "x": 2}]), 1),
              (Table("empty", columns, [], notes=["no rows"]), 0)]
    assert len(tables) == 1 + 6 + 2
    for table, blocks in tables:
        whole = render(table, fmt)
        for inner in ([], [1], [5, 6, 23], range(1, blocks)):
            cuts = [0, *[cut for cut in inner if cut < blocks], blocks]
            pieces = ["".join(iter_parts(table, fmt, range(start, stop)))
                      for start, stop in zip(cuts, cuts[1:])]
            assert "".join(pieces) == whole, table.name
        assert table.rows.blocks == blocks


def test_ranges_cut_every_block_once_and_evenly():
    for blocks in range(1, 40):
        for processes in range(1, 6):
            spans = parallel.ranges(blocks, processes)
            assert [b for span in spans for b in span] == list(range(blocks))
            assert len(spans) == processes
            assert max(map(len, spans)) - min(map(len, spans)) <= 1


@pytest.mark.parametrize("bandwidths", [f"1e308,{_bandwidths(_BLOCKS)}",
                                        f"{_bandwidths(_BLOCKS)},1e308"],
                         ids=["first-block", "last-block"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_model_error_in_any_block_fails_as_on_one_core(capfd, monkeypatch, outcomes,
                                                         bandwidths, fmt, tmp_path):
    # The parent's range fails, or a worker's: the call is redone on one
    # process, so it gives the warnings before the failing row, the error
    # and exit 2, prints nothing and creates no file.
    out = tmp_path / "out"
    argv = ["economics", "--format", fmt, "--sweep", f"bandwidth_mhz=-1,{bandwidths}",
            *_SWEEP[2:], "--out", str(out)]
    one = _call(capfd, monkeypatch, argv, 1)
    assert one[:2] == (EXIT_DOMAIN, "")
    assert one[2].startswith("qaplan: warning: skipping sweep point")
    assert one[2].splitlines()[-1].startswith("qaplan: model error: ")
    assert _call(capfd, monkeypatch, argv, 2) == one
    assert outcomes == [False]
    assert not out.exists()


def test_a_config_error_after_skip_warnings_keeps_them(capfd, monkeypatch, outcomes):
    argv = ["economics", "--format", "csv", "--sweep", "bandwidth_mhz=-1,-2"]
    got = _call(capfd, monkeypatch, argv, 2)
    assert got[:2] == (EXIT_CONFIG, "")
    assert got[2].count("skipping sweep point") == 2
    assert got[2].endswith("qaplan: config error: sweep produced no valid points\n")
    assert outcomes == []


@pytest.mark.parametrize("failure", ["raises", "raises-when-done", "killed", "interrupted"])
def test_a_failing_worker_never_returns_and_the_call_is_redone(capfd, monkeypatch, outcomes,
                                                               failure):
    # A worker that raised and came back into the caller would leave its
    # mark (`_call`). One that fails after writing all it reports is a
    # failure too, and so is one that is interrupted, though it would
    # finish its work.
    work = parallel._work

    def failing(*args):
        if failure == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        if failure == "interrupted":
            os.kill(os.getpid(), signal.SIGINT)
            return work(*args)
        if failure == "raises-when-done":
            work(*args)
        raise RuntimeError("worker failed")

    argv = ["economics", "--format", "csv", *_SWEEP]
    one = _call(capfd, monkeypatch, argv, 1)
    monkeypatch.setattr(parallel, "_work", failing)
    assert _call(capfd, monkeypatch, argv, 2) == one
    assert outcomes == [False]


def test_an_interrupt_of_the_parent_ends_every_worker_and_is_raised(capfd, monkeypatch,
                                                                    tmp_path):
    # As on one core, the interrupt leaves `main` and no --out file is made;
    # the workers, busy with their ranges, are killed and reaped.
    parent = os.getpid()

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return iter_parts(*args)

    monkeypatch.setattr(parallel, "iter_parts", interrupted)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        _call(capfd, monkeypatch, ["economics", "--format", "csv", *_SWEEP, "--out", str(out)], 3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert capfd.readouterr().out == ""
    assert not out.exists()


def test_small_calls_tables_and_threaded_processes_stay_on_one_process(capfd, monkeypatch,
                                                                       outcomes):
    small = ["economics", "--format", "csv", "--sweep",
             "bandwidth_mhz=" + ",".join(str(10 * i) for i in range(1, 2 * BLOCKS_PER_PROCESS)),
             "--sweep", "antennas=" + ",".join(map(str, range(1, 101)))]
    assert _call(capfd, monkeypatch, small, 2)[1]
    assert _call(capfd, monkeypatch, ["economics", "--format", "table", *_SWEEP], 2)[1]
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _call(capfd, monkeypatch, ["economics", "--format", "csv", *_SWEEP], 2)[1]
    finally:
        stop.set()
        thread.join()
    assert outcomes == []


def test_a_plain_call_loads_no_json_and_a_table_call_no_driver():
    # -S keeps site hooks from loading modules the check is about.
    script = ("import sys, qaplan.cli as c\n"
              "print('json' in sys.modules)\n"
              "code = c.main(sys.argv[1:])\n"
              "print('qaplan.parallel' in sys.modules, file=sys.stderr)\n"
              "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qaplan.__file__)))
    env.pop(ENV_CONFIG_PATH, None)
    proc = subprocess.run([sys.executable, "-S", "-c", script, "economics", "--format", "table",
                           *_SWEEP], capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_WARNINGS
    assert proc.stdout.startswith("False\neconomics\n")
    assert proc.stderr.endswith("\nFalse\n")
