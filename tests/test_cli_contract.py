"""The CLI contract under generated configs and sweep flags.

Whatever the input, `cli.main` ends in exit code 0, 1, 2 or 3 with no
traceback; every numeric cell it emits is finite; no two rows share a
name (and node, on per-node tables); its csv and json emissions of the
same call carry the same cells; and how many scenarios it evaluates at
once does not show in its output, also when it fails part-way.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile
import unittest.mock

from hypothesis import example, given, settings, strategies as st

from qaplan import cli
from qaplan.cli import main
from qaplan.emit import _parse_number, read_csv, read_json

COMMANDS = ("targets", "power", "qubits", "economics", "timeline")
# Boundary values, and ordinary ones drawn more often so that a good share
# of calls gets past the config checks and emits a table.
NASTY = [float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 1e-300,
         0, -1, -0.5]
ORDINARY = [1, 2, 3, 6, 20, 64, 0.5, 0.25, 100.0, 400.0]
numbers = st.sampled_from(ORDINARY * 3 + NASTY)
fractions = st.sampled_from([1, 0.5, 0.25] * 3 + NASTY)  # valid in (0, 1]
site_counts = st.sampled_from([float("nan"), float("inf"), 1e308, 0, -1, 1, 3,
                               2.5, 10000, 10001])


def _optional(**fields):
    return st.fixed_dictionaries({}, optional=fields)


scenario = st.fixed_dictionaries({"bandwidth_mhz": numbers}, optional={
    "name": st.sampled_from(["a", "b"]),
    "modulation_bits": st.sampled_from([2, 6, 8, 2, 6, 8, 3, 0, -1]),
    "coding_rate": fractions,
    "antennas": numbers,
    "duty_time": fractions,
    "duty_freq": fractions,
})
# The two shapes of a cmos object, each with a key of the other now and then.
cmos_entry = st.one_of(
    st.sampled_from(["65nm", "14nm", "1.5nm"]),
    st.fixed_dictionaries({"efficiency_tops_per_w": numbers}, optional={
        "node": st.sampled_from(["a", "b", 5]), "leakage_fraction": numbers,
        "vdd": numbers}),
    st.fixed_dictionaries({"vdd": numbers}, optional={
        "node": st.sampled_from(["a", "b", 5]),
        "mode": st.sampled_from(["as-printed", "exact", "as-printed", "bogus"]),
        "leakage_fraction": numbers}),
)
sound_configs = _optional(
    scenarios=st.lists(scenario, min_size=1, max_size=2),
    cmos=st.lists(cmos_entry, min_size=1, max_size=2),
    qa=_optional(profile=st.sampled_from(["projected", "current"] * 2 + [["current"]]),
                 programming_us=numbers, anneal_us=numbers, readout_us=numbers,
                 readout_delay_us=numbers, refrigeration_w=numbers),
    samples=st.sampled_from([1, 20, 50, 0, -1, 10**400]),  # the last past float range
    topology=st.one_of(
        st.just({"kind": "bs"}),
        _optional(n_bs=site_counts, fronthaul_gbps=numbers).map(
            lambda t: {"kind": "cran", **t}),
    ),
    costs=_optional(electricity_price_per_kwh=numbers, co2_lb_per_kwh=numbers,
                    hours_per_year=numbers),
    horizons_years=st.lists(numbers, min_size=1, max_size=2),
)
# A wrong-typed value at one section, or at the first entry of a list section.
SECTIONS = ("scenarios", "cmos", "qa", "samples", "topology", "costs",
            "horizons_years", "sweep")
misfits = st.sampled_from([5, 2.5, "14nm", None, True, [5], ["x"], {"a": 1}, []])
configs = st.one_of(
    sound_configs,
    st.builds(lambda doc, key, value: {**doc, key: value},
              sound_configs, st.sampled_from(SECTIONS), misfits),
    st.builds(lambda doc, key, value: {**doc, key: [value]},
              sound_configs, st.sampled_from(("scenarios", "cmos")), misfits),
)
SWEEP_AXES = ("bandwidth_mhz", "antennas", "samples", "modulation_bits",
              "coding_rate", "duty_time", "duty_freq")
flag_values = st.sampled_from(["nan", "inf", "-inf", "1e308", "1e300", "1e-300",
                               "0", "-1", "1", "2", "6", "20", "64", "0.5", "400",
                               "1" + "0" * 400])
sweep_flags = st.dictionaries(
    st.sampled_from(SWEEP_AXES), st.lists(flag_values, min_size=1, max_size=3),
    max_size=3,
).map(lambda sweep: [f"{axis}={','.join(values)}" for axis, values in sweep.items()])


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(COMMANDS), configs, sweep_flags)
@example("power", {"topology": {"kind": "cran", "n_bs": 1e308}}, [])
@example("economics", {"costs": {"electricity_price_per_kwh": 1e308}}, [])
@example("power", {"cmos": [{"efficiency_tops_per_w": 1e-300}]}, [])
@example("timeline", {"qa": {"programming_us": 1e300}}, ["bandwidth_mhz=1e300"])
@example("qubits", {"samples": 10**400}, [])
@example("qubits", {"samples": 10**400, "qa": {"programming_us": 1, "anneal_us": 1,
                                                 "readout_us": 1, "readout_delay_us": 1}}, [])
@example("economics", {}, ["samples=1" + "0" * 400])
@example("qubits", {}, ["samples=20,20"])
def test_cli_contract(command, doc, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)  # nan and inf as NaN/Infinity, as json.load reads them
        argv = [command, "--config", path]
        for flag in flags:
            argv += ["--sweep", flag]
        csv_code, csv_text, csv_err = _call(argv + ["--format", "csv"])
        json_code, json_text, json_err = _call(argv + ["--format", "json"])

    assert csv_code in (0, 1, 2, 3)
    assert "Traceback" not in csv_err
    assert (json_code, json_err) == (csv_code, csv_err)
    if csv_code in (0, 3):
        from_csv = read_csv(csv_text).records()
        from_json = read_json(json_text).records()
        for row in from_csv:
            for key, cell in row.items():
                assert not isinstance(cell, float) or math.isfinite(cell), (key, cell)
        names = [(row["name"], row.get("node")) for row in from_json]
        assert len(set(names)) == len(names), names
        # csv carries no types: its reader parses every cell, strings too.
        assert from_csv == [
            {key: _parse_number(cell) if isinstance(cell, str) else cell
             for key, cell in row.items()}
            for row in from_json
        ]
    else:
        assert csv_text == json_text == ""
        assert csv_err.splitlines()[-1].startswith(("qaplan: config error: ",
                                                     "qaplan: model error: ",
                                                     "qaplan: cannot write output: "))


# Configs and sweeps that pass the config checks, with values that make a
# model stage fail part-way through a grid: a node whose power overflows,
# a horizon whose savings overflow, a slow annealer, huge bandwidths and
# sample counts past float range.
failing_configs = _optional(
    cmos=st.lists(st.sampled_from(["65nm", "14nm", {"node": "tiny",
                                                    "efficiency_tops_per_w": 1e-305}]),
                  min_size=1, max_size=3, unique_by=str),
    topology=st.sampled_from([{"kind": "bs"}, {"kind": "cran", "n_bs": 3}]),
    horizons_years=st.sampled_from([[1], [1, 1e300]]),
    qa=st.sampled_from([{"profile": "projected"}, {"programming_us": 1e300}]),
)
failing_values = {
    "bandwidth_mhz": ["20", "400", "1000", "1e300", "1e308"],
    "antennas": ["8", "100"],
    "samples": ["1", "50", "1" + "0" * 400],
    "modulation_bits": ["2", "6"],
}


def _sweeps(values):
    """--sweep flags over some of `values`' axes, each with 1 to 3 of its values."""
    return st.dictionaries(st.sampled_from(sorted(values)), st.none(), min_size=1).flatmap(
        lambda axes: st.tuples(*[
            st.lists(st.sampled_from(values[axis]), min_size=1, max_size=3, unique=True)
            .map(lambda chosen, axis=axis: f"{axis}={','.join(chosen)}") for axis in axes]))


failing_sweeps = _sweeps(failing_values)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(COMMANDS), failing_configs, failing_sweeps,
       st.sampled_from(["csv", "json", "table"]))
@example("economics", {"cmos": ["14nm", {"node": "tiny", "efficiency_tops_per_w": 1e-305}]},
         ("bandwidth_mhz=20,1000", "antennas=100", "samples=1,50"), "csv")
def test_block_boundaries_do_not_show_in_the_output(command, doc, flags, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = [command, "--config", path, "--format", fmt]
        for flag in flags:
            argv += ["--sweep", flag]
        blocked = _call(argv)
        with unittest.mock.patch.object(cli, "BLOCK", 1):
            assert _call(argv) == blocked


# Sound configs and sweeps whose grids hold rows on both sides of the
# refrigerator's capacity, in one cell and in a deployment of n_bs cells.
verdict_configs = st.fixed_dictionaries({
    "topology": st.one_of(st.just({"kind": "bs"}),
                          st.integers(1, 4).map(lambda n: {"kind": "cran", "n_bs": n})),
    "cmos": st.lists(st.sampled_from(["65nm", "14nm", "1.5nm"]), min_size=1, max_size=3,
                     unique=True),
    "qa": st.sampled_from([{"profile": "projected"}, {"profile": "current"}]),
})
verdict_values = {
    "bandwidth_mhz": ["20", "100", "400", "1000"],
    "antennas": ["8", "64", "100", "128"],
    "samples": ["1", "20", "50"],
    "modulation_bits": ["2", "6", "8"],
}
verdict_sweeps = _sweeps(verdict_values)
_QUBITS_WARNING = re.compile(
    r"qaplan: warning: (.*): requirement (\d+) exceeds refrigerator capacity (\d+)")
_ECONOMICS_WARNING = re.compile(
    r"qaplan: warning: (.*) \((.*)\): qubit requirement (\d+) exceeds refrigerator "
    r"capacity (\d+)")


@settings(max_examples=60, deadline=None)
@given(verdict_configs, verdict_sweeps)
@example({"topology": {"kind": "cran", "n_bs": 3}, "cmos": ["65nm", "14nm"],
          "qa": {"profile": "projected"}},
         ("bandwidth_mhz=400,1000", "antennas=64,128", "samples=1,50"))
def test_qubits_and_economics_warn_on_the_one_capacity_verdict(doc, flags):
    # Today's semantics: `qubits` checks one cell's total, `economics` the
    # total times the deployment's n_bs cells.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = ["--config", path, "--format", "csv"]
        for flag in flags:
            argv += ["--sweep", flag]
        qubits_code, qubits_text, qubits_err = _call(["qubits", *argv])
        economics_code, _, economics_err = _call(["economics", *argv])

    rows = read_csv(qubits_text).records()
    capacity = rows[0]["capacity"]
    assert [row["fits"] for row in rows] == [
        "no" if row["total_qubits"] > capacity else "yes" for row in rows]
    warned = [_QUBITS_WARNING.fullmatch(line).groups() for line in qubits_err.splitlines()]
    assert sorted(name for name, _, _ in warned) == sorted(
        row["name"] for row in rows if row["fits"] == "no")
    assert all(int(total) > capacity for _, total, _ in warned)
    assert all(int(limit) == capacity for _, _, limit in warned)
    assert qubits_code == (3 if warned else 0)

    n_bs = doc["topology"].get("n_bs", 1)
    expected = sorted((row["name"], node, row["total_qubits"] * n_bs)
                      for row in rows if row["total_qubits"] * n_bs > capacity
                      for node in doc["cmos"])
    got = [_ECONOMICS_WARNING.fullmatch(line).groups() for line in economics_err.splitlines()]
    assert sorted((name, node, int(value)) for name, node, value, _ in got) == expected
    assert all(int(limit) == capacity for *_, limit in got)
    assert economics_code == (3 if expected else 0)


# A sample-count sweep, with or without sweeps of other axes.
agreement_sweeps = st.tuples(
    _sweeps({"samples": verdict_values["samples"]}),
    st.one_of(st.just(()), _sweeps({axis: values for axis, values in verdict_values.items()
                                    if axis != "samples"})),
).map(lambda parts: parts[0] + parts[1])


def _records(argv):
    """The records of one call, as csv reads them back, and its stderr
    lines, once its json and text carry the same cells and every format
    the same exit code and stderr."""
    calls = {fmt: _call([*argv, "--format", fmt]) for fmt in ("csv", "json", "table")}
    code, csv_text, err = calls["csv"]
    assert {(c, e) for c, _, e in calls.values()} == {(3 if err else 0, err)}
    records = read_csv(csv_text).records()
    assert read_json(calls["json"][1]).records() == records
    # Text cells hold no spaces: each row splits into its cells at printed precision.
    lines = calls["table"][1].splitlines()[3:]
    assert [[_parse_number(cell) for cell in line.split()]
            for line in lines if not line.startswith("note: ")] == [
        list(record.values()) for record in records]
    return records, err.splitlines()


@settings(max_examples=25, deadline=None)
@given(verdict_configs, agreement_sweeps)
@example({"topology": {"kind": "cran", "n_bs": 4}, "cmos": ["65nm", "14nm", "1.5nm"],
          "qa": {"profile": "projected"}},
         ("samples=1,50", "bandwidth_mhz=400,1000", "antennas=64,128"))
def test_the_subcommands_agree_on_one_config_and_sweep(doc, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = ["--config", path, *[part for flag in flags for part in ("--sweep", flag)]]
        tables = {command: _records([command, *argv]) for command in COMMANDS}

    qubits = {row["name"]: row for row in tables["qubits"][0]}
    timeline = {row["name"]: row for row in tables["timeline"][0]}
    assert list(qubits) == list(timeline) == [row["name"] for row in tables["targets"][0]]
    for name, row in qubits.items():
        assert row["total_qubits"] == timeline[name]["required_qubits"]
    per_node = [(name, node) for name in qubits for node in doc["cmos"]]
    power = {(row["name"], row["node"]): row for row in tables["power"][0]}
    economics = {(row["name"], row["node"]): row for row in tables["economics"][0]}
    assert list(power) == list(economics) == per_node
    for key, row in power.items():
        assert row["delta_w"] == economics[key]["delta_w"]
    for records, _ in tables.values():
        for row in records:
            scenario = qubits[row["name"]]
            assert (row["bandwidth_mhz"], row["antennas"]) == (
                scenario["bandwidth_mhz"], scenario["antennas"])

    # Today's verdicts: `qubits` per cell, `economics` per deployment of n_bs cells.
    capacity = tables["qubits"][0][0]["capacity"]
    n_bs = doc["topology"].get("n_bs", 1)
    for row in qubits.values():
        assert row["fits"] == ("no" if row["total_qubits"] > capacity else "yes")
    assert tables["qubits"][1] == [
        f"qaplan: warning: {name}: requirement {row['total_qubits']} exceeds refrigerator "
        f"capacity {capacity}" for name, row in qubits.items() if row["fits"] == "no"]
    assert tables["economics"][1] == [
        f"qaplan: warning: {name} ({node}): qubit requirement "
        f"{qubits[name]['total_qubits'] * n_bs} exceeds refrigerator capacity {capacity}"
        for name, node in per_node if qubits[name]["total_qubits"] * n_bs > capacity]
    assert tables["targets"][1] == tables["power"][1] == tables["timeline"][1] == []
