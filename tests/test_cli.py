"""Command-line behaviour: formats, sweeps, config handling, exit codes."""

import itertools
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import qaplan
import qaplan.cli
from qaplan.cli import (_COMMANDS, EXIT_CONFIG, EXIT_DOMAIN, EXIT_OK, EXIT_WARNINGS,
                        _expand_points, _plain_args, build_parser, cmd_timeline, main)
from qaplan.config import ENV_CONFIG_PATH, SWEEP_AXES, ConfigError, default_config
from qaplan.emit import read_csv, read_json
from qaplan.tables import PAPER_TABLES
from qaplan.workload import CellScenario
from test_cli_golden import CRAN_CONFIG


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_default_run_exits_clean(capsys):
    code, out, err = run(capsys, "targets", "--format", "csv")
    assert code == EXIT_OK
    assert err == ""
    table = read_csv(out)
    assert table.records()[0]["name"] == "5g-400mhz-64ant"
    assert table.records()[0]["total_tops"] == 4070.4


def test_output_is_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, "power", "--format", "json")
    _, second, _ = run(capsys, "power", "--format", "json")
    assert first == second


def test_output_stable_under_hash_randomization(tmp_path):
    # dict/set iteration order must never leak into emissions
    outputs = []
    for seed in ("1", "42"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env.pop(ENV_CONFIG_PATH, None)
        proc = subprocess.run(
            [sys.executable, "-m", "qaplan.cli", "economics",
             "--sweep", "bandwidth_mhz=100,400", "--format", "json"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command,fmt", [("economics", "csv"), ("power", "table")])
def test_cran_sweep_is_byte_identical_under_any_hash_seed(tmp_path, command, fmt):
    # Task and string hashes follow PYTHONHASHSEED: no set or dict order
    # may reach the output.
    config = tmp_path / "cran.json"
    config.write_text(json.dumps({
        "topology": {"kind": "cran", "n_bs": 3},
        "cmos": ["65nm", "14nm", "1.5nm"],
    }))
    src = os.path.dirname(os.path.dirname(os.path.abspath(qaplan.__file__)))
    outputs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env.pop(ENV_CONFIG_PATH, None)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-m", "qaplan.cli", command, "--format", fmt,
             "--config", str(config), "--sweep", "bandwidth_mhz=100,400",
             "--sweep", "antennas=8,64", "--sweep", "samples=1,20"],
            capture_output=True, env=env,
        )
        assert proc.returncode in (EXIT_OK, EXIT_WARNINGS), proc.stderr
        assert b"Traceback" not in proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


# Centralized calls whose rows share cells across sample counts, modulations
# and nodes, one of them over 200 scenarios, so several blocks on each node.
@pytest.mark.parametrize("argv,rows", [
    (["economics", "--format", "json", "--sweep", "samples=1,20", "--sweep", "antennas=8,16"], 12),
    (["power", "--format", "table", "--sweep", "samples=1,20,50", "--sweep", "antennas=8,64"], 18),
    (["power", "--format", "table", "--sweep", f"antennas={','.join(map(str, range(1, 201)))}"],
     600),
    (["timeline", "--format", "json", "--sweep", "samples=1,20",
      "--sweep", "modulation_bits=2,6"], 4),
], ids=["economics-json", "power-table", "power-table-blocks", "timeline-json"])
def test_centralized_rows_that_share_cells_render_one_row_per_point(tmp_path, monkeypatch,
                                                                    capsys, argv, rows):
    path = tmp_path / "cran.json"
    path.write_text(json.dumps(CRAN_CONFIG), encoding="utf-8")
    argv = argv + ["--config", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    # A text table's three lines before its rows: its name, header and rule.
    assert (len(read_json(out).records()) if "json" in argv else out.count("\n") - 3) == rows
    monkeypatch.setattr(qaplan.cli, "BLOCK", 1)
    assert run(capsys, *argv) == (code, out, err)


def test_csv_and_json_agree_numerically(capsys):
    _, csv_text, _ = run(capsys, "qubits", "--format", "csv")
    _, json_text, _ = run(capsys, "qubits", "--format", "json")
    csv_rows = read_csv(csv_text).records()
    json_rows = read_json(json_text).records()
    assert len(csv_rows) == len(json_rows) == 1
    for key, value in csv_rows[0].items():
        assert json_rows[0][key] == value


def test_out_flag_matches_stdout(tmp_path, capsys):
    path = tmp_path / "report.csv"
    code, out, _ = run(capsys, "qubits", "--format", "csv", "--out", str(path))
    assert code == EXIT_OK
    assert out == ""
    _, streamed, _ = run(capsys, "qubits", "--format", "csv")
    assert path.read_bytes().decode("utf-8") == streamed


def test_sweep_expands_grid(capsys):
    code, out, err = run(
        capsys, "targets", "--format", "csv",
        "--sweep", "bandwidth_mhz=50,100", "--sweep", "antennas=32,64",
    )
    assert code == EXIT_OK
    rows = read_csv(out).records()
    assert len(rows) == 4
    names = [r["name"] for r in rows]
    assert "5g-400mhz-64ant[bandwidth_mhz=50,antennas=32]" in names


def test_sweep_skips_invalid_points_with_warning(capsys):
    code, out, err = run(
        capsys, "targets", "--format", "csv", "--sweep", "coding_rate=0.5,1.5",
    )
    assert code == EXIT_WARNINGS
    assert "skipping sweep point" in err
    assert len(read_csv(out).records()) == 1


def test_sweep_with_no_valid_points_is_config_error(capsys):
    code, _, err = run(capsys, "targets", "--sweep", "coding_rate=1.5")
    assert code == EXIT_CONFIG
    assert "config error" in err


_MALFORMED_SWEEPS = {
    "nonsense": "--sweep needs AXIS=V1,V2,...; got 'nonsense'",
    "bandwidth_mhz": "--sweep needs AXIS=V1,V2,...; got 'bandwidth_mhz'",
    "volume=11": "unknown sweep axis 'volume'; axes: bandwidth_mhz, antennas, samples, "
                 "modulation_bits, coding_rate, duty_time, duty_freq",
    # A value that is no number, or none between two commas.
    "antennas=abc": "--sweep antennas: could not convert string to float: 'abc'",
    "antennas=1,,2": "--sweep antennas: could not convert string to float: ''",
}


@pytest.mark.parametrize("flag", list(_MALFORMED_SWEEPS))
def test_malformed_sweep_is_config_error(capsys, flag):
    code, out, err = run(capsys, "targets", "--sweep", flag)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"qaplan: config error: {_MALFORMED_SWEEPS[flag]}\n"


def test_capacity_warning_sets_exit_code(capsys):
    code, out, err = run(
        capsys, "qubits", "--format", "csv", "--sweep", "antennas=512",
    )
    assert code == EXIT_WARNINGS
    assert "exceeds refrigerator capacity" in err
    assert read_csv(out).records()[0]["fits"] == "no"


def test_sweep_labels_keep_values_distinct(capsys):
    # :g would name both rows antennas=1e+06
    code, out, _ = run(
        capsys, "targets", "--format", "csv", "--sweep", "antennas=1000001,1000002",
    )
    assert code == EXIT_OK
    assert [r["name"] for r in read_csv(out).records()] == [
        "5g-400mhz-64ant[antennas=1000001]", "5g-400mhz-64ant[antennas=1000002]",
    ]


def test_sweep_samples_below_one_are_skipped(capsys):
    code, out, err = run(
        capsys, "qubits", "--format", "csv", "--sweep", "samples=0,-1,20",
    )
    assert code == EXIT_WARNINGS
    assert err.splitlines() == [
        f"qaplan: warning: skipping sweep point 5g-400mhz-64ant[samples={n}]: "
        f"samples must be a positive integer, got {n}"
        for n in (0, -1)
    ]
    assert [r["samples"] for r in read_csv(out).records()] == [20]


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_sweep_with_only_bad_samples_is_config_error(capsys, samples):
    code, out, err = run(capsys, "qubits", "--sweep", f"samples={samples}")
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.endswith("qaplan: config error: sweep produced no valid points\n")


def test_timeline_row_at_reference_point():
    cfg = default_config()  # 400 MHz, 64 antennas, 20 samples, 14nm
    (row,) = cmd_timeline(cfg, []).records()
    assert (row["name"], row["samples"]) == ("5g-400mhz-64ant", 20)
    assert row["required_qubits"] == 3_320_055
    assert row["year_best"] == 2040
    assert row["year_worst"] > row["year_best"]
    assert row["advantage_14nm_w"] == pytest.approx(3584.0 / 0.076 * 1.3 - 25e3,
                                                    rel=1e-9)


def _skip_lines_per_point(cfg, sweep):
    """The skip warnings as wording each skipped point on its own gives
    them: one `CellScenario` of all the point's values, then its samples."""
    base_name, base = cfg.scenarios[0]
    axes = [a for a in SWEEP_AXES if a in sweep]
    lines = []
    for combo in itertools.product(*[sweep[a] for a in axes]):
        point = dict(zip(axes, combo))
        samples = point.pop("samples", cfg.samples)
        try:
            CellScenario(**{**base._asdict(), **point})
            why = f"samples must be a positive integer, got {samples}" if samples < 1 else None
        except ValueError as exc:
            why = exc
        if why is not None:
            labels = [f"{a}={qaplan.cli._label(v)}" for a, v in point.items()]
            labels += [f"samples={samples}"] if "samples" in sweep else []
            lines.append(f"qaplan: warning: skipping sweep point {base_name}[{','.join(labels)}]: "
                         f"{why}\n")
    return lines


def test_skip_reasons_are_worded_once_per_combination_of_failing_values(monkeypatch, capsys):
    # -0.0 and 0.0 are equal but print apart, nan is not equal to itself,
    # and a failing value on a second axis and a failing sample count mix
    # with them; every modulation is valid, so it only multiplies points.
    flags = {"bandwidth_mhz": "-0.0,0.0,nan,20", "antennas": "0,4", "samples": "0,1",
             "modulation_bits": "2,4,6"}
    sweep = {a: [(int if a != "bandwidth_mhz" else float)(v) for v in values.split(",")]
             for a, values in flags.items()}
    want = _skip_lines_per_point(default_config(), sweep)
    assert len(want) == 45
    assert want[0] == ("qaplan: warning: skipping sweep point 5g-400mhz-64ant[bandwidth_mhz=-0,"
                       "antennas=0,modulation_bits=2,samples=0]: bandwidth must be positive, "
                       "got -0.0\n")
    built = []

    def counted(**fields):
        built.append(fields)
        return CellScenario(**fields)

    monkeypatch.setattr(qaplan.cli, "CellScenario", counted)
    argv = ["economics", "--format", "csv"]
    for axis, values in flags.items():
        argv += ["--sweep", f"{axis}={values}"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_WARNINGS, "".join(want))
    assert len(read_csv(out).records()) == 3 * len(default_config().cmos_profiles)
    # One check per swept value, then one per failing combination: 3
    # failing bandwidths or none, times 2 states of antennas and of samples,
    # less the combination where nothing fails.
    checks = sum(len(values) for values in sweep.values())
    assert len(built) <= checks + 4 * 2 * 2 - 1


# Values of each sweep axis, valid and failing; a failing count on the
# samples axis.
_SWEEP_VALUES = {
    "bandwidth_mhz": [20.0, 400.0, -5.0, 0.0, -0.0, float("nan")],
    "antennas": [1, 64, 0, -3],
    "samples": [1, 20, 0, -1],
    "modulation_bits": [2, 6, 3],
    "coding_rate": [0.5, 1.0, 1.5],
    "duty_time": [0.3, 1.0, 0.0],
    "duty_freq": [1.0, 2.0],
}


@st.composite
def _sweeps(draw):
    axes = draw(st.lists(st.sampled_from(sorted(_SWEEP_VALUES)), min_size=1, max_size=5,
                         unique=True))
    return {axis: draw(st.lists(st.sampled_from(_SWEEP_VALUES[axis]), min_size=1, max_size=4,
                                unique_by=repr)) for axis in axes}


@settings(max_examples=150, deadline=None)
@given(_sweeps())
def test_skipped_points_are_those_of_a_walk_over_the_whole_grid(sweep):
    # Only the points with a failing value are visited, in grid order; the
    # warnings are those of wording every point of the grid on its own.
    cfg = default_config()
    warnings = []
    try:
        _expand_points(cfg._replace(sweep=sweep), warnings)
    except ConfigError as exc:
        assert str(exc) == "sweep produced no valid points"
    assert [f"qaplan: warning: {line}\n" for line in warnings] == _skip_lines_per_point(cfg, sweep)


_SKIP_NAN = ("qaplan: warning: skipping sweep point 5g-400mhz-64ant[bandwidth_mhz={}]: "
             "bandwidth_mhz must be finite, got {}")
_NO_POINTS = "qaplan: config error: sweep produced no valid points"
_OVERFLOW = "qaplan: model error: compute targets overflow: inf TOPS"


@pytest.mark.parametrize("command,sweep,code,lines", [
    ("economics", "bandwidth_mhz=100,nan", EXIT_WARNINGS, [_SKIP_NAN.format("nan", "nan")]),
    ("power", "bandwidth_mhz=inf,100,-inf", EXIT_WARNINGS,
     [_SKIP_NAN.format("inf", "inf"), _SKIP_NAN.format("-inf", "-inf")]),
    ("economics", "bandwidth_mhz=nan", EXIT_CONFIG,
     [_SKIP_NAN.format("nan", "nan"), _NO_POINTS]),
    ("timeline", "bandwidth_mhz=inf", EXIT_CONFIG,
     [_SKIP_NAN.format("inf", "inf"), _NO_POINTS]),
    *[(command, "bandwidth_mhz=100,1e308", EXIT_DOMAIN, [_OVERFLOW])
      for command in ("targets", "power", "qubits", "economics", "timeline")],
    ("qubits", "bandwidth_mhz=1e300", EXIT_DOMAIN,  # finite TOPS, too many qubits
     ["qaplan: model error: qubit requirement at 6.144e+300 TOPS is not finite"]),
    ("targets", "antennas=64,1" + "0" * 400, EXIT_WARNINGS, [
        "qaplan: warning: skipping sweep point 5g-400mhz-64ant[antennas=1" + "0" * 400
        + "]: int too large to convert to float",
    ]),
])
def test_non_finite_sweep_values_end_in_one_line_each(capsys, command, sweep, code, lines):
    got, out, err = run(capsys, command, "--format", "csv", "--sweep", sweep)
    assert got == code
    assert "Traceback" not in err
    assert err.splitlines() == lines
    if code == EXIT_WARNINGS:
        assert len(read_csv(out).records()) == 1


@pytest.mark.parametrize("doc,message", [
    ({"qa": {"refrigeration_w": float("nan")}},
     "qa: refrigeration_w must be finite and non-negative, got nan"),
    ({"costs": {"electricity_price_per_kwh": float("inf")}},
     "costs: electricity_price_per_kwh must be finite and non-negative, got inf"),
    ({"cmos": [{"node": "x", "efficiency_tops_per_w": float("nan")}]},
     "cmos[0]: efficiency_tops_per_w must be finite, got nan"),
    ({"cmos": [{"node": "x", "vdd": float("inf")}]},
     "cmos[0]: vdd must be finite, got inf"),
    ({"topology": {"kind": "cran", "fronthaul_gbps": float("inf")}},
     "topology: fronthaul capacity must be finite, got inf"),
    ({"topology": {"kind": "cran", "n_bs": float("inf")}},
     "topology: cannot convert float infinity to integer"),
    ({"horizons_years": [1, float("inf")]}, "horizons_years: horizons must be finite, got inf"),
    ({"scenarios": [{"bandwidth_mhz": float("nan")}]},
     "scenarios[0]: bandwidth_mhz must be finite, got nan"),
    ({"scenarios": [{"bandwidth_mhz": 100, "antennas": float("inf")}]},
     "scenarios[0]: cannot convert float infinity to integer"),
    ({"sweep": {"antennas": [float("-inf")]}},
     "sweep.antennas: cannot convert float infinity to integer"),
    ({"cmos": [{"node": "x", "vdd": float("nan")}]},
     "cmos[0]: vdd must be finite, got nan"),
    ({"cmos": [{"node": "x", "vdd": -1}]}, "cmos[0]: vdd must be positive, got -1.0"),
    # (1.1 / 1e200) ** 2 underflows to an efficiency of zero
    ({"cmos": [{"node": "x", "vdd": 1e200}]},
     "cmos[0]: vdd 1e+200 projects an efficiency below float range"),
    ({"horizons_years": [1, -1]}, "horizons_years: horizons must be non-negative, got -1.0"),
    ({"cmos": [{"node": "x", "vdd": 0}]}, "cmos[0]: vdd must be positive, got 0.0"),
])
def test_non_finite_config_values_are_config_errors(tmp_path, capsys, doc, message):
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # NaN/Infinity tokens
    for command in ("power", "economics"):
        code, out, err = run(capsys, command, "--config", str(path))
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == f"qaplan: config error: {message}\n"


@pytest.mark.parametrize("doc,key,name", [
    ({"scenarios": [{"name": "a\nb", "bandwidth_mhz": 20}]}, "scenarios[0].name", "a\nb"),
    ({"scenarios": [{"name": "a\rb", "bandwidth_mhz": 20}]}, "scenarios[0].name", "a\rb"),
    ({"cmos": [{"node": "x\ny", "efficiency_tops_per_w": 0.1}]}, "cmos[0].node", "x\ny"),
    ({"cmos": ["14nm", {"node": "x\r\ny", "vdd": 0.7}]}, "cmos[1].node", "x\r\ny"),
], ids=["scenario-lf", "scenario-cr", "node-lf", "node-crlf"])
def test_a_name_holding_a_line_break_is_a_config_error(tmp_path, capsys, doc, key, name):
    # A name heads a text row and a warning, which would span two lines.
    path = tmp_path / "names.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("targets", "power", "qubits"):
        code, out, err = run(capsys, command, "--config", str(path), "--sweep", "antennas=512")
        assert (code, out, err) == (
            EXIT_CONFIG, "", f"qaplan: config error: {key} holds a line break: {name!r}\n")


@pytest.mark.parametrize("n_bs,message", [
    (2.5, "topology.n_bs must be a positive integer, got 2.5"),
    ("3", "topology.n_bs must be a positive integer, got '3'"),
    (1e308, "topology: n_bs must be at most 10000, got 1e+308"),
    (-1e308, "topology: n_bs must be at least 1, got -1e+308"),
    (10001, "topology: n_bs must be at most 10000, got 10001"),
])
def test_site_counts_are_whole_and_printed_as_given(tmp_path, capsys, n_bs, message):
    path = tmp_path / "sites.json"
    path.write_text(json.dumps({"topology": {"kind": "cran", "n_bs": n_bs}}),
                    encoding="utf-8")
    code, out, err = run(capsys, "power", "--config", str(path))
    assert (code, out, err) == (EXIT_CONFIG, "", f"qaplan: config error: {message}\n")


@pytest.mark.parametrize("n_bs", [3.0, 10000])
def test_whole_site_counts_run(tmp_path, capsys, n_bs):
    path = tmp_path / "sites.json"
    path.write_text(json.dumps({"topology": {"kind": "cran", "n_bs": n_bs}}),
                    encoding="utf-8")
    code, out, _ = run(capsys, "power", "--format", "csv", "--config", str(path))
    assert code == EXIT_OK
    assert read_csv(out).records()[0]["cmos_fronthaul_w"] == 7400.0 * n_bs  # one link a site


@pytest.mark.parametrize("doc,key", [
    ({"samples": True}, "samples"),
    ({"scenarios": [{"bandwidth_mhz": True}]}, "scenarios[0].bandwidth_mhz"),
    ({"scenarios": [{"bandwidth_mhz": 100, "antennas": True}]}, "scenarios[0].antennas"),
    ({"scenarios": [{"bandwidth_mhz": 100, "modulation_bits": True}]},
     "scenarios[0].modulation_bits"),
    ({"scenarios": [{"bandwidth_mhz": 100, "coding_rate": True}]},
     "scenarios[0].coding_rate"),
    ({"scenarios": [{"bandwidth_mhz": 100, "duty_time": True}]}, "scenarios[0].duty_time"),
    ({"scenarios": [{"bandwidth_mhz": 100, "duty_freq": True}]}, "scenarios[0].duty_freq"),
    ({"cmos": [{"node": "x", "vdd": True}]}, "cmos[0].vdd"),
    ({"cmos": [{"node": "x", "efficiency_tops_per_w": True}]},
     "cmos[0].efficiency_tops_per_w"),
    ({"cmos": [{"node": "x", "efficiency_tops_per_w": 1, "leakage_fraction": True}]},
     "cmos[0].leakage_fraction"),
    ({"qa": {"refrigeration_w": True}}, "qa.refrigeration_w"),
    ({"qa": {"programming_us": True}}, "qa.programming_us"),
    ({"qa": {"anneal_us": True}}, "qa.anneal_us"),
    ({"qa": {"readout_us": True}}, "qa.readout_us"),
    ({"qa": {"readout_delay_us": True}}, "qa.readout_delay_us"),
    ({"topology": {"kind": "cran", "n_bs": True}}, "topology.n_bs"),
    ({"topology": {"kind": "cran", "fronthaul_gbps": True}}, "topology.fronthaul_gbps"),
    ({"costs": {"electricity_price_per_kwh": True}}, "costs.electricity_price_per_kwh"),
    ({"horizons_years": [True, 2]}, "horizons_years"),
    ({"sweep": {"antennas": [True, 2]}}, "sweep.antennas"),
    ({"sweep": {"bandwidth_mhz": [100, False]}}, "sweep.bandwidth_mhz"),
    # numeric strings
    ({"samples": "20"}, "samples"),
    ({"scenarios": [{"bandwidth_mhz": "100"}]}, "scenarios[0].bandwidth_mhz"),
    ({"scenarios": [{"bandwidth_mhz": 100, "coding_rate": "0.5"}]},
     "scenarios[0].coding_rate"),
    ({"cmos": [{"node": "x", "vdd": "0.7"}]}, "cmos[0].vdd"),
    ({"qa": {"anneal_us": "1"}}, "qa.anneal_us"),
    ({"topology": {"kind": "cran", "fronthaul_gbps": "50"}}, "topology.fronthaul_gbps"),
    ({"costs": {"hours_per_year": "8760"}}, "costs.hours_per_year"),
    ({"horizons_years": ["5"]}, "horizons_years"),
    ({"sweep": {"bandwidth_mhz": ["100"]}}, "sweep.bandwidth_mhz"),
])
def test_json_booleans_are_not_numbers(tmp_path, capsys, doc, key):
    # Python casts true and false as 1 and 0, and "5" as 5; a config must not.
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    value = doc  # the value at `key`; in a list, its first non-number
    for part in re.findall(r"[^.\[\]]+", key):
        value = value[int(part)] if part.isdigit() else value[part]
    if isinstance(value, list):
        value = next(v for v in value if isinstance(v, (bool, str)))
    value = json.dumps(value)
    code, out, err = run(capsys, "economics", "--config", str(path))
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == f"qaplan: config error: {key} must be a number, got {value}\n"


@pytest.mark.parametrize("doc,message", [
    ({"scenarios": [{"bandwidth_mhz": 100, "antennas": 2.5}]},
     "scenarios[0].antennas must be a positive integer, got 2.5"),
    ({"scenarios": [{"bandwidth_mhz": 100, "modulation_bits": 6.5}]},
     "scenarios[0].modulation_bits must be a positive integer, got 6.5"),
    ({"scenarios": [{"bandwidth_mhz": 100, "antennas": "64"}]},
     "scenarios[0].antennas must be a positive integer, got '64'"),
    ({"sweep": {"antennas": [64, 2.5]}}, "sweep.antennas must be a positive integer, got 2.5"),
    ({"sweep": {"samples": [2.5]}}, "sweep.samples must be a positive integer, got 2.5"),
    ({"sweep": {"modulation_bits": [6.5]}},
     "sweep.modulation_bits must be a positive integer, got 6.5"),
    ({"sweep": {"antennas": ["2"]}}, "sweep.antennas must be a positive integer, got '2'"),
])
def test_fractional_integers_are_refused_not_truncated(tmp_path, capsys, doc, message):
    path = tmp_path / "fraction.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("targets", "economics"):
        code, out, err = run(capsys, command, "--format", "csv", "--config", str(path))
        assert (code, out, err) == (EXIT_CONFIG, "", f"qaplan: config error: {message}\n")


def test_whole_floats_count_as_integers(tmp_path, capsys):
    path = tmp_path / "whole.json"
    scenarios = [{"bandwidth_mhz": 100, "antennas": 8.0, "modulation_bits": 4.0}]
    for doc, name in (({"sweep": {"samples": [3.0]}}, "scenario-0[samples=3]"),
                      ({"samples": 3.0}, "scenario-0")):
        path.write_text(json.dumps({"scenarios": scenarios, **doc}), encoding="utf-8")
        code, out, err = run(capsys, "qubits", "--format", "csv", "--config", str(path))
        assert (code, err) == (EXIT_OK, "")
        row = read_csv(out).records()[0]
        assert (row["name"], row["antennas"], row["samples"]) == (name, 8, 3)
        assert out.splitlines()[1].split(",")[3] == "3"  # printed as a count


def test_antenna_count_past_float_range_is_a_model_error(tmp_path, capsys):
    # antennas ** 2 of a finite ratio raises rather than giving inf
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"scenarios": [{"bandwidth_mhz": 1, "antennas": 1e308}]}),
                    encoding="utf-8")
    code, out, err = run(capsys, "targets", "--config", str(path))
    assert (code, out, err) == (
        EXIT_DOMAIN, "", "qaplan: model error: compute targets overflow: inf TOPS\n")


_FLOAT_RANGE_PAST = 10**400  # a 401-digit sample count


@pytest.mark.parametrize("entry", ["config", "config sweep", "sweep flag"])
@pytest.mark.parametrize("command", ["qubits", "economics", "timeline"])
def test_sample_count_past_float_range_is_a_model_error(tmp_path, capsys, entry, command):
    path = tmp_path / "samples.json"
    doc = {"samples": _FLOAT_RANGE_PAST} if entry == "config" else (
        {"sweep": {"samples": [_FLOAT_RANGE_PAST]}} if entry == "config sweep" else {})
    path.write_text(json.dumps(doc), encoding="utf-8")  # the count in full, as digits
    flags = ["--sweep", f"samples={_FLOAT_RANGE_PAST}"] if entry == "sweep flag" else []
    code, out, err = run(capsys, command, "--config", str(path), *flags)
    assert (code, out, err) == (
        EXIT_DOMAIN, "", "qaplan: model error: sample count past float range: 401 digits\n")


_WARN_1000 = ("qaplan: warning: 5g-400mhz-64ant[bandwidth_mhz=1000,antennas=100,samples=50]"
              "{node}: {what} 24412162 exceeds refrigerator capacity 13975088\n")
_NOT_FINITE = "qaplan: model error: qubit requirement at 1.5e+301 TOPS is not finite\n"
_PAST_RANGE = "qaplan: model error: sample count past float range: 401 digits\n"


@pytest.mark.parametrize("command,warned", [
    ("economics", _WARN_1000.format(node=" (14nm)", what="qubit requirement")),
    ("qubits", _WARN_1000.format(node="", what="requirement")),
    ("timeline", ""),  # the timeline never warns
])
@pytest.mark.parametrize("sweep,error", [
    # The first bandwidth warns at 50 samples; the second fails at its
    # first row, after the warnings of the rows before it.
    (["bandwidth_mhz=1000,1e300", "antennas=100", "samples=1,50"], _NOT_FINITE),
    # The second sample count fails after the first one warned.
    (["bandwidth_mhz=1000", "antennas=100", f"samples=50,{_FLOAT_RANGE_PAST}"], _PAST_RANGE),
])
def test_a_mid_grid_model_error_follows_the_warnings_of_earlier_rows(
        capsys, command, warned, sweep, error):
    flags = [arg for axis in sweep for arg in ("--sweep", axis)]
    assert run(capsys, command, "--format", "csv", *flags) == (EXIT_DOMAIN, "", warned + error)


@pytest.mark.parametrize("command", ["qubits", "economics", "timeline"])
def test_a_failing_workload_comes_before_a_failing_sample_count(capsys, command):
    # The row reads its scenario's workload first, then its cells: the
    # runtime cell of the first sample count would fail too.
    got = run(capsys, command, "--format", "csv", "--sweep", "bandwidth_mhz=1e308",
              "--sweep", f"samples={_FLOAT_RANGE_PAST},1")
    assert got == (EXIT_DOMAIN, "", _OVERFLOW + "\n")


@pytest.mark.parametrize("doc,bandwidths,error", [
    # The second node's row fails after the first node's row of the same
    # scenario warned.
    ({"cmos": ["14nm", {"node": "tiny", "efficiency_tops_per_w": 1e-305}]}, "1000",
     "qaplan: model error: deployment power overflows: inf W\n"),
    # The second scenario fails in two stages; its costs cell comes before
    # its qubit ask, which would fail too.
    ({"cmos": ["14nm"], "horizons_years": [1, 1e300]}, "1000,1e300",
     "qaplan: model error: savings of 4.17138e+302 W overflow over the horizons\n"),
])
def test_a_per_node_row_fails_at_the_first_value_it_reads(tmp_path, capsys, doc, bandwidths,
                                                          error):
    path = tmp_path / "nodes.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    got = run(capsys, "economics", "--config", str(path), "--format", "csv",
              "--sweep", f"bandwidth_mhz={bandwidths}", "--sweep", "antennas=100",
              "--sweep", "samples=50")
    warned = _WARN_1000.format(node=" (14nm)", what="qubit requirement")
    assert got == (EXIT_DOMAIN, "", warned + error)


def test_timeline_reads_its_own_cells_before_its_shared_cells(tmp_path, capsys):
    # Both fail: the required qubits (own) at a sample count past float
    # range, the tiny node's advantage (shared) in its silicon power.
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"cmos": ["14nm", {"node": "tiny",
                                                  "efficiency_tops_per_w": 1e-305}]}),
                    encoding="utf-8")
    got = run(capsys, "timeline", "--config", str(path), "--format", "csv",
              "--sweep", f"samples={_FLOAT_RANGE_PAST}")
    assert got == (EXIT_DOMAIN, "", _PAST_RANGE)


def test_wrong_typed_qa_override_names_its_field(tmp_path, capsys):
    path = tmp_path / "qa.json"
    path.write_text(json.dumps({"qa": {"refrigeration_w": "5"}}), encoding="utf-8")
    code, out, err = run(capsys, "economics", "--config", str(path))
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == 'qaplan: config error: qa.refrigeration_w must be a number, got "5"\n'


@pytest.mark.parametrize("doc,message", [
    ({"horizons_years": [1, 1.0]}, "duplicate horizon: 1"),
    ({"cmos": ["14nm", {"node": "14nm", "vdd": 0.8}]}, "duplicate cmos node: 14nm"),
    # 5 and "5" would both head an advantage_5_w column
    ({"cmos": [{"vdd": 0.8, "node": 5}, {"vdd": 0.7, "node": "5"}]},
     "cmos[0].node must be a string, got 5"),
    ({"scenarios": [{"name": "a", "bandwidth_mhz": 100}, {"name": "a", "bandwidth_mhz": 200}]},
     "duplicate scenario name: a"),
    ({"scenarios": [{"bandwidth_mhz": 100}, {"name": "scenario-0", "bandwidth_mhz": 200}]},
     "duplicate scenario name: scenario-0"),
    ({"scenarios": [{"name": 1, "bandwidth_mhz": 100}, {"name": "1", "bandwidth_mhz": 200}]},
     "scenarios[0].name must be a string, got 1"),
])
def test_duplicate_column_sources_are_config_errors(tmp_path, capsys, doc, message):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "economics", "--config", str(path))
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == f"qaplan: config error: {message}\n"


@pytest.mark.parametrize("flags,doc,message", [
    # Each would print two rows of one name.
    (["--sweep", "samples=20,20"], {}, "duplicate --sweep samples value: 20"),
    (["--sweep", "bandwidth_mhz=100,1e2"], {},
     "duplicate --sweep bandwidth_mhz value: 100.0"),
    ([], {"sweep": {"antennas": [8, 8.0]}}, "duplicate sweep.antennas value: 8"),
    (["--sweep", "coding_rate=nan,0.5,nan"], {}, "duplicate --sweep coding_rate value: nan"),
    # The later flag would replace the earlier one's values.
    (["--sweep", "antennas=8", "--sweep", "antennas=16"], {},
     "--sweep antennas given twice; list all its values in one flag"),
])
def test_repeated_sweep_values_and_axes_are_config_errors(tmp_path, capsys, flags, doc,
                                                          message):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "qubits", "--config", str(path), *flags)
    assert (code, out, err) == (EXIT_CONFIG, "", f"qaplan: config error: {message}\n")


@pytest.mark.parametrize("doc,message", [
    # a cmos entry takes the keys of one shape only
    ({"cmos": [{"node": "7nm", "vdd": 0.7, "leakage_fraction": 0.9}]},
     "unknown key(s) in cmos[0]: leakage_fraction"),
    ({"cmos": [{"node": "e", "efficiency_tops_per_w": 0.1, "mode": "bogus"}]},
     "unknown key(s) in cmos[0]: mode"),
    ({"cmos": [{"node": "e", "efficiency_tops_per_w": 0.1, "vdd": 0.5}]},
     "unknown key(s) in cmos[0]: vdd"),
    # wrong-typed sections
    ({"scenarios": [5]}, "scenarios[0] must be a json object, got 5"),
    ({"cmos": [5]}, "cmos[0] must be a json object, got 5"),
    ({"cmos": "14nm"}, "cmos must be a non-empty list"),
    ({"qa": 5}, "qa must be a json object, got 5"),
    ({"qa": {"profile": ["current"]}},
     "qa.profile: unknown profile ['current']; built-ins: current, projected"),
    ({"topology": 5}, "topology must be a json object, got 5"),
    ({"costs": 5}, "costs must be a json object, got 5"),
    ({"sweep": 5}, "sweep must be a json object, got 5"),
    ({"horizons_years": 5}, "horizons_years must be a list, got 5"),
    ({"samples": 20.5}, "samples must be a positive integer, got 20.5"),
    ({"samples": float("inf")}, "samples must be a positive integer, got inf"),
])
def test_misshapen_config_is_one_config_error_line(tmp_path, capsys, doc, message):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "timeline", "--config", str(path))
    assert (code, out, err) == (EXIT_CONFIG, "", f"qaplan: config error: {message}\n")


def test_missing_config_file_is_config_error(capsys):
    code, _, err = run(capsys, "targets", "--config", "/no/such/file.json")
    assert code == EXIT_CONFIG
    assert "config error" in err


def test_invalid_json_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "targets", "--config", str(path))
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("via", ["--config", ENV_CONFIG_PATH])
@pytest.mark.parametrize("data, reason", [
    (b"\xff", "'utf-8' codec can't decode byte 0xff"),
    (b'{"samples": ' + b"9" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
    (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
], ids=["not-utf8", "long-int", "deep-nesting"])
def test_unparsable_config_bytes_are_one_config_error_line(tmp_path, monkeypatch, capsys,
                                                           data, reason, via):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    argv = ["targets"]
    if via == ENV_CONFIG_PATH:
        monkeypatch.setenv(ENV_CONFIG_PATH, str(path))
    else:
        argv += ["--config", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith(f"qaplan: config error: config {path} is not valid json: {reason}")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({"scenarois": []}), encoding="utf-8")
    code, _, err = run(capsys, "targets", "--config", str(path))
    assert code == EXIT_CONFIG
    assert "scenarois" in err


def test_wrong_schema_version_is_config_error(tmp_path, capsys):
    path = tmp_path / "v9.json"
    path.write_text(json.dumps({"schema_version": 9}), encoding="utf-8")
    code, _, err = run(capsys, "targets", "--config", str(path))
    assert code == EXIT_CONFIG


def test_domain_error_exit_code(capsys):
    code, out, err = run(capsys, "economics", "--sweep", "bandwidth_mhz=1e308")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err == _OVERFLOW + "\n"


@pytest.mark.parametrize("gbps", [0, -5])
@pytest.mark.parametrize("command", _COMMANDS)
def test_a_fronthaul_capacity_that_is_not_positive_is_a_config_error(tmp_path, capsys,
                                                                     command, gbps):
    path = tmp_path / "fronthaul.json"
    path.write_text(json.dumps({"topology": {"kind": "cran", "fronthaul_gbps": gbps}}),
                    encoding="utf-8")
    code, out, err = run(capsys, command, "--config", str(path))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == ("qaplan: config error: topology: fronthaul capacity must be positive, "
                   f"got {gbps * 1e9}\n")


@pytest.mark.parametrize("command", ["power", "economics"])
def test_a_fronthaul_capacity_of_1e150_gbps_prices_at_its_full_load_draw(
        tmp_path, capsys, command):
    # 1e150 Gb/s: the link's load-proportional draw once overflowed to inf W.
    path = tmp_path / "fronthaul.json"
    path.write_text(json.dumps({"topology": {"kind": "cran", "fronthaul_gbps": 1e150}}),
                    encoding="utf-8")
    code, out, err = run(capsys, command, "--format", "csv", "--config", str(path))
    assert (code, err) == (EXIT_OK, "")
    (row,) = read_csv(out).records()
    assert all(math.isfinite(v) for v in row.values() if isinstance(v, float))


@pytest.mark.parametrize("axis,value", [("antennas", 8), ("samples", 20),
                                        ("modulation_bits", 4)])
def test_a_sweep_flag_reads_whole_floats_on_count_axes_as_the_config_does(
        tmp_path, capsys, axis, value):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"sweep": {axis: [float(value)]}}), encoding="utf-8")
    want = run(capsys, "targets", "--format", "csv", "--config", str(path))
    assert want[0] == EXIT_OK and f"[{axis}={value}]" in want[1]
    assert run(capsys, "targets", "--format", "csv", "--sweep", f"{axis}={value}.0") == want
    assert run(capsys, "targets", "--format", "csv", "--sweep", f"{axis}={value}") == want
    code, out, err = run(capsys, "targets", "--sweep", f"{axis}=2.5")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"qaplan: config error: --sweep {axis} must be a positive integer, got 2.5\n"


def test_unwritable_output_is_config_error(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "out.csv"
    code, _, err = run(capsys, "targets", "--out", str(target))
    assert code == EXIT_CONFIG
    assert "cannot write output" in err


def test_usage_errors_exit_one(capsys):
    for argv in ([], ["frobnicate"], ["targets", "--format", "xml"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        capsys.readouterr()


_CHOICES = "'targets', 'power', 'qubits', 'economics', 'timeline'"
# Exit code, stdout and stderr of help and usage errors, recorded with
# Python 3.11's argparse while every call built every subcommand's flags.
USAGE = {
    ("--help",): (EXIT_OK, """\
usage: qaplan [-h] {targets,power,qubits,economics,timeline} ...

Feasibility planner for annealer-offloaded baseband processing

positional arguments:
  {targets,power,qubits,economics,timeline}
    targets             per-task compute targets (TOPS) per scenario
    power               deployment power for silicon and annealer candidates
    qubits              annealer qubit requirement per scenario
    economics           operating savings of the annealer candidate
    timeline            when the required device sizes become available

options:
  -h, --help            show this help message and exit
""", ""),
    ("power", "--help"): (EXIT_OK, """\
usage: qaplan power [-h] [--config PATH] [--format {csv,json,table}]
                    [--out PATH] [--sweep AXIS=V1,V2,...]
                    [--paper-table {costsavings,energy,powerbenefit,qubits-time,readout,targets}]

options:
  -h, --help            show this help message and exit
  --config PATH         json config file (default: $QAPLAN_CONFIG or built-
                        ins)
  --format {csv,json,table}
                        output format (default: table)
  --out PATH            write output to a file instead of stdout
  --sweep AXIS=V1,V2,...
                        sweep an axis over values; repeatable; overrides
                        config sweep; axes: bandwidth_mhz, antennas, samples,
                        modulation_bits, coding_rate, duty_time, duty_freq
  --paper-table {costsavings,energy,powerbenefit,qubits-time,readout,targets}
                        emit a reference report instead of evaluating the
                        configured scenarios
""", ""),
    (): (EXIT_CONFIG, "", "qaplan: error: the following arguments are required: command\n"),
    ("frobnicate",): (EXIT_CONFIG, "", "qaplan: error: argument command: invalid choice: "
                      f"'frobnicate' (choose from {_CHOICES})\n"),
    ("targets", "--format", "xml"): (
        EXIT_CONFIG, "", "qaplan targets: error: argument --format: invalid choice: 'xml' "
        "(choose from 'csv', 'json', 'table')\n"),
    ("power", "extra"): (EXIT_CONFIG, "", "qaplan: error: unrecognized arguments: extra\n"),
    ("power", "--sweep"): (
        EXIT_CONFIG, "", "qaplan power: error: argument --sweep: expected one argument\n"),
}


def _exits(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(list(argv))
    return (exc.value.code, *capsys.readouterr())


@pytest.mark.parametrize("argv", sorted(USAGE), ids=" ".join)
def test_help_and_usage_errors_are_those_of_the_whole_parser(monkeypatch, capsys, argv):
    # A call builds only its own subcommand's flags; what argparse prints
    # is what the whole tree, every subcommand with its flags, prints.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    got = _exits(capsys, main, argv)
    assert got == _exits(capsys, build_parser().parse_args, argv)
    if sys.version_info[:2] == (3, 11):  # other versions word some messages apart
        assert got == USAGE[argv]


_PLAIN_WORDS = [*_COMMANDS, "--config", "--format", "--out", "--sweep", "--paper-table",
                "--conf", "--form", "--o", "--swee", "--paper", "-h", "--help", "--", "-", "",
                "--format=csv", "--sweep=antennas=8", "csv", "json", "table", "xml", "energy",
                "readout", "cfg.json", "antennas=8,16", "samples=1", "-5", "out.csv"]


@st.composite
def _command_lines(draw):
    """Mostly a subcommand and flag-value pairs, some of them plain; the
    rest any words."""
    words = st.sampled_from(_PLAIN_WORDS)
    values = words | st.sampled_from(["csv", "json", "table", "energy", "cfg.json", "samples=1"])
    head = draw(st.lists(words, max_size=2) | st.sampled_from([[c] for c in _COMMANDS]))
    pairs = draw(st.lists(st.tuples(st.sampled_from(list(qaplan.cli._FLAGS)), values),
                          max_size=4))
    tail = draw(st.just([]) | st.lists(words, max_size=1))
    return head + [w for pair in pairs for w in pair] + tail


def _workload_argv(command, fmt, config, axes):
    argv = [command, "--format", fmt, "--out", "/x/o.out"] + (
        ["--config", config] if config else [])
    return argv + [f for a, values in axes for f in ("--sweep", f"{a}={values}")]


_WORKLOAD_ARGVS = [
    _workload_argv("economics", "csv", "", [("bandwidth_mhz", "10,20,1000"),
                                           ("antennas", "1,2,100"), ("samples", "1,20,50")]),
    *[_workload_argv(command, "table", "/x/perfbench/cran3.json",
                     [("bandwidth_mhz", "20,40"), ("antennas", "8,16"), ("modulation_bits", "2,4")])
      for command in _COMMANDS],
]


@settings(max_examples=500, deadline=None)
@given(_command_lines())
@example(["targets", "--format", "csv", "--out", "p.csv"])
@example(["power", "--sweep", "antennas=8", "--sweep", "samples=1", "--out", "a", "--out", "b"])
@example(["qubits", "--paper-table", "readout", "--format", "json", "--format", "csv"])
def test_a_plain_command_line_parses_as_argparse_parses_it(argv):
    args = _plain_args(argv)
    if args is not None:  # else argparse parses it, or words its usage error
        assert vars(args) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", _WORKLOAD_ARGVS, ids=lambda argv: argv[0])
def test_every_benchmark_call_is_a_plain_command_line(argv):
    assert vars(_plain_args(argv)) == vars(build_parser().parse_args(argv))


def test_an_abbreviated_flag_falls_back_to_argparse(capsys):
    assert _plain_args(["targets", "--form", "csv"]) is None
    got = run(capsys, "targets", "--form", "csv")
    assert got[0] == EXIT_OK
    assert got == run(capsys, "targets", "--format", "csv")


def test_an_equals_form_with_a_bad_choice_falls_back_to_argparse(capsys):
    argv = ["power", "--format=xml"]
    assert _plain_args(argv) is None
    got = _exits(capsys, main, argv)
    assert got == _exits(capsys, build_parser().parse_args, argv)
    assert got[:2] == (EXIT_CONFIG, "")
    assert got[2].startswith("qaplan power: error: argument --format: invalid choice: 'xml'")


def test_a_plain_call_loads_no_argparse(tmp_path):
    # -S keeps site hooks from loading modules the check is about.
    script = ("import sys, qaplan.cli as c\n"
              "loaded = lambda: [m for m in ('argparse', 'gettext', 'locale')\n"
              "                  if m in sys.modules]\n"
              "c.main(['targets', '--format', 'csv', '--out', sys.argv[1]])\n"
              "print(loaded())\n"
              "c.main(['targets', '--form', 'csv', '--out', sys.argv[1]])\n"
              "print('argparse' in loaded())\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qaplan.__file__)))
    env.pop(ENV_CONFIG_PATH, None)
    proc = subprocess.run([sys.executable, "-S", "-c", script, str(tmp_path / "p.csv")],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\nTrue\n", "")


_OVER = ("5g-400mhz-64ant[bandwidth_mhz=1000,antennas={ant},modulation_bits={bits}]{node}: "
         "{what} {total} exceeds refrigerator capacity 13975088\n")


@pytest.mark.parametrize("command,warnings", [
    # Not per node: one warning per row over capacity, whatever the nodes.
    ("qubits", [_OVER.format(ant=128, bits=bits, node="", what="requirement", total=total)
                for bits, total in ((6, 16600270), (8, 22133694))]),
    # Per node: every row is one node's, and the deployment's ask (three
    # cells) is over capacity on each.
    ("economics", [_OVER.format(ant=ant, bits=bits, node=f" ({node})",
                                what="qubit requirement", total=total)
                   for ant, bits, total in ((64, 6, 24900408), (64, 8, 33200544),
                                            (128, 6, 49800810), (128, 8, 66401082))
                   for node in ("65nm", "14nm", "1.5nm")]),
])
def test_a_row_warns_once_per_node_only_on_a_table_per_node(tmp_path, capsys, command,
                                                            warnings):
    path = tmp_path / "cran.json"
    path.write_text(json.dumps(CRAN_CONFIG), encoding="utf-8")
    code, out, err = run(capsys, command, "--format", "csv", "--config", str(path),
                         "--sweep", "bandwidth_mhz=1000", "--sweep", "antennas=64,128",
                         "--sweep", "modulation_bits=6,8")
    assert (code, err) == (EXIT_WARNINGS, "".join("qaplan: warning: " + w for w in warnings))
    # The warnings name the rows that do not fit: on economics, every row.
    named = [w.split(": ")[0].split(" (")[0] for w in warnings]
    assert named == [r["name"] for r in read_csv(out).records() if r.get("fits", "no") == "no"]


def test_env_var_points_at_config(tmp_path, monkeypatch, capsys):
    path = tmp_path / "env.json"
    path.write_text(json.dumps({
        "scenarios": [{"name": "small", "bandwidth_mhz": 100, "antennas": 32}],
    }), encoding="utf-8")
    monkeypatch.setenv(ENV_CONFIG_PATH, str(path))
    code, out, _ = run(capsys, "targets", "--format", "csv")
    assert code == EXIT_OK
    assert read_csv(out).records()[0]["name"] == "small"


def test_config_flag_beats_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(ENV_CONFIG_PATH, "/no/such/file.json")
    path = tmp_path / "real.json"
    path.write_text(json.dumps({"samples": 50}), encoding="utf-8")
    code, out, _ = run(capsys, "qubits", "--format", "csv", "--config", str(path))
    assert code == EXIT_OK
    assert read_csv(out).records()[0]["samples"] == 50


def test_config_sweep_used_when_no_flag(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"sweep": {"antennas": [32, 64]}}), encoding="utf-8")
    code, out, _ = run(capsys, "targets", "--format", "csv", "--config", str(path))
    assert code == EXIT_OK
    assert len(read_csv(out).records()) == 2


def test_sweep_flag_overrides_config_sweep(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"sweep": {"antennas": [32, 64]}}), encoding="utf-8")
    code, out, _ = run(
        capsys, "targets", "--format", "csv", "--config", str(path),
        "--sweep", "antennas=128",
    )
    assert code == EXIT_OK
    rows = read_csv(out).records()
    assert len(rows) == 1
    assert rows[0]["antennas"] == 128


@pytest.mark.parametrize("name", sorted(PAPER_TABLES))
def test_reference_reports_emit_in_every_format(name, capsys):
    for fmt in ("csv", "json", "table"):
        code, out, err = run(capsys, "targets", "--paper-table", name, "--format", fmt)
        assert code == EXIT_OK, err
        assert out
    parsed = read_csv(run(capsys, "targets", "--paper-table", name, "--format", "csv")[1])
    assert parsed.rows


def test_reference_reports_skip_config_loading(capsys):
    code, out, _ = run(
        capsys, "targets", "--paper-table", "readout",
        "--config", "/no/such/file.json", "--format", "csv",
    )
    assert code == EXIT_OK


@pytest.mark.parametrize("name", ["targets", "energy", "qubits-time"])
def test_known_print_defects_are_flagged(name, capsys):
    _, out, _ = run(capsys, "targets", "--paper-table", name, "--format", "json")
    notes = json.loads(out)["notes"]
    assert any("paper-inconsistent" in n for n in notes)
