"""Command-line behaviour: formats, sweeps, config handling, exit codes."""

import json
import os
import re
import subprocess
import sys

import pytest

import qaplan
from qaplan.cli import (EXIT_CONFIG, EXIT_DOMAIN, EXIT_OK, EXIT_WARNINGS,
                        cmd_timeline, main)
from qaplan.config import ENV_CONFIG_PATH, default_config
from qaplan.emit import read_csv, read_json
from qaplan.tables import PAPER_TABLES


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
    assert table.rows[0]["name"] == "5g-400mhz-64ant"
    assert table.rows[0]["total_tops"] == 4070.4


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
    # Tasks hash by identity, and string hashes follow PYTHONHASHSEED: no
    # set or dict order may reach the output.
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


def test_csv_and_json_agree_numerically(capsys):
    _, csv_text, _ = run(capsys, "qubits", "--format", "csv")
    _, json_text, _ = run(capsys, "qubits", "--format", "json")
    csv_rows = read_csv(csv_text).rows
    json_rows = read_json(json_text).rows
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
    rows = read_csv(out).rows
    assert len(rows) == 4
    names = [r["name"] for r in rows]
    assert "5g-400mhz-64ant[bandwidth_mhz=50,antennas=32]" in names


def test_sweep_skips_invalid_points_with_warning(capsys):
    code, out, err = run(
        capsys, "targets", "--format", "csv", "--sweep", "coding_rate=0.5,1.5",
    )
    assert code == EXIT_WARNINGS
    assert "skipping sweep point" in err
    assert len(read_csv(out).rows) == 1


def test_sweep_with_no_valid_points_is_config_error(capsys):
    code, _, err = run(capsys, "targets", "--sweep", "coding_rate=1.5")
    assert code == EXIT_CONFIG
    assert "config error" in err


@pytest.mark.parametrize("flag", ["nonsense", "bandwidth_mhz", "volume=11"])
def test_malformed_sweep_is_config_error(capsys, flag):
    code, _, err = run(capsys, "targets", "--sweep", flag)
    assert code == EXIT_CONFIG
    assert "config error" in err


def test_capacity_warning_sets_exit_code(capsys):
    code, out, err = run(
        capsys, "qubits", "--format", "csv", "--sweep", "antennas=512",
    )
    assert code == EXIT_WARNINGS
    assert "exceeds refrigerator capacity" in err
    assert read_csv(out).rows[0]["fits"] == "no"


def test_sweep_labels_keep_values_distinct(capsys):
    # :g would name both rows antennas=1e+06
    code, out, _ = run(
        capsys, "targets", "--format", "csv", "--sweep", "antennas=1000001,1000002",
    )
    assert code == EXIT_OK
    assert [r["name"] for r in read_csv(out).rows] == [
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
    assert [r["samples"] for r in read_csv(out).rows] == [20]


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_sweep_with_only_bad_samples_is_config_error(capsys, samples):
    code, out, err = run(capsys, "qubits", "--sweep", f"samples={samples}")
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.endswith("qaplan: config error: sweep produced no valid points\n")


def test_timeline_row_at_reference_point():
    cfg = default_config()  # 400 MHz, 64 antennas, 20 samples, 14nm
    points = [(name, scenario, cfg.samples) for name, scenario in cfg.scenarios]
    (row,) = cmd_timeline(cfg, points, []).rows
    assert (row["name"], row["samples"]) == ("5g-400mhz-64ant", 20)
    assert row["required_qubits"] == 3_320_055
    assert row["year_best"] == 2040
    assert row["year_worst"] > row["year_best"]
    assert row["advantage_14nm_w"] == pytest.approx(3584.0 / 0.076 * 1.3 - 25e3,
                                                    rel=1e-9)


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
        assert len(read_csv(out).rows) == 1


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
])
def test_non_finite_config_values_are_config_errors(tmp_path, capsys, doc, message):
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # NaN/Infinity tokens
    for command in ("power", "economics"):
        code, out, err = run(capsys, command, "--config", str(path))
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == f"qaplan: config error: {message}\n"


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
    assert read_csv(out).rows[0]["cmos_fronthaul_w"] == 7400.0 * n_bs  # one link a site


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
    path.write_text(json.dumps({
        "scenarios": [{"bandwidth_mhz": 100, "antennas": 8.0, "modulation_bits": 4.0}],
        "sweep": {"samples": [3.0]},
    }), encoding="utf-8")
    code, out, err = run(capsys, "qubits", "--format", "csv", "--config", str(path))
    assert (code, err) == (EXIT_OK, "")
    row = read_csv(out).rows[0]
    assert (row["name"], row["antennas"], row["samples"]) == ("scenario-0[samples=3]", 8, 3)


def test_antenna_count_past_float_range_is_a_model_error(tmp_path, capsys):
    # antennas ** 2 of a finite ratio raises rather than giving inf
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"scenarios": [{"bandwidth_mhz": 1, "antennas": 1e308}]}),
                    encoding="utf-8")
    code, out, err = run(capsys, "targets", "--config", str(path))
    assert (code, out, err) == (
        EXIT_DOMAIN, "", "qaplan: model error: compute targets overflow: inf TOPS\n")


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
])
def test_duplicate_column_sources_are_config_errors(tmp_path, capsys, doc, message):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "economics", "--config", str(path))
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == f"qaplan: config error: {message}\n"


def test_missing_config_file_is_config_error(capsys):
    code, _, err = run(capsys, "targets", "--config", "/no/such/file.json")
    assert code == EXIT_CONFIG
    assert "config error" in err


def test_invalid_json_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "targets", "--config", str(path))
    assert code == EXIT_CONFIG


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


def test_domain_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad_horizon.json"
    path.write_text(json.dumps({"horizons_years": [-1]}), encoding="utf-8")
    code, _, err = run(capsys, "economics", "--config", str(path))
    assert code == EXIT_DOMAIN
    assert "model error" in err


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


def test_env_var_points_at_config(tmp_path, monkeypatch, capsys):
    path = tmp_path / "env.json"
    path.write_text(json.dumps({
        "scenarios": [{"name": "small", "bandwidth_mhz": 100, "antennas": 32}],
    }), encoding="utf-8")
    monkeypatch.setenv(ENV_CONFIG_PATH, str(path))
    code, out, _ = run(capsys, "targets", "--format", "csv")
    assert code == EXIT_OK
    assert read_csv(out).rows[0]["name"] == "small"


def test_config_flag_beats_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(ENV_CONFIG_PATH, "/no/such/file.json")
    path = tmp_path / "real.json"
    path.write_text(json.dumps({"samples": 50}), encoding="utf-8")
    code, out, _ = run(capsys, "qubits", "--format", "csv", "--config", str(path))
    assert code == EXIT_OK
    assert read_csv(out).rows[0]["samples"] == 50


def test_config_sweep_used_when_no_flag(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"sweep": {"antennas": [32, 64]}}), encoding="utf-8")
    code, out, _ = run(capsys, "targets", "--format", "csv", "--config", str(path))
    assert code == EXIT_OK
    assert len(read_csv(out).rows) == 2


def test_sweep_flag_overrides_config_sweep(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"sweep": {"antennas": [32, 64]}}), encoding="utf-8")
    code, out, _ = run(
        capsys, "targets", "--format", "csv", "--config", str(path),
        "--sweep", "antennas=128",
    )
    assert code == EXIT_OK
    rows = read_csv(out).rows
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
