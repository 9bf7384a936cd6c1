"""Config parsing: defaults, overrides, and loud failure on bad input."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from qaplan.cmos import CMOS_14NM
from qaplan.config import (
    ENV_CONFIG_PATH,
    SWEEP_AXES,
    ConfigError,
    default_config,
    load_config,
    parse_config,
    parse_sweep,
    parse_sweep_flags,
)
from qaplan.economics import BsTopology, CranTopology


def test_defaults():
    cfg = default_config()
    assert cfg.scenarios[0][0] == "5g-400mhz-64ant"
    scenario = cfg.scenarios[0][1]
    assert (scenario.bandwidth_mhz, scenario.antennas) == (400, 64)
    assert cfg.cmos_profiles == (CMOS_14NM,)
    assert cfg.qa_profile.name == "projected"
    assert cfg.samples == 20
    assert isinstance(cfg.topology, BsTopology)
    assert cfg.horizons_years == (1, 2, 5, 10)
    assert cfg.sweep == {}


def test_full_document():
    cfg = parse_config({
        "schema_version": 1,
        "scenarios": [
            {"name": "a", "bandwidth_mhz": 100, "antennas": 32},
            {"bandwidth_mhz": 200, "modulation_bits": 4, "coding_rate": 0.8},
        ],
        "cmos": ["65nm", {"node": "7nm", "vdd": 0.7}],
        "qa": {"profile": "current", "readout_delay_us": 10.0},
        "samples": 5,
        "topology": {"kind": "cran", "n_bs": 4, "fronthaul_gbps": 50},
        "costs": {"electricity_price_per_kwh": 0.2},
        "horizons_years": [3],
        "sweep": {"antennas": [16, 32]},
    })
    assert cfg.scenarios[0][0] == "a"
    assert cfg.scenarios[1][0] == "scenario-1"
    assert cfg.scenarios[1][1].modulation_bits == 4
    assert cfg.cmos_profiles[0].node == "65nm"
    assert cfg.cmos_profiles[1].efficiency_tops_per_w == pytest.approx(0.099)
    assert cfg.qa_profile.name == "current"
    assert cfg.qa_profile.readout_delay_us == 10.0
    assert isinstance(cfg.topology, CranTopology)
    assert cfg.topology.n_bs == 4
    assert cfg.topology.fronthaul_capacity_bps == 50e9
    assert cfg.costs.electricity_price_per_kwh == 0.2
    assert cfg.horizons_years == (3.0,)
    assert cfg.sweep == {"antennas": [16, 32]}


def test_custom_efficiency_profile():
    cfg = parse_config({"cmos": [{"node": "asic", "efficiency_tops_per_w": 1.5}]})
    assert cfg.cmos_profiles[0].efficiency_tops_per_w == 1.5


@pytest.mark.parametrize(
    "doc",
    [
        {"bogus": 1},
        {"scenarios": []},
        {"scenarios": [{}]},  # missing bandwidth_mhz
        {"scenarios": [{"bandwidth_mhz": 100, "color": "red"}]},
        {"scenarios": [{"bandwidth_mhz": -1}]},
        {"cmos": []},
        {"cmos": ["3nm"]},
        {"cmos": [{"node": "x"}]},
        {"qa": {"profile": "imaginary"}},
        {"qa": {"anneal_us": -1}},
        {"samples": 0},
        {"samples": "twenty"},
        {"topology": {"kind": "mesh"}},
        {"topology": {"kind": "bs", "n_bs": 2}},
        {"topology": {"kind": "cran", "n_bs": 0}},
        {"costs": {"electricity_price_per_kwh": "free"}},
        {"horizons_years": ["soon"]},
        {"sweep": {"volume": [11]}},
        {"sweep": {"antennas": []}},
        {"sweep": {"antennas": "32"}},
        {"sweep": {"antennas": ["x"]}},
        {"schema_version": 2},
    ],
)
def test_bad_documents_rejected(doc):
    with pytest.raises(ConfigError):
        parse_config(doc)


@pytest.mark.parametrize("mode", ["as-printed", "exact"])
@pytest.mark.parametrize("vdd", [1e-155, 1e-200, 5e-324, 1.5e161, 1e200, 1e300])
def test_a_vdd_whose_projection_passes_float_range_is_named(vdd, mode):
    # (1.1 / vdd) ** 2 overflows from about 8.2e-155 down; 1.1 / 5e-324 is
    # inf. From about 1.5e161 up, the efficiency underflows to zero.
    with pytest.raises(ConfigError) as raised:
        parse_config({"cmos": [{"node": "x", "vdd": vdd, "mode": mode}]})
    side = "past" if vdd < 1 else "below"
    assert str(raised.value) == f"cmos[0]: vdd {vdd} projects an efficiency {side} float range"
    for in_range in (1e-150, 1e160):
        parse_config({"cmos": [{"node": "x", "vdd": in_range, "mode": mode}]})


@pytest.mark.parametrize("key", [
    "cooling_power_w", "dac_critical_current_a", "couplers_per_qubit",
    "dacs_per_qubit", "dacs_per_coupler", "bit_precision", "name",
])
def test_qa_rejects_keys_no_model_reads(key):
    with pytest.raises(ConfigError, match=f"unknown key\\(s\\) in qa: {key}"):
        parse_config({"qa": {key: 1}})


def test_root_must_be_object():
    with pytest.raises(ConfigError):
        parse_config([1, 2])


def test_load_from_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"samples": 7}), encoding="utf-8")
    assert load_config(str(path)).samples == 7


def test_load_missing_file():
    with pytest.raises(ConfigError):
        load_config("/no/such/qaplan.json")


def test_load_env_fallback(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"samples": 9}), encoding="utf-8")
    monkeypatch.setenv(ENV_CONFIG_PATH, str(path))
    assert load_config(None).samples == 9
    monkeypatch.delenv(ENV_CONFIG_PATH)
    assert load_config(None).samples == 20


# Values a sweep axis may be given, by whether it counts. Every float
# (nan, inf, -0.0 and whole floats among them) and every int, ints past
# float range among them: a count keeps them exact, and a real axis refuses
# them.
_SWEEP_VALUES = {
    False: st.floats() | st.integers() | st.integers(min_value=2**1024)
    | st.integers(max_value=-2**1024),
    True: st.floats() | st.integers(-10, 10**6).map(float) | st.integers()
    | st.integers(min_value=2**1024) | st.integers(max_value=-2**1024),
}


def _read_sweep(read, source):
    """What `read` makes of `source`: the sweep's repr, or the error with its
    place in the config's words."""
    try:
        return repr(read(source))
    except ConfigError as exc:
        return "error: " + str(exc).replace("--sweep ", "sweep.")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_sweep_flag_reads_its_values_as_the_config_sweep_does(data):
    axis = data.draw(st.sampled_from(SWEEP_AXES))
    values = data.draw(st.lists(_SWEEP_VALUES[axis in ("antennas", "samples", "modulation_bits")],
                                min_size=1, max_size=4, unique_by=repr))
    flag = f"{axis}={','.join(map(repr, values))}"
    assert _read_sweep(parse_sweep_flags, [flag]) == _read_sweep(parse_sweep, {axis: values})
