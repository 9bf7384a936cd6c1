"""Run configuration: a versioned json file plus built-in defaults.

The config names the scenarios to evaluate and the hardware and cost
assumptions to evaluate them under. Every key is optional; the built-in
defaults reproduce the reference operating point (one 400 MHz, 64-antenna
cell at 20 samples on the 14nm node). Unknown keys are rejected so typos
fail loudly rather than silently falling back to defaults.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .cmos import BUILTIN_CMOS, CmosProfile, scaled_profile
from .economics import MAX_N_BS, BsTopology, CostAssumptions, CranTopology, Topology
from .qa_hardware import BUILTIN_QA, QaProfile
from .workload import CellScenario

ENV_CONFIG_PATH = "QAPLAN_CONFIG"
SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Bad config file: unreadable, wrong schema, or invalid values."""


# What casting or validating a config value raises; int(inf) and
# float(10**400) raise OverflowError.
_BAD_VALUE = (TypeError, ValueError, OverflowError)


@dataclass(frozen=True)
class RunConfig:
    scenarios: Tuple[Tuple[str, CellScenario], ...]
    cmos_profiles: Tuple[CmosProfile, ...]
    qa_profile: QaProfile
    samples: int
    topology: Topology
    costs: CostAssumptions
    horizons_years: Tuple[float, ...]
    sweep: Dict[str, List[float]] = field(default_factory=dict)


def default_config() -> RunConfig:
    return RunConfig(
        scenarios=(("5g-400mhz-64ant", CellScenario(400, 6, 0.5, 64)),),
        cmos_profiles=(BUILTIN_CMOS["14nm"],),
        qa_profile=BUILTIN_QA["projected"],
        samples=20,
        topology=BsTopology(),
        costs=CostAssumptions(),
        horizons_years=(1, 2, 5, 10),
    )


def _number(value, key: str):
    """`value`, refused unless it is a json number: Python would cast true
    and false as 1 and 0, and "5" as 5."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {json.dumps(value)}")
    return value


def _real(value, key: str) -> float:
    """`_number`, as a float."""
    return float(_number(value, key))


def _whole(value, key: str) -> int:
    """`value` as an int, refused rather than truncated if it has a fraction.
    nan and inf raise in `int`; a string is refused as not an integer."""
    if not isinstance(value, str):
        count = int(_number(value, key))
        if count == value:
            return count
    raise ConfigError(f"{key} must be a positive integer, got {value!r}")


def _check_keys(obj: dict, allowed: Sequence[str], where: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


_SCENARIO_KEYS = ("name", "bandwidth_mhz", "modulation_bits", "coding_rate",
                  "antennas", "duty_time", "duty_freq")


def _parse_scenario(obj: dict, index: int) -> Tuple[str, CellScenario]:
    _check_keys(obj, _SCENARIO_KEYS, f"scenarios[{index}]")
    if "bandwidth_mhz" not in obj:
        raise ConfigError(f"scenarios[{index}] needs bandwidth_mhz")
    name = obj.get("name", f"scenario-{index}")

    def get(key: str, default=None, check=_real):
        return check(obj.get(key, default), f"scenarios[{index}].{key}")

    try:
        scenario = CellScenario(
            bandwidth_mhz=get("bandwidth_mhz"),
            modulation_bits=get("modulation_bits", 6, _whole),
            coding_rate=get("coding_rate", 0.5),
            antennas=get("antennas", 64, _whole),
            duty_time=get("duty_time", 1.0),
            duty_freq=get("duty_freq", 1.0),
        )
    except _BAD_VALUE as exc:
        raise ConfigError(f"scenarios[{index}]: {exc}") from exc
    return str(name), scenario


def _check_unique(names: Sequence[str], what: str) -> None:
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"duplicate {what}: {name}")


def _parse_cmos(entries) -> Tuple[CmosProfile, ...]:
    profiles = []
    for i, obj in enumerate(entries):
        if isinstance(obj, str):
            if obj not in BUILTIN_CMOS:
                raise ConfigError(
                    f"cmos[{i}]: unknown node {obj!r}; "
                    f"built-ins: {', '.join(sorted(BUILTIN_CMOS))}"
                )
            profiles.append(BUILTIN_CMOS[obj])
            continue
        _check_keys(obj, ("node", "vdd", "efficiency_tops_per_w",
                          "leakage_fraction", "mode"), f"cmos[{i}]")
        node = obj.get("node", f"custom-{i}")

        def get(key: str, default=None):
            return _real(obj.get(key, default), f"cmos[{i}].{key}")

        try:
            if "efficiency_tops_per_w" in obj:
                profiles.append(CmosProfile(
                    node=node,
                    vdd=get("vdd", 1.0),
                    efficiency_tops_per_w=get("efficiency_tops_per_w"),
                    leakage_fraction=get("leakage_fraction", 0.30),
                ))
            elif "vdd" in obj:
                profiles.append(scaled_profile(
                    node=node,
                    vdd=get("vdd"),
                    mode=obj.get("mode", "as-printed"),
                ))
            else:
                raise ConfigError(
                    f"cmos[{i}] needs vdd or efficiency_tops_per_w"
                )
        except _BAD_VALUE as exc:
            raise ConfigError(f"cmos[{i}]: {exc}") from exc
    if not profiles:
        raise ConfigError("cmos list is empty")
    _check_unique([p.node for p in profiles], "cmos node")
    return tuple(profiles)


def _parse_qa(obj: dict) -> QaProfile:
    _check_keys(obj, ("profile",) + tuple(
        f.name for f in dataclasses.fields(QaProfile)), "qa")
    base = BUILTIN_QA["projected"]
    if "profile" in obj:
        try:
            base = BUILTIN_QA[obj["profile"]]
        except KeyError:
            raise ConfigError(
                f"qa.profile: unknown profile {obj['profile']!r}; "
                f"built-ins: {', '.join(sorted(BUILTIN_QA))}"
            ) from None
    overrides = {k: v for k, v in obj.items() if k != "profile"}
    for key, value in overrides.items():  # every field but the name is a number
        if key != "name":
            _number(value, f"qa.{key}")
    try:
        return dataclasses.replace(base, **overrides)
    except _BAD_VALUE as exc:
        raise ConfigError(f"qa: {exc}") from exc


def _parse_topology(obj: dict) -> Topology:
    _check_keys(obj, ("kind", "n_bs", "fronthaul_gbps"), "topology")
    kind = obj.get("kind", "bs")
    try:
        if kind == "bs":
            _check_keys(obj, ("kind",), "topology (kind=bs)")
            return BsTopology()
        if kind == "cran":
            n_bs = _whole(obj.get("n_bs", 3), "topology.n_bs")
            return CranTopology(
                # out of range, as given, for `CranTopology` to refuse
                n_bs=n_bs if 1 <= n_bs <= MAX_N_BS else obj["n_bs"],
                fronthaul_capacity_bps=_real(
                    obj.get("fronthaul_gbps", 100), "topology.fronthaul_gbps") * 1e9,
            )
    except _BAD_VALUE as exc:
        raise ConfigError(f"topology: {exc}") from exc
    raise ConfigError(f"topology.kind must be 'bs' or 'cran', got {kind!r}")


def _parse_costs(obj: dict) -> CostAssumptions:
    allowed = tuple(f.name for f in dataclasses.fields(CostAssumptions))
    _check_keys(obj, allowed, "costs")
    try:
        return CostAssumptions(
            **{k: _real(v, f"costs.{k}") for k, v in obj.items()})
    except _BAD_VALUE as exc:
        raise ConfigError(f"costs: {exc}") from exc


SWEEP_AXES = ("bandwidth_mhz", "antennas", "samples", "modulation_bits",
              "coding_rate", "duty_time", "duty_freq")
_INTEGER_AXES = ("antennas", "samples", "modulation_bits")


def _parse_sweep(obj: dict, where: str = "sweep.") -> Dict[str, List[float]]:
    """Check each axis's values; `where` prefixes the axis in messages."""
    _check_keys(obj, SWEEP_AXES, "sweep")
    sweep = {}
    for axis, values in obj.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{where}{axis} must be a non-empty list")
        check = _whole if axis in _INTEGER_AXES else _real
        try:
            sweep[axis] = [check(v, f"{where}{axis}") for v in values]
        except _BAD_VALUE as exc:
            raise ConfigError(f"{where}{axis}: {exc}") from exc
    return sweep


_TOP_KEYS = ("schema_version", "scenarios", "cmos", "qa", "samples",
             "topology", "costs", "horizons_years", "sweep")


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a json object")
    _check_keys(doc, _TOP_KEYS, "config")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {version!r}; this build reads {SCHEMA_VERSION}"
        )
    base = default_config()
    scenarios = base.scenarios
    if "scenarios" in doc:
        if not isinstance(doc["scenarios"], list) or not doc["scenarios"]:
            raise ConfigError("scenarios must be a non-empty list")
        scenarios = tuple(
            _parse_scenario(s, i) for i, s in enumerate(doc["scenarios"])
        )
    samples = _number(doc.get("samples", base.samples), "samples")
    if not isinstance(samples, int) or samples < 1:
        raise ConfigError(f"samples must be a positive integer, got {samples!r}")
    try:
        horizons = tuple(
            _real(y, "horizons_years")
            for y in doc.get("horizons_years", base.horizons_years)
        )
        for years in horizons:
            if not math.isfinite(years):
                raise ValueError(f"horizons must be finite, got {years}")
    except _BAD_VALUE as exc:
        raise ConfigError(f"horizons_years: {exc}") from exc
    # Economics column keys name each horizon by its :g label.
    _check_unique([format(y, "g") for y in horizons], "horizon")
    return RunConfig(
        scenarios=scenarios,
        cmos_profiles=_parse_cmos(doc["cmos"]) if "cmos" in doc else base.cmos_profiles,
        qa_profile=_parse_qa(doc["qa"]) if "qa" in doc else base.qa_profile,
        samples=samples,
        topology=_parse_topology(doc["topology"]) if "topology" in doc else base.topology,
        costs=_parse_costs(doc["costs"]) if "costs" in doc else base.costs,
        horizons_years=horizons,
        sweep=_parse_sweep(doc["sweep"]) if "sweep" in doc else {},
    )


def load_config(path: Optional[str]) -> RunConfig:
    """Load config from `path`, the environment default, or built-ins."""
    if path is None:
        path = os.environ.get(ENV_CONFIG_PATH)
    if path is None:
        return default_config()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid json: {exc}") from exc
    return parse_config(doc)
