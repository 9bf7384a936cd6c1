"""Run configuration: a versioned json file plus built-in defaults.

The config names the scenarios to evaluate and the hardware and cost
assumptions to evaluate them under. Every key is optional; the built-in
defaults reproduce the reference operating point (one 400 MHz, 64-antenna
cell at 20 samples on the 14nm node). Unknown keys are rejected so typos
fail loudly rather than silently falling back to defaults. A section takes
its keys from the record it builds; a key left out takes the built-in
config's value, or the record's default (`CmosProfile`, `CranTopology`).
A name holds no line break: it heads one line of text.

The resolved `RunConfig` is the whole run: its `sweep` is the file's, or
the one the `--sweep` flags give (`parse_sweep_flags`), which replaces it.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .cmos import BUILTIN_CMOS, CmosProfile, scaled_profile
from .economics import MAX_N_BS, BsTopology, CostAssumptions, CranTopology, Topology
from .qa_hardware import BUILTIN_QA, QaProfile
from .record import check_non_negative
from .workload import CellScenario

ENV_CONFIG_PATH = "QAPLAN_CONFIG"
SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Bad config file: unreadable, wrong schema, or invalid values."""


# What casting or validating a config value raises; int(inf) and
# float(10**400) raise OverflowError.
_BAD_VALUE = (TypeError, ValueError, OverflowError)


class RunConfig(NamedTuple):
    scenarios: Tuple[Tuple[str, CellScenario], ...]
    cmos_profiles: Tuple[CmosProfile, ...]
    qa_profile: QaProfile
    samples: int
    topology: Topology
    costs: CostAssumptions
    horizons_years: Tuple[float, ...]
    sweep: Dict[str, List[float]] = {}  # shared by every config without one; never written


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


def _name(value, key: str) -> str:
    """`value`, refused unless it is a json string: 5 and "5" would name
    different things yet print the same."""
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {json.dumps(value)}")
    # A name heads a row of text and a warning, each one line.
    if "\n" in value or "\r" in value:
        raise ConfigError(f"{key} holds a line break: {value!r}")
    return value


def _whole(value, key: str) -> int:
    """`value` as an int, refused rather than truncated if it has a fraction.
    nan and inf raise in `int`; a string is refused as not an integer."""
    if not isinstance(value, str):
        count = int(_number(value, key))
        if count == value:
            return count
    raise ConfigError(f"{key} must be a positive integer, got {value!r}")


def _check_keys(obj: dict, allowed: Sequence[str], where: str) -> None:
    """Refuse `obj` unless it is a json object with only `allowed` keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a json object, got {json.dumps(obj)}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


SWEEP_AXES = ("bandwidth_mhz", "antennas", "samples", "modulation_bits",
              "coding_rate", "duty_time", "duty_freq")
_INTEGER_AXES = ("antennas", "samples", "modulation_bits")


def _parse_scenario(obj: dict, index: int, base: CellScenario) -> Tuple[str, CellScenario]:
    """One named scenario; a field it leaves out takes its value in `base`."""
    where = f"scenarios[{index}]"
    _check_keys(obj, ("name", *CellScenario._fields), where)
    if "bandwidth_mhz" not in obj:
        raise ConfigError(f"{where} needs bandwidth_mhz")
    name = _name(obj.get("name", f"scenario-{index}"), f"{where}.name")
    try:
        scenario = CellScenario._make(
            (_whole if key in _INTEGER_AXES else _real)(obj.get(key, value), f"{where}.{key}")
            for key, value in zip(CellScenario._fields, base))
    except _BAD_VALUE as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return name, scenario


def _check_unique(names: Sequence[str], what: str) -> None:
    seen = set()
    for name in names:
        if name in seen:
            raise ConfigError(f"duplicate {what}: {name}")
        seen.add(name)


# The keys of a `cmos[]` object that projects from the 65 nm anchor at a
# supply voltage; one that gives its efficiency takes `CmosProfile`'s.
_VDD_KEYS = ("node", "vdd", "mode")


def _parse_cmos(entries) -> Tuple[CmosProfile, ...]:
    if not isinstance(entries, list) or not entries:
        raise ConfigError("cmos must be a non-empty list")
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
        explicit = isinstance(obj, dict) and "efficiency_tops_per_w" in obj
        _check_keys(obj, CmosProfile._fields if explicit else _VDD_KEYS, f"cmos[{i}]")
        node = _name(obj.get("node", f"custom-{i}"), f"cmos[{i}].node")

        def get(key: str, default=None):
            return _real(obj.get(key, default), f"cmos[{i}].{key}")

        try:
            if explicit:
                profiles.append(CmosProfile(node, *(
                    get(key, CmosProfile._field_defaults.get(key))
                    for key in CmosProfile._fields[1:])))
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
    _check_unique([p.node for p in profiles], "cmos node")
    return tuple(profiles)


def _parse_qa(obj: dict, base: QaProfile) -> QaProfile:
    """`base`, or the built-in profile `profile` names, with the overrides."""
    # The profile's name is not a setting: `profile` picks it.
    _check_keys(obj, ("profile",) + tuple(f for f in QaProfile._fields if f != "name"), "qa")
    if "profile" in obj:
        try:
            base = BUILTIN_QA[obj["profile"]]
        except (KeyError, TypeError):  # TypeError: a list or object is unhashable
            raise ConfigError(
                f"qa.profile: unknown profile {obj['profile']!r}; "
                f"built-ins: {', '.join(sorted(BUILTIN_QA))}"
            ) from None
    overrides = {k: v for k, v in obj.items() if k != "profile"}
    for key, value in overrides.items():
        _number(value, f"qa.{key}")
    try:
        return base._replace(**overrides)
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
            default = CranTopology()
            n_bs = _whole(obj.get("n_bs", default.n_bs), "topology.n_bs")
            return CranTopology(
                # out of range, as given, for `CranTopology` to refuse
                n_bs=n_bs if 1 <= n_bs <= MAX_N_BS else obj["n_bs"],
                fronthaul_capacity_bps=_real(
                    obj.get("fronthaul_gbps", default.fronthaul_capacity_bps / 1e9),
                    "topology.fronthaul_gbps") * 1e9,
            )
    except _BAD_VALUE as exc:
        raise ConfigError(f"topology: {exc}") from exc
    raise ConfigError(f"topology.kind must be 'bs' or 'cran', got {kind!r}")


def _parse_costs(obj: dict) -> CostAssumptions:
    _check_keys(obj, CostAssumptions._fields, "costs")
    try:
        return CostAssumptions(
            **{k: _real(v, f"costs.{k}") for k, v in obj.items()})
    except _BAD_VALUE as exc:
        raise ConfigError(f"costs: {exc}") from exc


def parse_sweep(obj: dict, where: str = "sweep.") -> Dict[str, List[float]]:
    """Check each axis's values, which must be distinct since each names
    its rows; `where` prefixes the axis in messages."""
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
        # By repr, which tells values apart as row names do: nan is not
        # equal to itself.
        _check_unique([repr(v) for v in sweep[axis]], f"{where}{axis} value")
    return sweep


def _count(text: str, real: bool = False) -> float:
    """`text` as an int, else as a float: an int past float range stays
    exact, which `parse_sweep` refuses on a `real` axis as in the config.
    A `real` axis reads any other text as a float."""
    if real and not math.isinf(float(text)):
        return float(text)
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_sweep_flags(flags: Sequence[str]) -> Dict[str, List[float]]:
    """The sweep of `AXIS=V1,V2,...` flags, one flag per axis, each axis's
    values checked as `parse_sweep` checks the config's."""
    sweep: Dict[str, List[float]] = {}
    for flag in flags:
        axis, sep, values = flag.partition("=")
        if not sep or not values:
            raise ConfigError(f"--sweep needs AXIS=V1,V2,...; got {flag!r}")
        if axis not in SWEEP_AXES:
            raise ConfigError(
                f"unknown sweep axis {axis!r}; axes: {', '.join(SWEEP_AXES)}"
            )
        if axis in sweep:
            raise ConfigError(
                f"--sweep {axis} given twice; list all its values in one flag")
        # The text first; `parse_sweep` refuses strings, and reads a whole
        # float such as 8.0 on a count axis as the config does.
        try:
            numbers = [_count(v, axis not in _INTEGER_AXES) for v in values.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--sweep {axis}: {exc}") from exc
        sweep.update(parse_sweep({axis: numbers}, where="--sweep "))
    return sweep


_TOP_KEYS = ("schema_version", "scenarios", "cmos", "qa", "samples",
             "topology", "costs", "horizons_years", "sweep")


def parse_config(doc: dict) -> RunConfig:
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
            _parse_scenario(s, i, base.scenarios[0][1]) for i, s in enumerate(doc["scenarios"])
        )
        # Scenario names become row names.
        _check_unique([name for name, _ in scenarios], "scenario name")
    samples = _number(doc.get("samples", base.samples), "samples")
    # nan, inf and fractions all fail one test or leave a remainder.
    if not samples >= 1 or samples % 1:
        raise ConfigError(f"samples must be a positive integer, got {samples!r}")
    listed = doc.get("horizons_years", base.horizons_years)
    if not isinstance(listed, (list, tuple)):
        raise ConfigError(f"horizons_years must be a list, got {json.dumps(listed)}")
    try:
        horizons = tuple(_real(y, "horizons_years") for y in listed)
        for years in horizons:
            if not math.isfinite(years):
                raise ValueError(f"horizons must be finite, got {years}")
            check_non_negative([years], "horizons")
    except _BAD_VALUE as exc:
        raise ConfigError(f"horizons_years: {exc}") from exc
    # Economics column keys name each horizon by its :g label.
    _check_unique([format(y, "g") for y in horizons], "horizon")
    return RunConfig(
        scenarios=scenarios,
        cmos_profiles=_parse_cmos(doc["cmos"]) if "cmos" in doc else base.cmos_profiles,
        qa_profile=_parse_qa(doc["qa"], base.qa_profile) if "qa" in doc else base.qa_profile,
        samples=int(samples),
        topology=_parse_topology(doc["topology"]) if "topology" in doc else base.topology,
        costs=_parse_costs(doc["costs"]) if "costs" in doc else base.costs,
        horizons_years=horizons,
        sweep=parse_sweep(doc["sweep"]) if "sweep" in doc else {},
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
    # ValueError: bad json, bytes that are not utf-8, or an integer past
    # the interpreter's digit limit; RecursionError: nesting too deep.
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid json: {exc}") from exc
    return parse_config(doc)
