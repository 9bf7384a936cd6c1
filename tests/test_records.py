"""The model's records are named tuples: their signatures, reprs, value
semantics and checks, as the package has always shown them, and the
tuple behaviours they take on."""

import copy
import inspect
import math
import pickle

import pytest

from qaplan.cmos import CmosProfile
from qaplan.config import RunConfig, default_config
from qaplan.economics import BsTopology, CostAssumptions, CranTopology
from qaplan.emit import Column, Table
from qaplan.qa_hardware import QaProfile
from qaplan.qubit_budget import TaskProblemModel
from qaplan.ran_power import PowerSystemLosses
from qaplan.record import check_non_negative
from qaplan.timeline import GrowthTrend
from qaplan.workload import BbuWorkload, CellScenario, ScalingExponents, workload

_ = inspect.Parameter.empty  # a parameter without a default

SIGNATURES = {
    CellScenario: [("bandwidth_mhz", _), ("modulation_bits", 6), ("coding_rate", 1.0),
                   ("antennas", 1), ("duty_time", 1.0), ("duty_freq", 1.0)],
    ScalingExponents: [("bandwidth", _), ("modulation", _), ("coding_rate", _),
                       ("antennas", _), ("duty_time", _), ("duty_freq", _)],
    BbuWorkload: [("scenario", _), ("tops", _)],
    CmosProfile: [("node", _), ("efficiency_tops_per_w", _), ("leakage_fraction", 0.3)],
    QaProfile: [("name", _), ("programming_us", 42.0), ("anneal_us", 1.0), ("readout_us", 1.0),
                ("readout_delay_us", 1.0), ("refrigeration_w", 25000.0)],
    TaskProblemModel: [("ops_per_problem", _), ("qubits_per_problem", _), ("runtime_us", _)],
    GrowthTrend: [("name", _), ("anchor_year", _), ("anchor_qubits", _), ("growth_factor", _)],
    PowerSystemLosses: [("sigma_ac", 0.09), ("sigma_ms", 0.07), ("sigma_dc", 0.06)],
    BsTopology: [],
    CranTopology: [("n_bs", 3), ("fronthaul_capacity_bps", 100e9)],
    CostAssumptions: [("electricity_price_per_kwh", 0.143), ("co2_lb_per_kwh", 0.92),
                      ("hours_per_year", 8760.0)],
    # `sweep` defaults to an empty dict, which the config never writes to.
    RunConfig: [("scenarios", _), ("cmos_profiles", _), ("qa_profile", _), ("samples", _),
                ("topology", _), ("costs", _), ("horizons_years", _), ("sweep", {})],
    Column: [("key", _), ("title", _), ("spec", "")],
    Table: [("name", _), ("columns", _), ("rows", _), ("notes", ())],
}


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_signatures_name_the_fields_in_order_with_their_defaults(cls):
    parameters = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in parameters] == SIGNATURES[cls]


_DEFAULT_CONFIG = (
    "RunConfig(scenarios=(('5g-400mhz-64ant', CellScenario(bandwidth_mhz=400, "
    "modulation_bits=6, coding_rate=0.5, antennas=64, duty_time=1.0, duty_freq=1.0)),), "
    "cmos_profiles=(CmosProfile(node='14nm', efficiency_tops_per_w=0.076, "
    "leakage_fraction=0.3),), qa_profile=QaProfile(name='projected', programming_us=42.0, "
    "anneal_us=1.0, readout_us=1.0, readout_delay_us=1.0, refrigeration_w=25000.0), "
    "samples=20, topology=BsTopology(), costs=CostAssumptions(electricity_price_per_kwh=0.143, "
    "co2_lb_per_kwh=0.92, hours_per_year=8760.0), horizons_years=(1, 2, 5, 10), sweep={})"
)
_REFERENCE_LOAD = (
    "BbuWorkload(scenario=CellScenario(bandwidth_mhz=20, modulation_bits=6, coding_rate=1.0, "
    "antennas=1, duty_time=1.0, duty_freq=1.0), tops={<BbuTask.DPD: 'dpd'>: 0.16, "
    "<BbuTask.FILTER: 'filter'>: 0.4, <BbuTask.FFT: 'fft'>: 0.16, <BbuTask.FD_LIN: 'fd_lin'>: "
    "0.09, <BbuTask.FD_NL: 'fd_nl'>: 0.03, <BbuTask.FEC: 'fec'>: 0.14, <BbuTask.CPRI: 'cpri'>: "
    "0.72, <BbuTask.PCP: 'pcp'>: 0.4})"
)

# (a factory of one record, its repr)
RECORDS = [
    (lambda: CellScenario(400, 6, 0.5, 64),
     "CellScenario(bandwidth_mhz=400, modulation_bits=6, coding_rate=0.5, antennas=64, "
     "duty_time=1.0, duty_freq=1.0)"),
    (lambda: ScalingExponents(1, 0, 0, 1, 1, 0),
     "ScalingExponents(bandwidth=1, modulation=0, coding_rate=0, antennas=1, duty_time=1, "
     "duty_freq=0)"),
    (lambda: workload(CellScenario(20)), _REFERENCE_LOAD),
    (lambda: CmosProfile("14nm", 0.076),
     "CmosProfile(node='14nm', efficiency_tops_per_w=0.076, leakage_fraction=0.3)"),
    (lambda: QaProfile("x"),
     "QaProfile(name='x', programming_us=42.0, anneal_us=1.0, readout_us=1.0, "
     "readout_delay_us=1.0, refrigeration_w=25000.0)"),
    (lambda: TaskProblemModel(1e6, 8, 42.0),
     "TaskProblemModel(ops_per_problem=1000000.0, qubits_per_problem=8, runtime_us=42.0)"),
    (lambda: GrowthTrend("g", 2020, 5436, 2.5),
     "GrowthTrend(name='g', anchor_year=2020, anchor_qubits=5436, growth_factor=2.5)"),
    (lambda: PowerSystemLosses(), "PowerSystemLosses(sigma_ac=0.09, sigma_ms=0.07, sigma_dc=0.06)"),
    (lambda: BsTopology(), "BsTopology()"),
    (lambda: CranTopology(), "CranTopology(n_bs=3, fronthaul_capacity_bps=100000000000.0)"),
    (lambda: CostAssumptions(),
     "CostAssumptions(electricity_price_per_kwh=0.143, co2_lb_per_kwh=0.92, "
     "hours_per_year=8760.0)"),
    (lambda: Column("a", "A"), "Column(key='a', title='A', spec='')"),
    (default_config, _DEFAULT_CONFIG),
]
_IDS = [text.partition("(")[0] for _, text in RECORDS]


@pytest.mark.parametrize("build, text", RECORDS, ids=_IDS)
def test_repr_names_each_field(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build, text", RECORDS, ids=_IDS)
def test_records_are_values_and_immutable(build, text):
    a, b = build(), build()
    assert a == b and not a != b
    # A record is a tuple: it equals, and hashes like, a plain tuple of its values.
    assert a == tuple(a) and type(a)._make(tuple(a)) == a
    if not isinstance(a, (BbuWorkload, RunConfig)):  # these hold dicts, unhashable
        assert hash(a) == hash(b) == hash(tuple(a))
    for field in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))
    # One class per record, and every copy is an equal value of that class.
    assert type(a).__bases__ == (tuple,)
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is type(a) and twin == a
    # Every record is true, the field-less `BsTopology()` too.
    assert a


# (a valid record, a field, a value the record refuses, the message)
INVALID = [
    (CellScenario(400, 6, 0.5, 64), "coding_rate", 1.5, "coding_rate must be in (0, 1], got 1.5"),
    (ScalingExponents(1, 0, 0, 1, 1, 0), "antennas", -1, "exponent antennas must be non-negative"),
    (CmosProfile("14nm", 0.076), "efficiency_tops_per_w", 0.0,
     "efficiency must be positive, got 0.0"),
    (QaProfile("x"), "refrigeration_w", -1.0,
     "refrigeration_w must be finite and non-negative, got -1.0"),
    (TaskProblemModel(1e6, 8, 42.0), "runtime_us", 0.0, "runtime must be positive, got 0.0"),
    (GrowthTrend("g", 2020, 5436, 2.5), "growth_factor", 1.0,
     "growth factor must exceed 1, got 1.0"),
    (PowerSystemLosses(), "sigma_dc", 1.0, "sigma_dc must be in [0, 1), got 1.0"),
    (CranTopology(), "n_bs", 0, "n_bs must be at least 1, got 0"),
    (CostAssumptions(), "co2_lb_per_kwh", math.nan,
     "co2_lb_per_kwh must be finite and non-negative, got nan"),
]


@pytest.mark.parametrize("record, field, value, message", INVALID,
                         ids=[type(case[0]).__name__ for case in INVALID])
def test_every_way_of_building_a_record_checks_it(record, field, value, message):
    _every_build_refuses(record, field, value, message)


@pytest.mark.parametrize("capacity", [0.0, -5e9])
def test_a_topology_refuses_a_fronthaul_capacity_that_is_not_positive(capacity):
    _every_build_refuses(CranTopology(), "fronthaul_capacity_bps", capacity,
                         f"fronthaul capacity must be positive, got {capacity}")


def _every_build_refuses(record, field, value, message):
    cls, values = type(record), {**record._asdict(), field: value}
    builds = [lambda: cls(**values), lambda: cls(*values.values()),
              lambda: cls._make(values.values()), lambda: record._replace(**{field: value})]
    if hasattr(copy, "replace"):  # Python 3.13
        builds.append(lambda: copy.replace(record, **{field: value}))
    for build in builds:
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message


def test_check_non_negative_names_the_first_negative_value():
    check_non_negative([0.0, math.nan, 2.0], "tops")
    with pytest.raises(ValueError, match=r"^tops must be non-negative, got -1.0$"):
        check_non_negative([0.0, -1.0], "tops")
    with pytest.raises(ValueError, match=r"^tops must be non-negative, got -2$"):
        check_non_negative([math.nan, -2, -3], "tops")


def test_supply_factor_is_cached_per_record():
    losses = PowerSystemLosses()
    assert losses.supply_factor == 1.0 / ((1.0 - 0.09) * (1.0 - 0.07) * (1.0 - 0.06))
    # Equal records give equal factors and compare as values.
    assert PowerSystemLosses().supply_factor == losses.supply_factor
    assert PowerSystemLosses() == losses
