"""Workload scaling: frozen reference table and scaling laws."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from qaplan.workload import (
    REFERENCE_SCENARIO,
    REFERENCE_TOPS,
    SCALING,
    VALID_MODULATION_BITS,
    BbuTask,
    CellScenario,
    left_sum,
    scale_task,
    task_tops,
    workload,
)

# Frozen expected TOPS, rounded at the precision the reference analysis
# quotes them: 3 decimals for the 20 MHz columns, 1 decimal for the rest.
COLUMNS = [
    ("reference", CellScenario(20, 6, 1.0, 1), 3),
    ("4g_2", CellScenario(20, 6, 0.5, 2), 3),
    ("4g_4", CellScenario(20, 6, 0.5, 4), 3),
    ("4g_8", CellScenario(20, 6, 0.5, 8), 3),
    ("5g200_32", CellScenario(200, 6, 0.5, 32), 1),
    ("5g200_64", CellScenario(200, 6, 0.5, 64), 1),
    ("5g200_128", CellScenario(200, 6, 0.5, 128), 1),
    ("5g400_32", CellScenario(400, 6, 0.5, 32), 1),
    ("5g400_64", CellScenario(400, 6, 0.5, 64), 1),
    ("5g400_128", CellScenario(400, 6, 0.5, 128), 1),
]

TASK_ROWS = {
    BbuTask.DPD: (0.160, 0.320, 0.640, 1.280, 51.2, 102.4, 204.8, 102.4, 204.8, 409.6),
    BbuTask.FILTER: (0.400, 0.800, 1.600, 3.200, 128.0, 256.0, 512.0, 256.0, 512.0, 1024.0),
    BbuTask.FFT: (0.160, 0.320, 0.640, 1.280, 51.2, 102.4, 204.8, 102.4, 204.8, 409.6),
    BbuTask.FD_LIN: (0.090, 0.180, 0.360, 0.720, 28.8, 57.6, 115.2, 57.6, 115.2, 230.4),
    BbuTask.FD_NL: (0.030, 0.120, 0.480, 1.920, 307.2, 1228.8, 4915.2, 614.4, 2457.6, 9830.4),
    BbuTask.FEC: (0.140, 0.140, 0.280, 0.560, 22.4, 44.8, 89.6, 44.8, 89.6, 179.2),
    BbuTask.CPRI: (0.720, 0.720, 1.440, 2.880, 115.2, 230.4, 460.8, 230.4, 460.8, 921.6),
    BbuTask.PCP: (0.400, 0.800, 1.600, 3.200, 12.8, 25.6, 51.2, 12.8, 25.6, 51.2),
}

# The 5g200_128 total is the column sum; the reference print of that one
# total is a known typo (see the emitter's paper-inconsistent note).
TOTALS = (2.100, 3.400, 7.040, 15.040, 716.8, 2048.0, 6553.6, 1420.8, 4070.4, 13056.0)


def test_reference_point_reproduces_itself():
    load = workload(REFERENCE_SCENARIO)
    for task in BbuTask:
        assert load.tops[task] == pytest.approx(REFERENCE_TOPS[task], abs=1e-12)


@pytest.mark.parametrize("task", list(BbuTask))
def test_table_cells(task):
    for i, (_, scenario, decimals) in enumerate(COLUMNS):
        got = round(scale_task(task, scenario), decimals)
        assert got == TASK_ROWS[task][i], (task, COLUMNS[i][0])


def test_table_totals():
    for i, (_, scenario, decimals) in enumerate(COLUMNS):
        assert round(workload(scenario).total_tops, decimals) == TOTALS[i]


def test_total_equals_task_sum():
    load = workload(CellScenario(123.0, 4, 0.7, 17, 0.9, 0.8))
    assert load.total_tops == pytest.approx(sum(load.tops.values()), rel=1e-9)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(bandwidth_mhz=0),
        dict(bandwidth_mhz=-5),
        dict(bandwidth_mhz=20, modulation_bits=5),
        dict(bandwidth_mhz=20, coding_rate=0.0),
        dict(bandwidth_mhz=20, coding_rate=1.5),
        dict(bandwidth_mhz=20, antennas=0),
        dict(bandwidth_mhz=20, duty_time=0.0),
        dict(bandwidth_mhz=20, duty_freq=1.2),
    ],
)
def test_invalid_scenarios_rejected(kwargs):
    with pytest.raises(ValueError):
        CellScenario(**kwargs)


scenarios = st.builds(
    CellScenario,
    bandwidth_mhz=st.floats(min_value=0.1, max_value=2000),
    modulation_bits=st.sampled_from([1, 2, 4, 6, 8]),
    coding_rate=st.floats(min_value=0.01, max_value=1.0),
    antennas=st.integers(min_value=1, max_value=1024),
    duty_time=st.floats(min_value=0.01, max_value=1.0),
    duty_freq=st.floats(min_value=0.01, max_value=1.0),
)


@given(scenarios, st.sampled_from(list(BbuTask)))
def test_scaling_is_separable(scenario, task):
    # demand(s) equals reference demand times the product of axis ratios
    # raised to the task's exponents
    exps = SCALING[task]
    expected = REFERENCE_TOPS[task]
    ref = REFERENCE_SCENARIO
    expected *= (scenario.bandwidth_mhz / ref.bandwidth_mhz) ** exps.bandwidth
    expected *= (scenario.modulation_bits / ref.modulation_bits) ** exps.modulation
    expected *= (scenario.coding_rate / ref.coding_rate) ** exps.coding_rate
    expected *= (scenario.antennas / ref.antennas) ** exps.antennas
    expected *= (scenario.duty_time / ref.duty_time) ** exps.duty_time
    expected *= (scenario.duty_freq / ref.duty_freq) ** exps.duty_freq
    assert scale_task(task, scenario) == pytest.approx(expected, rel=1e-9)


@given(scenarios)
def test_workload_equals_scale_task_bit_for_bit(scenario):
    load = workload(scenario)
    for task in BbuTask:
        assert load.tops[task].hex() == scale_task(task, scenario).hex()


def test_workload_rejects_overflowing_targets():
    with pytest.raises(ValueError, match="compute targets overflow: inf TOPS"):
        workload(CellScenario(bandwidth_mhz=1e308, modulation_bits=6,
                              coding_rate=1.0, antennas=64))


@given(scenarios, st.floats(min_value=1.0, max_value=8.0))
def test_demand_never_drops_when_bandwidth_grows(scenario, factor):
    wider = scenario._replace(bandwidth_mhz=scenario.bandwidth_mhz * factor)
    base = workload(scenario)
    grown = workload(wider)
    for task in BbuTask:
        assert grown.tops[task] >= base.tops[task] * (1 - 1e-12)
    assert grown.total_tops >= base.total_tops * (1 - 1e-12)


@given(scenarios, st.integers(min_value=2, max_value=8))
def test_detection_demand_grows_quadratically_in_antennas(scenario, factor):
    more = scenario._replace(antennas=scenario.antennas * factor)
    ratio = scale_task(BbuTask.FD_NL, more) / scale_task(BbuTask.FD_NL, scenario)
    assert math.isclose(ratio, factor**2, rel_tol=1e-9)


def _tops_by_scenario(columns):
    """`task_tops` of the scenario `columns` as `scale_task` gives it, one
    scenario at a time, with None where `task_tops` must refuse them: a
    power past float range, or a total past it."""
    tops = []
    for fields in zip(*columns):
        try:
            values = [scale_task(task, tuple.__new__(CellScenario, fields)) for task in BbuTask]
        except OverflowError:
            return None
        if not math.isfinite(left_sum(values)):
            return None
        tops.append(values)
    return [list(column) for column in zip(*tops)]


def _check_tops(columns):
    want = _tops_by_scenario(columns)
    if want is None:
        with pytest.raises(ValueError, match="compute targets overflow: inf TOPS"):
            task_tops(*columns)
    else:
        assert repr(list(task_tops(*columns))) == repr(want)


# Valid values of each field, as ints and floats: the reference value, values
# off it, and values whose powers leave float range (antennas 10**155).
_FIELDS = [
    st.sampled_from([20.0, 20, 0.1, 400, 1e6, 1e300, 5e-324]) | st.floats(1e-300, 1e300),
    st.sampled_from(VALID_MODULATION_BITS) | st.sampled_from([4.0, 6.0]),
    st.sampled_from([1.0, 1, 0.5, 0.3]) | st.floats(5e-324, 1.0),
    st.sampled_from([1, 1.0, 8.0, 64, 2 ** 60, 10 ** 155]) | st.integers(1, 4096),
    st.sampled_from([1.0, 1, 0.3]) | st.floats(5e-324, 1.0),
    st.sampled_from([1.0, 1, 0.3]) | st.floats(5e-324, 1.0),
]


@st.composite
def scenario_columns(draw):
    """A block of valid scenarios as one column per field: each column
    either one object repeated, as a sweep leaves an axis, or drawn entry
    by entry, mixing ints and floats."""
    count = draw(st.integers(1, 6))
    return [[draw(field)] * count if draw(st.booleans())
            else [draw(field) for _ in range(count)] for field in _FIELDS]


@settings(max_examples=300, deadline=None)
@given(scenario_columns())
def test_task_tops_of_a_block_equals_scale_task_bit_for_bit(columns):
    _check_tops(columns)


@pytest.mark.parametrize("fixed", [
    (20.0, 6, 1.0, 1, 1.0, 1.0),  # the reference point: every power 1.0
    (20, 6.0, 1, 1.0, 1, 1),  # the reference point, as other types
    (400.0, 4, 0.5, 64, 0.3, 1.0),  # off the reference
    (1e300, 8, 0.5, 10 ** 155, 0.3, 0.3),  # past float range
])
@pytest.mark.parametrize("swept", [None, 0, 3, 4])
def test_task_tops_folds_fixed_fields_bit_for_bit(fixed, swept):
    # Every field one object, as a sweep leaves it, but the swept one.
    columns = [[value] * 4 for value in fixed]
    if swept is not None:
        columns[swept] = [columns[swept][0], 1, 0.25, 0.9]
    _check_tops(columns)


@pytest.mark.parametrize("column", [
    [0.0, -0.0], [-0.0, 0.0], [-0.0] * 2, [float("nan"), float("nan")], [float("nan")] * 2,
    [1, 1.0], [1.0, True], [20.0, 20],
])
def test_task_tops_never_folds_values_that_print_apart(column):
    # Equal but not one object: 0.0 and -0.0, ints and floats; nan is not
    # even equal to itself. Fields `task_tops` takes unchecked.
    for field in range(len(_FIELDS)):
        columns = [[value] * len(column) for value in REFERENCE_SCENARIO]
        columns[field] = column
        _check_tops(columns)
