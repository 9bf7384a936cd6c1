"""Deployment comparisons, the offload advantage, and operating-cost pricing."""

import functools
import math
import operator

import pytest
from hypothesis import example, given, settings, strategies as st

from qaplan.cmos import BUILTIN_CMOS, CMOS_1_5NM, CMOS_14NM, CmosProfile, cmos_power
from qaplan.economics import (
    HOURS_PER_YEAR,
    LB_PER_METRIC_KILOTON,
    MAX_N_BS,
    OFFLOADABLE_TASKS,
    SILICON_RESIDENT_TASKS,
    BsTopology,
    CostAssumptions,
    CranTopology,
    compare,
    cost_columns,
    cost_report,
    deployment_columns,
    offload_advantage_w,
)
from qaplan.qa_hardware import QA_PROJECTED, refrigerator_qubit_capacity
from qaplan.ran_power import PowerBreakdown, bs_power, cran_power, fronthaul_w
from qaplan.workload import VALID_MODULATION_BITS, BbuTask, CellScenario, left_sum, workload

SCENARIO_400_64 = CellScenario(400, 6, 0.5, 64)
# Task lists in task order: what stays on silicon beside the annealer, the
# low-L1 stage pinned at every centralized radio site, and the rest.
RESIDENT = [BbuTask.CPRI, BbuTask.PCP]
SITE = [BbuTask.FFT]
POOL = [t for t in BbuTask if t not in SITE]


def test_task_partition_is_complete():
    # Each task once, in task order, on one side or the other.
    assert sorted(OFFLOADABLE_TASKS + SILICON_RESIDENT_TASKS,
                  key=list(BbuTask).index) == list(BbuTask)
    assert OFFLOADABLE_TASKS == tuple(t for t in BbuTask if t in OFFLOADABLE_TASKS)
    assert SILICON_RESIDENT_TASKS == (BbuTask.CPRI, BbuTask.PCP)


def test_standalone_comparison_totals():
    r = compare(SCENARIO_400_64, CMOS_14NM, QA_PROJECTED, samples=20)
    assert r.cmos.total_w == pytest.approx(96_644.5, rel=1e-4)
    assert r.qa.total_w == pytest.approx(44_581.6, rel=1e-4)
    assert r.delta_w == pytest.approx(52_062.9, rel=1e-4)
    assert r.budget.total == 3_320_055
    assert refrigerator_qubit_capacity() == 13_975_088
    assert not r.budget.total > refrigerator_qubit_capacity()


def test_comparisons_are_immutable_values():
    a = compare(SCENARIO_400_64, CMOS_14NM, QA_PROJECTED, samples=20)
    assert a == compare(SCENARIO_400_64, CMOS_14NM, QA_PROJECTED, samples=20)
    assert a != compare(SCENARIO_400_64, CMOS_14NM, QA_PROJECTED, samples=50)
    assert repr(a) == f"ComparisonResult(cmos={a.cmos!r}, qa={a.qa!r}, budget={a.budget!r})"
    assert a.delta_w == a.cmos.total_w - a.qa.total_w
    with pytest.raises(AttributeError):
        a.budget = None
    with pytest.raises(AttributeError):
        a.cmos = a.qa


def _watts(load, tasks, profile=CMOS_14NM):
    """Silicon watts of `tasks`, summed left to right in their order."""
    total = 0
    for task in tasks:
        total += cmos_power(load.tops[task], profile)
    return total


def test_annealer_candidate_keeps_control_and_transport_on_silicon():
    r = compare(SCENARIO_400_64, CMOS_14NM, QA_PROJECTED, samples=20)
    assert tuple(RESIDENT) == SILICON_RESIDENT_TASKS
    load = workload(SCENARIO_400_64)
    assert r.qa.bbu_w == _watts(load, RESIDENT)
    assert r.cmos.bbu_w == _watts(load, BbuTask)
    assert r.qa.refrigeration_w == 25e3
    assert r.cmos.refrigeration_w == 0.0


def test_centralized_comparison_totals():
    r = compare(
        SCENARIO_400_64, CMOS_14NM, QA_PROJECTED, samples=20,
        topology=CranTopology(),
    )
    assert r.cmos.total_w == pytest.approx(312_133, rel=1e-4)
    assert r.qa.total_w == pytest.approx(119_155, rel=1e-4)
    # one pool serves three cells, so the qubit ask triples
    assert r.budget.total == 3 * 3_320_055
    assert r.cmos.fronthaul_w == pytest.approx(3 * 7400.0)
    # local low-L1 silicon stays at the radio sites in both candidates
    load = workload(SCENARIO_400_64)
    fft_w = _watts(load, SITE)
    assert r.qa.bbu_w == _watts(load, RESIDENT) * 3 + 3 * fft_w
    assert r.cmos.bbu_w == _watts(load, POOL) * 3 + 3 * fft_w


def test_site_tasks_split_the_watts_of_both_candidates():
    topology = CranTopology(n_bs=2)
    load = workload(SCENARIO_400_64)
    sides = compare(SCENARIO_400_64, CMOS_14NM, QA_PROJECTED, samples=20, topology=topology)
    site_w = _watts(load, SITE)
    for side, pool in ((sides.cmos, POOL), (sides.qa, RESIDENT)):
        assert side.bbu_w == _watts(load, pool) * 2 + 2 * site_w


def test_site_count_is_bounded():
    assert CranTopology(n_bs=MAX_N_BS).n_bs == MAX_N_BS
    with pytest.raises(ValueError, match=f"n_bs must be at most {MAX_N_BS}"):
        CranTopology(n_bs=MAX_N_BS + 1)


def test_overflowing_results_are_model_errors():
    tiny = CmosProfile(node="x", efficiency_tops_per_w=1e-306)
    with pytest.raises(ValueError, match="deployment power overflows"):
        compare(SCENARIO_400_64, tiny, QA_PROJECTED, samples=20)
    with pytest.raises(ValueError, match="offloadable silicon power overflows"):
        offload_advantage_w(SCENARIO_400_64, tiny, QA_PROJECTED)
    with pytest.raises(ValueError, match="overflow over the horizons"):
        cost_report(1e308, (1e308,))

def _cost_columns_scanned(delta_w, horizons_years, assumptions):
    """`cost_columns` as a scan of every value: the kWh of each horizon, its
    OpEx and its CO2, and the first saving with a value that is not finite."""
    kwh_per_year = [delta / 1000.0 * assumptions.hours_per_year for delta in delta_w]
    opex, co2 = [], []
    for years in horizons_years:
        if years < 0:
            raise ValueError("horizons must be non-negative")
        kwh = [value * years for value in kwh_per_year]
        opex.append([value * assumptions.electricity_price_per_kwh for value in kwh])
        co2.append([value * assumptions.co2_lb_per_kwh / LB_PER_METRIC_KILOTON
                    for value in kwh])
    for delta, *values in zip(delta_w, *opex, *co2):
        if not all(map(math.isfinite, values)):
            raise ValueError(f"savings of {delta:g} W overflow over the horizons")
    return opex, co2


def _outcome(function, *args):
    try:
        return repr(function(*args))
    except ValueError as exc:
        return repr(exc)


_HUGE = st.sampled_from([1e300, 1e305, 1.7e308, math.inf, -math.inf, math.nan])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6) | _HUGE, min_size=1, max_size=4),
       st.lists(st.sampled_from([0.0, 1.0, 2.5, 10.0]) | _HUGE, max_size=3),
       st.builds(CostAssumptions, st.floats(0, 1e10) | st.sampled_from([0.0, 1e300]),
                 st.floats(0, 1e10) | st.sampled_from([0.0, 1e300]),
                 st.sampled_from([HOURS_PER_YEAR, 1e300])))
@example([1.0, 2.0], [1.0, math.nan], CostAssumptions())  # a nan horizon after the longest
@example([1e300], [1.0], CostAssumptions(0.0, 1e10))  # only the CO2 overflows
def test_cost_columns_fails_where_a_scan_of_every_value_fails(delta_w, horizons, costs):
    assert (_outcome(cost_columns, delta_w, horizons, costs)
            == _outcome(_cost_columns_scanned, delta_w, horizons, costs))


def test_capacity_excess_reported_not_raised():
    big = CellScenario(1000, 6, 0.5, 512)
    r = compare(big, CMOS_14NM, QA_PROJECTED, samples=20)
    assert r.budget.total > refrigerator_qubit_capacity()


def test_offload_advantage_point():
    got = offload_advantage_w(SCENARIO_400_64, CMOS_14NM, QA_PROJECTED)
    # 3584 movable TOPS on 14 nm silicon vs the flat refrigeration draw
    assert got == pytest.approx(3584.0 / 0.076 * 1.3 - 25e3, rel=1e-9)


def _advantage(bandwidth_mhz, antennas, profile=CMOS_14NM):
    """Offload advantage at 64-QAM, rate 1/2."""
    scenario = CellScenario(bandwidth_mhz, 6, 0.5, antennas)
    return offload_advantage_w(scenario, profile, QA_PROJECTED)


@pytest.mark.parametrize(
    "antennas,profile,expected",
    [
        (32, CMOS_14NM, 500),
        (64, CMOS_14NM, 170),
        (128, CMOS_14NM, 50),
        (256, CMOS_14NM, 20),
        (128, CMOS_1_5NM, 200),
        (256, CMOS_1_5NM, 60),
    ],
)
def test_crossover_bandwidths(antennas, profile, expected):
    # the annealer first wins at `expected` on a 10 MHz grid
    assert _advantage(expected, antennas, profile) > 0
    assert _advantage(expected - 10, antennas, profile) <= 0


def test_crossover_can_miss_entirely():
    # one antenna never pays for the refrigerator up to 1 GHz
    assert _advantage(1000, 1) <= 0


def test_cost_report_reference_point():
    r = cost_report(41e3)
    assert r.opex_savings_usd[0] == pytest.approx(51_359.88)
    assert r.opex_savings_usd[3] == pytest.approx(513_598.8)
    assert r.co2_savings_kt[0] == pytest.approx(0.14988, rel=1e-3)


def test_cost_report_rejects_negative_horizon():
    with pytest.raises(ValueError):
        cost_report(41e3, horizons_years=(1, -2))


def test_cost_assumptions_validated():
    with pytest.raises(ValueError):
        CostAssumptions(electricity_price_per_kwh=-0.1)


@given(
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=0.1, max_value=50.0),
)
def test_cost_linear_in_delta_and_time(delta, y1, y2):
    r = cost_report(delta, horizons_years=(y1, y2, y1 + y2))
    assert r.opex_savings_usd[2] == pytest.approx(
        r.opex_savings_usd[0] + r.opex_savings_usd[1], rel=1e-9, abs=1e-9
    )
    doubled = cost_report(2 * delta, horizons_years=(y1,))
    assert doubled.opex_savings_usd[0] == pytest.approx(
        2 * r.opex_savings_usd[0], rel=1e-9, abs=1e-9
    )
    assert doubled.co2_savings_kt[0] == pytest.approx(
        2 * r.co2_savings_kt[0], rel=1e-9, abs=1e-9
    )


@given(st.sampled_from([(32, 64), (64, 128), (128, 256)]),
       st.integers(min_value=1, max_value=100))
def test_crossover_moves_down_with_more_antennas(pair, step):
    # more antennas never lower the advantage, so the crossover cannot rise
    few, many = pair
    assert _advantage(10 * step, many) >= _advantage(10 * step, few)


@given(st.integers(min_value=16, max_value=512))
def test_advantage_positive_exactly_at_crossover(antennas):
    # the advantage does not fall as bandwidth rises, so once the annealer
    # wins on the grid it keeps winning
    grid = [_advantage(bw, antennas) for bw in range(10, 1001, 10)]
    assert grid == sorted(grid)


def _left_sum(values):
    return functools.reduce(operator.add, values, 0)


def _reference_cost_report(delta_w, horizons_years, assumptions):
    # `cost_report`'s arithmetic as it was with generator expressions.
    kwh_per_year = delta_w / 1000.0 * assumptions.hours_per_year
    opex = tuple(kwh_per_year * years * assumptions.electricity_price_per_kwh
                 for years in horizons_years)
    co2 = tuple(kwh_per_year * years * assumptions.co2_lb_per_kwh / LB_PER_METRIC_KILOTON
                for years in horizons_years)
    return delta_w, opex, co2


finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)


@given(finite, st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=4),
       st.builds(CostAssumptions, st.floats(0.0, 10.0), st.floats(0.0, 10.0),
                 st.floats(0.0, 1e4)))
def test_cost_report_is_bit_identical_to_its_reference(delta_w, horizons, assumptions):
    got = cost_report(delta_w, horizons, assumptions)
    assert tuple(got) == _reference_cost_report(delta_w, horizons, assumptions)


@settings(max_examples=150, deadline=None)
@given(st.builds(
    CellScenario,
    bandwidth_mhz=st.floats(min_value=1.0, max_value=1000.0),
    modulation_bits=st.sampled_from(VALID_MODULATION_BITS),
    coding_rate=st.floats(min_value=0.01, max_value=1.0),
    antennas=st.integers(min_value=1, max_value=512),
    duty_time=st.just(1.0),
    duty_freq=st.just(1.0),
), st.sampled_from(sorted(BUILTIN_CMOS)))
def test_standalone_sides_are_bit_identical_to_a_sum_per_candidate(scenario, node):
    # Each candidate's silicon summed left to right from 0, in task order.
    load = workload(scenario)
    watts = {t: cmos_power(load.tops[t], BUILTIN_CMOS[node]) for t in BbuTask}
    sides = compare(scenario, BUILTIN_CMOS[node], QA_PROJECTED, samples=20)
    want_cmos = bs_power(_left_sum(watts[t] for t in BbuTask), scenario.antennas)
    want_qa = bs_power(_left_sum(watts[t] for t in RESIDENT), scenario.antennas,
                       refrigeration_w=QA_PROJECTED.refrigeration_w)
    for got, want in ((sides.cmos, want_cmos), (sides.qa, want_qa)):
        assert (*got, got.total_w) == (*want, want.total_w)
    assert sides.delta_w == want_cmos.total_w - want_qa.total_w
    assert math.isfinite(sides.delta_w)


def _deployment_by_entry(tops, antennas, cmos, qa, topology):
    """`deployment_columns` of one workload, composed of the scalar models:
    each task's `cmos_power`, each part's `left_sum` in task order, then
    `bs_power` or `cran_power` of each candidate, and the saving."""
    watts = dict(zip(BbuTask, [cmos_power(value, cmos) for value in tops]))
    fridge = qa.refrigeration_w
    if isinstance(topology, CranTopology):
        n, link = topology.n_bs, fronthaul_w(topology.fronthaul_capacity_bps)
        site = left_sum(watts[t] for t in SITE)
        sides = [cran_power(left_sum(watts[t] for t in POOL) * n, antennas, site, link, n),
                 cran_power(left_sum(watts[t] for t in RESIDENT) * n, antennas, site, link, n,
                            refrigeration_w=fridge)]
    else:
        sides = [bs_power(left_sum(watts[t] for t in BbuTask), antennas),
                 bs_power(left_sum(watts[t] for t in RESIDENT), antennas, refrigeration_w=fridge)]
    return [(*side, side.total_w) for side in sides], sides[0].total_w - sides[1].total_w


_TINY = CmosProfile(node="tiny", efficiency_tops_per_w=1e-305)
_TOPS = (st.floats(min_value=0.0, max_value=1e300) | st.just(-0.0)
         | st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 4070.4]))
_TOPOLOGIES = st.just(BsTopology()) | st.builds(
    CranTopology, n_bs=st.integers(min_value=1, max_value=MAX_N_BS) | st.just(MAX_N_BS),
    fronthaul_capacity_bps=st.floats(min_value=1.0, max_value=1e300))


def _check_prices(entries, cmos, topology):
    """`deployment_columns` of `entries`, (TOPS per task, antennas) each,
    against `_deployment_by_entry` of each, by repr."""
    tops = [list(column) for column in zip(*[t for t, _ in entries])]
    antennas = [n for _, n in entries]
    want = [_deployment_by_entry(t, n, cmos, QA_PROJECTED, topology) for t, n in entries]
    # The first total past float range, all-silicon before annealer per entry.
    overflow = next((total for sides, _ in want for *_, total in sides
                     if not math.isfinite(total)), None)
    if overflow is not None:
        with pytest.raises(ValueError) as raised:
            deployment_columns(tops, antennas, cmos, QA_PROJECTED, topology)
        assert str(raised.value) == f"deployment power overflows: {overflow} W"
        return
    cmos_w, qa_w, savings = deployment_columns(tops, antennas, cmos, QA_PROJECTED, topology)
    got = [([tuple(column[i] for column in side) for side in (cmos_w, qa_w)], savings[i])
           for i in range(len(entries))]
    assert repr(got) == repr([([tuple(side) for side in sides], saving)
                              for sides, saving in want])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.tuples(*[_TOPS] * len(BbuTask)),
                          st.integers(min_value=0, max_value=4096)), min_size=1, max_size=6),
       st.sampled_from([*BUILTIN_CMOS.values(), _TINY]), _TOPOLOGIES)
@example([((-0.0,) * len(BbuTask), 0)], CMOS_14NM, BsTopology())  # sums start from 0
@example([((-0.0,) * len(BbuTask), 0)], CMOS_14NM, CranTopology())
def test_one_loop_prices_each_entry_as_the_scalar_models_do(entries, cmos, topology):
    _check_prices(entries, cmos, topology)


def test_cli_workloads_price_as_the_scalar_models_do():
    # Whole blocks of valid workloads, at site counts up to the bound.
    scenarios = [CellScenario(b, m, 0.5, a) for b in (1.4, 20, 400, 1e6) for m in (2, 6)
                 for a in (1, 64, 1024)]
    entries = [(tuple(workload(s).tops[t] for t in BbuTask), s.antennas) for s in scenarios]
    for topology in (BsTopology(), *map(CranTopology, (1, 3, 4, 999, MAX_N_BS))):
        for cmos in (*BUILTIN_CMOS.values(), _TINY):
            _check_prices(entries, cmos, topology)


@pytest.mark.parametrize("tops,antennas,message", [
    ([1.0, 2.0, -3.0, -4.0, 0.0, 0.0, 0.0, 0.0], 8, "tops must be non-negative, got -3.0"),
    ([1.0] * 8, -2, "antennas must be non-negative, got -2"),
    ([float("nan"), -1.0, 0, 0, 0, 0, 0, 0], 8, "tops must be non-negative, got -1.0"),
    ([1e300] * 8, 8, "deployment power overflows: inf W"),
    ([float("nan")] + [1.0] * 7, 8, "deployment power overflows: nan W"),
])
@pytest.mark.parametrize("topology", [BsTopology(), CranTopology(n_bs=MAX_N_BS)])
def test_a_one_entry_block_raises_as_the_scalar_models_do(tops, antennas, message, topology):
    with pytest.raises(ValueError) as raised:
        deployment_columns([[value] for value in tops], [antennas], _TINY, QA_PROJECTED,
                           topology)
    assert str(raised.value) == message
    if "overflows" not in message:  # the scalar models raise the same
        with pytest.raises(ValueError, match=message):
            _deployment_by_entry(tops, antennas, _TINY, QA_PROJECTED, topology)
