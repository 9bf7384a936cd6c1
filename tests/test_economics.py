"""Deployment comparisons, crossover search, and operating-cost pricing."""

import pytest
from hypothesis import given, strategies as st

from qaplan.cmos import CMOS_1_5NM, CMOS_14NM, CmosProfile, cmos_power
from qaplan.economics import (
    MAX_N_BS,
    OFFLOADABLE_TASKS,
    SILICON_RESIDENT_TASKS,
    BsTopology,
    CostAssumptions,
    CranTopology,
    compare,
    cost_report,
    crossover_bandwidth_mhz,
    deployments,
    offload_advantage_w,
)
from qaplan.qa_hardware import QA_PROJECTED
from qaplan.workload import BbuTask, CellScenario, workload

SCENARIO_400_64 = CellScenario(400, 6, 0.5, 64)


def test_task_partition_is_complete():
    assert OFFLOADABLE_TASKS | SILICON_RESIDENT_TASKS == frozenset(BbuTask)
    assert not OFFLOADABLE_TASKS & SILICON_RESIDENT_TASKS
    assert SILICON_RESIDENT_TASKS == {BbuTask.PCP, BbuTask.CPRI}


def test_standalone_comparison_totals():
    r = compare(SCENARIO_400_64, CMOS_14NM, QA_PROJECTED, samples=20)
    assert r.cmos.total_w == pytest.approx(96_644.5, rel=1e-4)
    assert r.qa.total_w == pytest.approx(44_581.6, rel=1e-4)
    assert r.delta_w == pytest.approx(52_062.9, rel=1e-4)
    assert r.budget.total == 3_320_055
    assert r.capacity == 13_975_088
    assert not r.capacity_exceeded


def _watts(load, tasks, profile=CMOS_14NM):
    """Silicon watts of `tasks`, summed left to right in their order."""
    total = 0
    for task in tasks:
        total += cmos_power(load.tops[task], profile)
    return total


def test_annealer_candidate_keeps_control_and_transport_on_silicon():
    r = compare(SCENARIO_400_64, CMOS_14NM, QA_PROJECTED, samples=20)
    layout = BsTopology._layout
    assert set(layout.qa) == SILICON_RESIDENT_TASKS
    assert set(layout.cmos) == set(BbuTask)
    load = workload(SCENARIO_400_64)
    assert r.qa.bbu_w == _watts(load, layout.qa)
    assert r.cmos.bbu_w == _watts(load, layout.cmos)
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
    layout = CranTopology()._layout
    assert layout.site == (BbuTask.FFT,)
    assert BbuTask.FFT not in layout.cmos + layout.qa
    load = workload(SCENARIO_400_64)
    fft_w = _watts(load, layout.site)
    assert r.qa.bbu_w == _watts(load, layout.qa) * 3 + 3 * fft_w
    assert r.cmos.bbu_w == _watts(load, layout.cmos) * 3 + 3 * fft_w


@pytest.mark.parametrize("site_tasks", [
    frozenset(), frozenset({BbuTask.FFT}), frozenset({BbuTask.FFT, BbuTask.DPD}),
    frozenset({BbuTask.PCP}),  # a silicon-resident task pinned at the site
])
def test_site_tasks_split_the_watts_of_both_candidates(site_tasks):
    topology = CranTopology(n_bs=2, site_tasks=site_tasks)
    load = workload(SCENARIO_400_64)
    sides = deployments(load, CMOS_14NM, QA_PROJECTED, topology)
    layout = topology._layout
    assert list(layout.cmos + layout.site) == (
        [t for t in BbuTask if t not in site_tasks] + [t for t in BbuTask if t in site_tasks])
    assert list(layout.site) == [t for t in BbuTask if t in site_tasks]
    assert set(layout.qa + layout.site) == SILICON_RESIDENT_TASKS | site_tasks
    assert not set(layout.qa) & set(layout.site)
    site_w = _watts(load, layout.site)
    for side, pool in ((sides.cmos, layout.cmos), (sides.qa, layout.qa)):
        assert side.bbu_w == _watts(load, pool) * 2 + 2 * site_w
    assert topology._layout is topology._layout  # built once per topology


def test_site_count_is_bounded():
    assert CranTopology(n_bs=MAX_N_BS).n_bs == MAX_N_BS
    with pytest.raises(ValueError, match=f"n_bs must be at most {MAX_N_BS}"):
        CranTopology(n_bs=MAX_N_BS + 1)


def test_overflowing_results_are_model_errors():
    tiny = CmosProfile(node="x", vdd=1.0, efficiency_tops_per_w=1e-306)
    load = workload(SCENARIO_400_64)
    with pytest.raises(ValueError, match="deployment power overflows"):
        deployments(load, tiny, QA_PROJECTED)
    with pytest.raises(ValueError, match="offloadable silicon power overflows"):
        offload_advantage_w(SCENARIO_400_64, tiny, QA_PROJECTED)
    with pytest.raises(ValueError, match="overflow over the horizons"):
        cost_report(1e308, (1e308,))

def test_capacity_excess_reported_not_raised():
    big = CellScenario(1000, 6, 0.5, 512)
    r = compare(big, CMOS_14NM, QA_PROJECTED, samples=20)
    assert r.capacity_exceeded
    assert r.budget.total > r.capacity


def test_offload_advantage_point():
    got = offload_advantage_w(SCENARIO_400_64, CMOS_14NM, QA_PROJECTED)
    # 3584 movable TOPS on 14 nm silicon vs the flat refrigeration draw
    assert got == pytest.approx(3584.0 / 0.076 * 1.3 - 25e3, rel=1e-9)


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
    assert crossover_bandwidth_mhz(antennas, profile, QA_PROJECTED) == expected


def test_crossover_can_miss_entirely():
    assert crossover_bandwidth_mhz(1, CMOS_14NM, QA_PROJECTED) is None


def test_cost_report_reference_point():
    r = cost_report(41e3)
    assert r.horizons_years == (1, 2, 5, 10)
    assert r.opex_savings_usd[0] == pytest.approx(51_359.88)
    assert r.opex_savings_usd[3] == pytest.approx(513_598.8)
    assert r.co2_savings_kt[0] == pytest.approx(0.14988, rel=1e-3)
    assert r.breakeven_capex_usd == r.opex_savings_usd


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


@given(st.sampled_from([(32, 64), (64, 128), (128, 256)]))
def test_crossover_moves_down_with_more_antennas(pair):
    few, many = pair
    bw_few = crossover_bandwidth_mhz(few, CMOS_14NM, QA_PROJECTED)
    bw_many = crossover_bandwidth_mhz(many, CMOS_14NM, QA_PROJECTED)
    assert bw_many is not None
    assert bw_few is None or bw_many <= bw_few


@given(st.integers(min_value=16, max_value=512))
def test_advantage_positive_exactly_at_crossover(antennas):
    bw = crossover_bandwidth_mhz(antennas, CMOS_14NM, QA_PROJECTED)
    if bw is None:
        return
    at = offload_advantage_w(
        CellScenario(bw, 6, 0.5, antennas), CMOS_14NM, QA_PROJECTED
    )
    assert at > 0
    if bw > 10:
        before = offload_advantage_w(
            CellScenario(bw - 10, 6, 0.5, antennas), CMOS_14NM, QA_PROJECTED
        )
        assert before <= 0
