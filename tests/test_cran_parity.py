"""The deployment power model against the list-walking model it replaced.

`cran_power` prices one radio site times a count. The reference below is
the model that walked a list of `n_bs` equal sites with one sum per
component, each site holding its radios, its silicon and a fronthaul link
at full load. It is kept here as it ran on Python 3.10 and 3.11: `sum()`
there adds left to right, as `_sum` does (3.12 compensates float sums). Up to three
sites a repeated sum of a value equals the count times it, so every field
must match bit for bit; beyond that the two may part in the last bit.
"""

import functools
import math
import operator
from collections import namedtuple

from hypothesis import given, settings, strategies as st

from qaplan.cmos import BUILTIN_CMOS, cmos_power
from qaplan.economics import MAX_N_BS, CranTopology, compare
from qaplan.qa_hardware import QA_PROJECTED
from qaplan.ran_power import DEFAULT_LOSSES, PA_W, RU_CHAIN_W, PowerBreakdown
from qaplan.workload import VALID_MODULATION_BITS, BbuTask, CellScenario, workload

SITE = [BbuTask.FFT]  # low-L1 stage at every radio site
Site = namedtuple("Site", "ru_w pa_w bbu_w fronthaul_w")


def _sum(values):
    return functools.reduce(operator.add, values, 0)


def _reference_cran_power(bbu_w, losses, sites, refrigeration_w=0.0):
    pool_overhead = bbu_w * (losses.supply_factor - 1.0)
    ru = _sum(s.ru_w for s in sites)
    pa = _sum(s.pa_w for s in sites)
    site_bbu = _sum(s.bbu_w for s in sites)
    site_overhead = _sum((s.ru_w + s.pa_w + s.bbu_w) * (DEFAULT_LOSSES.supply_factor - 1.0)
                         for s in sites)
    fh = _sum(s.fronthaul_w for s in sites)
    return PowerBreakdown(
        bbu_w=bbu_w + site_bbu,
        ru_w=ru,
        pa_w=pa,
        power_system_w=pool_overhead + site_overhead,
        fronthaul_w=fh,
        refrigeration_w=refrigeration_w,
    )


def _reference_cran_breakdown(load, watts, pool_tasks, topology, refrigeration_w=0.0):
    site_tasks_w = {t: watts[t] for t in SITE}
    pool_tasks_w = {t: watts[t] for t in pool_tasks}
    capacity = load_bps = topology.fronthaul_capacity_bps
    p_max = 37.0 * capacity / 500e6  # the 500 Mb/s reference link draws 37 W
    site = Site(
        ru_w=load.scenario.antennas * RU_CHAIN_W,
        pa_w=load.scenario.antennas * PA_W,
        bbu_w=_sum(site_tasks_w.values()),
        fronthaul_w=p_max * load_bps / capacity,
    )
    n = topology.n_bs
    return _reference_cran_power(
        bbu_w=_sum(pool_tasks_w.values()) * n,
        losses=DEFAULT_LOSSES,
        sites=[site] * n,
        refrigeration_w=refrigeration_w,
    )


def _reference_sides(load, profile, topology):
    watts = {t: cmos_power(load.tops[t], profile) for t in BbuTask}
    return (
        _reference_cran_breakdown(load, watts, [t for t in BbuTask if t not in SITE],
                                  topology),
        _reference_cran_breakdown(load, watts, [BbuTask.CPRI, BbuTask.PCP], topology,
                                  refrigeration_w=QA_PROJECTED.refrigeration_w),
    )


def _fields(breakdown):
    return (*breakdown, breakdown.total_w)  # the six components and the total


fractions = st.sampled_from([1.0, 0.5, 0.25, 0.8])
scenarios = st.builds(
    CellScenario,
    bandwidth_mhz=st.floats(min_value=1.0, max_value=1000.0),
    modulation_bits=st.sampled_from(VALID_MODULATION_BITS),
    coding_rate=st.floats(min_value=0.01, max_value=1.0),
    antennas=st.integers(min_value=1, max_value=512),
    duty_time=fractions,
    duty_freq=fractions,
)
nodes = st.sampled_from(sorted(BUILTIN_CMOS))


@settings(max_examples=150, deadline=None)
@given(scenarios, nodes, st.integers(min_value=1, max_value=3))
def test_up_to_three_sites_every_field_is_bit_identical(scenario, node, n_bs):
    load = workload(scenario)
    topology = CranTopology(n_bs=n_bs)
    got = compare(scenario, BUILTIN_CMOS[node], QA_PROJECTED, 20, topology)
    want_cmos, want_qa = _reference_sides(load, BUILTIN_CMOS[node], topology)
    assert _fields(got.cmos) == _fields(want_cmos)
    assert _fields(got.qa) == _fields(want_qa)


@settings(max_examples=40, deadline=None)
@given(scenarios, nodes,
       st.one_of(st.integers(min_value=4, max_value=MAX_N_BS), st.just(MAX_N_BS)))
def test_up_to_the_cap_every_field_agrees_closely(scenario, node, n_bs):
    load = workload(scenario)
    topology = CranTopology(n_bs=n_bs)
    got = compare(scenario, BUILTIN_CMOS[node], QA_PROJECTED, 20, topology)
    for side, want in zip((got.cmos, got.qa),
                          _reference_sides(load, BUILTIN_CMOS[node], topology)):
        for a, b in zip(_fields(side), _fields(want)):
            assert math.isclose(a, b, rel_tol=1e-9), (a, b)
