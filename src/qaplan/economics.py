"""Deployment comparison and operating economics.

Builds the two candidate deployments for a scenario (all-silicon vs
annealer-offloaded baseband) and prices their power difference. The
annealer side keeps platform control and transport processing on silicon;
in centralized deployments the per-site FFT stage stays on site silicon in
both candidates.

The deployments depend on the scenario alone, and the qubit budget also
on the sample count. Each model step is a column function over workloads
(`deployment_columns`, `cost_columns`, `advantage_columns`), which the
CLI and the paper tables call, the first through `evaluate.Stages`.
`compare`, `cost_report` and `offload_advantage_w` are the same for one
cell: the reference API, which the tests hold the block evaluation to.
`deployment_columns` prices a block of workloads in one loop, one entry
per iteration: each task's silicon watts (`cmos_power`), taken once and
shared by both candidates, which sum them in task order from 0
(`workload.left_sum`), then each candidate's `bs_power` or `cran_power`,
in their float order, and the saving. A centralized radio site, with its
fronthaul link at full load, is the same for both candidates; they differ
only in pool silicon and refrigeration, and each site total is the site
count times one site's value.
"""

from __future__ import annotations

import math
from itertools import chain, filterfalse
from typing import List, NamedTuple, Sequence, Tuple, Union

from .cmos import CmosProfile
from .qa_hardware import QaProfile
from .qubit_budget import QubitBudget, total_budget
from .ran_power import PA_W, RU_CHAIN_W, SUPPLY_OVERHEAD, PowerBreakdown, fronthaul_w
from .record import check_non_negative, checked
from .workload import BbuTask, CellScenario, workload

# Tasks that stay on silicon (control and transport) and those an annealer
# can take over, each in task order, which fixes the order watts are summed
# in. A standalone station runs `_ALL_TASKS` on all-silicon baseband and
# `SILICON_RESIDENT_TASKS` beside the annealer. A centralized deployment
# pins low-L1 processing (FFT) at every radio site in both candidates; the
# all-silicon pool runs the other tasks and the annealer's pool
# `SILICON_RESIDENT_TASKS`, as a standalone station does.
SILICON_RESIDENT_TASKS = (BbuTask.CPRI, BbuTask.PCP)
OFFLOADABLE_TASKS = tuple(t for t in BbuTask if t not in SILICON_RESIDENT_TASKS)
_ALL_TASKS = tuple(BbuTask)

HOURS_PER_YEAR = 8760.0
LB_PER_METRIC_KILOTON = 2_204_622.6
# Most remote sites one pool may serve. The power model costs the same at
# any count; the bound stays because a count beyond float range would
# overflow when the model multiplies a site's watts by it.
MAX_N_BS = 10_000


class BsTopology(NamedTuple):
    """Standalone base station: baseband, radios, and PAs in one cabinet."""

    n_bs = 1  # a class constant, not a field

    def __bool__(self) -> bool:  # true, as every topology with fields is
        return True


@checked
class CranTopology(NamedTuple):
    """Centralized pool serving n identical radio sites over fronthaul."""

    n_bs: int = 3
    fronthaul_capacity_bps: float = 100e9

    def _check(self) -> None:
        if not math.isfinite(self.fronthaul_capacity_bps):
            raise ValueError(
                f"fronthaul capacity must be finite, got {self.fronthaul_capacity_bps}"
            )
        if self.fronthaul_capacity_bps <= 0:
            raise ValueError(
                f"fronthaul capacity must be positive, got {self.fronthaul_capacity_bps}"
            )
        if self.n_bs < 1:
            raise ValueError(f"n_bs must be at least 1, got {self.n_bs}")
        if self.n_bs > MAX_N_BS:
            raise ValueError(f"n_bs must be at most {MAX_N_BS}, got {self.n_bs}")


Topology = Union[BsTopology, CranTopology]


class ComparisonResult(NamedTuple):
    """Both deployment candidates for one scenario, plus the qubit ask."""

    cmos: PowerBreakdown
    qa: PowerBreakdown
    budget: QubitBudget  # whole-deployment qubit requirement

    @property
    def delta_w(self) -> float:
        """Power saved by the annealer candidate (negative = it loses). An
        oracle: the tests hold the saving `deployment_columns` returns
        equal to it bit for bit."""
        return self.cmos.total_w - self.qa.total_w


# The fields of a `PowerBreakdown` as columns, one entry per deployment,
# then their `total_w`: one candidate's part of `deployment_columns`.
Breakdowns = Tuple[List[float], ...]


def deployment_columns(tops: Sequence[Sequence[float]], antennas: Sequence[int],
                       cmos_profile: CmosProfile, qa_profile: QaProfile,
                       topology: Topology = BsTopology()
                       ) -> Tuple[Breakdowns, Breakdowns, List[float]]:
    """The all-silicon and the annealer candidates' breakdowns for each
    workload, given as one TOPS column per task in task order, and the
    power the annealer candidate saves (negative = it loses).

    One loop prices each workload. Its values are those of `cmos_power`
    for each task, `left_sum` of the tasks each part runs, in task order,
    and `bs_power` or `cran_power` of each candidate, bit for bit.
    """
    for column in tops:
        check_non_negative(column, "tops")
    bs = isinstance(topology, BsTopology)
    if not bs and not isinstance(topology, CranTopology):
        raise ValueError(f"unknown topology {topology!r}")
    # The bbu_w and n_sites checks of the scalar models cannot fail here:
    # the TOPS are non-negative, and a topology has at least one site.
    check_non_negative(antennas, "antennas")
    efficiency, static = cmos_profile.efficiency_tops_per_w, 1.0 + cmos_profile.leakage_fraction
    fridge = qa_profile.refrigeration_w
    ru_w, pa_w, overhead = RU_CHAIN_W, PA_W, SUPPLY_OVERHEAD
    # An int times or plus a float is the float of the int times or plus
    # it, so counts are floats and sums start from 0.0 here, which keeps
    # the loop on float arithmetic. A total is at least 0.0 from its first
    # part on, so adding a part that is 0.0 leaves it as it is: the totals
    # skip the all-silicon refrigeration and a base station's fronthaul.
    entries = []
    add = entries.append
    # Task order: DPD, Filter, FFT, FD(lin), FD(nonlin), FEC, CPRI, PCP.
    if bs:  # `bs_power` of each candidate's silicon
        for dpd, filt, fft, lin, nonlin, fec, cpri, pcp, n in zip(*tops, map(float, antennas)):
            cpri_w, pcp_w = cpri / efficiency * static, pcp / efficiency * static
            cmos_bbu = (0.0 + dpd / efficiency * static + filt / efficiency * static
                        + fft / efficiency * static + lin / efficiency * static
                        + nonlin / efficiency * static + fec / efficiency * static
                        + cpri_w + pcp_w)
            qa_bbu = 0.0 + cpri_w + pcp_w
            ru, pa = n * ru_w, n * pa_w
            cmos_overhead = (cmos_bbu + ru + pa) * overhead
            qa_overhead = (qa_bbu + ru + pa) * overhead
            cmos_total = cmos_bbu + ru + pa + cmos_overhead
            qa_total = qa_bbu + ru + pa + qa_overhead + fridge
            add((cmos_bbu, ru, pa, cmos_overhead, cmos_total, qa_bbu, qa_overhead, qa_total,
                 cmos_total - qa_total))
        link = 0.0
    else:  # `cran_power` of each candidate's pool, with the sites both share
        n_sites = float(topology.n_bs)
        link = n_sites * fronthaul_w(topology.fronthaul_capacity_bps)
        for dpd, filt, fft, lin, nonlin, fec, cpri, pcp, n in zip(*tops, map(float, antennas)):
            cpri_w, pcp_w = cpri / efficiency * static, pcp / efficiency * static
            cmos_pool = (0.0 + dpd / efficiency * static + filt / efficiency * static
                         + lin / efficiency * static + nonlin / efficiency * static
                         + fec / efficiency * static + cpri_w + pcp_w) * n_sites
            qa_pool = (0.0 + cpri_w + pcp_w) * n_sites
            site_bbu = 0.0 + fft / efficiency * static
            site_ru, site_pa = n * ru_w, n * pa_w
            site_overhead = n_sites * ((site_ru + site_pa + site_bbu) * overhead)
            site_bbu *= n_sites
            ru, pa = n_sites * site_ru, n_sites * site_pa
            cmos_bbu, qa_bbu = cmos_pool + site_bbu, qa_pool + site_bbu
            cmos_overhead = cmos_pool * overhead + site_overhead
            qa_overhead = qa_pool * overhead + site_overhead
            cmos_total = cmos_bbu + ru + pa + cmos_overhead + link
            qa_total = qa_bbu + ru + pa + qa_overhead + link + fridge
            add((cmos_bbu, ru, pa, cmos_overhead, cmos_total, qa_bbu, qa_overhead, qa_total,
                 cmos_total - qa_total))
    count = len(entries)
    cmos_bbu, ru, pa, cmos_overhead, cmos_total, qa_bbu, qa_overhead, qa_total, savings = (
        map(list, zip(*entries)) if entries else [[]] * 9)
    # Every component is non-negative, so a saving is finite where both
    # totals are, and finite totals mean finite parts.
    if not all(map(math.isfinite, savings)):
        total = next(filterfalse(math.isfinite, chain.from_iterable(zip(cmos_total, qa_total))),
                     None)
        if total is not None:
            raise ValueError(f"deployment power overflows: {total} W")
    links = [link] * count
    return ((cmos_bbu, ru, pa, cmos_overhead, links, [0.0] * count, cmos_total),
            (qa_bbu, ru, pa, qa_overhead, links, [fridge] * count, qa_total), savings)


def compare(
    scenario: CellScenario,
    cmos_profile: CmosProfile,
    qa_profile: QaProfile,
    samples: int,
    topology: Topology = BsTopology(),
) -> ComparisonResult:
    """Power both candidates for one scenario and size the annealer: one
    cell's qubit budget scaled to the deployment's n_bs cells."""
    load = workload(scenario)
    cmos, qa, _ = deployment_columns([[load.tops[t]] for t in _ALL_TASKS],
                                     [load.scenario.antennas], cmos_profile, qa_profile, topology)
    per_bs, n_bs = total_budget(load, qa_profile, samples), topology.n_bs
    budget = QubitBudget({t: n * n_bs for t, n in per_bs.per_task.items()}, per_bs.total * n_bs)
    return ComparisonResult(*[PowerBreakdown(*[column[0] for column in side[:6]])
                              for side in (cmos, qa)], budget)


@checked
class CostAssumptions(NamedTuple):
    """Prices and conversion factors that turn a power saving into money
    and avoided CO2."""

    electricity_price_per_kwh: float = 0.143  # USD
    co2_lb_per_kwh: float = 0.92
    hours_per_year: float = HOURS_PER_YEAR

    def _check(self) -> None:
        for name in ("electricity_price_per_kwh", "co2_lb_per_kwh", "hours_per_year"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


DEFAULT_COSTS = CostAssumptions()


class CostReport(NamedTuple):
    """Savings from a power delta, one entry per horizon given to `cost_report`."""

    delta_w: float
    opex_savings_usd: Tuple[float, ...]
    co2_savings_kt: Tuple[float, ...]


def cost_columns(delta_w: Sequence[float], horizons_years: Sequence[float] = (1, 2, 5, 10),
                 assumptions: CostAssumptions = DEFAULT_COSTS
                 ) -> Tuple[List[List[float]], List[List[float]]]:
    """Price each power saving in electricity dollars and avoided CO2: per
    horizon, a column of OpEx savings and one of CO2 savings. Values grow
    with |kWh| and the horizon, so they are scanned for one that is not
    finite only where a kWh or horizon is not (a sum with a nan or an inf is
    not), or the largest |kWh| over the longest horizon gives one."""
    hours = assumptions.hours_per_year
    price, co2_lb = assumptions.electricity_price_per_kwh, assumptions.co2_lb_per_kwh
    kwh_per_year = [delta / 1000.0 * hours for delta in delta_w]
    opex, co2 = [], []
    for years in horizons_years:
        if years < 0:
            raise ValueError("horizons must be non-negative")
        opex.append([value * years * price for value in kwh_per_year])
        co2.append([value * years * co2_lb / LB_PER_METRIC_KILOTON for value in kwh_per_year])
    top = max(map(abs, kwh_per_year), default=0.0) * max(horizons_years, default=0.0)
    bound = (sum(kwh_per_year) + sum(horizons_years) + top * price
             + top * co2_lb / LB_PER_METRIC_KILOTON)
    if not math.isfinite(bound) and next(
            filterfalse(math.isfinite, chain.from_iterable(opex + co2)), None) is not None:
        delta = next(d for d, *values in zip(delta_w, *opex, *co2)
                     if not all(map(math.isfinite, values)))
        raise ValueError(f"savings of {delta:g} W overflow over the horizons")
    return opex, co2


def cost_report(delta_w: float, horizons_years: Sequence[float] = (1, 2, 5, 10),
                assumptions: CostAssumptions = DEFAULT_COSTS) -> CostReport:
    """`cost_columns` of one power saving."""
    opex, co2 = cost_columns([delta_w], horizons_years, assumptions)
    return CostReport(delta_w, tuple(c[0] for c in opex), tuple(c[0] for c in co2))


def offload_advantage_w(
    scenario: CellScenario,
    cmos_profile: CmosProfile,
    qa_profile: QaProfile,
) -> float:
    """Baseband-level watts saved by offloading (negative = loss).

    Compares only what moves: the offloadable tasks' silicon draw against
    the flat refrigeration cost. Supply losses and silicon-resident tasks
    are identical on both sides and cancel.
    """
    load = workload(scenario)
    return advantage_columns([[load.tops[t]] for t in _ALL_TASKS], cmos_profile, qa_profile)[0]


def advantage_columns(tops: Sequence[Sequence[float]], cmos_profile: CmosProfile,
                      qa_profile: QaProfile) -> List[float]:
    """`offload_advantage_w` for each workload, given as one TOPS column per
    task in task order: `cmos_power` of the `left_sum` of its offloadable
    tasks' TOPS, less the refrigeration."""
    # The offloadable tasks are the first six: DPD to FEC.
    offloaded = [0 + dpd + filt + fft + lin + nonlin + fec
                 for dpd, filt, fft, lin, nonlin, fec in zip(*tops[:6])]
    check_non_negative(offloaded, "tops")
    efficiency, static = cmos_profile.efficiency_tops_per_w, 1.0 + cmos_profile.leakage_fraction
    fridge = qa_profile.refrigeration_w
    advantage = [value / efficiency * static - fridge for value in offloaded]
    # The silicon watts are non-negative and the refrigeration finite, so an
    # advantage is finite where the silicon is, and reads as it does if not.
    value = next(filterfalse(math.isfinite, advantage), None)
    if value is not None:
        raise ValueError(f"offloadable silicon power overflows: {value} W")
    return advantage
