"""Deployment comparison and operating economics.

Builds the two candidate deployments for a scenario (all-silicon vs
annealer-offloaded baseband) and prices their power difference. The
annealer side keeps platform control and transport processing on silicon;
in centralized deployments the per-site FFT stage stays on site silicon in
both candidates.

The deployments depend on the scenario alone, and the qubit budget also
on the sample count. Each model step is a column function over workloads
(`deployment_columns`, `cost_columns`, `advantage_columns`); `compare`,
`cost_report` and `offload_advantage_w` are the same for one cell. Each
task's silicon watts are taken once per workload and node, shared by
both candidates, which sum them in task order from 0 (`left_sums`). A
centralized radio site, with its fronthaul link at full load, is the same
for both candidates; they differ only in pool silicon and refrigeration,
and each site total is the site count times one site's value.
"""

from __future__ import annotations

import math
from itertools import chain, filterfalse
from operator import sub
from typing import List, NamedTuple, Sequence, Tuple, Union

from .cmos import CmosProfile, cmos_power_column
from .qa_hardware import QaProfile
from .qubit_budget import QubitBudget, total_budget
from .ran_power import (
    Breakdowns,
    PowerBreakdown,
    _breakdown,
    bs_power_columns,
    cran_power_columns,
    fronthaul_w,
)
from .record import Checked
from .workload import BbuTask, CellScenario, left_sums, workload

# Tasks that stay on silicon (control and transport) and those an annealer
# can take over, each in task order, which fixes the order watts are summed
# in. A standalone station runs `_ALL_TASKS` on all-silicon baseband and
# `SILICON_RESIDENT_TASKS` beside the annealer.
SILICON_RESIDENT_TASKS = (BbuTask.CPRI, BbuTask.PCP)
OFFLOADABLE_TASKS = tuple(t for t in BbuTask if t not in SILICON_RESIDENT_TASKS)
_ALL_TASKS = tuple(BbuTask)
# Low-L1 processing pinned at every centralized radio site in both
# candidates, and what the all-silicon pool keeps. The annealer's pool keeps
# `SILICON_RESIDENT_TASKS`, as a standalone station does.
_SITE_TASKS = (BbuTask.FFT,)
_CRAN_CMOS = tuple(t for t in _ALL_TASKS if t not in _SITE_TASKS)

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


class _CranTopology(NamedTuple):
    n_bs: int = 3
    fronthaul_capacity_bps: float = 100e9


class CranTopology(Checked, _CranTopology):
    """Centralized pool serving n identical radio sites over fronthaul."""

    __slots__ = ()

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


def _sums_at(watts: Sequence[List[float]], at: Sequence[int]) -> List[float]:
    """`left_sum` of the watts columns at positions `at`, in that order."""
    return left_sums([watts[i] for i in at], len(watts[0]))


# Positions in `_ALL_TASKS` of each task list the candidates sum.
_ALL_AT = tuple(range(len(_ALL_TASKS)))
_RESIDENT_AT = tuple(map(_ALL_TASKS.index, SILICON_RESIDENT_TASKS))
_SITE_AT = tuple(map(_ALL_TASKS.index, _SITE_TASKS))
_CRAN_CMOS_AT = tuple(map(_ALL_TASKS.index, _CRAN_CMOS))
_OFFLOADABLE_AT = tuple(map(_ALL_TASKS.index, OFFLOADABLE_TASKS))


def savings_w(cmos_total_w: Sequence[float], qa_total_w: Sequence[float]) -> List[float]:
    """Power saved by the annealer candidate (negative = it loses)."""
    return list(map(sub, cmos_total_w, qa_total_w))


class ComparisonResult(NamedTuple):
    """Both deployment candidates for one scenario, plus the qubit ask."""

    cmos: PowerBreakdown
    qa: PowerBreakdown
    budget: QubitBudget  # whole-deployment qubit requirement

    @property
    def delta_w(self) -> float:
        """`savings_w` of the two candidates."""
        return savings_w([self.cmos.total_w], [self.qa.total_w])[0]


def deployment_columns(tops: Sequence[Sequence[float]], antennas: Sequence[int],
                       cmos_profile: CmosProfile, qa_profile: QaProfile,
                       topology: Topology = BsTopology()) -> Tuple[Breakdowns, Breakdowns]:
    """The all-silicon and the annealer candidates' breakdowns for each
    workload, given as one TOPS column per task in task order."""
    # Every task's silicon watts, in task order, shared by both candidates.
    watts = [cmos_power_column(column, cmos_profile) for column in tops]
    fridge_w = qa_profile.refrigeration_w
    if isinstance(topology, BsTopology):
        cmos = bs_power_columns(_sums_at(watts, _ALL_AT), antennas)
        qa = bs_power_columns(_sums_at(watts, _RESIDENT_AT), antennas, refrigeration_w=fridge_w)
    elif isinstance(topology, CranTopology):  # one radio site, shared by both
        n, link_w = topology.n_bs, fronthaul_w(topology.fronthaul_capacity_bps)
        site = (antennas, _sums_at(watts, _SITE_AT), link_w, n)
        cmos = cran_power_columns([w * n for w in _sums_at(watts, _CRAN_CMOS_AT)], *site)
        qa = cran_power_columns([w * n for w in _sums_at(watts, _RESIDENT_AT)], *site,
                                refrigeration_w=fridge_w)
    else:
        raise ValueError(f"unknown topology {topology!r}")
    # Every component is non-negative, so finite totals mean finite parts.
    total = next(filterfalse(math.isfinite, chain.from_iterable(zip(cmos[-1], qa[-1]))), None)
    if total is not None:
        raise ValueError(f"deployment power overflows: {total} W")
    return cmos, qa


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
    cmos, qa = deployment_columns([[load.tops[t]] for t in _ALL_TASKS],
                                  [load.scenario.antennas], cmos_profile, qa_profile, topology)
    per_bs, n_bs = total_budget(load, qa_profile, samples), topology.n_bs
    budget = QubitBudget({t: n * n_bs for t, n in per_bs.per_task.items()}, per_bs.total * n_bs)
    return ComparisonResult(_breakdown(cmos), _breakdown(qa), budget)


class _CostAssumptions(NamedTuple):
    electricity_price_per_kwh: float = 0.143  # USD
    co2_lb_per_kwh: float = 0.92
    hours_per_year: float = HOURS_PER_YEAR


class CostAssumptions(Checked, _CostAssumptions):
    """Prices and conversion factors that turn a power saving into money
    and avoided CO2."""

    __slots__ = ()

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
    horizon, a column of OpEx savings and one of CO2 savings."""
    hours = assumptions.hours_per_year
    price, co2_lb = assumptions.electricity_price_per_kwh, assumptions.co2_lb_per_kwh
    kwh_per_year = [delta / 1000.0 * hours for delta in delta_w]
    opex, co2 = [], []
    for years in horizons_years:
        if years < 0:
            raise ValueError("horizons must be non-negative")
        kwh = [value * years for value in kwh_per_year]
        opex.append([value * price for value in kwh])
        co2.append([value * co2_lb / LB_PER_METRIC_KILOTON for value in kwh])
    if next(filterfalse(math.isfinite, chain.from_iterable(opex + co2)), None) is not None:
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
    task in task order."""
    silicon_w = cmos_power_column(_sums_at(tops, _OFFLOADABLE_AT), cmos_profile)
    value = next(filterfalse(math.isfinite, silicon_w), None)
    if value is not None:
        raise ValueError(f"offloadable silicon power overflows: {value} W")
    return [w - qa_profile.refrigeration_w for w in silicon_w]

