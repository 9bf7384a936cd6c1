"""Deployment comparison and operating economics.

Builds the two candidate deployments for a scenario (all-silicon vs
annealer-offloaded baseband) and prices their power difference. The
annealer side keeps platform control and transport processing on silicon;
in centralized deployments the per-site FFT stage stays on site silicon in
both candidates.

A comparison splits into two steps: the deployments, which depend on the
scenario alone, and the qubit budget, which also depends on the sample
count and is scaled to the deployment's cells. A sweep over samples can
share the first step. Within it, the task lists of pool, sites and
candidates are module constants, a topology's fronthaul link is built
once per topology, and each task's silicon watts once per workload and
node, shared by both candidates, which sum them in task order from 0, as
`left_sum` does. The results (`Deployments`, `ComparisonResult`,
`CostReport`) are named tuples, built with no per-call dict.

A centralized radio site (radios, amplifiers, site silicon, its supply
overhead and fronthaul) is the same for both candidates, so it is built
once and handed to both; they differ only in pool silicon and
refrigeration. Each site total is the site count times one site's value.
Up to three sites this equals, bit for bit, the left-to-right sum over a
list of sites the model once walked: `0 + x` and `x + x` are exact, and
`2x + x` is one rounding of `3x`, as is `3 * x`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, NamedTuple, Sequence, Tuple, Union

from .cmos import CmosProfile, cmos_power
from .qa_hardware import QaProfile
from .qubit_budget import QubitBudget, total_budget
from .ran_power import (
    PA_W,
    RU_CHAIN_W,
    FronthaulLink,
    PowerBreakdown,
    RrhSite,
    bs_power,
    cran_power,
)
from .workload import BbuTask, BbuWorkload, CellScenario, left_sum, workload

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


@dataclass(frozen=True)
class BsTopology:
    """Standalone base station: baseband, radios, and PAs in one cabinet."""

    n_bs: ClassVar[int] = 1


@dataclass(frozen=True)
class CranTopology:
    """Centralized pool serving n identical radio sites over fronthaul."""

    n_bs: int = 3
    fronthaul_capacity_bps: float = 100e9

    def __post_init__(self) -> None:
        if not math.isfinite(self.fronthaul_capacity_bps):
            raise ValueError(
                f"fronthaul capacity must be finite, got {self.fronthaul_capacity_bps}"
            )
        if self.n_bs < 1:
            raise ValueError(f"n_bs must be at least 1, got {self.n_bs}")
        if self.n_bs > MAX_N_BS:
            raise ValueError(f"n_bs must be at most {MAX_N_BS}, got {self.n_bs}")

    @cached_property
    def _link(self) -> FronthaulLink:
        """One site's fronthaul link, provisioned at full rate."""
        return FronthaulLink.scaled_from_reference(
            capacity_bps=self.fronthaul_capacity_bps,
            load_bps=self.fronthaul_capacity_bps,
        )


Topology = Union[BsTopology, CranTopology]


def _sum_at(watts: Sequence[float], at: Sequence[int]) -> float:
    """`left_sum` of the watts at positions `at`, in that order."""
    total = 0
    for i in at:
        total += watts[i]
    return total


# Positions in `_ALL_TASKS` of each task list the candidates sum.
_ALL_AT = tuple(range(len(_ALL_TASKS)))
_RESIDENT_AT = tuple(map(_ALL_TASKS.index, SILICON_RESIDENT_TASKS))
_SITE_AT = tuple(map(_ALL_TASKS.index, _SITE_TASKS))
_CRAN_CMOS_AT = tuple(map(_ALL_TASKS.index, _CRAN_CMOS))


class Deployments(NamedTuple):
    """Grid power of both deployment candidates for one scenario."""

    cmos: PowerBreakdown
    qa: PowerBreakdown

    @property
    def delta_w(self) -> float:
        """Power saved by the annealer candidate (negative = it loses)."""
        return self.cmos.total_w - self.qa.total_w


class ComparisonResult(NamedTuple):
    """Both deployment candidates for one scenario, plus the qubit ask."""

    cmos: PowerBreakdown
    qa: PowerBreakdown
    budget: QubitBudget  # whole-deployment qubit requirement

    delta_w = Deployments.delta_w


def deployments(
    load: BbuWorkload,
    cmos_profile: CmosProfile,
    qa_profile: QaProfile,
    topology: Topology = BsTopology(),
) -> Deployments:
    """Power both candidates for one workload; the sample count does not enter."""
    tops = load.tops
    # Every task's silicon watts, in task order, shared by both candidates.
    watts = [cmos_power(tops[t], cmos_profile) for t in _ALL_TASKS]
    antennas, fridge_w = load.scenario.antennas, qa_profile.refrigeration_w
    if isinstance(topology, BsTopology):
        sides = Deployments(
            bs_power(_sum_at(watts, _ALL_AT), antennas),
            bs_power(_sum_at(watts, _RESIDENT_AT), antennas, refrigeration_w=fridge_w),
        )
    elif isinstance(topology, CranTopology):  # one radio site, shared by both
        n = topology.n_bs
        site = RrhSite(antennas * RU_CHAIN_W, antennas * PA_W, _sum_at(watts, _SITE_AT),
                       topology._link)
        sides = Deployments(
            cran_power(_sum_at(watts, _CRAN_CMOS_AT) * n, site, n),
            cran_power(_sum_at(watts, _RESIDENT_AT) * n, site, n,
                       refrigeration_w=fridge_w),
        )
    else:
        raise ValueError(f"unknown topology {topology!r}")
    # Every component is non-negative, so finite totals mean finite parts.
    for side in (sides.cmos, sides.qa):
        if not math.isfinite(side.total_w):
            raise ValueError(f"deployment power overflows: {side.total_w} W")
    return sides


def deployment_budget(per_bs: QubitBudget, topology: Topology) -> QubitBudget:
    """One cell's qubit budget scaled to the deployment's n_bs cells."""
    n_bs = topology.n_bs
    return QubitBudget(
        per_task={t: n * n_bs for t, n in per_bs.per_task.items()},
        total=per_bs.total * n_bs,
    )


def compare(
    scenario: CellScenario,
    cmos_profile: CmosProfile,
    qa_profile: QaProfile,
    samples: int,
    topology: Topology = BsTopology(),
) -> ComparisonResult:
    """Power both candidates for one scenario and size the annealer.

    The CLI evaluates these steps apart and shares them across rows; the
    reference power table calls this whole.
    """
    load = workload(scenario)
    sides = deployments(load, cmos_profile, qa_profile, topology)
    budget = deployment_budget(total_budget(load, qa_profile, samples), topology)
    return ComparisonResult(sides.cmos, sides.qa, budget)


@dataclass(frozen=True)
class CostAssumptions:
    electricity_price_per_kwh: float = 0.143  # USD
    co2_lb_per_kwh: float = 0.92
    hours_per_year: float = HOURS_PER_YEAR

    def __post_init__(self) -> None:
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


def cost_report(
    delta_w: float,
    horizons_years: Sequence[float] = (1, 2, 5, 10),
    assumptions: CostAssumptions = DEFAULT_COSTS,
) -> CostReport:
    """Price a power saving in electricity dollars and avoided CO2."""
    kwh_per_year = delta_w / 1000.0 * assumptions.hours_per_year
    price, co2_lb = assumptions.electricity_price_per_kwh, assumptions.co2_lb_per_kwh
    opex, co2 = [], []
    for years in horizons_years:
        if years < 0:
            raise ValueError("horizons must be non-negative")
        kwh = kwh_per_year * years
        opex.append(kwh * price)
        co2.append(kwh * co2_lb / LB_PER_METRIC_KILOTON)
    for value in opex + co2:
        if not math.isfinite(value):
            raise ValueError(f"savings of {delta_w:g} W overflow over the horizons")
    return CostReport(delta_w, tuple(opex), tuple(co2))


def offload_advantage_w(
    scenario: CellScenario,
    cmos_profile: CmosProfile,
    qa_profile: QaProfile,
) -> float:
    """Baseband-level watts saved by offloading (negative = loss).

    Compares only what moves: the offloadable tasks' silicon draw against
    the flat refrigeration cost. Supply losses and silicon-resident tasks
    are identical on both sides and cancel.

    The CLI calls `advantage_w` on the workload it already has. This entry
    stays because the benchmark's traced run (`perfbench/spans.py`) wraps
    it by name and fails without it.
    """
    return advantage_w(workload(scenario), cmos_profile, qa_profile)


def advantage_w(load: BbuWorkload, cmos_profile: CmosProfile,
                qa_profile: QaProfile) -> float:
    """`offload_advantage_w` for a workload already computed."""
    movable = left_sum(map(load.tops.__getitem__, OFFLOADABLE_TASKS))
    silicon_w = cmos_power(movable, cmos_profile)
    if not math.isfinite(silicon_w):
        raise ValueError(f"offloadable silicon power overflows: {silicon_w} W")
    return silicon_w - qa_profile.refrigeration_w

