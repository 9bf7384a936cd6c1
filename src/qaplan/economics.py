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
node, shared by both candidates, which sum them in task order.

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
from typing import ClassVar, Dict, Sequence, Tuple, Union

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

# Tasks an annealer can take over; control and transport stay on silicon.
OFFLOADABLE_TASKS = frozenset({
    BbuTask.DPD, BbuTask.FILTER, BbuTask.FFT,
    BbuTask.FD_LIN, BbuTask.FD_NL, BbuTask.FEC,
})
SILICON_RESIDENT_TASKS = frozenset({BbuTask.PCP, BbuTask.CPRI})
# The same sets in task order, which fixes the order watts are summed in.
# A standalone station runs `_ALL_TASKS` on all-silicon baseband and
# `_SILICON_RESIDENT_ORDER` beside the annealer.
_ALL_TASKS = tuple(BbuTask)
_OFFLOADABLE_ORDER = tuple(t for t in BbuTask if t in OFFLOADABLE_TASKS)
_SILICON_RESIDENT_ORDER = tuple(t for t in BbuTask if t in SILICON_RESIDENT_TASKS)
# Low-L1 processing pinned at every centralized radio site in both
# candidates, and what the all-silicon pool keeps. The annealer's pool keeps
# `_SILICON_RESIDENT_ORDER`, as a standalone station does.
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


def _task_watts(load: BbuWorkload, profile: CmosProfile) -> Dict[BbuTask, float]:
    """Silicon watts of every task, shared by both candidates."""
    tops = load.tops
    return {t: cmos_power(tops[t], profile) for t in _ALL_TASKS}


@dataclass(frozen=True)
class Deployments:
    """Grid power of both deployment candidates for one scenario."""

    cmos: PowerBreakdown
    qa: PowerBreakdown

    @property
    def delta_w(self) -> float:
        """Power saved by the annealer candidate (negative = it loses)."""
        return self.cmos.total_w - self.qa.total_w


@dataclass(frozen=True)
class ComparisonResult(Deployments):
    """Both deployment candidates for one scenario, plus the qubit ask."""

    budget: QubitBudget  # whole-deployment qubit requirement


def deployments(
    load: BbuWorkload,
    cmos_profile: CmosProfile,
    qa_profile: QaProfile,
    topology: Topology = BsTopology(),
) -> Deployments:
    """Power both candidates for one workload; the sample count does not enter."""
    watts = _task_watts(load, cmos_profile).__getitem__
    antennas, fridge_w = load.scenario.antennas, qa_profile.refrigeration_w
    if isinstance(topology, BsTopology):
        sides = Deployments(
            cmos=bs_power(left_sum(map(watts, _ALL_TASKS)), antennas),
            qa=bs_power(left_sum(map(watts, _SILICON_RESIDENT_ORDER)), antennas,
                        refrigeration_w=fridge_w),
        )
    elif isinstance(topology, CranTopology):  # one radio site, shared by both
        n = topology.n_bs
        site = RrhSite(
            ru_w=antennas * RU_CHAIN_W,
            pa_w=antennas * PA_W,
            bbu_w=left_sum(map(watts, _SITE_TASKS)),
            fronthaul=topology._link,
        )
        sides = Deployments(
            cmos=cran_power(left_sum(map(watts, _CRAN_CMOS)) * n, site, n),
            qa=cran_power(left_sum(map(watts, _SILICON_RESIDENT_ORDER)) * n, site, n,
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
        covered_fraction=per_bs.covered_fraction,
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
    return ComparisonResult(cmos=sides.cmos, qa=sides.qa, budget=budget)


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


@dataclass(frozen=True)
class CostReport:
    """Savings from a power delta over a set of horizons."""

    delta_w: float
    horizons_years: Tuple[float, ...]
    opex_savings_usd: Tuple[float, ...]
    co2_savings_kt: Tuple[float, ...]


def cost_report(
    delta_w: float,
    horizons_years: Sequence[float] = (1, 2, 5, 10),
    assumptions: CostAssumptions = DEFAULT_COSTS,
) -> CostReport:
    """Price a power saving in electricity dollars and avoided CO2."""
    if any(y < 0 for y in horizons_years):
        raise ValueError("horizons must be non-negative")
    kwh_per_year = delta_w / 1000.0 * assumptions.hours_per_year
    opex = tuple(
        kwh_per_year * years * assumptions.electricity_price_per_kwh
        for years in horizons_years
    )
    co2 = tuple(
        kwh_per_year * years * assumptions.co2_lb_per_kwh / LB_PER_METRIC_KILOTON
        for years in horizons_years
    )
    if not all(map(math.isfinite, opex + co2)):
        raise ValueError(f"savings of {delta_w:g} W overflow over the horizons")
    return CostReport(
        delta_w=delta_w,
        horizons_years=tuple(horizons_years),
        opex_savings_usd=opex,
        co2_savings_kt=co2,
    )


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
    movable = left_sum(map(load.tops.__getitem__, _OFFLOADABLE_ORDER))
    silicon_w = cmos_power(movable, cmos_profile)
    if not math.isfinite(silicon_w):
        raise ValueError(f"offloadable silicon power overflows: {silicon_w} W")
    return silicon_w - qa_profile.refrigeration_w

