"""Deployment comparison and operating economics.

Builds the two candidate deployments for a scenario (all-silicon vs
annealer-offloaded baseband), prices their power difference, and finds
the bandwidth where the annealer starts winning. The annealer side keeps
platform control and transport processing on silicon; in centralized
deployments the per-site FFT stage stays on site silicon in both
candidates.

A comparison splits into two steps: the deployments, which depend on the
scenario alone, and the qubit budget, which also depends on the sample
count and is scaled to the deployment's cells. A sweep over samples can
share the first step. Within it, what depends only on the topology (the
task orders of pool, sites and candidates, and the fronthaul link) is
built once per topology, and each task's silicon watts once per workload
and node, shared by both candidates, which sum them in task order.

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
from typing import ClassVar, Dict, Optional, Sequence, Tuple, Union

from .cmos import CmosProfile, cmos_power
from .qa_hardware import QaProfile, refrigerator_qubit_capacity
from .qubit_budget import QubitBudget, total_budget
from .ran_power import (
    DEFAULT_LOSSES,
    PA_W,
    RU_CHAIN_W,
    FronthaulLink,
    PowerBreakdown,
    PowerSystemLosses,
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
_ALL_TASKS = tuple(BbuTask)
_OFFLOADABLE_ORDER = tuple(t for t in BbuTask if t in OFFLOADABLE_TASKS)
_SILICON_RESIDENT_ORDER = tuple(t for t in BbuTask if t in SILICON_RESIDENT_TASKS)

HOURS_PER_YEAR = 8760.0
LB_PER_METRIC_KILOTON = 2_204_622.6
# Most remote sites one pool may serve. The power model costs the same at
# any count; the bound stays because a count beyond float range would
# overflow when the model multiplies a site's watts by it.
MAX_N_BS = 10_000


class _Layout:
    """What the power model reads of a topology, in task order.

    `cmos` and `qa` are the tasks each candidate runs on its pooled (for a
    standalone station, its only) baseband silicon; `site` the tasks pinned
    at every radio site; `link` one site's fronthaul link. A plain class:
    a `NamedTuple` would cost about 0.2 ms at import.
    """

    __slots__ = ("cmos", "qa", "site", "link")

    def __init__(self, cmos: Tuple[BbuTask, ...], qa: Tuple[BbuTask, ...],
                 site: Tuple[BbuTask, ...] = (),
                 link: Optional[FronthaulLink] = None) -> None:
        self.cmos, self.qa, self.site, self.link = cmos, qa, site, link


@dataclass(frozen=True)
class BsTopology:
    """Standalone base station: baseband, radios, and PAs in one cabinet."""

    losses: PowerSystemLosses = DEFAULT_LOSSES
    n_bs: ClassVar[int] = 1
    _layout: ClassVar[_Layout] = _Layout(cmos=_ALL_TASKS, qa=_SILICON_RESIDENT_ORDER)


@dataclass(frozen=True)
class CranTopology:
    """Centralized pool serving n identical radio sites over fronthaul."""

    n_bs: int = 3
    fronthaul_capacity_bps: float = 100e9
    pool_losses: PowerSystemLosses = DEFAULT_LOSSES
    site_losses: PowerSystemLosses = DEFAULT_LOSSES
    # Low-L1 processing pinned at the radio site in every candidate.
    site_tasks: frozenset = frozenset({BbuTask.FFT})

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
    def _layout(self) -> _Layout:
        site = self.site_tasks
        return _Layout(
            cmos=tuple(t for t in _ALL_TASKS if t not in site),
            qa=tuple(t for t in _SILICON_RESIDENT_ORDER if t not in site),
            site=tuple(t for t in _ALL_TASKS if t in site),
            link=FronthaulLink.scaled_from_reference(
                capacity_bps=self.fronthaul_capacity_bps,
                load_bps=self.fronthaul_capacity_bps,  # provisioned at full rate
            ),
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

    scenario: CellScenario
    budget: QubitBudget  # whole-deployment qubit requirement
    capacity: int  # qubits one refrigeration unit can hold
    capacity_exceeded: bool


def deployments(
    load: BbuWorkload,
    cmos_profile: CmosProfile,
    qa_profile: QaProfile,
    topology: Topology = BsTopology(),
) -> Deployments:
    """Power both candidates for one workload; the sample count does not enter."""
    if not isinstance(topology, (BsTopology, CranTopology)):
        raise ValueError(f"unknown topology {topology!r}")
    layout = topology._layout
    watts = _task_watts(load, cmos_profile).__getitem__
    cmos_w, qa_w = left_sum(map(watts, layout.cmos)), left_sum(map(watts, layout.qa))
    antennas, fridge_w = load.scenario.antennas, qa_profile.refrigeration_w
    if isinstance(topology, BsTopology):
        sides = Deployments(
            cmos=bs_power(cmos_w, antennas, topology.losses),
            qa=bs_power(qa_w, antennas, topology.losses, refrigeration_w=fridge_w),
        )
    else:  # one radio site, shared by both candidates
        n, losses = topology.n_bs, topology.pool_losses
        site = RrhSite(
            ru_w=antennas * RU_CHAIN_W,
            pa_w=antennas * PA_W,
            bbu_w=left_sum(map(watts, layout.site)),
            losses=topology.site_losses,
            fronthaul=layout.link,
        )
        sides = Deployments(
            cmos=cran_power(cmos_w * n, losses, site, n),
            qa=cran_power(qa_w * n, losses, site, n, refrigeration_w=fridge_w),
        )
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

    A budget above one refrigeration unit's capacity is reported via
    `capacity_exceeded`, not raised: the comparison is still meaningful
    as a lower bound.
    """
    load = workload(scenario)
    sides = deployments(load, cmos_profile, qa_profile, topology)
    budget = deployment_budget(total_budget(load, qa_profile, samples), topology)
    capacity = refrigerator_qubit_capacity()
    return ComparisonResult(
        cmos=sides.cmos,
        qa=sides.qa,
        scenario=scenario,
        budget=budget,
        capacity=capacity,
        capacity_exceeded=budget.total > capacity,
    )


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

    @property
    def breakeven_capex_usd(self) -> Tuple[float, ...]:
        """Largest hardware spend the savings recoup per horizon."""
        return self.opex_savings_usd


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
    """
    return advantage_w(workload(scenario), cmos_profile, qa_profile)


def advantage_w(load: BbuWorkload, cmos_profile: CmosProfile,
                qa_profile: QaProfile) -> float:
    """`offload_advantage_w` for a workload already computed."""
    movable = load.subset_tops(_OFFLOADABLE_ORDER)
    silicon_w = cmos_power(movable, cmos_profile)
    if not math.isfinite(silicon_w):
        raise ValueError(f"offloadable silicon power overflows: {silicon_w} W")
    return silicon_w - qa_profile.refrigeration_w


def crossover_bandwidth_mhz(
    antennas: int,
    cmos_profile: CmosProfile,
    qa_profile: QaProfile,
    grid_mhz: Sequence[float] = tuple(range(10, 1001, 10)),
    modulation_bits: int = 6,
    coding_rate: float = 0.5,
) -> Optional[float]:
    """Smallest grid bandwidth where the annealer wins on baseband power.

    Returns None if the annealer never wins within the grid.
    """
    if antennas < 1:
        raise ValueError(f"antennas must be at least 1, got {antennas}")
    for bw in grid_mhz:
        scenario = CellScenario(
            bandwidth_mhz=bw,
            modulation_bits=modulation_bits,
            coding_rate=coding_rate,
            antennas=antennas,
        )
        if offload_advantage_w(scenario, cmos_profile, qa_profile) > 0:
            return bw
    return None
