"""Baseband workload model.

Computes per-task compute targets (TOPS) for a cell configuration by
scaling a measured reference operating point along six axes: bandwidth,
modulation order, coding rate, antenna count, and time/frequency duty
cycles. Each baseband task has its own scaling exponents.

`task_tops` takes a block of scenarios as one column per axis. An axis
whose column is one object, as for every axis a sweep leaves alone, is
folded: its ratio and powers are taken once, and a power of exactly 1.0
is skipped. The other axes are taken in one pass per ratio, power and
product, in the order of `scale_task`, which it equals bit for bit.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import repeat
from operator import add, is_, mul, truediv
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple

from .record import checked


class BbuTask(Enum):
    """Computational tasks running on a baseband unit."""

    DPD = "dpd"
    FILTER = "filter"
    FFT = "fft"
    FD_LIN = "fd_lin"
    FD_NL = "fd_nl"
    FEC = "fec"
    CPRI = "cpri"
    PCP = "pcp"

    @property
    def label(self) -> str:
        return _TASK_LABELS[self]


_TASK_LABELS = {
    BbuTask.DPD: "DPD",
    BbuTask.FILTER: "Filter",
    BbuTask.FFT: "FFT",
    BbuTask.FD_LIN: "FD(lin)",
    BbuTask.FD_NL: "FD(nonlin)",
    BbuTask.FEC: "FEC",
    BbuTask.CPRI: "CPRI",
    BbuTask.PCP: "PCP",
}


def left_sums(columns: Iterable[Sequence[float]], count: int) -> List[float]:
    """Per entry of `count`, its values across `columns` summed as Python
    3.10 and 3.11 `sum()` sums them: from 0, left to right, rounding each
    addition. From 3.12 `sum()` of floats is compensated and can end a bit
    apart, so the report path sums with this instead."""
    sums: List[float] = [0] * count
    for column in columns:
        sums = list(map(add, sums, column))
    return sums


def left_sum(values: Iterable[float]) -> float:
    """`left_sums` of one entry."""
    return left_sums([[value] for value in values], 1)[0]


# Modulation orders with a defined bits-per-symbol count.
VALID_MODULATION_BITS = (1, 2, 4, 6, 8)


@checked
class CellScenario(NamedTuple):
    """One cell operating point.

    Attributes
    ----------
    bandwidth_mhz : occupied bandwidth in MHz
    modulation_bits : bits per symbol (6 = 64-QAM)
    coding_rate : code rate in (0, 1]
    antennas : antenna / transceiver chain count
    duty_time : fraction of time the cell is active, in (0, 1]
    duty_freq : fraction of spectrum in use, in (0, 1]
    """

    bandwidth_mhz: float
    modulation_bits: int = 6
    coding_rate: float = 1.0
    antennas: int = 1
    duty_time: float = 1.0
    duty_freq: float = 1.0

    def _check(self) -> None:
        for name in ("bandwidth_mhz", "coding_rate", "antennas", "duty_time", "duty_freq"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.bandwidth_mhz <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_mhz}")
        if self.modulation_bits not in VALID_MODULATION_BITS:
            raise ValueError(
                f"modulation_bits must be one of {VALID_MODULATION_BITS}, "
                f"got {self.modulation_bits}"
            )
        if not 0 < self.coding_rate <= 1:
            raise ValueError(f"coding_rate must be in (0, 1], got {self.coding_rate}")
        if self.antennas < 1 or int(self.antennas) != self.antennas:
            raise ValueError(f"antennas must be a positive integer, got {self.antennas}")
        for name in ("duty_time", "duty_freq"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {value}")


@checked
class ScalingExponents(NamedTuple):
    """Per-axis scaling exponents for one task's compute demand."""

    bandwidth: int
    modulation: int
    coding_rate: int
    antennas: int
    duty_time: int
    duty_freq: int

    def _check(self) -> None:
        for name in ("bandwidth", "modulation", "coding_rate", "antennas",
                     "duty_time", "duty_freq"):
            if getattr(self, name) < 0:
                raise ValueError(f"exponent {name} must be non-negative")


# Reference operating point the per-task TOPS figures below were measured at.
REFERENCE_SCENARIO = CellScenario(
    bandwidth_mhz=20.0,
    modulation_bits=6,
    coding_rate=1.0,
    antennas=1,
    duty_time=1.0,
    duty_freq=1.0,
)

# Measured compute demand (TOPS) of each task at the reference point.
REFERENCE_TOPS: Mapping[BbuTask, float] = {
    BbuTask.DPD: 0.160,
    BbuTask.FILTER: 0.400,
    BbuTask.FFT: 0.160,
    BbuTask.FD_LIN: 0.090,
    BbuTask.FD_NL: 0.030,
    BbuTask.FEC: 0.140,
    BbuTask.CPRI: 0.720,
    BbuTask.PCP: 0.400,
}

# Scaling exponents per task, axis order (bw, mod, rate, antennas, dt, df).
# FD equalization splits into a part linear and a part quadratic in antenna
# count; transport (CPRI) and FEC track the full air-interface throughput;
# platform control scales only with antenna count.
SCALING: Mapping[BbuTask, ScalingExponents] = {
    BbuTask.DPD: ScalingExponents(1, 0, 0, 1, 1, 0),
    BbuTask.FILTER: ScalingExponents(1, 0, 0, 1, 1, 0),
    BbuTask.FFT: ScalingExponents(1, 0, 0, 1, 1, 0),
    BbuTask.FD_LIN: ScalingExponents(1, 0, 0, 1, 1, 1),
    BbuTask.FD_NL: ScalingExponents(1, 0, 0, 2, 1, 1),
    BbuTask.FEC: ScalingExponents(1, 1, 1, 1, 1, 1),
    BbuTask.CPRI: ScalingExponents(1, 1, 1, 1, 1, 1),
    BbuTask.PCP: ScalingExponents(0, 0, 0, 1, 0, 0),
}


class BbuWorkload(NamedTuple):
    """Per-task compute targets for one scenario, in TOPS."""

    scenario: CellScenario
    tops: Mapping[BbuTask, float]

    @property
    def total_tops(self) -> float:
        return left_sum(self.tops.values())


def scale_task(task: BbuTask, scenario: CellScenario) -> float:
    """Compute demand of one task at `scenario`, in TOPS: the reference
    demand times each axis ratio to the task's exponent for that axis, in
    axis order. An oracle: the tests hold `task_tops` equal to it bit
    for bit, and the acceptance checks call it."""
    result = REFERENCE_TOPS[task]
    for value, reference, power in zip(scenario, REFERENCE_SCENARIO, SCALING[task]):
        result *= (value / reference) ** power
    return result


# (reference TOPS, (axis, exponent) per nonzero exponent) in task
# order, so `task_tops` looks nothing up per task. Dropping the zero
# exponents keeps every bit of `scale_task`: `ratio ** 0` is exactly 1.0
# for any float, and a product times 1.0 is unchanged.
_TASK_FACTORS = tuple(
    (REFERENCE_TOPS[task],
     tuple((axis, power) for axis, power in enumerate(SCALING[task]) if power))
    for task in BbuTask
)
_TASKS = tuple(BbuTask)
# The fields of `CellScenario`, in order: `task_tops` takes one column of each.
SCENARIO_FIELDS = CellScenario._fields


def _power(ratio: float, power: int) -> float:
    try:
        return ratio ** power
    except OverflowError:  # a float power past range raises rather than giving inf
        return math.inf


def _powers(ratios: List[float], power: int) -> List[float]:
    try:
        return [ratio ** power for ratio in ratios]
    except OverflowError:
        return [_power(ratio, power) for ratio in ratios]


def _fixed(column: Sequence[float]) -> bool:
    """Whether every entry of `column` is one object: one value, of one
    type and sign, which the other entries cannot tell apart from it."""
    return bool(column) and all(map(is_, column, repeat(column[0])))


def task_tops(*scenario_columns: Sequence[float]) -> Tuple[List[float], ...]:
    """Per task, in task order, the TOPS of each scenario given as one
    column per `SCENARIO_FIELDS` entry; each equals `scale_task`.

    A column whose entries are one object, such as an axis a sweep leaves
    alone, is folded: its ratio and each power of it are taken once, a
    power of exactly 1.0 is skipped (a product times 1.0 is unchanged),
    and the others multiply in at their place in `scale_task`'s order. Only
    the other columns are taken entry by entry.

    Raises for the first scenario whose total is past float range.
    """
    count = len(scenario_columns[0])
    ratios = [column[0] / ref if _fixed(column) else list(map(truediv, column, repeat(ref)))
              for column, ref in zip(scenario_columns, REFERENCE_SCENARIO)]
    powered: Dict[Tuple[int, int], Any] = {}
    tops = []
    for result, factors in _TASK_FACTORS:
        column = None  # while None, every entry's product is `result`
        for factor in factors:  # the order of `scale_task`
            if factor not in powered:
                axis, power = factor
                ratio = ratios[axis]
                powered[factor] = (_powers(ratio, power) if type(ratio) is list
                                   else _power(ratio, power))
            value = powered[factor]
            if type(value) is not list:  # a folded column's
                if value == 1.0:
                    continue
                if column is None:
                    result *= value
                    continue
                value = repeat(value)
            column = list(map(mul, repeat(result) if column is None else column, value))
        tops.append([result] * count if column is None else column)
    # Non-negative TOPS sum to inf at worst; a power past range (inf) times
    # an underflowed product (0.0) gives nan. Non-negative TOPS whose grand
    # total is finite and far from the end of float range (so no nan, no
    # inf) sum within range for every scenario, which leaves the sums of
    # each scenario to be taken only otherwise.
    screened = not count or sum(map(sum, tops)) < 1e300 and min(map(min, tops)) >= 0
    if not screened and not all(map(math.isfinite, left_sums(tops, count))):
        raise ValueError(f"compute targets overflow: {math.inf} TOPS")
    return tuple(tops)


def workload(scenario: CellScenario) -> BbuWorkload:
    """Per-task compute targets for a scenario: `task_tops` of one scenario."""
    tops = task_tops(*([value] for value in scenario))
    return BbuWorkload(scenario=scenario, tops=dict(zip(_TASKS, [t[0] for t in tops])))
