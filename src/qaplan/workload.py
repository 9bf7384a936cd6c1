"""Baseband workload model.

Computes per-task compute targets (TOPS) for a cell configuration by
scaling a measured reference operating point along six axes: bandwidth,
modulation order, coding rate, antenna count, and time/frequency duty
cycles. Each baseband task has its own scaling exponents.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from enum import Enum
from functools import reduce
from operator import add
from typing import Dict, Iterable, Mapping


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

    # Members compare by identity, so the C-level identity hash agrees with
    # equality (Enum's hashes the name in Python). No output iterates a set
    # of tasks: every sum walks a fixed task-order tuple.
    __hash__ = object.__hash__

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


def left_sum(values: Iterable[float]) -> float:
    """`sum()` as Python 3.10 and 3.11 compute it: left to right, rounding
    each addition. From 3.12 `sum()` of floats is compensated and can end
    a bit apart, so the report path sums with this instead."""
    return reduce(add, values, 0)


# Modulation orders with a defined bits-per-symbol count.
VALID_MODULATION_BITS = (1, 2, 4, 6, 8)


@dataclass(frozen=True)
class CellScenario:
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

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class ScalingExponents:
    """Per-axis scaling exponents for one task's compute demand."""

    bandwidth: int
    modulation: int
    coding_rate: int
    antennas: int
    duty_time: int
    duty_freq: int

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class BbuWorkload:
    """Per-task compute targets for one scenario, in TOPS."""

    scenario: CellScenario
    tops: Mapping[BbuTask, float]

    @property
    def total_tops(self) -> float:
        return left_sum(self.tops.values())


def _axis_ratios(scenario: CellScenario):
    """Each axis of `scenario` over the reference operating point."""
    reference = REFERENCE_SCENARIO
    return (
        scenario.bandwidth_mhz / reference.bandwidth_mhz,
        scenario.modulation_bits / reference.modulation_bits,
        scenario.coding_rate / reference.coding_rate,
        scenario.antennas / reference.antennas,
        scenario.duty_time / reference.duty_time,
        scenario.duty_freq / reference.duty_freq,
    )


def _scaled(reference_tops: float, powers, ratios) -> float:
    result = reference_tops
    for ratio, power in zip(ratios, powers):
        result *= ratio ** power
    return result


def scale_task(task: BbuTask, scenario: CellScenario) -> float:
    """Compute demand of one task at `scenario`, in TOPS.

    Scales the reference demand by the product of per-axis ratios, each
    raised to the task's exponent for that axis. The reference that
    `workload` equals bit for bit and the acceptance checks compare with.
    """
    return _scaled(REFERENCE_TOPS[task], astuple(SCALING[task]), _axis_ratios(scenario))


# (task, reference TOPS, (axis, exponent) per nonzero exponent) in task
# order, so `workload` looks nothing up per task. Dropping the zero
# exponents keeps every bit of `scale_task`: `ratio ** 0` is exactly 1.0
# for any float, and a product times 1.0 is unchanged.
_TASK_FACTORS = tuple(
    (task, REFERENCE_TOPS[task],
     tuple((axis, power) for axis, power in enumerate(astuple(SCALING[task])) if power))
    for task in BbuTask
)


def workload(scenario: CellScenario) -> BbuWorkload:
    """Per-task compute targets for a scenario, each equal to `scale_task`."""
    ratios = _axis_ratios(scenario)
    tops: Dict[BbuTask, float] = {}
    try:
        for task, result, factors in _TASK_FACTORS:
            for axis, power in factors:  # the order of `_scaled`
                result *= ratios[axis] ** power
            tops[task] = result
    except OverflowError:  # a float power past range raises rather than giving inf
        total = math.inf
    else:
        total = left_sum(tops.values())
    if not math.isfinite(total):
        raise ValueError(f"compute targets overflow: {total} TOPS")
    return BbuWorkload(scenario=scenario, tops=tops)
