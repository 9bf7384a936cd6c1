"""Device-size growth trends and feasibility milestones.

Extrapolates annealer qubit counts from the shipped-hardware record and
finds the first year a trend supplies a required qubit count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

# Shipped (and announced) device sizes by year.
HISTORICAL_QUBITS: Mapping[int, int] = {
    2011: 128,
    2013: 512,
    2015: 1152,
    2017: 2048,
    2020: 5436,
    2023: 7440,
}

# Years between device generations, the step both trends grow by.
PERIOD_YEARS = 3.0


@dataclass(frozen=True)
class GrowthTrend:
    """Geometric device-size growth anchored at one shipped device."""

    name: str
    anchor_year: int
    anchor_qubits: int
    growth_factor: float  # size multiplier per period

    def __post_init__(self) -> None:
        if self.anchor_qubits < 1:
            raise ValueError(f"anchor_qubits must be positive, got {self.anchor_qubits}")
        if self.growth_factor <= 1.0:
            raise ValueError(f"growth factor must exceed 1, got {self.growth_factor}")


# Optimistic: the fastest recent generation-over-generation jump.
BEST_CASE = GrowthTrend(
    name="best-case",
    anchor_year=2020,
    anchor_qubits=HISTORICAL_QUBITS[2020],
    growth_factor=HISTORICAL_QUBITS[2020] / HISTORICAL_QUBITS[2017],
)

# Conservative: the most recent (announced) jump.
WORST_CASE = GrowthTrend(
    name="worst-case",
    anchor_year=2023,
    anchor_qubits=HISTORICAL_QUBITS[2023],
    growth_factor=HISTORICAL_QUBITS[2023] / HISTORICAL_QUBITS[2020],
)


def qubits_at(trend: GrowthTrend, year: float) -> int:
    """Projected device size in `year` (whole qubits, rounded down)."""
    if year < trend.anchor_year:
        raise ValueError(
            f"{trend.name} trend starts at {trend.anchor_year}; got {year}"
        )
    periods = (year - trend.anchor_year) / PERIOD_YEARS
    return math.floor(trend.anchor_qubits * trend.growth_factor ** periods)


def year_available(trend: GrowthTrend, required_qubits: int) -> int:
    """First whole year the trend supplies `required_qubits`."""
    if required_qubits < 1:
        raise ValueError(f"required_qubits must be positive, got {required_qubits}")
    if required_qubits <= trend.anchor_qubits:
        return trend.anchor_year
    periods = math.log(required_qubits / trend.anchor_qubits) / math.log(
        trend.growth_factor
    )
    year = trend.anchor_year + math.ceil(periods * PERIOD_YEARS)
    # Closed form can land one year off either way after flooring.
    while qubits_at(trend, year) < required_qubits:
        year += 1
    while year > trend.anchor_year and qubits_at(trend, year - 1) >= required_qubits:
        year -= 1
    return year
