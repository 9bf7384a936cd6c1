"""Device-size growth trends and feasibility milestones.

Extrapolates annealer qubit counts from the shipped-hardware record and
finds the first year a trend supplies a required qubit count. One
algorithm finds it: `YearTable.years` looks each count of a column up in
a table of each year's `qubits_at`, and `year_available` is that lookup
of one count.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from itertools import repeat
from typing import List, Mapping, NamedTuple, Sequence

from .record import checked

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


@checked
class GrowthTrend(NamedTuple):
    """Geometric device-size growth anchored at one shipped device."""

    name: str
    anchor_year: int
    anchor_qubits: int
    growth_factor: float  # size multiplier per period

    def _check(self) -> None:
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
    try:
        return math.floor(trend.anchor_qubits * trend.growth_factor ** periods)
    except OverflowError:  # a float power past range raises, and so does floor(inf)
        raise ValueError(f"{trend.name} trend size in {year} is past float range") from None


def year_available(trend: GrowthTrend, required_qubits: int) -> int:
    """First whole year the trend supplies `required_qubits`: its
    `YearTable` lookup of the one count. A count below 1 or above the
    largest float is refused; one the trend passes only past float range
    raises `qubits_at`'s error."""
    return YearTable(trend).years([required_qubits])[0]


def _checked(required_qubits: int) -> int:
    """`required_qubits`, refused where below 1 (nan too) or above the
    largest float: an int by its digits, any other count by its value."""
    if not required_qubits >= 1:
        raise ValueError(f"required_qubits must be positive, got {required_qubits}")
    if required_qubits > sys.float_info.max:
        size = (f"{len(str(required_qubits))} digits" if isinstance(required_qubits, int)
                else repr(required_qubits))
        raise ValueError(f"required_qubits past float range: {size}")
    return required_qubits


class YearTable:
    """The availability years of one trend, looked up in its `qubits_at`
    of the anchor year and of each year after, which it extends as counts
    need; no year's size is below the year before's."""

    def __init__(self, trend: GrowthTrend) -> None:
        self.trend, self.sizes = trend, [qubits_at(trend, trend.anchor_year)]

    def years(self, required_qubits: Sequence[int]) -> List[int]:
        """`year_available` of each count: the first year whose size is
        at least it. A column holding a count below 1 or past the largest
        float is looked up count by count, in order, so the first count
        that is refused or that the trend passes only past float range
        raises."""
        trend, sizes = self.trend, self.sizes
        if not required_qubits:
            return []
        top = max(required_qubits)
        if not (min(required_qubits) >= 1 and top <= sys.float_info.max):
            return [self.years([_checked(count)])[0] for count in required_qubits]
        while sizes[-1] < top:
            sizes.append(qubits_at(trend, trend.anchor_year + len(sizes)))
        return list(map(trend.anchor_year.__add__, map(bisect_left, repeat(sizes),
                                                       required_qubits)))
