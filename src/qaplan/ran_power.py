"""Site-level power models for base stations and centralized RAN.

Component powers (baseband silicon, radio units, power amplifiers) pass
through a chain of supply losses: AC/DC conversion, mains supply, and DC/DC
conversion. Flat loads that bypass the supply chain (e.g. a cryogenic
refrigerator with its own plant) are added after the loss denominator.
A centralized deployment is priced from one pool, one radio site
(`RrhSite`, which always has its fronthaul link) and a count of such
sites; pool and sites share the default loss chain. The per-antenna radio
and amplifier draws (`RU_CHAIN_W`, `PA_W`), the reference fronthaul link
(`FRONTHAUL_REF_W`, `FRONTHAUL_REF_BPS`) and the loss chain
(`DEFAULT_LOSSES`) are module constants. A `PowerBreakdown` is a named
tuple that sums its grid total once, when it is built, in field order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

RU_CHAIN_W = 10.8  # watts per transceiver chain
PA_W = 102.6  # watts per power amplifier (incl. antenna feeder)
# Reference fronthaul link: 37 W at full load on 500 Mb/s.
FRONTHAUL_REF_W = 37.0
FRONTHAUL_REF_BPS = 500e6


@dataclass(frozen=True)
class PowerSystemLosses:
    """Fractional losses of the site power system."""

    sigma_ac: float = 0.09  # air conditioning / cooling
    sigma_ms: float = 0.07  # mains supply
    sigma_dc: float = 0.06  # DC-DC conversion

    def __post_init__(self) -> None:
        for name in ("sigma_ac", "sigma_ms", "sigma_dc"):
            value = getattr(self, name)
            if not 0 <= value < 1:
                raise ValueError(f"{name} must be in [0, 1), got {value}")

    @cached_property
    def supply_factor(self) -> float:
        """Multiplier turning component watts into grid watts."""
        return 1.0 / (
            (1.0 - self.sigma_ac) * (1.0 - self.sigma_ms) * (1.0 - self.sigma_dc)
        )


DEFAULT_LOSSES = PowerSystemLosses()
# Supply overhead per component watt of a centralized pool and its sites.
_CRAN_OVERHEAD = DEFAULT_LOSSES.supply_factor - 1.0


@dataclass(frozen=True)
class FronthaulLink:
    """One fronthaul link with load-proportional power draw."""

    capacity_bps: float
    load_bps: float
    p_max_w: float  # draw at full load

    def __post_init__(self) -> None:
        if self.capacity_bps <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity_bps}")
        if not 0 <= self.load_bps <= self.capacity_bps:
            raise ValueError(
                f"load must be in [0, capacity], got {self.load_bps} "
                f"vs {self.capacity_bps}"
            )
        if self.p_max_w < 0:
            raise ValueError(f"p_max must be non-negative, got {self.p_max_w}")

    @classmethod
    def scaled_from_reference(cls, capacity_bps: float, load_bps: float) -> "FronthaulLink":
        """Link whose full-load draw scales linearly from the reference link,
        so a 100 Gb/s link peaks at 7.4 kW."""
        p_max = FRONTHAUL_REF_W * capacity_bps / FRONTHAUL_REF_BPS
        return cls(capacity_bps=capacity_bps, load_bps=load_bps, p_max_w=p_max)


def fronthaul_power(link: FronthaulLink) -> float:
    """Watts drawn by a fronthaul link at its current load."""
    return link.p_max_w * link.load_bps / link.capacity_bps


class RrhSite(NamedTuple):
    """One remote radio site: radios, amplifiers, local low-L1 silicon."""

    ru_w: float
    pa_w: float
    bbu_w: float  # local baseband silicon (e.g. FFT stage)
    fronthaul: FronthaulLink

    @property
    def component_w(self) -> float:
        return self.ru_w + self.pa_w + self.bbu_w


class _Components(NamedTuple):
    bbu_w: float
    ru_w: float
    pa_w: float
    power_system_w: float
    fronthaul_w: float
    refrigeration_w: float
    total_w: float


class PowerBreakdown(_Components):
    """Grid power of a site or deployment, split by component.

    All component fields are pre-loss watts; `power_system_w` is the
    supply-chain overhead on top of them; `refrigeration_w` bypasses the
    supply chain. `total_w`, the grid draw, is their sum in field order,
    taken when the breakdown is built; it is never passed in, so a copy
    or `_replace` sums it again.
    """

    __slots__ = ()

    def __new__(cls, bbu_w: float, ru_w: float, pa_w: float, power_system_w: float,
                fronthaul_w: float = 0.0, refrigeration_w: float = 0.0) -> "PowerBreakdown":
        return tuple.__new__(cls, (
            bbu_w, ru_w, pa_w, power_system_w, fronthaul_w, refrigeration_w,
            bbu_w + ru_w + pa_w + power_system_w + fronthaul_w + refrigeration_w))

    def __getnewargs__(self) -> tuple:
        return self[:6]

    @classmethod
    def _make(cls, values) -> "PowerBreakdown":
        return cls(*tuple(values)[:6])


def bs_power(
    bbu_w: float,
    antennas: int,
    losses: PowerSystemLosses = DEFAULT_LOSSES,
    refrigeration_w: float = 0.0,
) -> PowerBreakdown:
    """Grid power of one base station.

    `bbu_w` is the baseband silicon draw; one transceiver chain and one PA
    per antenna. Anything in `refrigeration_w` is added after the supply
    losses.
    """
    if bbu_w < 0:
        raise ValueError(f"bbu_w must be non-negative, got {bbu_w}")
    if antennas < 0:
        raise ValueError(f"antennas must be non-negative, got {antennas}")
    ru = antennas * RU_CHAIN_W
    pa = antennas * PA_W
    components = bbu_w + ru + pa
    overhead = components * (losses.supply_factor - 1.0)
    return PowerBreakdown(bbu_w, ru, pa, overhead, 0.0, refrigeration_w)


def cran_power(
    bbu_w: float,
    site: RrhSite,
    n_sites: int,
    refrigeration_w: float = 0.0,
) -> PowerBreakdown:
    """Grid power of a centralized deployment: one pool, `n_sites` radio sites.

    The pooled baseband (`bbu_w`) and every remote site pass through the
    default supply-loss chain; fronthaul links draw load-proportional power
    outside the loss chain, as does `refrigeration_w`. The sites are
    identical: each site total is `n_sites` times one site's value.
    """
    if bbu_w < 0:
        raise ValueError(f"bbu_w must be non-negative, got {bbu_w}")
    if n_sites < 0:
        raise ValueError(f"n_sites must be non-negative, got {n_sites}")
    site_overhead = site.component_w * _CRAN_OVERHEAD
    return PowerBreakdown(
        bbu_w + n_sites * site.bbu_w,
        n_sites * site.ru_w,
        n_sites * site.pa_w,
        bbu_w * _CRAN_OVERHEAD + n_sites * site_overhead,
        n_sites * fronthaul_power(site.fronthaul),
        refrigeration_w,
    )
