"""Site-level power models for base stations and centralized RAN.

Component powers (baseband silicon, radio units, power amplifiers) pass
through a chain of supply losses: AC/DC conversion, mains supply, and DC/DC
conversion. Flat loads that bypass the supply chain (e.g. a cryogenic
refrigerator with its own plant) are added after the loss denominator.
A centralized deployment is priced from one pool, one radio site and a
count of such sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

RU_CHAIN_W = 10.8  # watts per transceiver chain
PA_W = 102.6  # watts per power amplifier (incl. antenna feeder)


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
    def scaled_from_reference(
        cls,
        capacity_bps: float,
        load_bps: float,
        ref_p_max_w: float = 37.0,
        ref_capacity_bps: float = 500e6,
    ) -> "FronthaulLink":
        """Link whose full-load draw scales linearly from a reference link.

        Default reference: 37 W at 500 Mb/s, so a 100 Gb/s link peaks
        at 7.4 kW.
        """
        p_max = ref_p_max_w * capacity_bps / ref_capacity_bps
        return cls(capacity_bps=capacity_bps, load_bps=load_bps, p_max_w=p_max)


def fronthaul_power(link: FronthaulLink) -> float:
    """Watts drawn by a fronthaul link at its current load."""
    return link.p_max_w * link.load_bps / link.capacity_bps


@dataclass(frozen=True)
class RrhSite:
    """One remote radio site: radios, amplifiers, local low-L1 silicon."""

    ru_w: float = 0.0
    pa_w: float = 0.0
    bbu_w: float = 0.0  # local baseband silicon (e.g. FFT stage)
    losses: PowerSystemLosses = DEFAULT_LOSSES
    fronthaul: Optional[FronthaulLink] = None

    @property
    def component_w(self) -> float:
        return self.ru_w + self.pa_w + self.bbu_w


@dataclass(frozen=True)
class PowerBreakdown:
    """Grid power of a site or deployment, split by component.

    All component fields are pre-loss watts; `power_system_w` is the
    supply-chain overhead on top of them; `refrigeration_w` bypasses the
    supply chain. `total_w` is grid draw.
    """

    bbu_w: float
    ru_w: float
    pa_w: float
    power_system_w: float
    fronthaul_w: float = 0.0
    refrigeration_w: float = 0.0

    @property
    def total_w(self) -> float:
        return (
            self.bbu_w
            + self.ru_w
            + self.pa_w
            + self.power_system_w
            + self.fronthaul_w
            + self.refrigeration_w
        )


def bs_power(
    bbu_w: float,
    antennas: int,
    losses: PowerSystemLosses = DEFAULT_LOSSES,
    ru_chain_w: float = RU_CHAIN_W,
    pa_w: float = PA_W,
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
    ru = antennas * ru_chain_w
    pa = antennas * pa_w
    components = bbu_w + ru + pa
    overhead = components * (losses.supply_factor - 1.0)
    return PowerBreakdown(
        bbu_w=bbu_w,
        ru_w=ru,
        pa_w=pa,
        power_system_w=overhead,
        refrigeration_w=refrigeration_w,
    )


def cran_power(
    bbu_w: float,
    losses: PowerSystemLosses = DEFAULT_LOSSES,
    site: RrhSite = RrhSite(),
    n_sites: int = 0,
    refrigeration_w: float = 0.0,
) -> PowerBreakdown:
    """Grid power of a centralized deployment: one pool, `n_sites` radio sites.

    The pooled baseband (`bbu_w`) and every remote site pass through their
    own supply-loss chains; fronthaul links draw load-proportional power
    outside the loss chain, as does `refrigeration_w`. The sites are
    identical: each site total is `n_sites` times one site's value.
    """
    if bbu_w < 0:
        raise ValueError(f"bbu_w must be non-negative, got {bbu_w}")
    if n_sites < 0:
        raise ValueError(f"n_sites must be non-negative, got {n_sites}")
    site_overhead = site.component_w * (site.losses.supply_factor - 1.0)
    fh = 0.0 if site.fronthaul is None else fronthaul_power(site.fronthaul)
    return PowerBreakdown(
        bbu_w=bbu_w + n_sites * site.bbu_w,
        ru_w=n_sites * site.ru_w,
        pa_w=n_sites * site.pa_w,
        power_system_w=bbu_w * (losses.supply_factor - 1.0) + n_sites * site_overhead,
        fronthaul_w=n_sites * fh,
        refrigeration_w=refrigeration_w,
    )
