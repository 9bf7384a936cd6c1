"""Site-level power models for base stations and centralized RAN.

Component powers (baseband silicon, radio units, power amplifiers) pass
through a chain of supply losses: AC/DC conversion, mains supply, and DC/DC
conversion. Flat loads that bypass the supply chain (e.g. a cryogenic
refrigerator with its own plant) are added after the loss denominator.
A centralized deployment is priced from one pool, a count of like radio
sites, each given by its antenna count and silicon, and the watts of one
site's fronthaul link at full load (`fronthaul_w`); pool and sites share
the default loss chain. A `PowerBreakdown` is a named tuple of the
components whose grid total sums them in field order. `bs_power` and
`cran_power` price one site or deployment; `economics.deployment_columns`
prices a block of them in one loop, in the same float order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .record import check_non_negative, checked

RU_CHAIN_W = 10.8  # watts per transceiver chain
PA_W = 102.6  # watts per power amplifier (incl. antenna feeder)
# Reference fronthaul link: 37 W at full load on 500 Mb/s.
FRONTHAUL_REF_W = 37.0
FRONTHAUL_REF_BPS = 500e6


@checked
class PowerSystemLosses(NamedTuple):
    """Fractional losses of the site power system."""

    sigma_ac: float = 0.09  # air conditioning / cooling
    sigma_ms: float = 0.07  # mains supply
    sigma_dc: float = 0.06  # DC-DC conversion

    def _check(self) -> None:
        for name in ("sigma_ac", "sigma_ms", "sigma_dc"):
            value = getattr(self, name)
            if not 0 <= value < 1:
                raise ValueError(f"{name} must be in [0, 1), got {value}")

    @property
    def supply_factor(self) -> float:
        """Multiplier turning component watts into grid watts."""
        return 1.0 / (
            (1.0 - self.sigma_ac) * (1.0 - self.sigma_ms) * (1.0 - self.sigma_dc)
        )


DEFAULT_LOSSES = PowerSystemLosses()
# Supply overhead per component watt under the default losses: of a
# standalone base station, and of a centralized pool and its sites.
SUPPLY_OVERHEAD = DEFAULT_LOSSES.supply_factor - 1.0


def fronthaul_w(capacity_bps: float) -> float:
    """Watts one fronthaul link draws, provisioned and loaded at its full
    rate. Its full-load draw scales linearly from the reference link, so a
    100 Gb/s link draws 7.4 kW."""
    p_max = FRONTHAUL_REF_W * capacity_bps / FRONTHAUL_REF_BPS
    # The load-proportional draw `p_max * load / capacity` at full load,
    # kept as written: it can differ from `p_max` in the last bit. Past
    # about 4.9e157 b/s, `p_max * capacity` leaves float range: `p_max`.
    draw = p_max * capacity_bps / capacity_bps
    return draw if math.isfinite(draw) else p_max


class PowerBreakdown(NamedTuple):
    """Grid power of a site or deployment, split by component.

    All component fields are pre-loss watts; `power_system_w` is the
    supply-chain overhead on top of them; `refrigeration_w` bypasses the
    supply chain.
    """

    bbu_w: float
    ru_w: float
    pa_w: float
    power_system_w: float
    fronthaul_w: float = 0.0
    refrigeration_w: float = 0.0

    @property
    def total_w(self) -> float:
        """The grid draw: the components summed in field order."""
        bbu, ru, pa, power_system, fronthaul, refrigeration = self
        return bbu + ru + pa + power_system + fronthaul + refrigeration


def bs_power(bbu_w: float, antennas: int, losses: PowerSystemLosses = DEFAULT_LOSSES,
             refrigeration_w: float = 0.0) -> PowerBreakdown:
    """Grid power of a base station drawing `bbu_w` of baseband silicon,
    with one transceiver chain and one PA per antenna. Anything in
    `refrigeration_w` is added after the supply losses. An oracle: the
    tests hold each base station breakdown of
    `economics.deployment_columns`, whose loop fuses the power model for
    speed, equal to it bit for bit; the acceptance checks call it with
    other `losses`."""
    check_non_negative([bbu_w], "bbu_w")
    check_non_negative([antennas], "antennas")
    ru, pa = antennas * RU_CHAIN_W, antennas * PA_W
    overhead = (bbu_w + ru + pa) * (losses.supply_factor - 1.0)
    return PowerBreakdown(bbu_w, ru, pa, overhead, 0.0, refrigeration_w)


def cran_power(bbu_w: float, antennas: int, site_bbu_w: float, link_w: float, n_sites: int,
               refrigeration_w: float = 0.0) -> PowerBreakdown:
    """Grid power of a centralized deployment: a pool drawing `bbu_w` and
    `n_sites` like radio sites, each with one transceiver chain and one PA
    per antenna, `site_bbu_w` of silicon and a fronthaul link drawing
    `link_w`. Pool and sites pass through the default loss chain; links
    and `refrigeration_w` bypass it. An oracle: the tests hold each
    centralized breakdown of `economics.deployment_columns`, whose loop
    fuses the power model for speed, equal to it bit for bit."""
    check_non_negative([bbu_w], "bbu_w")
    check_non_negative([antennas], "antennas")
    check_non_negative([n_sites], "n_sites")
    site_ru, site_pa = antennas * RU_CHAIN_W, antennas * PA_W
    site_overhead = (site_ru + site_pa + site_bbu_w) * SUPPLY_OVERHEAD
    return PowerBreakdown(bbu_w + n_sites * site_bbu_w, n_sites * site_ru, n_sites * site_pa,
                          bbu_w * SUPPLY_OVERHEAD + n_sites * site_overhead, n_sites * link_w,
                          refrigeration_w)
