"""CMOS compute power model.

Power for a compute demand follows from a node's efficiency (TOPS/W) plus
a fixed leakage fraction on top of dynamic power. Efficiencies for future
nodes are projected from the measured 65 nm anchor (`CMOS_65NM`, supplied
at `ANCHOR_VDD`) by supply-voltage (Vdd^2) scaling, quoted to two
significant figures (`round_sig`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .record import check_non_negative, checked


@checked
class CmosProfile(NamedTuple):
    """One process node's compute-efficiency operating point."""

    node: str
    efficiency_tops_per_w: float  # dynamic efficiency, TOPS/W
    leakage_fraction: float = 0.30  # static power as fraction of dynamic

    def _check(self) -> None:
        for name in ("efficiency_tops_per_w", "leakage_fraction"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.efficiency_tops_per_w <= 0:
            raise ValueError(
                f"efficiency must be positive, got {self.efficiency_tops_per_w}"
            )
        check_non_negative([self.leakage_fraction], "leakage_fraction")


# Measured anchor the projections scale from, and its supply voltage.
CMOS_65NM = CmosProfile(node="65nm", efficiency_tops_per_w=0.04)
ANCHOR_VDD = 1.1  # volts


def efficiency_from_vdd(vdd: float) -> float:
    """Project the anchor's dynamic efficiency to a new supply voltage.

    Dynamic energy per op goes as Vdd^2, so efficiency scales as
    (ANCHOR_VDD / vdd)^2 relative to `CMOS_65NM`. A vdd so small that
    the efficiency passes float range, or so large that it underflows to
    zero, raises ValueError.
    """
    if vdd <= 0:
        raise ValueError(f"vdd must be positive, got {vdd}")
    if not math.isfinite(vdd):
        raise ValueError(f"vdd must be finite, got {vdd}")
    # A finite ratio whose square overflows raises; an inf ratio squares to inf.
    try:
        efficiency = CMOS_65NM.efficiency_tops_per_w * (ANCHOR_VDD / vdd) ** 2
    except OverflowError:
        efficiency = math.inf
    if efficiency == math.inf:
        raise ValueError(f"vdd {vdd} projects an efficiency past float range")
    if efficiency == 0.0:
        raise ValueError(f"vdd {vdd} projects an efficiency below float range")
    return efficiency


def round_sig(value: float) -> float:
    """Round to two significant figures."""
    if value == 0:
        return 0.0
    magnitude = math.floor(math.log10(abs(value)))
    return round(value, 1 - magnitude)


def scaled_profile(node: str, vdd: float, mode: str = "as-printed") -> CmosProfile:
    """Profile for a node projected from the 65nm anchor at the given
    supply voltage.

    mode="as-printed" rounds the projected efficiency to two significant
    figures (the precision projections are usually quoted at);
    mode="exact" keeps the full Vdd^2-scaled value. The config's
    `cmos[].mode` key chooses it.
    """
    eff = efficiency_from_vdd(vdd)
    if mode == "as-printed":
        eff = round_sig(eff)
    elif mode != "exact":
        raise ValueError(f"mode must be 'as-printed' or 'exact', got {mode!r}")
    return CmosProfile(node=node, efficiency_tops_per_w=eff,
                       leakage_fraction=CMOS_65NM.leakage_fraction)


# Node roadmap used throughout: a near-term node and an end-of-roadmap node,
# both projected from the 65nm anchor.
CMOS_14NM = scaled_profile("14nm", vdd=0.8)  # 0.076 TOPS/W
CMOS_1_5NM = scaled_profile("1.5nm", vdd=0.4)  # 0.30 TOPS/W

BUILTIN_CMOS = {
    "65nm": CMOS_65NM,
    "14nm": CMOS_14NM,
    "1.5nm": CMOS_1_5NM,
}


def cmos_power(tops: float, profile: CmosProfile) -> float:
    """Watts to sustain `tops` on the given node, leakage included. An
    oracle: the tests hold each task's silicon power in
    `economics.deployment_columns`, whose loop fuses the power model for
    speed, equal to it bit for bit."""
    check_non_negative([tops], "tops")
    return tops / profile.efficiency_tops_per_w * (1.0 + profile.leakage_fraction)
