"""CMOS compute power model.

Power for a compute demand follows from a node's efficiency (TOPS/W) plus
a fixed leakage fraction on top of dynamic power. Efficiencies for future
nodes are projected from a measured anchor node by supply-voltage (Vdd^2)
scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CmosProfile:
    """One process node's compute-efficiency operating point."""

    node: str
    vdd: float  # supply voltage, volts
    efficiency_tops_per_w: float  # dynamic efficiency, TOPS/W
    leakage_fraction: float = 0.30  # static power as fraction of dynamic

    def __post_init__(self) -> None:
        for name in ("vdd", "efficiency_tops_per_w", "leakage_fraction"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.vdd <= 0:
            raise ValueError(f"vdd must be positive, got {self.vdd}")
        if self.efficiency_tops_per_w <= 0:
            raise ValueError(
                f"efficiency must be positive, got {self.efficiency_tops_per_w}"
            )
        if self.leakage_fraction < 0:
            raise ValueError(
                f"leakage_fraction must be non-negative, got {self.leakage_fraction}"
            )


# Measured anchor the projections scale from.
CMOS_65NM = CmosProfile(node="65nm", vdd=1.1, efficiency_tops_per_w=0.04)


def efficiency_from_vdd(base: CmosProfile, vdd: float) -> float:
    """Project dynamic efficiency at a new supply voltage.

    Dynamic energy per op goes as Vdd^2, so efficiency scales as
    (vdd_base / vdd)^2 relative to the base profile.
    """
    if vdd <= 0:
        raise ValueError(f"vdd must be positive, got {vdd}")
    return base.efficiency_tops_per_w * (base.vdd / vdd) ** 2


def round_sig(value: float, digits: int = 2) -> float:
    """Round to `digits` significant figures."""
    if value == 0:
        return 0.0
    magnitude = math.floor(math.log10(abs(value)))
    return round(value, digits - 1 - magnitude)


def scaled_profile(node: str, vdd: float, mode: str = "as-printed") -> CmosProfile:
    """Profile for a node projected from the 65nm anchor at the given
    supply voltage.

    mode="as-printed" rounds the projected efficiency to two significant
    figures (the precision projections are usually quoted at);
    mode="exact" keeps the full Vdd^2-scaled value. The config's
    `cmos[].mode` key chooses it.
    """
    eff = efficiency_from_vdd(CMOS_65NM, vdd)
    if mode == "as-printed":
        eff = round_sig(eff, 2)
    elif mode != "exact":
        raise ValueError(f"mode must be 'as-printed' or 'exact', got {mode!r}")
    return CmosProfile(node=node, vdd=vdd,
                       efficiency_tops_per_w=eff,
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
    """Watts to sustain `tops` on the given node, leakage included."""
    if tops < 0:
        raise ValueError(f"tops must be non-negative, got {tops}")
    dynamic = tops / profile.efficiency_tops_per_w
    return dynamic * (1.0 + profile.leakage_fraction)
