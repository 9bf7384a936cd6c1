"""Annealer hardware model: timing, programming energy, readout, capacity.

One problem instance runs as: program the device, then repeat
anneal/readout/delay once per requested sample. Programming dissipates
on-chip heat proportional to the flux moved into the control DACs, which
sets a thermalization time given the cold-stage cooling power. Separate
helpers size readout parallelism and the qubit capacity of one
refrigeration unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

# Magnetic flux quantum h/2e, webers.
PHI0 = 2.067833848e-15

# Worst-case flux quanta moved per DAC storage loop on a reprogram.
FULL_SCALE_SFQ = 32  # -16..+16 at five-bit precision

# Energy per SFQ move is about kappa * I_c * Phi0; kappa calibrates the
# per-loop dissipation against the device's junction design.
DEFAULT_KAPPA = 4.0


@dataclass(frozen=True)
class QaProfile:
    """Operating parameters of one annealer generation."""

    name: str
    programming_us: float = 42.0  # per problem, incl. thermalization + reset
    anneal_us: float = 1.0  # per sample
    readout_us: float = 1.0  # per sample
    readout_delay_us: float = 1.0  # per sample, qubit reset interval
    refrigeration_w: float = 25e3  # flat draw of the refrigeration unit

    def __post_init__(self) -> None:
        for name in ("programming_us", "anneal_us", "readout_us",
                     "readout_delay_us", "refrigeration_w"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")

    @property
    def sample_cycle_us(self) -> float:
        """Per-sample time: anneal + readout + readout delay."""
        return self.anneal_us + self.readout_us + self.readout_delay_us


# Projected near-future device: fast readout, microsecond qubit reset.
QA_PROJECTED = QaProfile(name="projected")

# Shipping hardware today: programming 4-40 us and readout 25-150 us
# (midpoints), millisecond-scale conservative reset delay.
QA_CURRENT = QaProfile(
    name="current",
    programming_us=22.0,
    anneal_us=1.0,
    readout_us=87.5,
    readout_delay_us=1000.0,
)

BUILTIN_QA = {p.name: p for p in (QA_PROJECTED, QA_CURRENT)}


def qmi_runtime_us(profile: QaProfile, samples: int) -> float:
    """Wall time of one problem instance, microseconds.

    Affine in the sample count: programming once, then one
    anneal/readout/delay cycle per sample.
    """
    if samples < 0 or int(samples) != samples:
        raise ValueError(f"samples must be a non-negative integer, got {samples}")
    return profile.programming_us + samples * profile.sample_cycle_us


def dac_count(
    n_qubits: int,
    n_couplers: int,
    dacs_per_qubit: int = 6,
    dacs_per_coupler: int = 1,
) -> int:
    """Control DACs needed to program every qubit bias and coupling."""
    if n_qubits < 0 or n_couplers < 0:
        raise ValueError("qubit and coupler counts must be non-negative")
    return dacs_per_qubit * n_qubits + dacs_per_coupler * n_couplers


def coupler_count(n_qubits: int, couplers_per_qubit: float = 15.0) -> int:
    """Couplers in a device topology; each coupler joins two qubits."""
    return int(n_qubits * couplers_per_qubit / 2)


class ProgrammingEnergy(NamedTuple):
    energy_j: float
    thermalization_s: float
    dacs: int


def programming_energy(
    n_qubits: int,
    n_couplers: int,
    i_c_a: float,
    kappa: float = DEFAULT_KAPPA,
    cooling_power_w: float = 30e-6,
    dacs_per_qubit: int = 6,
    dacs_per_coupler: int = 1,
    full_scale_sfq: int = FULL_SCALE_SFQ,
) -> ProgrammingEnergy:
    """Worst-case on-chip programming dissipation and thermalization time.

    Every DAC loop absorbs `full_scale_sfq` flux quanta at kappa*I_c*Phi0
    each; the heat drains at `cooling_power_w`, giving the thermalization
    time as energy / cooling power.
    """
    if i_c_a <= 0:
        raise ValueError(f"critical current must be positive, got {i_c_a}")
    if cooling_power_w <= 0:
        raise ValueError(f"cooling power must be positive, got {cooling_power_w}")
    dacs = dac_count(n_qubits, n_couplers, dacs_per_qubit, dacs_per_coupler)
    energy = dacs * full_scale_sfq * kappa * i_c_a * PHI0
    return ProgrammingEnergy(
        energy_j=energy,
        thermalization_s=energy / cooling_power_w,
        dacs=dacs,
    )


def readout_parallelism(
    n_qubits: int,
    scheme: str = "time-division",
    quality_factor: Optional[float] = None,
) -> int:
    """Qubits read out simultaneously under a readout scheme.

    time-division: one qubit per flux bias line, sqrt(N/2) lines.
    frequency-multiplex: limited by resonator line width within the 4 GHz
    band, 4*Q_r/6 GHz-wide channels, capped at the device size; requires
    `quality_factor`.
    """
    if n_qubits < 0:
        raise ValueError(f"n_qubits must be non-negative, got {n_qubits}")
    if scheme == "time-division":
        return math.floor(math.sqrt(n_qubits / 2.0))
    if scheme == "frequency-multiplex":
        if quality_factor is None or quality_factor <= 0:
            raise ValueError("frequency-multiplex readout needs a positive quality factor")
        return min(n_qubits, math.floor(4.0 * quality_factor / 6.0))
    raise ValueError(f"unknown readout scheme {scheme!r}")


@dataclass(frozen=True)
class DeviceGeometry:
    """Physical packaging of qubit dies in one refrigeration unit."""

    wafer_radius_mm: float = 250.0  # experimental space radius
    die_edge_mm: float = 0.335  # square die holding one unit cell
    qubits_per_die: int = 8

    def __post_init__(self) -> None:
        if self.wafer_radius_mm <= 0 or self.die_edge_mm <= 0:
            raise ValueError("wafer radius and die edge must be positive")
        if self.qubits_per_die < 1:
            raise ValueError("qubits_per_die must be at least 1")


DEFAULT_GEOMETRY = DeviceGeometry()


def die_count(geometry: DeviceGeometry = DEFAULT_GEOMETRY) -> int:
    """Useful square dies on the wafer, edge losses included."""
    ratio = geometry.wafer_radius_mm / geometry.die_edge_mm
    dies = math.pi * ratio * ratio - 1.16 * math.pi * ratio
    return max(0, math.floor(dies))


def refrigerator_qubit_capacity(geometry: DeviceGeometry = DEFAULT_GEOMETRY) -> int:
    """Qubits that fit in one refrigeration unit."""
    return die_count(geometry) * geometry.qubits_per_die
