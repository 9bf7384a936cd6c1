"""Annealer hardware model: timing, programming energy, readout, capacity.

One problem instance runs as: program the device, then repeat
anneal/readout/delay once per requested sample. Programming dissipates
on-chip heat proportional to the flux moved into the control DACs, which
sets a thermalization time given the cold-stage cooling power. Separate
helpers size readout parallelism and the qubit capacity of one
refrigeration unit. Device physics and packaging are module constants:
`FULL_SCALE_SFQ`, `KAPPA`, `COOLING_POWER_W`, `DACS_PER_QUBIT`,
`DACS_PER_COUPLER`, `WAFER_RADIUS_MM`, `DIE_EDGE_MM` and `QUBITS_PER_DIE`.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .record import check_non_negative, checked

# Magnetic flux quantum h/2e, webers.
PHI0 = 2.067833848e-15

# Worst-case flux quanta moved per DAC storage loop on a reprogram.
FULL_SCALE_SFQ = 32  # -16..+16 at five-bit precision

# Energy per SFQ move is about kappa * I_c * Phi0; kappa calibrates the
# per-loop dissipation against the device's junction design.
KAPPA = 4.0

# Heat the cold stage removes, watts.
COOLING_POWER_W = 30e-6

# Control DACs per qubit and per coupler.
DACS_PER_QUBIT = 6
DACS_PER_COUPLER = 1

# Packaging of qubit dies in one refrigeration unit.
WAFER_RADIUS_MM = 250.0  # experimental space radius
DIE_EDGE_MM = 0.335  # square die holding one unit cell
QUBITS_PER_DIE = 8


@checked
class QaProfile(NamedTuple):
    """Operating parameters of one annealer generation."""

    name: str
    programming_us: float = 42.0  # per problem, incl. thermalization + reset
    anneal_us: float = 1.0  # per sample
    readout_us: float = 1.0  # per sample
    readout_delay_us: float = 1.0  # per sample, qubit reset interval
    refrigeration_w: float = 25e3  # flat draw of the refrigeration unit

    def _check(self) -> None:
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
    anneal/readout/delay cycle per sample. A count past float range is a
    domain error, not an `OverflowError`.
    """
    if samples < 0 or int(samples) != samples:
        raise ValueError(f"samples must be a non-negative integer, got {samples}")
    try:
        runtime = profile.programming_us + samples * profile.sample_cycle_us
        float(runtime)  # exact where every term is an int, so converted here
        return runtime
    except OverflowError:  # int * float converts the int first
        raise ValueError(
            f"sample count past float range: {len(str(samples))} digits") from None


def dac_count(n_qubits: int, n_couplers: int) -> int:
    """Control DACs needed to program every qubit bias and coupling."""
    if n_qubits < 0 or n_couplers < 0:
        raise ValueError("qubit and coupler counts must be non-negative")
    return DACS_PER_QUBIT * n_qubits + DACS_PER_COUPLER * n_couplers


class ProgrammingEnergy(NamedTuple):
    energy_j: float
    thermalization_s: float
    dacs: int


def programming_energy(n_qubits: int, n_couplers: int, i_c_a: float) -> ProgrammingEnergy:
    """Worst-case on-chip programming dissipation and thermalization time.

    Every DAC loop absorbs `FULL_SCALE_SFQ` flux quanta at kappa*I_c*Phi0
    each; the heat drains at `COOLING_POWER_W`, giving the thermalization
    time as energy / cooling power.
    """
    if i_c_a <= 0:
        raise ValueError(f"critical current must be positive, got {i_c_a}")
    dacs = dac_count(n_qubits, n_couplers)
    energy = dacs * FULL_SCALE_SFQ * KAPPA * i_c_a * PHI0
    return ProgrammingEnergy(
        energy_j=energy,
        thermalization_s=energy / COOLING_POWER_W,
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
    check_non_negative([n_qubits], "n_qubits")
    if scheme == "time-division":
        return math.floor(math.sqrt(n_qubits / 2.0))
    if scheme == "frequency-multiplex":
        if quality_factor is None or quality_factor <= 0:
            raise ValueError("frequency-multiplex readout needs a positive quality factor")
        return min(n_qubits, math.floor(4.0 * quality_factor / 6.0))
    raise ValueError(f"unknown readout scheme {scheme!r}")


def die_count() -> int:
    """Useful square dies on the wafer, edge losses included."""
    ratio = WAFER_RADIUS_MM / DIE_EDGE_MM
    return math.floor(math.pi * ratio * ratio - 1.16 * math.pi * ratio)


def refrigerator_qubit_capacity() -> int:
    """Qubits that fit in one refrigeration unit."""
    return die_count() * QUBITS_PER_DIE
