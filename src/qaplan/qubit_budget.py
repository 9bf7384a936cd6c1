"""Qubit sizing for annealer-offloaded baseband tasks.

The annealer matches a task's compute target when it solves problems at
the same rate the silicon does. For each offloaded task, the target TOPS
converts to problems per second through the task's operation count, and
the qubit requirement is problems/s x qubits-per-problem x seconds-per-
problem: enough problem slots in flight to sustain the rate.

Two tasks have established embeddings and dominate the load: nonlinear
frequency-domain detection and LDPC decoding. The remainder of the
baseband load is covered by provisioning qubits proportionately
(`MODELED_LOAD_FRACTION`). Decoding sizes one code, 5G NR LDPC base
graph 1 (`LDPC_ROWS`, `LDPC_COLS`, `LDPC_ROW_WEIGHT`); its embedding
takes `FEC_QUBITS_PER_PROBLEM` qubits, derived once at import.

A budget is computed in two steps. `qubit_rates` takes the workload
alone: each modeled task's problems/s x qubits-per-problem, which the
sample count does not change. `rates_budget` adds the sample count: the
problem runtime, the multiply by it and the rounding up. The product is
evaluated in the same order as in `task_qubits`, so the split moves no
bit. `total_budget` is the two steps in one call; the cli keeps the
first step per run of equal scenarios and takes the second per sample
count. Neither builds a `TaskProblemModel`: that describes one task's
problems for `task_qubits`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Tuple

from .qa_hardware import QaProfile, qmi_runtime_us
from .workload import BbuTask, BbuWorkload

# Share of total baseband compute carried by the two modeled tasks at the
# operating points of interest; the rest gets a proportionate qubit count.
MODELED_LOAD_FRACTION = 0.75


@dataclass(frozen=True)
class TaskProblemModel:
    """How one task decomposes into annealer problem instances."""

    ops_per_problem: float  # silicon operations one instance replaces
    qubits_per_problem: int
    runtime_us: float  # wall time per instance

    def __post_init__(self) -> None:
        if self.ops_per_problem <= 0:
            raise ValueError(f"ops_per_problem must be positive, got {self.ops_per_problem}")
        if self.qubits_per_problem < 1:
            raise ValueError(
                f"qubits_per_problem must be at least 1, got {self.qubits_per_problem}"
            )
        if self.runtime_us <= 0:
            raise ValueError(f"runtime must be positive, got {self.runtime_us}")


def _fdnl_problem_shape(users: int, modulation_bits: int) -> Tuple[float, int]:
    """Operations and qubits of one detection problem, users x users MIMO.

    Sphere decoding needs about 80M operations for the 64x64 system and
    scales quadratically with size; the annealer embedding uses one qubit
    per transmitted bit (bits/symbol x users).
    """
    if users < 1:
        raise ValueError(f"users must be at least 1, got {users}")
    return 80e6 * (users / 64.0) ** 2, modulation_bits * users


def ldpc_aux_depth(row_weight: float) -> int:
    """Depth of the auxiliary chain embedding a parity constraint.

    Smallest n >= 0 with 2^(n+1) - 2 covering the (evened) row weight.
    """
    if row_weight < 0:
        raise ValueError(f"row_weight must be non-negative, got {row_weight}")
    target = row_weight - math.fmod(row_weight, 2.0)
    n = 0
    while 2 ** (n + 1) - 2 < target:
        n += 1
    return n


# Longest traffic-channel code in current macro deployments, 5G NR LDPC
# base graph 1: the parity-check matrix's rows and columns, and its
# average ones per row.
LDPC_ROWS = 4224
LDPC_COLS = 8448
LDPC_ROW_WEIGHT = 8.64
# Qubits to embed one decoding problem: one per variable plus one
# auxiliary parity chain per row (21120).
FEC_QUBITS_PER_PROBLEM = LDPC_COLS + LDPC_ROWS * ldpc_aux_depth(LDPC_ROW_WEIGHT)
# Decoder operations one problem replaces: the round figure quoted for
# 20 belief-propagation iterations of this code.
FEC_OPS_PER_PROBLEM = 150e6


def _qubit_rate(tops: float, ops_per_problem: float, qubits_per_problem: int) -> float:
    """Problems/s x qubits per problem: qubits held per second of problem runtime."""
    if tops < 0:
        raise ValueError(f"tops must be non-negative, got {tops}")
    return tops * 1e12 / ops_per_problem * qubits_per_problem


def _qubits(tops: float, rate: float, runtime_us: float) -> int:
    """Qubits to hold `rate` over problems of `runtime_us` each."""
    qubits = rate * runtime_us * 1e-6
    if not math.isfinite(qubits):
        raise ValueError(f"qubit requirement at {tops:g} TOPS is not finite")
    return math.ceil(qubits)


def task_qubits(tops: float, model: TaskProblemModel) -> int:
    """Qubits to sustain `tops` on problems shaped like `model`."""
    rate = _qubit_rate(tops, model.ops_per_problem, model.qubits_per_problem)
    return _qubits(tops, rate, model.runtime_us)


class QubitBudget(NamedTuple):
    """Total qubit requirement for one cell's baseband offload."""

    per_task: Mapping[BbuTask, int]
    total: int
    # Every budget extrapolates from the two modeled tasks alike.
    covered_fraction = MODELED_LOAD_FRACTION


class QubitRates(NamedTuple):
    """What a cell's qubit ask holds whatever the sample count: each modeled
    task's TOPS and its qubits per second of problem runtime."""

    fdnl_tops: float
    fdnl_rate: float
    fec_tops: float
    fec_rate: float


def qubit_rates(load: BbuWorkload) -> QubitRates:
    """The per-workload step of `total_budget`.

    Detection problems serve one user per antenna.
    """
    scenario = load.scenario
    fdnl_tops, fec_tops = load.tops[BbuTask.FD_NL], load.tops[BbuTask.FEC]
    return QubitRates(
        fdnl_tops, _qubit_rate(fdnl_tops, *_fdnl_problem_shape(
            scenario.antennas, scenario.modulation_bits)),
        fec_tops, _qubit_rate(fec_tops, FEC_OPS_PER_PROBLEM, FEC_QUBITS_PER_PROBLEM),
    )


def rates_budget(rates: QubitRates, profile: QaProfile, samples: int) -> QubitBudget:
    """The per-sample step of `total_budget`: every problem runs `samples`
    samples, and the two modeled tasks are taken to carry
    `MODELED_LOAD_FRACTION` of the load."""
    runtime = qmi_runtime_us(profile, samples)
    if runtime <= 0:
        raise ValueError(f"runtime must be positive, got {runtime}")
    fdnl = _qubits(rates.fdnl_tops, rates.fdnl_rate, runtime)
    fec = _qubits(rates.fec_tops, rates.fec_rate, runtime)
    return QubitBudget({BbuTask.FD_NL: fdnl, BbuTask.FEC: fec},
                       math.ceil((fdnl + fec) / MODELED_LOAD_FRACTION))


def total_budget(load: BbuWorkload, profile: QaProfile, samples: int) -> QubitBudget:
    """Qubit budget for a cell, extrapolated over the unmodeled tasks."""
    return rates_budget(qubit_rates(load), profile, samples)
