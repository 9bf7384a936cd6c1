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

A budget takes two steps, each a column function over cells:
`rate_columns`, each modeled task's problems/s x qubits-per-problem,
which the sample count does not change, and `budget_columns`, the
multiply by the problem runtime (`problem_runtime`, one per sample count)
and the rounding up, in the order `task_qubits` multiplies.
`total_budget` takes both steps for one cell.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Iterable, List, Mapping, NamedTuple, Sequence, Tuple

from .qa_hardware import QaProfile, qmi_runtime_us
from .record import check_non_negative, checked
from .workload import BbuTask, BbuWorkload

# Share of total baseband compute carried by the two modeled tasks at the
# operating points of interest; the rest gets a proportionate qubit count.
MODELED_LOAD_FRACTION = 0.75


@checked
class TaskProblemModel(NamedTuple):
    """How one task decomposes into annealer problem instances."""

    ops_per_problem: float  # silicon operations one instance replaces
    qubits_per_problem: int
    runtime_us: float  # wall time per instance

    def _check(self) -> None:
        if self.ops_per_problem <= 0:
            raise ValueError(f"ops_per_problem must be positive, got {self.ops_per_problem}")
        if self.qubits_per_problem < 1:
            raise ValueError(
                f"qubits_per_problem must be at least 1, got {self.qubits_per_problem}"
            )
        if self.runtime_us <= 0:
            raise ValueError(f"runtime must be positive, got {self.runtime_us}")


def _fdnl_problem_shapes(users: Sequence[int], modulation_bits: Sequence[int]
                         ) -> Tuple[List[float], List[int]]:
    """Operations and qubits of one detection problem per cell, users x
    users MIMO. Sphere decoding needs about 80M operations for the 64x64
    system and scales quadratically with size; the annealer embedding uses
    one qubit per transmitted bit (bits/symbol x users)."""
    for count in users:
        if count < 1:
            raise ValueError(f"users must be at least 1, got {count}")
    return ([80e6 * (count / 64.0) ** 2 for count in users],
            [bits * count for bits, count in zip(modulation_bits, users)])


def ldpc_aux_depth(row_weight: float) -> int:
    """Depth of the auxiliary chain embedding a parity constraint.

    Smallest n >= 0 with 2^(n+1) - 2 covering the (evened) row weight.
    """
    check_non_negative([row_weight], "row_weight")
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


def _qubit_rates(tops: Sequence[float], ops_per_problem: Iterable[float],
                 qubits_per_problem: Iterable[int]) -> List[float]:
    """Problems/s x qubits per problem of each load: qubits held per second
    of problem runtime."""
    check_non_negative(tops, "tops")
    return [value * 1e12 / ops * qubits
            for value, ops, qubits in zip(tops, ops_per_problem, qubits_per_problem)]


def _qubit_counts(tops: Sequence[float], rates: Sequence[float], runtime_us: float) -> List[int]:
    """Qubits to hold each rate over problems of `runtime_us` each."""
    qubits = [rate * runtime_us * 1e-6 for rate in rates]
    if not all(map(math.isfinite, qubits)):
        value = next(v for v, count in zip(tops, qubits) if not math.isfinite(count))
        raise ValueError(f"qubit requirement at {value:g} TOPS is not finite")
    return list(map(math.ceil, qubits))


def task_qubits(tops: float, model: TaskProblemModel) -> int:
    """Qubits to sustain `tops` on problems shaped like `model`."""
    rates = _qubit_rates([tops], [model.ops_per_problem], [model.qubits_per_problem])
    return _qubit_counts([tops], rates, model.runtime_us)[0]


class QubitBudget(NamedTuple):
    """Total qubit requirement for one cell's baseband offload."""

    per_task: Mapping[BbuTask, int]
    total: int
    # Every budget extrapolates from the two modeled tasks alike.
    covered_fraction = MODELED_LOAD_FRACTION


def rate_columns(fdnl_tops: Sequence[float], fec_tops: Sequence[float],
                 antennas: Sequence[int], modulation_bits: Sequence[int]
                 ) -> Tuple[List[float], List[float]]:
    """Each cell's detection and decoding qubits per second of problem
    runtime; detection problems serve one user per antenna."""
    ops, qubits = _fdnl_problem_shapes(antennas, modulation_bits)
    return (_qubit_rates(fdnl_tops, ops, qubits),
            _qubit_rates(fec_tops, repeat(FEC_OPS_PER_PROBLEM),
                         repeat(FEC_QUBITS_PER_PROBLEM)))


def problem_runtime(profile: QaProfile, samples: int) -> float:
    """The per-sample-count step of the qubit ask: the wall time of one
    problem of `samples` samples, which must be positive."""
    runtime = qmi_runtime_us(profile, samples)
    if runtime <= 0:
        raise ValueError(f"runtime must be positive, got {runtime}")
    return runtime


def budget_columns(fdnl_tops: Sequence[float], fdnl_rates: Sequence[float],
                   fec_tops: Sequence[float], fec_rates: Sequence[float],
                   runtime_us: float) -> Tuple[List[int], List[int], List[int]]:
    """Each cell's detection, decoding and total qubits, its rates held over
    problems of `runtime_us`; the two modeled tasks are taken to carry
    `MODELED_LOAD_FRACTION` of the load."""
    fdnl = _qubit_counts(fdnl_tops, fdnl_rates, runtime_us)
    fec = _qubit_counts(fec_tops, fec_rates, runtime_us)
    return fdnl, fec, [math.ceil((a + b) / MODELED_LOAD_FRACTION) for a, b in zip(fdnl, fec)]


def total_budget(load: BbuWorkload, profile: QaProfile, samples: int) -> QubitBudget:
    """Qubit budget for a cell, extrapolated over the unmodeled tasks, every
    problem running `samples` samples: `rate_columns`, then
    `budget_columns`, of one cell."""
    fdnl_tops, fec_tops = [load.tops[BbuTask.FD_NL]], [load.tops[BbuTask.FEC]]
    scenario = load.scenario
    fdnl_rates, fec_rates = rate_columns(fdnl_tops, fec_tops, [scenario.antennas],
                                         [scenario.modulation_bits])
    (fdnl,), (fec,), (total,) = budget_columns(fdnl_tops, fdnl_rates, fec_tops, fec_rates,
                                               problem_runtime(profile, samples))
    return QubitBudget({BbuTask.FD_NL: fdnl, BbuTask.FEC: fec}, total)
