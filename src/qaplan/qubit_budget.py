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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, ClassVar, Dict, Mapping, Optional

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


def fdnl_problem_model(
    profile: QaProfile,
    samples: int,
    users: int,
    modulation_bits: int,
) -> TaskProblemModel:
    """Detection problem for a users x users MIMO system.

    Sphere decoding needs about 80M operations for the 64x64 system and
    scales quadratically with size; the annealer embedding uses one qubit
    per transmitted bit (bits/symbol x users).
    """
    if users < 1:
        raise ValueError(f"users must be at least 1, got {users}")
    ops = 80e6 * (users / 64.0) ** 2
    qubits = modulation_bits * users
    return TaskProblemModel(
        ops_per_problem=ops,
        qubits_per_problem=qubits,
        runtime_us=qmi_runtime_us(profile, samples),
    )


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


def fec_problem_model(profile: QaProfile, samples: int) -> TaskProblemModel:
    """Decoding problem for one code block of the 5G NR code above."""
    return TaskProblemModel(
        ops_per_problem=FEC_OPS_PER_PROBLEM,
        qubits_per_problem=FEC_QUBITS_PER_PROBLEM,
        runtime_us=qmi_runtime_us(profile, samples),
    )


def task_qubits(tops: float, model: TaskProblemModel) -> int:
    """Qubits to sustain `tops` on problems shaped like `model`."""
    if tops < 0:
        raise ValueError(f"tops must be non-negative, got {tops}")
    pps = tops * 1e12 / model.ops_per_problem
    qubits = pps * model.qubits_per_problem * model.runtime_us * 1e-6
    if not math.isfinite(qubits):
        raise ValueError(f"qubit requirement at {tops:g} TOPS is not finite")
    return math.ceil(qubits)


@dataclass(frozen=True)
class QubitBudget:
    """Total qubit requirement for one cell's baseband offload."""

    per_task: Mapping[BbuTask, int]
    total: int
    # Every budget extrapolates from the two modeled tasks alike.
    covered_fraction: ClassVar[float] = MODELED_LOAD_FRACTION


class ProblemModels:
    """The detection and decoding problem models of one qa profile.

    `fdnl(samples, users, modulation_bits)` and `fec(samples)` build each
    model once and then return the same object. The cache keys are plain
    ints, so a sweep never hashes the profile per point, and the caches
    are bounded, so memory stays flat over any number of antenna counts.
    """

    def __init__(self, profile: QaProfile) -> None:
        cache = lru_cache(maxsize=4096)
        self.fdnl: Callable[[int, int, int], TaskProblemModel] = cache(
            partial(fdnl_problem_model, profile))
        self.fec: Callable[[int], TaskProblemModel] = cache(
            partial(fec_problem_model, profile))


def total_budget(load: BbuWorkload, profile: QaProfile, samples: int,
                 models: Optional[ProblemModels] = None) -> QubitBudget:
    """Qubit budget for a cell, extrapolated over the unmodeled tasks.

    Detection problems serve one user per antenna; the two modeled tasks
    are taken to carry `MODELED_LOAD_FRACTION` of the load. `models`, built
    for the same `profile`, shares the problem models across calls.
    """
    if models is None:
        models = ProblemModels(profile)
    scenario = load.scenario
    fdnl = models.fdnl(samples, scenario.antennas, scenario.modulation_bits)
    fec = models.fec(samples)
    per_task: Dict[BbuTask, int] = {
        BbuTask.FD_NL: task_qubits(load.tops[BbuTask.FD_NL], fdnl),
        BbuTask.FEC: task_qubits(load.tops[BbuTask.FEC], fec),
    }
    return QubitBudget(
        per_task=per_task,
        total=math.ceil(sum(per_task.values()) / MODELED_LOAD_FRACTION),
    )
