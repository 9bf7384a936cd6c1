"""One evaluation of the model chain over a block of scenarios.

`Stages` runs the chain for one config over one block at a time, each
stage one call of a model column function: the workload (`task_tops`),
the qubit budget (`rate_columns`, and `budget_columns` once per sample
count, unless an exact bound gives the capacity verdict) and both
deployments (`deployment_columns`, once per cmos node). The CLI reads it
through `cli._table`, and the model-derived paper tables in `tables`
read it at `config.default_config()`, so both reach the model through
this one evaluator. The one-scenario wrappers `workload`,
`total_budget`, `compare`, `cost_report` and `offload_advantage_w` stay
the library's reference API: each cell of `Stages` equals theirs bit for
bit, as the tests check.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from .cmos import CmosProfile
from .config import RunConfig
from .economics import Breakdowns, deployment_columns
from .qa_hardware import refrigerator_qubit_capacity
from .qubit_budget import MODELED_LOAD_FRACTION, budget_columns, problem_runtime, rate_columns
from .workload import SCENARIO_FIELDS, BbuTask, task_tops

_BW, _ANT, _MOD = map(SCENARIO_FIELDS.index, ("bandwidth_mhz", "antennas", "modulation_bits"))
_FD_NL, _FEC = map(list(BbuTask).index, (BbuTask.FD_NL, BbuTask.FEC))


class Stages:
    """The model stages of one config, run over one block at a time. The
    qubit budget is taken once per sample count and block, by whichever
    cell or warning reads it first; a warning's `verdict` takes it only
    where a bound on the block's totals does not fit."""

    def __init__(self, cfg: RunConfig, scale: int = 1) -> None:
        self.cfg, self.scale = cfg, scale
        self.capacity = refrigerator_qubit_capacity()
        self._runtimes: Dict[int, float] = {}

    def start(self, fields: Sequence[Sequence]) -> None:
        """Evaluate the block of scenarios given as one column per
        `SCENARIO_FIELDS` entry."""
        self.bandwidth, self.antennas = fields[_BW], fields[_ANT]
        self._modulation = fields[_MOD]
        self.tops = task_tops(*fields)
        self._rates: Optional[Tuple[List[float], List[float]]] = None
        self._budgets: Dict[int, Tuple[List, ...]] = {}

    def runtime(self, samples: int) -> float:  # once per sample count per call
        if samples not in self._runtimes:
            self._runtimes[samples] = problem_runtime(self.cfg.qa_profile, samples)
        return self._runtimes[samples]

    def rates(self) -> Tuple[List[float], List[float]]:
        """Each scenario's detection and decoding qubits per second of runtime."""
        if self._rates is None:
            tops = self.tops
            self._rates = rate_columns(tops[_FD_NL], tops[_FEC], self.antennas, self._modulation)
        return self._rates

    def budget(self, samples: int) -> Tuple[List, ...]:
        """Each scenario's detection, decoding and total qubits, and its
        capacity verdict: the total times `scale` where that exceeds the
        refrigerator capacity, else None."""
        if samples not in self._budgets:
            runtime, rates = self.runtime(samples), self.rates()  # in the order a row reads
            fdnl, fec, total = budget_columns(self.tops[_FD_NL], rates[0], self.tops[_FEC],
                                              rates[1], runtime)
            # Counts are whole: `t * scale > capacity` where `t > capacity // scale`.
            limit, scale = self.capacity // self.scale, self.scale
            over = ([t * scale if t > limit else None for t in total] if max(total) > limit
                    else [None] * len(total))
            self._budgets[samples] = fdnl, fec, total, over
        return self._budgets[samples]

    def verdict(self, samples: int) -> List[Optional[int]]:
        """`budget(samples)[3]`, from an exact bound where no budget is taken:
        each step of a count is monotone, so no total exceeds that of the
        largest rates; the budget is taken where that is not finite or does not fit."""
        if samples not in self._budgets:
            runtime, (fdnl, fec) = self.runtime(samples), self.rates()  # as `budget` reads
            top = [max(rates) * runtime * 1e-6 for rates in (fdnl, fec)]
            limit = self.capacity // self.scale
            if math.isfinite(sum(fdnl) + sum(fec)) and sum(top) <= limit and math.ceil(
                    (math.ceil(top[0]) + math.ceil(top[1])) / MODELED_LOAD_FRACTION) <= limit:
                return [None] * len(fdnl)
        return self.budget(samples)[3]

    def deployments(self, cmos: CmosProfile) -> Tuple[Breakdowns, Breakdowns, List[float]]:
        """Both candidates' `PowerBreakdown` columns and totals, and the saving."""
        cfg = self.cfg
        return deployment_columns(self.tops, self.antennas, cmos, cfg.qa_profile, cfg.topology)
