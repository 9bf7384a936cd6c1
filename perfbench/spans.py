"""Layer spans for the traced benchmark run, installed from outside qaplan.

Each traced function is replaced by a wrapper in every qaplan namespace
that holds it: module attributes (``cli.workload``, ``economics.workload``,
``timeline.workload``, ``tables.workload``, ...) and module-level dicts
(``cli._COMMANDS``). ``restore`` puts the originals back.

Spans are aggregated as they close rather than kept one by one: a 30k-point
sweep opens close to a million of them. Per span name the tracer keeps the
call count, the total time and the self time, which is the span's duration
minus the durations of the traced spans it directly contains.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# Span name -> (defining module, attribute). Several functions may share a
# span name: the five cmd_* functions are one layer, "rows".
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("config.load_config", "qaplan.config", "load_config"),
    ("cli.expand_points", "qaplan.cli", "_expand_points"),
    ("cli.cmd", "qaplan.cli", "cmd_targets"),
    ("cli.cmd", "qaplan.cli", "cmd_power"),
    ("cli.cmd", "qaplan.cli", "cmd_qubits"),
    ("cli.cmd", "qaplan.cli", "cmd_economics"),
    ("cli.cmd", "qaplan.cli", "cmd_timeline"),
    ("workload.workload", "qaplan.workload", "workload"),
    ("qubit_budget.total_budget", "qaplan.qubit_budget", "total_budget"),
    ("economics.compare", "qaplan.economics", "compare"),
    ("economics.cost_report", "qaplan.economics", "cost_report"),
    ("economics.offload_advantage_w", "qaplan.economics", "offload_advantage_w"),
    ("ran_power.bs_power", "qaplan.ran_power", "bs_power"),
    ("ran_power.cran_power", "qaplan.ran_power", "cran_power"),
    ("cmos.cmos_power", "qaplan.cmos", "cmos_power"),
    ("qa_hardware.qmi_runtime_us", "qaplan.qa_hardware", "qmi_runtime_us"),
    ("timeline.year_available", "qaplan.timeline", "year_available"),
    ("emit.render", "qaplan.emit", "render"),
)


class Tracer:
    """Aggregated spans plus the per-layer counts the benchmark reports."""

    def __init__(self) -> None:
        # name -> [calls, total_ns, self_ns]
        self.stats: Dict[str, List[int]] = {}
        self.scenarios: set = set()  # distinct workload() arguments
        self.points = 0  # grid points returned by _expand_points
        self.rows = 0  # rows handed to the renderer
        self.bytes = 0  # characters the renderer returned
        self._stack: List[int] = []  # time covered by children of open spans

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - children
                if stack:
                    stack[-1] += duration
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observer(self, name: str) -> Optional[Callable]:
        if name == "workload.workload":
            return lambda args, result: self.scenarios.add(args[0])
        if name == "cli.expand_points":
            return lambda args, result: setattr(self, "points", self.points + len(result))
        if name == "emit.render":
            def render(args, result):
                self.rows += len(args[0].rows)
                self.bytes += len(result)
            return render
        return None

    def summary(self) -> dict:
        return {
            "spans": {name: list(s) for name, s in self.stats.items()},
            "distinct_scenarios": len(self.scenarios),
            "points": self.points,
            "rows": self.rows,
            "bytes": self.bytes,
        }


Installed = List[Tuple[object, object, Callable]]  # (namespace, key, original)


def install(tracer: Tracer) -> Installed:
    """Wrap every LAYERS function wherever a loaded qaplan module holds it."""
    for module in {m for _, m, _ in LAYERS}:
        importlib.import_module(module)
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "qaplan" or n.startswith("qaplan."))]
    installed: Installed = []
    for name, module, attr in LAYERS:
        original = getattr(sys.modules[module], attr)
        wrapper = tracer.wrap(name, original, tracer._observer(name))
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                    installed.append((ns, key, original))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            installed.append((value, k, original))
    return installed


def restore(installed: Installed) -> None:
    """Undo ``install``: every namespace gets its original function back."""
    for ns, key, original in reversed(installed):
        if isinstance(ns, dict):
            ns[key] = original
        else:
            setattr(ns, key, original)
