"""Command-line interface.

Subcommands evaluate the configured scenarios and emit one table per
invocation in csv, json, or fixed-width text. Output is deterministic:
the same config and flags produce byte-identical bytes. Exit codes:
0 success, 1 config problem, 2 model-domain error, 3 success with
warnings (warnings go to stderr).

Every subcommand is a list of columns over the rows of one staged
evaluation (`_rows`), which groups consecutive points with an equal
scenario into runs, as a sweep over samples produces them. A run
computes its workload once, its qubit budget once per sample count and,
per cmos node, the deployments, cost report and offload advantage once,
each on first use. What does not depend on the scenario is built once
per call, not per row: the problem models behind the budgets once per
sample count (`ProblemModels`), and the topology's task layout and
fronthaul link once per topology. Besides those bounded caches nothing
outlives a run.

The table's rows are not held either: a subcommand returns a table whose
rows are a one-pass stream (`_Stream`). Each row dict is built, and its
warning gathered, when the renderer reads it, and is dropped once
rendered, so memory stays flat in the number of points. The stream
answers `len()` up front: the point count, times the cmos node count on
per-node tables. The rendered text is held whole and written only once
the call has succeeded, so a failing call prints nothing on stdout and
creates no `--out` file.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .cmos import CmosProfile
from .config import (_INTEGER_AXES, SWEEP_AXES, ConfigError, RunConfig, _parse_sweep,
                     load_config)
from .economics import CostReport, Deployments, advantage_w, cost_report, deployments
from .emit import Cell, Column, Table, render
from .qa_hardware import qmi_runtime_us, refrigerator_qubit_capacity
from .qubit_budget import ProblemModels, QubitBudget, total_budget
from .tables import PAPER_TABLES
from .timeline import BEST_CASE, WORST_CASE, year_available
from .workload import BbuTask, BbuWorkload, CellScenario, workload

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DOMAIN = 2
EXIT_WARNINGS = 3

Point = Tuple[str, CellScenario, int]  # row name, scenario, samples


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are config problems; keep them on exit code 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="json config file (default: $QAPLAN_CONFIG or built-ins)")
    parser.add_argument("--format", choices=("csv", "json", "table"),
                        default="table", help="output format (default: table)")
    parser.add_argument("--out", metavar="PATH",
                        help="write output to a file instead of stdout")
    parser.add_argument("--sweep", action="append", default=[], metavar="AXIS=V1,V2,...",
                        help="sweep an axis over values; repeatable; overrides "
                             f"config sweep; axes: {', '.join(SWEEP_AXES)}")
    parser.add_argument("--paper-table", choices=sorted(PAPER_TABLES),
                        help="emit a reference report instead of evaluating "
                             "the configured scenarios")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qaplan",
        description="Feasibility planner for annealer-offloaded baseband processing",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("targets", "per-task compute targets (TOPS) per scenario"),
        ("power", "deployment power for silicon and annealer candidates"),
        ("qubits", "annealer qubit requirement per scenario"),
        ("economics", "operating savings of the annealer candidate"),
        ("timeline", "when the required device sizes become available"),
    ):
        _add_common_flags(sub.add_parser(name, help=help_text))
    return parser


def _parse_sweep_flags(flags: Sequence[str]) -> Dict[str, List[float]]:
    sweep: Dict[str, List[float]] = {}
    for flag in flags:
        axis, sep, values = flag.partition("=")
        if not sep or not values:
            raise ConfigError(f"--sweep needs AXIS=V1,V2,...; got {flag!r}")
        if axis not in SWEEP_AXES:
            raise ConfigError(
                f"unknown sweep axis {axis!r}; axes: {', '.join(SWEEP_AXES)}"
            )
        cast = int if axis in _INTEGER_AXES else float
        try:  # the text first; `_parse_sweep` refuses strings
            numbers = [cast(v) for v in values.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--sweep {axis}: {exc}") from exc
        sweep.update(_parse_sweep({axis: numbers}, where="--sweep "))
    return sweep


def _label(value: float) -> str:
    """`:g` where it reads back as the same value, else the exact repr."""
    try:
        text = format(value, "g")
    except OverflowError:  # an int too large for a float
        return repr(value)
    return text if float(text) == value else repr(value)


def _expand_points(
    cfg: RunConfig, sweep: Dict[str, List[float]], warnings: List[str]
) -> List[Point]:
    """Evaluation points: (name, scenario, samples) per row.

    With a sweep, the grid replaces the scenario list, anchored on the
    first configured scenario. Grid points that fail validation are
    skipped with a warning rather than aborting the run. Consecutive
    points that differ only in samples share one scenario object.
    """
    if not sweep:
        return [(name, s, cfg.samples) for name, s in cfg.scenarios]
    base_name, base = cfg.scenarios[0]
    # `dataclasses.replace(base, **changes)`, with base's fields read once.
    base_fields = {f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
    axes = [axis for axis in SWEEP_AXES if axis in sweep]
    at = axes.index("samples") if "samples" in sweep else None
    # (axis, value, name label) per swept value, each label formatted once.
    grid = [[(a, v, f"{a}={v if a == 'samples' else _label(v)}") for v in sweep[a]]
            for a in axes]
    points = []
    last = None
    for combo in itertools.product(*grid):
        key = combo if at is None else combo[:at] + combo[at + 1:]
        if key != last:  # a new scenario; the samples label goes last in a name
            last, invalid = key, None
            labels = [label for _, _, label in key]
            try:
                scenario = CellScenario(**{**base_fields, **{a: v for a, v, _ in key}})
            except (ValueError, OverflowError) as exc:
                invalid = exc
        if at is None:
            samples, name = cfg.samples, f"{base_name}[{','.join(labels)}]"
        else:
            _, samples, label = combo[at]
            name = f"{base_name}[{','.join(labels + [label])}]"
        problem = invalid or (
            samples < 1 and f"samples must be a positive integer, got {samples}")
        if problem:
            warnings.append(f"skipping sweep point {name}: {problem}")
        else:
            points.append((name, scenario, samples))
    if not points:
        raise ConfigError("sweep produced no valid points")
    return points


class _Node:
    """One scenario's results against one cmos node, each computed on first use."""

    def __init__(self, cfg: RunConfig, load: BbuWorkload, cmos: CmosProfile) -> None:
        self.cfg, self.load, self.cmos = cfg, load, cmos

    @cached_property
    def sides(self) -> Deployments:
        return deployments(self.load, self.cmos, self.cfg.qa_profile, self.cfg.topology)

    @cached_property
    def report(self) -> CostReport:
        return cost_report(self.sides.delta_w, self.cfg.horizons_years, self.cfg.costs)

    @cached_property
    def advantage(self) -> float:
        return advantage_w(self.load, self.cmos, self.cfg.qa_profile)


class _Run:
    """Consecutive points with an equal scenario, and what they share.

    The workload is computed when the run starts; one cell's qubit budget
    per sample count, and the `nodes` results, on first use. The problem
    models behind the budgets are shared by every run of the call.
    """

    def __init__(self, cfg: RunConfig, scenario: CellScenario,
                 models: ProblemModels) -> None:
        self.qa, self.scenario, self.models = cfg.qa_profile, scenario, models
        self.load = workload(scenario)
        self.nodes = [_Node(cfg, self.load, cmos) for cmos in cfg.cmos_profiles]
        self._budgets: Dict[int, QubitBudget] = {}

    def budget(self, samples: int) -> QubitBudget:
        budget = self._budgets.get(samples)
        if budget is None:
            budget = self._budgets[samples] = total_budget(
                self.load, self.qa, samples, self.models)
        return budget


class _Row(NamedTuple):
    """One table row: a point of `run`, and on per-node tables a `node`."""

    name: str
    samples: int
    run: _Run
    node: Optional[_Node] = None

    @property
    def budget(self) -> QubitBudget:
        return self.run.budget(self.samples)


class _Stream:
    """Items produced as they are read, in one pass; `len` is known up front."""

    def __init__(self, items: Iterator, count: int) -> None:
        self._items, self._count = items, count

    def __iter__(self) -> Iterator:
        return self._items

    def __len__(self) -> int:
        return self._count


def _rows(cfg: RunConfig, points: Sequence[Point], per_node: bool = False
          ) -> _Stream:
    """One row per point, or with `per_node` per point and cmos node."""
    models = ProblemModels(cfg.qa_profile)

    def rows() -> Iterator[_Row]:
        for scenario, points_of_run in itertools.groupby(points, key=itemgetter(1)):
            run = _Run(cfg, scenario, models)
            for name, _, samples in points_of_run:
                if per_node:
                    for node in run.nodes:
                        yield _Row(name, samples, run, node)
                else:
                    yield _Row(name, samples, run)

    return _Stream(rows(), len(points) * (len(cfg.cmos_profiles) if per_node else 1))


# A column and how to read its cell from a row's record.
Columns = List[Tuple[Column, Callable[[Any], Cell]]]


def _column(key: str, title: str, spec: str, path: str) -> Tuple[Column, Callable]:
    """A column whose cell is the record attribute at dotted `path`."""
    return Column(key, title, spec), attrgetter(path)


def _table(
    name: str,
    columns: Columns,
    records: _Stream,
    warnings: List[str],
    warn: Optional[Callable[[Any], Optional[str]]] = None,
    notes: Sequence[str] = (),
) -> Table:
    """The row loop every subcommand shares: one row per record, built and
    its warning gathered as the renderer reads it."""
    getters = [(column.key, get) for column, get in columns]

    def rows() -> Iterator[Dict[str, Cell]]:
        for record in records:
            row = {key: get(record) for key, get in getters}
            message = warn(record) if warn else None
            if message:
                warnings.append(message)
            yield row

    return Table(name=name, columns=[c for c, _ in columns],
                 rows=_Stream(rows(), len(records)), notes=list(notes))


_SCENARIO_COLUMNS: Columns = [
    _column("name", "Scenario", "", "name"),
    _column("bandwidth_mhz", "B/W (MHz)", "g", "run.scenario.bandwidth_mhz"),
    _column("antennas", "Antennas", "d", "run.scenario.antennas"),
]
_SAMPLES_COLUMN = _column("samples", "Samples", "d", "samples")
_NODE_COLUMN = _column("node", "Node", "", "node.cmos.node")


def cmd_targets(cfg: RunConfig, points, warnings) -> Table:
    columns = _SCENARIO_COLUMNS + [
        (Column(f"{task.value}_tops", task.label, ".3f"),
         lambda r, task=task: r.run.load.tops[task])
        for task in BbuTask
    ] + [_column("total_tops", "Total", ".3f", "run.load.total_tops")]
    return _table("targets", columns, _rows(cfg, points), warnings,
                  notes=["units: TOPS"])


def cmd_power(cfg: RunConfig, points, warnings) -> Table:
    columns = _SCENARIO_COLUMNS + [_NODE_COLUMN] + [
        _column(key, title, ".1f", f"node.sides.{path}")
        for key, title, path in (
            ("cmos_bbu_w", "CMOS BBU (W)", "cmos.bbu_w"),
            ("cmos_ru_w", "RU (W)", "cmos.ru_w"),
            ("cmos_pa_w", "PA (W)", "cmos.pa_w"),
            ("cmos_ps_w", "Power sys (W)", "cmos.power_system_w"),
            ("cmos_fronthaul_w", "Fronthaul (W)", "cmos.fronthaul_w"),
            ("cmos_total_w", "CMOS total (W)", "cmos.total_w"),
            ("qa_silicon_w", "QA-side silicon (W)", "qa.bbu_w"),
            ("qa_refrigeration_w", "Refrigeration (W)", "qa.refrigeration_w"),
            ("qa_total_w", "QA total (W)", "qa.total_w"),
            ("delta_w", "Saving (W)", "delta_w"),
        )
    ]
    return _table("power", columns, _rows(cfg, points, per_node=True), warnings)


def cmd_qubits(cfg: RunConfig, points, warnings) -> Table:
    capacity = refrigerator_qubit_capacity()
    columns = _SCENARIO_COLUMNS + [
        _SAMPLES_COLUMN,
        (Column("runtime_us", "Runtime (us)", ".0f"),
         lambda r: qmi_runtime_us(cfg.qa_profile, r.samples)),
        (Column("fdnl_qubits", "Detection qubits", "d"),
         lambda r: r.budget.per_task[BbuTask.FD_NL]),
        (Column("fec_qubits", "Decoding qubits", "d"),
         lambda r: r.budget.per_task[BbuTask.FEC]),
        _column("covered_fraction", "Covered fraction", ".4f",
                "budget.covered_fraction"),
        _column("total_qubits", "Total qubits", "d", "budget.total"),
        (Column("capacity", "Refrigerator capacity", "d"), lambda r: capacity),
        (Column("fits", "Fits"),
         lambda r: "yes" if r.budget.total <= capacity else "no"),
    ]

    def warn(r: _Row) -> Optional[str]:
        if r.budget.total > capacity:
            return (f"{r.name}: requirement {r.budget.total} exceeds "
                    f"refrigerator capacity {capacity}")
        return None

    return _table("qubits", columns, _rows(cfg, points), warnings, warn)


def cmd_economics(cfg: RunConfig, points, warnings) -> Table:
    columns = _SCENARIO_COLUMNS + [
        _NODE_COLUMN,
        # The report holds the run's saving as one object, so its text is
        # formatted once per run rather than once per row.
        _column("delta_w", "Saving (W)", ".1f", "node.report.delta_w"),
    ]
    for i, years in enumerate(cfg.horizons_years):
        label = format(years, "g")
        columns += [
            (Column(f"opex_{label}yr_usd", f"OpEx {label}yr ($)", ".0f"),
             lambda r, i=i: r.node.report.opex_savings_usd[i]),
            (Column(f"co2_{label}yr_kt", f"CO2 {label}yr (kt)", ".3f"),
             lambda r, i=i: r.node.report.co2_savings_kt[i]),
        ]

    capacity = refrigerator_qubit_capacity()
    n_bs = cfg.topology.n_bs

    def warn(r: _Row) -> Optional[str]:
        required = r.budget.total * n_bs  # deployment_budget(...).total
        if required > capacity:
            return (f"{r.name} ({r.node.cmos.node}): qubit requirement "
                    f"{required} exceeds refrigerator capacity {capacity}")
        return None

    return _table(
        "economics", columns, _rows(cfg, points, per_node=True), warnings, warn,
        notes=["negative savings mean the annealer candidate draws more power; "
               "breakeven hardware budget equals the OpEx column at each horizon"],
    )


def cmd_timeline(cfg: RunConfig, points, warnings) -> Table:
    columns = _SCENARIO_COLUMNS + [
        _SAMPLES_COLUMN,
        _column("required_qubits", "Required qubits", "d", "budget.total"),
        (Column("year_best", "Year (best case)", "d"),
         lambda r: year_available(BEST_CASE, r.budget.total)),
        (Column("year_worst", "Year (worst case)", "d"),
         lambda r: year_available(WORST_CASE, r.budget.total)),
    ] + [
        (Column(f"advantage_{p.node}_w", f"Advantage vs {p.node} (W)", ".1f"),
         lambda r, i=i: r.run.nodes[i].advantage)
        for i, p in enumerate(cfg.cmos_profiles)
    ]
    return _table(
        "timeline", columns, _rows(cfg, points), warnings,
        notes=["years are first availability of the required device size under "
               "the best/worst historical growth trends"],
    )


_COMMANDS = {
    "targets": cmd_targets,
    "power": cmd_power,
    "qubits": cmd_qubits,
    "economics": cmd_economics,
    "timeline": cmd_timeline,
}


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    warnings: List[str] = []
    try:
        if args.paper_table:
            table = PAPER_TABLES[args.paper_table]()
        else:
            cfg = load_config(args.config)
            sweep = _parse_sweep_flags(args.sweep) or cfg.sweep
            points = _expand_points(cfg, sweep, warnings)
            table = _COMMANDS[args.command](cfg, points, warnings)
        _emit(render(table, args.format), args.out)
    except ConfigError as exc:
        code, problem = EXIT_CONFIG, f"config error: {exc}"
    except ValueError as exc:
        code, problem = EXIT_DOMAIN, f"model error: {exc}"
    except OSError as exc:
        code, problem = EXIT_CONFIG, f"cannot write output: {exc}"
    else:
        code, problem = EXIT_WARNINGS if warnings else EXIT_OK, None
    # Warnings come first, also on failure: they may say why it failed.
    for warning in warnings:
        print(f"qaplan: warning: {warning}", file=sys.stderr)
    if problem:
        print(f"qaplan: {problem}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
