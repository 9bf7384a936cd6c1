"""Command-line interface.

Subcommands evaluate the configured scenarios and emit one table per
invocation in csv, json, or fixed-width text. Output is deterministic:
the same config and flags produce byte-identical bytes. Exit codes:
0 success, 1 config problem, 2 model-domain error, 3 success with
warnings (warnings go to stderr, before the problem line of a failure).

Every subcommand is a list of columns over the rows of one staged
evaluation, the row loop `_table`. A run is the consecutive points that
share one scenario object: `_expand_points` hands the points of a sweep
over samples one object, and the loop tests identity, never equality. A
run computes its workload once, the sample-free part of its qubit ask
(`qubit_rates`) once, its qubit budget once per sample count and, per
cmos node, the deployments, cost report and offload advantage once, each
on first use. What does not depend on the scenario is built once per
call, not per row: the topology's fronthaul link once per topology
(`CranTopology._link`). Nothing else outlives a run.

A subcommand has two lists of columns. A row's own columns (the name,
samples, and whatever is read through the qubit budget) are read from
the row; its shared columns, which end the row, are read from the row's
owner: the `_Node` on per-node tables, the `_Run` otherwise, so a shared
cell cannot read a per-point value. The shared cells are built into one
tuple once per owner, and every row of that owner hands the renderer
that same tuple, which the renderer formats once (`emit`).

The table's rows are not held either: a subcommand returns a table whose
rows are a one-pass stream (`_Stream`). Each row is built, and its
warning written to stderr, when the renderer reads it, and is dropped
once rendered, so memory stays flat in the number of points; `main`
keeps only the count of warnings. The stream answers `len()` up front:
the point count, times the cmos node count on per-node tables. The
rendered text is held whole and written only once the call has
succeeded, so a failing call prints nothing on stdout and creates no
`--out` file.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
from functools import cached_property
from operator import attrgetter
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .cmos import CmosProfile
from .config import (_INTEGER_AXES, SWEEP_AXES, ConfigError, RunConfig, _parse_sweep,
                     load_config)
from .economics import CostReport, Deployments, advantage_w, cost_report, deployments
from .emit import Cell, Column, Table, render
from .qa_hardware import qmi_runtime_us, refrigerator_qubit_capacity
from .qubit_budget import QubitBudget, QubitRates, qubit_rates, rates_budget
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
        if axis in sweep:
            raise ConfigError(
                f"--sweep {axis} given twice; list all its values in one flag")
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


def _expand_points(cfg: RunConfig, sweep: Dict[str, List[float]], warnings
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
    """Consecutive points with one scenario object, and what they share.

    The workload is computed when the run starts; the sample-free part of
    the qubit ask (`qubit_rates`), one cell's qubit budget per sample
    count, and the `nodes` results, on first use.
    """

    def __init__(self, cfg: RunConfig, scenario: CellScenario) -> None:
        self.qa = cfg.qa_profile
        self.load = workload(scenario)
        self.nodes = [_Node(cfg, self.load, cmos) for cmos in cfg.cmos_profiles]
        self._budgets: Dict[int, QubitBudget] = {}

    @cached_property
    def rates(self) -> QubitRates:
        return qubit_rates(self.load)

    def budget(self, samples: int) -> QubitBudget:
        budget = self._budgets.get(samples)
        if budget is None:
            budget = self._budgets[samples] = rates_budget(self.rates, self.qa, samples)
        return budget


class _Row(NamedTuple):
    """One table row: a point of `run`, and the row's `owner`, which holds
    its shared cells: on per-node tables a `_Node` of the run, else the run."""

    name: str
    samples: int
    run: _Run
    owner: Any

    @property
    def load(self) -> BbuWorkload:
        return self.run.load

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


# A column and how to read its cell: from a row, or for a shared column
# from the row's owner.
Columns = List[Tuple[Column, Callable[[Any], Cell]]]


def _column(key: str, title: str, spec: str, path: str) -> Tuple[Column, Callable]:
    """A column whose cell is the attribute at dotted `path`."""
    return Column(key, title, spec), attrgetter(path)


def _table(
    name: str,
    cfg: RunConfig,
    points: Sequence[Point],
    columns: Columns,
    shared_columns: Columns,
    warnings,
    warn: Optional[Callable[[_Row], Optional[str]]] = None,
    per_node: bool = False,
    notes: Sequence[str] = (),
) -> Table:
    """The row loop every subcommand shares: one row per point, or with
    `per_node` per point and cmos node, each built and its warning
    gathered as the renderer reads it.

    A run starts where the point's scenario object changes. A row is its
    own cells, read from the `_Row`, followed by its shared cells, read
    from the row's owner. An owner's shared tuple is built on the owner's
    first row in the run, and every row of that owner gets that tuple.
    """
    own = [get for _, get in columns]
    shared = [get for _, get in shared_columns]

    def rows() -> Iterator[Tuple[Tuple[Cell, ...], Tuple[Cell, ...]]]:
        scenario = None
        for point_name, point_scenario, samples in points:
            first = point_scenario is not scenario  # the run's first point
            if first:
                scenario, run = point_scenario, _Run(cfg, point_scenario)
                owners = run.nodes if per_node else [run]
                suffixes = []  # the shared tuples, aligned with `owners`
            for i, owner in enumerate(owners):
                row = _Row(point_name, samples, run, owner)
                cells = tuple([get(row) for get in own])
                if first:
                    suffixes.append(tuple([get(owner) for get in shared]))
                message = warn(row) if warn else None
                if message:
                    warnings.append(message)
                yield cells, suffixes[i]

    count = len(points) * (len(cfg.cmos_profiles) if per_node else 1)
    return Table(name=name, columns=[c for c, _ in columns + shared_columns],
                 rows=_Stream(rows(), count), notes=list(notes))


_NAME_COLUMN = _column("name", "Scenario", "", "name")
# Rows and both owners have a `load`, so own and shared columns read alike.
_SCENARIO_COLUMNS = [
    _column("bandwidth_mhz", "B/W (MHz)", "g", "load.scenario.bandwidth_mhz"),
    _column("antennas", "Antennas", "d", "load.scenario.antennas"),
]


_SAMPLES_COLUMN = _column("samples", "Samples", "d", "samples")
_NODE_COLUMN = _column("node", "Node", "", "cmos.node")


def cmd_targets(cfg: RunConfig, points, warnings) -> Table:
    shared = _SCENARIO_COLUMNS + [
        (Column(f"{task.value}_tops", task.label, ".3f"),
         lambda run, task=task: run.load.tops[task])
        for task in BbuTask
    ] + [_column("total_tops", "Total", ".3f", "load.total_tops")]
    return _table("targets", cfg, points, [_NAME_COLUMN], shared, warnings,
                  notes=["units: TOPS"])


def cmd_power(cfg: RunConfig, points, warnings) -> Table:
    shared = _SCENARIO_COLUMNS + [_NODE_COLUMN] + [
        _column(key, title, ".1f", f"sides.{path}")
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
    return _table("power", cfg, points, [_NAME_COLUMN], shared, warnings,
                  per_node=True)


def cmd_qubits(cfg: RunConfig, points, warnings) -> Table:
    capacity = refrigerator_qubit_capacity()
    columns = [_NAME_COLUMN] + _SCENARIO_COLUMNS + [
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

    return _table("qubits", cfg, points, columns, [], warnings, warn)


def cmd_economics(cfg: RunConfig, points, warnings) -> Table:
    shared = _SCENARIO_COLUMNS + [
        _NODE_COLUMN,
        _column("delta_w", "Saving (W)", ".1f", "report.delta_w"),
    ]
    for i, years in enumerate(cfg.horizons_years):
        label = format(years, "g")
        shared += [
            (Column(f"opex_{label}yr_usd", f"OpEx {label}yr ($)", ".0f"),
             lambda node, i=i: node.report.opex_savings_usd[i]),
            (Column(f"co2_{label}yr_kt", f"CO2 {label}yr (kt)", ".3f"),
             lambda node, i=i: node.report.co2_savings_kt[i]),
        ]

    capacity = refrigerator_qubit_capacity()
    n_bs = cfg.topology.n_bs

    def warn(r: _Row) -> Optional[str]:
        required = r.budget.total * n_bs  # deployment_budget(...).total
        if required > capacity:
            return (f"{r.name} ({r.owner.cmos.node}): qubit requirement "
                    f"{required} exceeds refrigerator capacity {capacity}")
        return None

    return _table(
        "economics", cfg, points, [_NAME_COLUMN], shared, warnings, warn,
        per_node=True,
        notes=["negative savings mean the annealer candidate draws more power; "
               "breakeven hardware budget equals the OpEx column at each horizon"],
    )


def cmd_timeline(cfg: RunConfig, points, warnings) -> Table:
    columns = [_NAME_COLUMN] + _SCENARIO_COLUMNS + [
        _SAMPLES_COLUMN,
        _column("required_qubits", "Required qubits", "d", "budget.total"),
        (Column("year_best", "Year (best case)", "d"),
         lambda r: year_available(BEST_CASE, r.budget.total)),
        (Column("year_worst", "Year (worst case)", "d"),
         lambda r: year_available(WORST_CASE, r.budget.total)),
    ]
    shared = [
        (Column(f"advantage_{p.node}_w", f"Advantage vs {p.node} (W)", ".1f"),
         lambda run, i=i: run.nodes[i].advantage)
        for i, p in enumerate(cfg.cmos_profiles)
    ]
    return _table(
        "timeline", cfg, points, columns, shared, warnings,
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


class _Warnings:
    """Warnings written to stderr as they are gathered; only their count is
    kept. The row loop takes each one through `append`, as a list has."""

    def __init__(self) -> None:
        self.count = 0

    def append(self, warning: str) -> None:
        self.count += 1
        print(f"qaplan: warning: {warning}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Warnings come first on stderr, also on failure: they may say why it failed.
    warnings = _Warnings()
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
        code, problem = EXIT_WARNINGS if warnings.count else EXIT_OK, None
    if problem:
        print(f"qaplan: {problem}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
