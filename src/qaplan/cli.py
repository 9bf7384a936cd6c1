"""Command-line interface.

Subcommands evaluate the configured scenarios and emit one table per
invocation in csv, json, or fixed-width text. Output is deterministic:
the same config and flags produce byte-identical bytes. Exit codes:
0 success, 1 config problem, 2 model-domain error, 3 success with
warnings (warnings go to stderr, before the problem line of a failure).

Every subcommand is a list of columns over one row loop, `_table`, which
evaluates the points in blocks (`_expand_points`): up to `BLOCK`
consecutive scenarios as columns of their fields. Each model stage is
one pass of a model column function over a block (`_Stages`), and the
problem runtime runs once per sample count per call. A row is its own
cells and its scenario's shared cells, one tuple per scenario and node,
which the renderer formats once (`emit`).

Neither points nor rows are held: each block is built, evaluated and its
rows handed over, their warnings written to stderr, as the renderer reads
them, so memory stays flat; both answer `len()` up front. A stage that
raises runs again one scenario at a time, and the error comes out at the
first row that reads the failed value, after the warnings of the rows
before. The rendered text is held whole and written only once the call
has succeeded, so a failing call prints nothing on stdout and creates no
`--out` file.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .cmos import CmosProfile
from .config import _INTEGER_AXES, SWEEP_AXES, ConfigError, RunConfig, _parse_sweep, load_config
from .economics import advantage_columns, cost_columns, deployment_columns, savings_w
from .emit import Column, Row, Table, render
from .qa_hardware import refrigerator_qubit_capacity
from .qubit_budget import MODELED_LOAD_FRACTION, budget_columns, problem_runtime, rate_columns
from .timeline import BEST_CASE, WORST_CASE, year_available
from .workload import SCENARIO_FIELDS, BbuTask, CellScenario, left_sums, task_tops

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DOMAIN = 2
EXIT_WARNINGS = 3

# The names of `tables.PAPER_TABLES`, which is imported only when one is asked for.
PAPER_TABLE_NAMES = ("costsavings", "energy", "powerbenefit", "qubits-time", "readout", "targets")


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
    parser.add_argument("--paper-table", choices=PAPER_TABLE_NAMES,
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


# Scenarios evaluated together: enough to spread each stage's per-call cost
# thin, few enough that a block's columns and rows stay small.
BLOCK = 128


class _Block(NamedTuple):
    """Consecutive scenarios, as one column per `SCENARIO_FIELDS` entry, and
    their row-name prefixes. Rows run per group of `inner` scenarios, per
    sample count, per scenario."""

    fields: Tuple[List[Any], ...]
    prefixes: List[str]
    inner: int


class _Lazy:
    """Items produced each time they are read; `len` is known up front.
    Points also carry the sample counts and the row-name ending of each."""

    def __init__(self, produce: Callable[[], Iterator], count: int,
                 samples: Sequence[int] = (), labels: Sequence[str] = ()) -> None:
        self._produce, self._count = produce, count
        self.samples, self.labels = samples, labels

    def __iter__(self) -> Iterator:
        return self._produce()

    def __len__(self) -> int:
        return self._count


def _expand_points(cfg: RunConfig, sweep: Dict[str, List[float]], warnings) -> _Lazy:
    """Evaluation points: the configured scenarios, or with a sweep the
    grid anchored on the first configured scenario, which replaces them.

    Each swept value is checked once. Grid points with a failing value are
    skipped with a warning, written here, rather than aborting the run;
    only they build a `CellScenario` for the reason. Axes vary in
    `SWEEP_AXES` order, the last fastest, so the scenarios of the axes
    after samples take turns within a sample count: a block holds whole
    groups of them.
    """
    if not sweep:
        named = cfg.scenarios

        def configured() -> Iterator[_Block]:
            for at in range(0, len(named), BLOCK):
                chunk = named[at:at + BLOCK]
                fields = zip(*[scenario for _, scenario in chunk])
                yield _Block(tuple(map(list, fields)), [name for name, _ in chunk], 1)
        return _Lazy(configured, len(named), [cfg.samples], [""])
    base_name, base = cfg.scenarios[0]
    base_fields = base._asdict()

    def problem(values: Dict[str, Any], samples: Optional[int] = None) -> Any:
        try:  # why a point is skipped, or None
            CellScenario(**{**base_fields, **values})
        except (ValueError, OverflowError) as exc:
            return exc
        if samples is not None and samples < 1:
            return f"samples must be a positive integer, got {samples}"
        return None

    axes = [axis for axis in SWEEP_AXES if axis in sweep]
    # (value, name label, valid) per swept value, each label formatted once.
    grid = [[(v, f"{a}={v if a == 'samples' else _label(v)}",
              not (problem({}, v) if a == "samples" else problem({a: v}))) for v in sweep[a]]
            for a in axes]
    if not all(ok for values in grid for _, _, ok in values):
        for combo in itertools.product(*grid):
            if not all(ok for _, _, ok in combo):
                point = dict(zip(axes, combo))
                samples = point.pop("samples", None)
                labels = [label for _, label, _ in point.values()] + (
                    [samples[1]] if samples else [])
                why = problem({a: v for a, (v, _, _) in point.items()}, samples and samples[0])
                warnings.append(f"skipping sweep point {base_name}[{','.join(labels)}]: {why}")
    ok = {a: [(v, label) for v, label, good in values if good] for a, values in zip(axes, grid)}
    count = math.prod(map(len, ok.values()))
    if not count:
        raise ConfigError("sweep produced no valid points")
    scenario_axes = [a for a in axes if a != "samples"]
    if "samples" in sweep:  # its label ends the name
        comma = "," if scenario_axes else ""
        samples, labels = [v for v, _ in ok["samples"]], [f"{comma}{l}]" for _, l in ok["samples"]]
        inner = [a for a in scenario_axes if a in SWEEP_AXES[SWEEP_AXES.index("samples"):]]
    else:
        samples, labels, inner = [cfg.samples], ["]"], []
    outer = [a for a in scenario_axes if a not in inner]
    at = [SCENARIO_FIELDS.index(a) for a in outer + inner]
    inner_combos = list(itertools.product(*[ok[a] for a in inner]))

    def swept() -> Iterator[_Block]:
        outer_combos = itertools.product(*[ok[a] for a in outer])
        while True:
            chunk = list(itertools.islice(outer_combos, max(1, BLOCK // len(inner_combos))))
            if not chunk:
                return
            combos = [o + i for o in chunk for i in inner_combos]
            fields = [[value] * len(combos) for value in base_fields.values()]
            for j, field in enumerate(at):
                fields[field] = [combo[j][0] for combo in combos]
            prefixes = [f"{base_name}[{','.join([label for _, label in combo])}"
                        for combo in combos]
            yield _Block(tuple(fields), prefixes, len(inner_combos))

    return _Lazy(swept, count, samples, labels)


class _Failed:
    """A value whose evaluation raised: the first row that reads it raises
    the error again."""

    __slots__ = ("error",)

    def __init__(self, error: Exception) -> None:
        self.error = error


_MODEL_ERRORS = (ValueError, ArithmeticError)
_BW, _ANT, _MOD = map(SCENARIO_FIELDS.index, ("bandwidth_mhz", "antennas", "modulation_bits"))
_FD_NL, _FEC = map(list(BbuTask).index, (BbuTask.FD_NL, BbuTask.FEC))


class _Stages:
    """The model stages of one call, run over one block at a time."""

    def __init__(self, cfg: RunConfig) -> None:
        self.cfg = cfg
        self._runtimes: Dict[int, Any] = {}

    def start(self, block: _Block) -> None:
        self.dirty = False  # whether any value of the block may be a `_Failed`
        self.antennas = block.fields[_ANT]
        self._shape = self.antennas, block.fields[_MOD]
        self.tops = self.each(task_tops, len(BbuTask), block.fields)
        self.rates: Optional[Tuple[List[Any], ...]] = None

    def each(self, function: Callable, width: int, columns: Sequence[List[Any]],
             *constants: Any) -> Tuple[List[Any], ...]:
        """`function(*columns, *constants)`, a model column function giving
        `width` columns; where that raises, one entry at a time, and each
        entry that raises, or reads a `_Failed`, is a `_Failed` in every
        output column."""
        if not self.dirty:
            try:
                return function(*columns, *constants)
            except _MODEL_ERRORS:
                self.dirty = True
        entries: List[Any] = []
        for args in zip(*columns):
            entry = next((arg for arg in args if type(arg) is _Failed), None)
            if entry is None:
                try:
                    entry = [out[0] for out in function(*[[arg] for arg in args], *constants)]
                except _MODEL_ERRORS as exc:
                    entry = _Failed(exc)
            entries.append(entry)
        return tuple([e if type(e) is _Failed else e[j] for e in entries] for j in range(width))

    def runtime(self, samples: int) -> Any:  # once per sample count per call
        if samples not in self._runtimes:
            try:
                self._runtimes[samples] = problem_runtime(self.cfg.qa_profile, samples)
            except _MODEL_ERRORS as exc:
                self._runtimes[samples] = _Failed(exc)
        runtime = self._runtimes[samples]
        self.dirty |= type(runtime) is _Failed
        return runtime

    def budget(self, samples: int) -> Tuple[List[Any], ...]:
        """Each scenario's detection, decoding and total qubits."""
        tops = self.tops
        if self.rates is None:
            self.rates = self.each(rate_columns, 2, (tops[_FD_NL], tops[_FEC], *self._shape))
        runtime = self.runtime(samples)
        if type(runtime) is _Failed:
            return ([runtime] * len(self.antennas),) * 3
        return self.each(budget_columns, 3, (tops[_FD_NL], self.rates[0], tops[_FEC],
                                             self.rates[1]), runtime)

    def deployments(self, cmos: CmosProfile) -> Tuple[List[Any], ...]:
        """Both candidates' `PowerBreakdown` fields, then the saving."""
        cfg = self.cfg

        def stage(antennas, *tops):
            cmos_w, qa_w = deployment_columns(tops, antennas, cmos, cfg.qa_profile, cfg.topology)
            return (*cmos_w, *qa_w, savings_w(cmos_w[-1], qa_w[-1]))
        return self.each(stage, 15, (self.antennas, *self.tops))

    def costs(self, savings: List[Any]) -> Tuple[List[Any], ...]:
        """Per horizon, the OpEx and the CO2 savings."""
        cfg = self.cfg

        def stage(delta):
            opex, co2 = cost_columns(delta, cfg.horizons_years, cfg.costs)
            return tuple(itertools.chain.from_iterable(zip(opex, co2)))
        return self.each(stage, 2 * len(cfg.horizons_years), (savings,))

    def advantage(self, cmos: CmosProfile) -> List[Any]:
        qa = self.cfg.qa_profile
        return self.each(lambda *tops: (advantage_columns(tops, cmos, qa),), 1, self.tops)[0]


def _over(values: List[Any], scale: int, limit: int) -> List[Any]:
    """Each value times `scale` where that exceeds `limit`, else None; a
    `_Failed` stays."""
    return [v if type(v) is _Failed else (r if (r := v * scale) > limit else None)
            for v in values]


def _check(first: Any, row: Row, over: Any) -> None:
    """Raise the first `_Failed` a row reads: its scenario's workload, its
    cells in column order, then what its warning reads."""
    for value in (first, *row[0], *row[1], over):
        if type(value) is _Failed:
            raise value.error


# What a subcommand evaluates per block: each row's own cells, per sample
# count and scenario; the shared cells, per cmos node (one on tables not
# per node) and scenario; and the value each row warns about, per sample
# count and scenario (None: no warning), or None if the table never warns.
Evaluation = Tuple[List[List[Tuple]], List[List[Tuple]], Optional[List[List[Any]]]]


def _table(name: str, cfg: RunConfig, points: _Lazy, columns: List[Column],
           evaluate: Callable[[_Stages, _Block], Evaluation], warnings,
           warning: Optional[Callable[[str, int, Any], str]] = None, per_node: bool = False,
           notes: Sequence[str] = ()) -> Table:
    """The row loop every subcommand shares: one row per point, or with
    `per_node` per point and cmos node, each handed over, and its warning
    (`warning(row name, node index, value)`) written, as the renderer
    reads it. A row is its own cells followed by its scenario's shared
    cells, one tuple for all the rows of that scenario and node."""
    stages = _Stages(cfg)

    def rows() -> Iterator[Row]:
        for block in points:
            stages.start(block)
            own, shared, over = evaluate(stages, block)
            nodes = list(enumerate(shared))
            first = stages.tops[0] if stages.dirty else None
            for start in range(0, len(block.prefixes), block.inner):
                for k in range(len(points.samples)):
                    own_k, over_k = own[k], over[k] if over else None
                    for i in range(start, start + block.inner):
                        cells, value = own_k[i], over_k[i] if over_k else None
                        for node, tails in nodes:
                            row = cells, tails[i]
                            if first is not None:
                                _check(first[i], row, value)
                            if value is not None:
                                warnings.append(warning(cells[0], node, value))
                            yield row

    count = len(points) * (len(cfg.cmos_profiles) if per_node else 1)
    return Table(name=name, columns=columns, rows=_Lazy(rows, count), notes=notes)


def _names(points: _Lazy, block: _Block) -> List[List[str]]:
    """Each row name, per sample count and scenario."""
    return [[prefix + label for prefix in block.prefixes] for label in points.labels]


def _per_node(cfg: RunConfig, block: _Block, cells: Callable[[CmosProfile], Sequence[List]]
              ) -> List[List[Tuple]]:
    """Per cmos node, each scenario's shared cells: its bandwidth, antennas
    and node, then `cells(node)`."""
    bandwidth, antennas = block.fields[_BW], block.fields[_ANT]
    return [list(zip(bandwidth, antennas, itertools.repeat(cmos.node), *cells(cmos)))
            for cmos in cfg.cmos_profiles]


_NAME_COLUMN = Column("name", "Scenario")
_SCENARIO_COLUMNS = [Column("bandwidth_mhz", "B/W (MHz)", "g"),
                     Column("antennas", "Antennas", "d")]
_SAMPLES_COLUMN = Column("samples", "Samples", "d")
_NODE_COLUMN = Column("node", "Node")


def cmd_targets(cfg: RunConfig, points: _Lazy, warnings) -> Table:
    columns = [_NAME_COLUMN, *_SCENARIO_COLUMNS,
               *[Column(f"{task.value}_tops", task.label, ".3f") for task in BbuTask],
               Column("total_tops", "Total", ".3f")]

    def evaluate(stages: _Stages, block: _Block) -> Evaluation:
        tops = stages.tops
        (totals,) = stages.each(lambda *t: (left_sums(t, len(t[0])),), 1, tops)
        shared = list(zip(block.fields[_BW], block.fields[_ANT], *tops, totals))
        return [list(zip(names)) for names in _names(points, block)], [shared], None

    return _table("targets", cfg, points, columns, evaluate, warnings, notes=["units: TOPS"])


# The power table's columns after the node, each with its position in
# `_Stages.deployments`.
_POWER_COLUMNS = (
    ("cmos_bbu_w", "CMOS BBU (W)", 0), ("cmos_ru_w", "RU (W)", 1),
    ("cmos_pa_w", "PA (W)", 2), ("cmos_ps_w", "Power sys (W)", 3),
    ("cmos_fronthaul_w", "Fronthaul (W)", 4), ("cmos_total_w", "CMOS total (W)", 6),
    ("qa_silicon_w", "QA-side silicon (W)", 7), ("qa_refrigeration_w", "Refrigeration (W)", 12),
    ("qa_total_w", "QA total (W)", 13), ("delta_w", "Saving (W)", 14),
)


def cmd_power(cfg: RunConfig, points: _Lazy, warnings) -> Table:
    columns = [_NAME_COLUMN, *_SCENARIO_COLUMNS, _NODE_COLUMN,
               *[Column(key, title, ".1f") for key, title, _ in _POWER_COLUMNS]]

    def evaluate(stages: _Stages, block: _Block) -> Evaluation:
        def cells(cmos: CmosProfile) -> List[List[Any]]:
            sides = stages.deployments(cmos)
            return [sides[at] for _, _, at in _POWER_COLUMNS]
        return ([list(zip(names)) for names in _names(points, block)],
                _per_node(cfg, block, cells), None)

    return _table("power", cfg, points, columns, evaluate, warnings, per_node=True)


def cmd_qubits(cfg: RunConfig, points: _Lazy, warnings) -> Table:
    capacity = refrigerator_qubit_capacity()
    columns = [_NAME_COLUMN, *_SCENARIO_COLUMNS, _SAMPLES_COLUMN, *[Column(*c) for c in (
        ("runtime_us", "Runtime (us)", ".0f"), ("fdnl_qubits", "Detection qubits", "d"),
        ("fec_qubits", "Decoding qubits", "d"), ("covered_fraction", "Covered fraction", ".4f"),
        ("total_qubits", "Total qubits", "d"), ("capacity", "Refrigerator capacity", "d"),
        ("fits", "Fits"))]]
    repeat = itertools.repeat

    def evaluate(stages: _Stages, block: _Block) -> Evaluation:
        own, over = [], []
        for samples, names in zip(points.samples, _names(points, block)):
            fdnl, fec, total = stages.budget(samples)
            over.append(_over(total, 1, capacity))
            own.append(list(zip(
                names, block.fields[_BW], block.fields[_ANT], repeat(samples),
                repeat(stages.runtime(samples)), fdnl, fec, repeat(MODELED_LOAD_FRACTION),
                total, repeat(capacity), ["yes" if v is None else "no" for v in over[-1]])))
        return own, [[()] * len(block.prefixes)], over

    def warning(name: str, node: int, total: int) -> str:
        return f"{name}: requirement {total} exceeds refrigerator capacity {capacity}"

    return _table("qubits", cfg, points, columns, evaluate, warnings, warning)


def cmd_economics(cfg: RunConfig, points: _Lazy, warnings) -> Table:
    columns = [_NAME_COLUMN, *_SCENARIO_COLUMNS, _NODE_COLUMN,
               Column("delta_w", "Saving (W)", ".1f")]
    for years in cfg.horizons_years:
        label = format(years, "g")
        columns += [Column(f"opex_{label}yr_usd", f"OpEx {label}yr ($)", ".0f"),
                    Column(f"co2_{label}yr_kt", f"CO2 {label}yr (kt)", ".3f")]
    capacity = refrigerator_qubit_capacity()

    def evaluate(stages: _Stages, block: _Block) -> Evaluation:
        def cells(cmos: CmosProfile) -> List[List[Any]]:
            savings = stages.deployments(cmos)[14]
            return [savings, *stages.costs(savings)]
        # The deployment's qubit ask: each cell's total times its n_bs cells.
        over = [_over(stages.budget(samples)[2], cfg.topology.n_bs, capacity)
                for samples in points.samples]
        return ([list(zip(names)) for names in _names(points, block)],
                _per_node(cfg, block, cells), over)

    def warning(name: str, node: int, required: int) -> str:
        return (f"{name} ({cfg.cmos_profiles[node].node}): qubit requirement "
                f"{required} exceeds refrigerator capacity {capacity}")

    return _table(
        "economics", cfg, points, columns, evaluate, warnings, warning, per_node=True,
        notes=["negative savings mean the annealer candidate draws more power; "
               "breakeven hardware budget equals the OpEx column at each horizon"],
    )


def cmd_timeline(cfg: RunConfig, points: _Lazy, warnings) -> Table:
    columns = [_NAME_COLUMN, *_SCENARIO_COLUMNS, _SAMPLES_COLUMN,
               Column("required_qubits", "Required qubits", "d"),
               Column("year_best", "Year (best case)", "d"),
               Column("year_worst", "Year (worst case)", "d"),
               *[Column(f"advantage_{p.node}_w", f"Advantage vs {p.node} (W)", ".1f")
                 for p in cfg.cmos_profiles]]

    def years(totals: Sequence[int]) -> Tuple[List[int], List[int]]:
        return ([year_available(BEST_CASE, t) for t in totals],
                [year_available(WORST_CASE, t) for t in totals])

    def evaluate(stages: _Stages, block: _Block) -> Evaluation:
        own = []
        for samples, names in zip(points.samples, _names(points, block)):
            total = stages.budget(samples)[2]
            own.append(list(zip(names, block.fields[_BW], block.fields[_ANT],
                                itertools.repeat(samples), total,
                                *stages.each(years, 2, (total,)))))
        shared = list(zip(*[stages.advantage(cmos) for cmos in cfg.cmos_profiles]))
        return own, [shared], None

    return _table(
        "timeline", cfg, points, columns, evaluate, warnings,
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
            from .tables import PAPER_TABLES

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
