"""Command-line interface.

Subcommands evaluate the configured scenarios and emit one table per
invocation in csv, json, or fixed-width text. Output is deterministic:
the same config and flags produce byte-identical bytes. Exit codes:
0 success, 1 config problem, 2 model-domain error, 3 success with
warnings (warnings go to stderr, before the problem line of a failure).

A call's run is one `RunConfig`: `config` reads the config file and the
`--sweep` flags, whose sweep replaces the file's, and every subcommand
takes that config alone. Every subcommand is a list of columns over one
row loop, `_table`: its own cells and its shared cells, as columns over a
block of consecutive scenarios (`_expand_points` of the config, up to
`BLOCK` of them as columns of their fields). Each model stage is one call
of a model column function over a block (`evaluate.Stages`, which the
paper tables read too), and the problem runtime runs once per sample
count per call. A block goes to the renderer as columns (`emit.Block`):
the own columns of each sample count, names first, the shared columns of
each scenario and node, and the index lists that put them in row order.
Only `_table` calls the stages in the order a row reads their values. The
capacity verdict is taken once per sample count and block, at the qubit
scale the table gives `_table`: the `qubits` fits cells read the budget's,
and the warnings `Stages.verdict`, which tries an exact bound first.

Neither points nor rows are held: each block, whole runs of the last outer
sweep axis where one fits, is built, evaluated, its warnings written to
stderr in one write, and handed over as the renderer reads it; both answer
`len()` up front. A block whose evaluation raises is evaluated again one
row at a time, so the error comes out at the first row that reads a
failing value, after the warnings of the rows before. Warnings precede the
formatting of cells, none of which fails. The text is held as one text per
block (`emit.render_parts`) and written with `writelines` once the call has
succeeded, so a failing call prints nothing and creates no `--out` file.
A csv or json call with `BLOCKS_PER_PROCESS` blocks for each of several
usable cores renders contiguous ranges of its blocks on as many processes
(`_render`, `parallel.render`), with the same bytes, warnings and exit
code; where any process fails, the call is rendered again on this one.

A plain command line, a subcommand and then whole `--flag value` pairs, is
read by `_plain_args` into what argparse would return; argparse is
imported only for any other form, so it alone writes help and usage
errors.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import types
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from .cmos import CmosProfile
from .config import SWEEP_AXES, ConfigError, RunConfig, load_config, parse_sweep_flags
from .economics import advantage_columns, cost_columns
from .emit import Block, Column, Lazy, Rows, Table, render_parts
from .evaluate import Stages
from .qubit_budget import MODELED_LOAD_FRACTION
from .timeline import BEST_CASE, WORST_CASE, YearTable
from .workload import SCENARIO_FIELDS, BbuTask, CellScenario, left_sums

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DOMAIN = 2
EXIT_WARNINGS = 3

# The names of `tables.PAPER_TABLES`, which is imported only when one is asked for.
PAPER_TABLE_NAMES = ("costsavings", "energy", "powerbenefit", "qubits-time", "readout", "targets")
# Every subcommand's flags, each with its choices, or None where any value goes.
_FLAGS = {"--config": None, "--format": ("csv", "json", "table"), "--out": None,
          "--sweep": None, "--paper-table": PAPER_TABLE_NAMES}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="json config file (default: $QAPLAN_CONFIG or built-ins)")
    parser.add_argument("--format", choices=_FLAGS["--format"],
                        default="table", help="output format (default: table)")
    parser.add_argument("--out", metavar="PATH",
                        help="write output to a file instead of stdout")
    parser.add_argument("--sweep", action="append", default=[], metavar="AXIS=V1,V2,...",
                        help="sweep an axis over values; repeatable; overrides "
                             f"config sweep; axes: {', '.join(SWEEP_AXES)}")
    parser.add_argument("--paper-table", choices=_FLAGS["--paper-table"],
                        help="emit a reference report instead of evaluating "
                             "the configured scenarios")


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser: every subcommand, each with every flag."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # Usage mistakes are config problems; keep them on exit code 1.
        def error(self, message: str) -> None:  # type: ignore[override]
            self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")

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


def _plain_args(argv: Sequence[str]) -> Optional[types.SimpleNamespace]:
    """What `build_parser().parse_args(argv)` returns, where `argv` is a
    subcommand and then `FLAG VALUE` pairs: each flag whole, each value not
    empty, no option (no leading "-") and one of the flag's choices. Any
    other command line gives None, for argparse to parse, or to answer with
    its help or usage error."""
    if len(argv) % 2 != 1 or argv[0] not in _COMMANDS:
        return None
    args = {"command": argv[0], "config": None, "format": "table", "out": None, "sweep": [],
            "paper_table": None}
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in _FLAGS or not value or value[0] == "-" or value not in (
                _FLAGS[flag] or (value,)):
            return None
        if flag == "--sweep":
            args["sweep"].append(value)
        else:  # the last value wins
            args[flag[2:].replace("-", "_")] = value
    return types.SimpleNamespace(**args)


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
    their row-name prefixes; the sample counts they run at, and the row-name
    ending of each. Rows run per group of `inner` scenarios, per sample
    count, per scenario."""

    fields: Tuple[List[Any], ...]
    prefixes: List[str]
    inner: int
    samples: Sequence[int]
    labels: Sequence[str]

    def order(self) -> Iterator[Tuple[int, int]]:
        """The sample count's and the scenario's index of each row, in row
        order."""
        for start in range(0, len(self.prefixes), self.inner):
            for k in range(len(self.samples)):
                for i in range(start, start + self.inner):
                    yield k, i


def _skipped_points(grid: Sequence[Sequence[Tuple[Any, str, bool]]]
                    ) -> Iterator[Tuple[Tuple[int, Tuple[Any, str, bool]], ...]]:
    """The grid points that hold a failing value, in grid order (the last
    axis fastest), each as its `(place, (value, label, valid))` on each
    axis of `grid`. Past a prefix of valid values, the walk enters only
    the axes where a failing value is still to come."""
    # Whether an axis from each one on holds a failing value.
    fails_on = [any(not ok for _, _, ok in values) for values in grid] + [False]
    for j in range(len(grid) - 1, -1, -1):
        fails_on[j] = fails_on[j] or fails_on[j + 1]

    def walk(j: int, prefix: Tuple) -> Iterator[Tuple]:
        # `prefix` holds valid values only: a failing one must follow.
        for item in enumerate(grid[j]):
            if not item[1][2]:  # every point after this value fails
                for rest in itertools.product(*map(enumerate, grid[j + 1:])):
                    yield (*prefix, item, *rest)
            elif fails_on[j + 1]:
                yield from walk(j + 1, (*prefix, item))

    return walk(0, ())


def _expand_points(cfg: RunConfig, warnings) -> Lazy:
    """Evaluation points: the configured scenarios, or with a sweep
    (`cfg.sweep`) the grid anchored on the first configured scenario, which
    replaces them.

    Each swept value is checked once. Grid points with a failing value are
    skipped with a warning, written here, rather than aborting the run;
    only they build a `CellScenario` for the reason. Axes vary in
    `SWEEP_AXES` order, the last fastest, so the scenarios of the axes
    after samples take turns within a sample count: a block holds whole
    groups of them. The points know their block count (`blocks`), and
    `produce(span)` builds the blocks in the range `span` alone.
    """
    sweep = cfg.sweep
    if not sweep:
        named = cfg.scenarios

        blocks = -(-len(named) // BLOCK)

        def configured(span: range = range(blocks)) -> Iterator[_Block]:
            for at in range(span.start * BLOCK, min(span.stop * BLOCK, len(named)), BLOCK):
                chunk = named[at:at + BLOCK]
                fields = zip(*[scenario for _, scenario in chunk])
                yield _Block(tuple(map(list, fields)), [name for name, _ in chunk], 1,
                             [cfg.samples], [""])
        return Lazy(configured, len(named), blocks)
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
        # Each check reads one field, so a point's reason is that of its
        # failing values alone, worded once per combination of them. The
        # combination is keyed by the values' places on their axes: nan is
        # not equal to itself, and 0.0 and -0.0 are equal but print apart.
        reasons: Dict[Tuple[int, ...], Any] = {}
        name_order = sorted(range(len(axes)), key=lambda j: axes[j] == "samples")  # samples last
        skipped = []
        for combo in _skipped_points(grid):
            failing = tuple([-1 if ok else at for at, (_, _, ok) in combo])
            if failing not in reasons:
                bad = {a: v for a, (_, (v, _, ok)) in zip(axes, combo) if not ok}
                samples = bad.pop("samples", None)
                reasons[failing] = problem(bad, samples)
            labels = ",".join([combo[j][1][1] for j in name_order])
            skipped.append(f"skipping sweep point {base_name}[{labels}]: {reasons[failing]}")
        warnings.extend(skipped)
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

    def axes_product(names: List[str]) -> Iterator[Tuple[Tuple, Tuple[str, ...]]]:
        """Each combination of the valid values of `names`, and their labels."""
        return zip(itertools.product(*[[v for v, _ in ok[a]] for a in names]),
                   itertools.product(*[[label for _, label in ok[a]] for a in names]))

    inner_values, inner_labels = zip(*axes_product(inner))
    tails = [("," if outer and inner else "") + ",".join(names) for names in inner_labels]

    # A block takes whole runs of the last outer axis where one fits, so
    # each other outer axis is one object across it, which `task_tops` folds.
    per, run = max(1, BLOCK // len(tails)), len(ok[outer[-1]]) if outer else 1
    size = per // run * run or per
    blocks = -(-math.prod([len(ok[a]) for a in outer]) // size)

    def swept(span: range = range(blocks)) -> Iterator[_Block]:
        outer_combos = itertools.islice(axes_product(outer), span.start * size, span.stop * size)
        while True:
            chunk = list(itertools.islice(outer_combos, size))
            if not chunk:
                return
            combos = [o + i for o, _ in chunk for i in inner_values]
            fields = [[value] * len(combos) for value in base_fields.values()]
            for field, column in zip(at, zip(*combos)):
                fields[field] = list(column)
            heads = [f"{base_name}[{','.join(names)}" for _, names in chunk]
            prefixes = [head + tail for head in heads for tail in tails]
            yield _Block(tuple(fields), prefixes, len(tails), samples, labels)

    return Lazy(swept, count, blocks)


_MODEL_ERRORS = (ValueError, ArithmeticError)


def _rows_apart(block: _Block, node_groups: Sequence[Sequence[CmosProfile]]
                ) -> Iterator[Tuple[_Block, Sequence[CmosProfile]]]:
    """Each row of a block, in row order, as a block of its own: one
    scenario at one sample count, with each group of cmos nodes in turn."""
    for k, i in block.order():
        one = _Block(tuple([field[i]] for field in block.fields), [block.prefixes[i]], 1,
                     [block.samples[k]], [block.labels[k]])
        for nodes in node_groups:
            yield one, nodes


Columns = Sequence[Iterable]  # cells, as columns over a block's scenarios


def _table(name: str, cfg: RunConfig, columns: List[Column], warnings,
           own: Optional[Callable[[Stages, int], Columns]] = None,
           shared: Optional[Callable[..., Columns]] = None, per_node: bool = False,
           scale: int = 1, warning: Optional[str] = None, notes: Sequence[str] = ()) -> Table:
    """The row loop every subcommand shares, over the points of `cfg`
    (`_expand_points`, whose skip warnings come first). A subcommand gives
    only its columns: `own(stages, samples)`, the cells after each row's
    name, and `shared(stages)`, or with `per_node` `shared(stages, node)`,
    the cells the rows of one scenario (and node) share; on tables per node
    these follow the scenario's bandwidth and antennas and the node's
    name. On a table that warns, each row whose qubit total times `scale`
    exceeds the refrigerator capacity (the verdict of `Stages.budget`)
    writes `warning`, formatted with the row's `name`, `node`, `value` and
    the `capacity`.

    Each block goes to the renderer as one `Block` once its warnings are
    written. The stages run in the one order a row reads their values: the
    workload, the own cells, the shared cells, then the warned value. A
    block that raises a model error is evaluated again one row at a time,
    so the first row that fails ends the call after the rows before it.
    The rows take a range of the points' blocks as `_expand_points` does."""
    points = _expand_points(cfg, warnings)
    stages = Stages(cfg, scale)
    # The nodes of a row's cells: on tables not per node, one shared entry
    # serves all nodes, and a row warns for the first.
    row_nodes = cfg.cmos_profiles if per_node else cfg.cmos_profiles[:1]
    node_groups = [[node] for node in row_nodes] if per_node else [row_nodes]
    repeat = itertools.repeat
    shapes: Dict[Tuple[int, ...], Tuple[List[Tuple[int, int]], List[int], List[int]]] = {}

    def evaluated(block: _Block, nodes: Sequence[CmosProfile]) -> Block:
        stages.start(block.fields)
        owns = [own(stages, samples) if own else () for samples in block.samples]
        tails = [[stages.bandwidth, stages.antennas, repeat(node.node), *shared(stages, node)]
                 for node in nodes] if per_node else [list(shared(stages)) if shared else []]
        over = [stages.verdict(samples) for samples in block.samples] if warning else None
        # Names read no stage. Joined last, where pymalloc places them, they
        # keep a 30k-point csv call's peak RSS about 0.7 MiB lower.
        names = [[prefix + label for prefix in block.prefixes] for label in block.labels]
        n, count = len(block.prefixes), len(nodes)
        shape = (n, block.inner, len(block.samples), count)
        if shape not in shapes:  # each row's scenario, own entry and shared entry
            order = list(block.order())
            shapes[shape] = (order, [k * n + i for k, i in order for _ in range(count)],
                             [g * n + i for _, i in order for g in range(count)])
        order, own_at, shared_at = shapes[shape]
        if over and any(verdicts.count(None) < n for verdicts in over):
            warnings.extend([warning.format(name=names[k][i], node=node.node, value=over[k][i],
                                            capacity=stages.capacity)
                             for k, i in order if over[k][i] is not None for node in nodes])
        return Block([[part_names, *part] for part_names, part in zip(names, owns)], tails,
                     own_at, shared_at)

    def blocks(span: range = range(points.blocks)) -> Iterator[Block]:
        for block in points.produce(span):
            try:
                done: Iterable[Block] = [evaluated(block, row_nodes)]
            except _MODEL_ERRORS:
                done = itertools.starmap(evaluated, _rows_apart(block, node_groups))
            yield from done

    return Table(name, columns, Rows(blocks, len(points) * len(row_nodes), points.blocks), notes)


_NAME_COLUMN = Column("name", "Scenario")
_SCENARIO_COLUMNS = [Column("bandwidth_mhz", "B/W (MHz)", "g"),
                     Column("antennas", "Antennas", "d")]
_SAMPLES_COLUMN = Column("samples", "Samples", "d")
_NODE_COLUMN = Column("node", "Node")


def cmd_targets(cfg: RunConfig, warnings) -> Table:
    columns = [_NAME_COLUMN, *_SCENARIO_COLUMNS,
               *[Column(f"{task.value}_tops", task.label, ".3f") for task in BbuTask],
               Column("total_tops", "Total", ".3f")]

    def shared(stages: Stages) -> Columns:
        tops = stages.tops
        return stages.bandwidth, stages.antennas, *tops, left_sums(tops, len(tops[0]))

    return _table("targets", cfg, columns, warnings, shared=shared, notes=["units: TOPS"])


def cmd_power(cfg: RunConfig, warnings) -> Table:
    columns = [_NAME_COLUMN, *_SCENARIO_COLUMNS, _NODE_COLUMN, *[Column(*c, ".1f") for c in (
        ("cmos_bbu_w", "CMOS BBU (W)"), ("cmos_ru_w", "RU (W)"), ("cmos_pa_w", "PA (W)"),
        ("cmos_ps_w", "Power sys (W)"), ("cmos_fronthaul_w", "Fronthaul (W)"),
        ("cmos_total_w", "CMOS total (W)"), ("qa_silicon_w", "QA-side silicon (W)"),
        ("qa_refrigeration_w", "Refrigeration (W)"), ("qa_total_w", "QA total (W)"),
        ("delta_w", "Saving (W)"))]]

    def shared(stages: Stages, cmos: CmosProfile) -> Columns:
        cmos_w, qa_w, savings = stages.deployments(cmos)
        bbu, ru, pa, power_system, fronthaul, _, cmos_total = cmos_w
        qa_silicon, *_, refrigeration, qa_total = qa_w
        return (bbu, ru, pa, power_system, fronthaul, cmos_total, qa_silicon, refrigeration,
                qa_total, savings)

    return _table("power", cfg, columns, warnings, shared=shared, per_node=True)


def cmd_qubits(cfg: RunConfig, warnings) -> Table:
    columns = [_NAME_COLUMN, *_SCENARIO_COLUMNS, _SAMPLES_COLUMN, *[Column(*c) for c in (
        ("runtime_us", "Runtime (us)", ".0f"), ("fdnl_qubits", "Detection qubits", "d"),
        ("fec_qubits", "Decoding qubits", "d"), ("covered_fraction", "Covered fraction", ".4f"),
        ("total_qubits", "Total qubits", "d"), ("capacity", "Refrigerator capacity", "d"),
        ("fits", "Fits"))]]
    repeat = itertools.repeat

    def own(stages: Stages, samples: int) -> Columns:
        fdnl, fec, total, over = stages.budget(samples)
        return (stages.bandwidth, stages.antennas, repeat(samples),
                repeat(stages.runtime(samples)), fdnl, fec, repeat(MODELED_LOAD_FRACTION),
                total, repeat(stages.capacity), ["yes" if v is None else "no" for v in over])

    return _table("qubits", cfg, columns, warnings, own=own, scale=1,
                  warning="{name}: requirement {value} exceeds refrigerator capacity {capacity}")


def cmd_economics(cfg: RunConfig, warnings) -> Table:
    columns = [_NAME_COLUMN, *_SCENARIO_COLUMNS, _NODE_COLUMN,
               Column("delta_w", "Saving (W)", ".1f")]
    for years in cfg.horizons_years:
        label = format(years, "g")
        columns += [Column(f"opex_{label}yr_usd", f"OpEx {label}yr ($)", ".0f"),
                    Column(f"co2_{label}yr_kt", f"CO2 {label}yr (kt)", ".3f")]

    def shared(stages: Stages, cmos: CmosProfile) -> Columns:
        _, _, savings = stages.deployments(cmos)
        opex, co2 = cost_columns(savings, cfg.horizons_years, cfg.costs)
        return [savings, *itertools.chain.from_iterable(zip(opex, co2))]

    # The deployment's qubit ask: each cell's total times its n_bs cells.
    return _table(
        "economics", cfg, columns, warnings, shared=shared, per_node=True,
        scale=cfg.topology.n_bs,
        warning="{name} ({node}): qubit requirement {value} exceeds refrigerator capacity "
                "{capacity}",
        notes=["negative savings mean the annealer candidate draws more power; "
               "breakeven hardware budget equals the OpEx column at each horizon"],
    )


def cmd_timeline(cfg: RunConfig, warnings) -> Table:
    columns = [_NAME_COLUMN, *_SCENARIO_COLUMNS, _SAMPLES_COLUMN,
               Column("required_qubits", "Required qubits", "d"),
               Column("year_best", "Year (best case)", "d"),
               Column("year_worst", "Year (worst case)", "d"),
               *[Column(f"advantage_{p.node}_w", f"Advantage vs {p.node} (W)", ".1f")
                 for p in cfg.cmos_profiles]]

    best, worst = YearTable(BEST_CASE), YearTable(WORST_CASE)

    def own(stages: Stages, samples: int) -> Columns:
        total = stages.budget(samples)[2]
        return (stages.bandwidth, stages.antennas, itertools.repeat(samples), total,
                best.years(total), worst.years(total))

    def shared(stages: Stages) -> Columns:
        return [advantage_columns(stages.tops, cmos, cfg.qa_profile)
                for cmos in cfg.cmos_profiles]

    return _table(
        "timeline", cfg, columns, warnings, own=own, shared=shared,
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


def _emit(parts: Iterable[str], out_path: Optional[str]) -> None:
    """Write `parts`, and then close them where they can be closed."""
    try:
        if out_path is None:
            sys.stdout.writelines(parts)
        else:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(parts)
    finally:
        if hasattr(parts, "close"):
            parts.close()


class _Warnings:
    """Warnings written to stderr as they are gathered, or held as text
    while `held` is a list, until `release` writes them; only their count
    is kept. They come through `extend`, as a list takes them: those of one
    block in one write."""

    def __init__(self) -> None:
        self.count, self.held = 0, None

    def extend(self, warnings: List[str]) -> None:
        self.count += len(warnings)
        text = "".join([f"qaplan: warning: {warning}\n" for warning in warnings])
        if self.held is None:
            sys.stderr.write(text)
        else:
            self.held.append(text)

    def release(self, more: Iterable[str] = ()) -> None:
        """Write the held warnings and then the texts `more`, and hold no
        more."""
        sys.stderr.writelines(self.held)
        sys.stderr.writelines(more)
        self.held = None


# The blocks each process must render before a csv or json call is cut
# across processes: below this, forking costs more than it saves.
BLOCKS_PER_PROCESS = 16


def _cores(fmt: str) -> List[int]:
    """The cores a call in `fmt` may render its blocks on, one process
    each: for csv and json, those the process may use, where `os.fork`,
    `os.sched_getaffinity` and `os.memfd_create` exist and it runs one
    thread; else none."""
    if fmt not in ("csv", "json") or not all(hasattr(os, name) for name in (
            "fork", "sched_getaffinity", "memfd_create")):
        return []
    try:
        if len(os.listdir("/proc/self/task")) != 1:  # forking a threaded process is unsafe
            return []
    except OSError:
        return []
    return sorted(os.sched_getaffinity(0))


def _render(command: str, cfg: RunConfig, fmt: str, warnings: _Warnings) -> Iterable[str]:
    """The text of the subcommand's table in `fmt`. A call with at least
    `BLOCKS_PER_PROCESS` blocks for each of several cores (`_cores`) is
    rendered on them (`parallel.render`); where that fails, the table is
    rendered again on this process alone, as every other call is."""
    table = _COMMANDS[command](cfg, warnings)
    cores = _cores(fmt)[:table.rows.blocks // BLOCKS_PER_PROCESS]
    if len(cores) > 1:
        from .parallel import render

        text = render(table, fmt, cores, warnings)
        if text is not None:
            return text
    return render_parts(table, fmt)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or build_parser().parse_args(argv)
    # Warnings come first on stderr, also on failure: they may say why it failed.
    warnings = _Warnings()
    try:
        if args.paper_table:
            from .tables import PAPER_TABLES

            parts = render_parts(PAPER_TABLES[args.paper_table](), args.format)
        else:
            cfg = load_config(args.config)
            if args.sweep:  # the flags' sweep replaces the file's
                cfg = cfg._replace(sweep=parse_sweep_flags(args.sweep))
            parts = _render(args.command, cfg, args.format, warnings)
        _emit(parts, args.out)
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
