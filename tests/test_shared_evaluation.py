"""The CLI's block evaluation against an unshared evaluation per point.

The tables evaluate blocks of scenarios, each stage as one pass over a
block: per scenario, per scenario and sample count, or per scenario and
cmos node, and the problem runtime once per sample count. Every cell must
still equal, bit for bit, what the model functions give when called
afresh for that row.
"""

import functools
import itertools
import math
import unittest.mock

import pytest
from hypothesis import example, given, settings, strategies as st

from qaplan import cli, evaluate, qubit_budget
from qaplan.cli import (_COMMANDS, _expand_points, cmd_economics, cmd_power, cmd_qubits,
                        cmd_targets, cmd_timeline)
from qaplan.config import SWEEP_AXES, parse_config, parse_sweep
from qaplan.economics import compare, cost_report, offload_advantage_w
from qaplan.qa_hardware import qmi_runtime_us, refrigerator_qubit_capacity
from qaplan.qubit_budget import problem_runtime, total_budget
from qaplan.timeline import BEST_CASE, WORST_CASE, year_available
from qaplan.workload import SCENARIO_FIELDS, BbuTask, CellScenario, _fixed, task_tops, workload

# Small value sets, drawn with repeats, so runs of equal scenarios and
# equal neighbouring values both occur.
AXIS_VALUES = {
    "bandwidth_mhz": [20.0, 100.0, 400.0],
    "antennas": [8, 64],
    "samples": [1, 20, 50],
    "modulation_bits": [2, 6],  # after samples in row order
    "coding_rate": [0.5, 1.0],
}

topologies = st.one_of(
    st.just({"kind": "bs"}),
    st.builds(lambda n: {"kind": "cran", "n_bs": n}, st.integers(1, 4)),
)
configs = st.fixed_dictionaries({
    "topology": topologies,
    "cmos": st.lists(st.sampled_from(["65nm", "14nm", "1.5nm"]),
                     min_size=1, max_size=3, unique=True),
    "qa": st.sampled_from([{"profile": "projected"}, {"profile": "current"}]),
    "horizons_years": st.sampled_from([[1, 10], [2.5]]),
})
sweeps = st.dictionaries(
    st.sampled_from(sorted(AXIS_VALUES)),
    st.none(),
    min_size=1,
).flatmap(lambda axes: st.fixed_dictionaries({
    axis: st.lists(st.sampled_from(AXIS_VALUES[axis]), min_size=1, max_size=3)
    for axis in axes
}))


def _rows_of(points):
    """(name, scenario, samples) per point, in row order: per block, per
    group of `inner` scenarios, per sample count, per scenario."""
    for block in points:
        scenarios = [CellScenario(*fields) for fields in zip(*block.fields)]
        for start in range(0, len(scenarios), block.inner):
            for samples, label in zip(block.samples, block.labels):
                for i in range(start, start + block.inner):
                    yield block.prefixes[i] + label, scenarios[i], samples


def _reference_points(cfg, sweep):
    """The grid walked one point at a time: every axis in `SWEEP_AXES`
    order, the last fastest, and the samples label last in a name."""
    if not sweep:
        return [(name, scenario, cfg.samples) for name, scenario in cfg.scenarios]
    base_name, base = cfg.scenarios[0]
    axes = [axis for axis in SWEEP_AXES if axis in sweep]
    points = []
    for combo in itertools.product(*[sweep[axis] for axis in axes]):
        values = dict(zip(axes, combo))
        samples = values.pop("samples", cfg.samples)
        labels = [f"{axis}={cli._label(value)}" for axis, value in values.items()]
        if "samples" in sweep:
            labels.append(f"samples={samples}")
        points.append((f"{base_name}[{','.join(labels)}]",
                       base._replace(**values), samples))
    return points


@settings(max_examples=60, deadline=None)
@given(configs, sweeps)
@example(
    {"topology": {"kind": "cran", "n_bs": 3}, "cmos": ["65nm", "14nm", "1.5nm"],
     "qa": {"profile": "projected"}, "horizons_years": [1, 10]},
    {"bandwidth_mhz": [100.0, 100.0], "samples": [20, 1, 20],
     "modulation_bits": [6, 2]},
)
def test_every_cell_matches_an_unshared_evaluation(doc, sweep):
    cfg = parse_config(doc)._replace(sweep=sweep)
    points = _expand_points(cfg, [])
    assert list(_rows_of(points)) == _reference_points(cfg, sweep)
    assert len(points) == len(_reference_points(cfg, sweep))
    qa, topology = cfg.qa_profile, cfg.topology
    capacity = refrigerator_qubit_capacity()

    targets = iter(cmd_targets(cfg, []).records())
    qubits = iter(cmd_qubits(cfg, []).records())
    timeline = iter(cmd_timeline(cfg, []).records())
    power = iter(cmd_power(cfg, []).records())
    economics_warnings = []
    economics = iter(cmd_economics(cfg, economics_warnings).records())
    expected_warnings = []

    for name, scenario, samples in _rows_of(points):
        load = workload(scenario)
        row = next(targets)
        assert [row[f"{t.value}_tops"] for t in BbuTask] == [load.tops[t] for t in BbuTask]
        assert row["total_tops"] == load.total_tops

        budget = total_budget(load, qa, samples)
        row = next(qubits)
        assert row["runtime_us"] == qmi_runtime_us(qa, samples)
        assert row["fdnl_qubits"] == budget.per_task[BbuTask.FD_NL]
        assert row["fec_qubits"] == budget.per_task[BbuTask.FEC]
        assert row["covered_fraction"] == budget.covered_fraction
        assert row["total_qubits"] == budget.total

        row = next(timeline)
        assert row["required_qubits"] == budget.total
        assert row["year_best"] == year_available(BEST_CASE, budget.total)
        assert row["year_worst"] == year_available(WORST_CASE, budget.total)
        for profile in cfg.cmos_profiles:
            assert row[f"advantage_{profile.node}_w"] == offload_advantage_w(
                scenario, profile, qa)

        for profile in cfg.cmos_profiles:
            result = compare(scenario, profile, qa, samples, topology)
            row = next(power)
            assert (row["name"], row["node"]) == (name, profile.node)
            assert [row[key] for key in (
                "cmos_bbu_w", "cmos_ru_w", "cmos_pa_w", "cmos_ps_w",
                "cmos_fronthaul_w", "cmos_total_w",
                "qa_silicon_w", "qa_refrigeration_w", "qa_total_w", "delta_w",
            )] == [
                result.cmos.bbu_w, result.cmos.ru_w, result.cmos.pa_w,
                result.cmos.power_system_w, result.cmos.fronthaul_w,
                result.cmos.total_w,
                result.qa.bbu_w, result.qa.refrigeration_w, result.qa.total_w,
                result.delta_w,
            ]

            report = cost_report(result.delta_w, cfg.horizons_years, cfg.costs)
            row = next(economics)
            assert (row["name"], row["node"]) == (name, profile.node)
            assert row["delta_w"] == result.delta_w
            for i, years in enumerate(cfg.horizons_years):
                label = format(years, "g")
                assert row[f"opex_{label}yr_usd"] == report.opex_savings_usd[i]
                assert row[f"co2_{label}yr_kt"] == report.co2_savings_kt[i]
            if result.budget.total > capacity:
                expected_warnings.append(
                    f"{name} ({profile.node}): qubit requirement "
                    f"{result.budget.total} exceeds refrigerator capacity {capacity}")

    for rows in (targets, qubits, timeline, power, economics):
        assert next(rows, None) is None
    assert economics_warnings == expected_warnings


def _evaluate(monkeypatch, command, doc, sweep):
    """The rows of `command`, the scenarios that reached the column workload,
    and the runtime evaluations, counted."""
    scenarios, runtimes = [], []

    def counted_tops(*columns):
        scenarios.extend(zip(*columns))
        return task_tops(*columns)

    def counted_runtime(profile, samples):
        runtimes.append(samples)
        return qmi_runtime_us(profile, samples)

    monkeypatch.setattr(evaluate, "task_tops", counted_tops)
    monkeypatch.setattr(qubit_budget, "qmi_runtime_us", counted_runtime)
    cfg = parse_config(doc)._replace(sweep=sweep)
    rows = list(command(cfg, []).rows)
    return rows, scenarios, runtimes


_READS_RUNTIME = ("economics", "qubits", "timeline")


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@pytest.mark.parametrize("sweep,points,scenarios", [
    ({"samples": [1, 20, 50], "antennas": [8, 64]}, 6, 2),
    # modulation_bits comes after samples in row order: a scenario's rows
    # are apart, and it is still evaluated once.
    ({"samples": [1, 20], "modulation_bits": [2, 6]}, 4, 2),
])
def test_each_scenario_reaches_the_column_workload_once(monkeypatch, command, sweep, points,
                                                        scenarios):
    rows, seen, runtimes = _evaluate(monkeypatch, _COMMANDS[command], {"cmos": ["14nm"]},
                                     sweep)
    assert (len(rows), len(seen), len(set(seen))) == (points, scenarios, scenarios)
    assert sorted(runtimes) == (sweep["samples"] if command in _READS_RUNTIME else [])
    # The rows of one scenario hand over one shared tuple.
    assert len({id(shared) for _, shared in rows}) == (
        1 if command == "qubits" else scenarios)


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_the_runtime_runs_once_per_sample_count_per_call(monkeypatch, command):
    # The benchmark's 30k-point grid: 10,000 scenarios over many blocks.
    sweep = parse_sweep({"bandwidth_mhz": list(range(10, 1001, 10)),
                         "antennas": list(range(1, 101)), "samples": [1, 20, 50]})
    rows, seen, runtimes = _evaluate(monkeypatch, _COMMANDS[command], {}, sweep)
    assert (len(rows), len(seen)) == (30_000, 10_000)
    assert runtimes == ([1, 20, 50] if command in _READS_RUNTIME else [])


def test_equal_configured_scenarios_are_runs_of_their_own(monkeypatch):
    # Two configured scenarios, each evaluated on its own, although they are equal.
    doc = {"scenarios": [{"name": "a", "bandwidth_mhz": 100},
                         {"name": "b", "bandwidth_mhz": 100}]}
    (a, b), seen, _ = _evaluate(monkeypatch, cmd_targets, doc, {})
    assert len(seen) == 2
    assert (a[0], b[0]) == (("a",), ("b",))
    assert a[1] == b[1] and a[1] is not b[1]


def test_per_node_rows_take_turns_between_the_nodes_shared_tuples(monkeypatch):
    sweep = {"samples": [1, 20, 50], "antennas": [8, 64]}
    rows, _, _ = _evaluate(monkeypatch, cmd_power, {"cmos": ["65nm", "14nm"]}, sweep)
    shared = [s for _, s in rows]
    assert len({id(s) for s in shared}) == 4  # 2 scenarios x 2 nodes
    for scenario in (shared[:6], shared[6:]):
        assert scenario[0] is scenario[2] is scenario[4]
        assert scenario[1] is scenario[3] is scenario[5]
        assert scenario[0] is not scenario[1]


_TASKS = list(BbuTask)


def _stages(fdnl_tops, fec_tops, antennas, modulation, scale):
    """A fresh `Stages` over a block whose detection and decoding TOPS are
    given, the other tasks' 0."""
    tops = [[0.0] * len(antennas) for _ in _TASKS]
    tops[_TASKS.index(BbuTask.FD_NL)], tops[_TASKS.index(BbuTask.FEC)] = fdnl_tops, fec_tops
    fields = {"antennas": antennas, "modulation_bits": modulation}
    stages = evaluate.Stages(parse_config({}), scale)
    with unittest.mock.patch.object(evaluate, "task_tops", lambda *columns: tuple(tops)):
        stages.start([fields.get(f, [1.0] * len(antennas)) for f in SCENARIO_FIELDS])
    return stages


@functools.lru_cache(maxsize=None)
def _decoding_tops_past(limit, samples):
    """The least decoding TOPS whose one-cell total exceeds `limit`: one
    float less gives the largest total within it."""
    def past(tops):
        return _stages([0.0], [tops], [1], [6], 1).budget(samples)[2][0] > limit

    low, high = 0.0, 1.0
    while not past(high):
        high *= 2
    while (low + high) / 2 not in (low, high):
        middle = (low + high) / 2
        low, high = (low, middle) if past(middle) else (middle, high)
    return high


def _verdict_or_error(stages, samples, read):
    try:
        return read(stages, samples)
    except ValueError as exc:
        return repr(exc)


_SCALES = [1, 3, 10_000]
_SAMPLES = [1, 20, 50]


@pytest.mark.parametrize("scale", _SCALES)
@pytest.mark.parametrize("samples", _SAMPLES)
def test_the_verdict_holds_at_the_totals_either_side_of_the_limit(scale, samples):
    limit = refrigerator_qubit_capacity() // scale
    edge = _decoding_tops_past(limit, samples)
    for tops, fits in ((math.nextafter(edge, 0), True), (edge, False)):
        total = _stages([0.0], [tops], [1], [6], scale).budget(samples)[2][0]
        assert (total <= limit) is fits
        assert _stages([0.0], [tops], [1], [6], scale).verdict(samples) == (
            [None] if fits else [total * scale])
    # A nan after a rate that fits, which `max` passes over, still raises.
    block = ([0.0, 0.0], [math.nextafter(edge, 0), math.nan], [1, 1], [6, 6], scale)
    with pytest.raises(ValueError, match="qubit requirement at nan TOPS is not finite"):
        _stages(*block).verdict(samples)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_verdict_bound_gives_the_budget_s_verdict(data):
    # The bound is exact: on blocks fitting and not, with totals at the
    # limit and just past it, and with rates, counts or runtimes that are
    # not finite, the verdict from the bound equals the full budget's, or
    # raises as it does.
    scale = data.draw(st.sampled_from(_SCALES))
    samples = data.draw(st.sampled_from(_SAMPLES + [10**300, 10**306]))
    edge = _decoding_tops_past(refrigerator_qubit_capacity() // scale, min(samples, 50))
    tops = (st.sampled_from([0.0, math.nextafter(edge, 0), edge, 1e290, 1e300, math.inf,
                             math.nan])
            | st.floats(0, 2 * edge))
    n = data.draw(st.integers(1, 5))
    block = (data.draw(st.lists(st.just(0.0) | tops, min_size=n, max_size=n)),
             data.draw(st.lists(tops, min_size=n, max_size=n)),
             data.draw(st.lists(st.integers(1, 128), min_size=n, max_size=n)),
             data.draw(st.lists(st.sampled_from([1, 2, 4, 6, 8]), min_size=n, max_size=n)))
    assert (_verdict_or_error(_stages(*block, scale), samples, evaluate.Stages.verdict)
            == _verdict_or_error(_stages(*block, scale), samples,
                                 lambda stages, s: stages.budget(s)[3]))


@pytest.mark.parametrize("sweep,warned", [
    ({"bandwidth_mhz": [100.0, 400.0], "antennas": [8, 64], "samples": [1, 20, 50]}, []),
    # Each antenna count is a block of its own, and only 50 samples warn.
    ({"bandwidth_mhz": [1000.0], "antennas": [64, 100], "samples": [1, 20, 50]}, [50, 50]),
])
def test_the_full_budget_runs_only_where_the_bound_does_not_fit(monkeypatch, sweep, warned):
    runtimes = []

    def counted(*args):
        runtimes.append(args[-1])
        return qubit_budget.budget_columns(*args)

    monkeypatch.setattr(evaluate, "budget_columns", counted)
    monkeypatch.setattr(cli, "BLOCK", 1)
    cfg = parse_config({})._replace(sweep=sweep)
    warnings = []
    list(cmd_economics(cfg, warnings).rows)
    assert runtimes == [problem_runtime(cfg.qa_profile, s) for s in warned]
    assert len(warnings) == (2 if warned else 0)


_GRID30K = {"bandwidth_mhz": list(range(10, 1001, 10)), "antennas": list(range(1, 101)),
            "samples": [1, 20, 50]}
_CRAN3 = {"bandwidth_mhz": list(range(20, 1001, 20)), "antennas": [8, 16, 32, 64, 128],
          "modulation_bits": [2, 4, 6, 8]}


@pytest.mark.parametrize("sweep", [_GRID30K, _CRAN3], ids=["grid30k", "cran3"])
def test_blocks_hold_whole_runs_of_the_last_outer_axis(sweep):
    cfg = parse_config({})._replace(sweep=parse_sweep(sweep))
    blocks = list(_expand_points(cfg, []))
    bandwidth, antennas, modulation = map(SCENARIO_FIELDS.index,
                                          ("bandwidth_mhz", "antennas", "modulation_bits"))
    for block in blocks:
        if sweep is _GRID30K:  # one bandwidth, as one object, by 100 antennas
            assert _fixed(block.fields[bandwidth])
            assert block.fields[antennas] == _GRID30K["antennas"]
        else:  # whole antenna runs, each over the four modulations
            runs = len(block.prefixes) // 4
            assert block.fields[modulation] == _CRAN3["modulation_bits"] * runs
    assert len(blocks) == (100 if sweep is _GRID30K else 8)
    assert list(_rows_of(blocks)) == _reference_points(cfg, sweep)
