"""The CLI's shared evaluation against an unshared evaluation per point.

The tables compute each quantity once per run of equal scenarios, per
cmos node or per point. Every cell must still equal, bit for bit, what the
model functions give when called afresh for that row.
"""

from hypothesis import example, given, settings, strategies as st

from qaplan.cli import (_expand_points, cmd_economics, cmd_power, cmd_qubits,
                        cmd_targets, cmd_timeline)
from qaplan.config import parse_config
from qaplan.economics import compare, cost_report, offload_advantage_w
from qaplan.qa_hardware import qmi_runtime_us, refrigerator_qubit_capacity
from qaplan.qubit_budget import total_budget
from qaplan.timeline import BEST_CASE, WORST_CASE, year_available
from qaplan.workload import BbuTask, workload

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


@settings(max_examples=60, deadline=None)
@given(configs, sweeps)
@example(
    {"topology": {"kind": "cran", "n_bs": 3}, "cmos": ["65nm", "14nm", "1.5nm"],
     "qa": {"profile": "projected"}, "horizons_years": [1, 10]},
    {"bandwidth_mhz": [100.0, 100.0], "samples": [20, 1, 20],
     "modulation_bits": [6, 2]},
)
def test_every_cell_matches_an_unshared_evaluation(doc, sweep):
    cfg = parse_config(doc)
    points = _expand_points(cfg, sweep, [])
    qa, topology = cfg.qa_profile, cfg.topology
    capacity = refrigerator_qubit_capacity()

    targets = iter(cmd_targets(cfg, points, []).rows)
    qubits = iter(cmd_qubits(cfg, points, []).rows)
    timeline = iter(cmd_timeline(cfg, points, []).rows)
    power = iter(cmd_power(cfg, points, []).rows)
    economics_warnings = []
    economics = iter(cmd_economics(cfg, points, economics_warnings).rows)
    expected_warnings = []

    for name, scenario, samples in points:
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
