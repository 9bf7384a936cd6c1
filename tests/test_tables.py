"""Reference report builders: shapes, key cells, and defect flags."""

import pytest

from qaplan.cli import PAPER_TABLE_NAMES
from qaplan.cmos import CMOS_14NM
from qaplan.economics import BsTopology, CostAssumptions, CranTopology, compare, cost_report
from qaplan.qa_hardware import QA_PROJECTED, qmi_runtime_us
from qaplan.qubit_budget import total_budget
from qaplan.tables import (
    COSTSAVINGS_DELTAS,
    COSTSAVINGS_HORIZONS,
    PAPER_TABLES,
    costsavings_table,
    energy_table,
    powerbenefit_table,
    qubits_time_table,
    readout_table,
    targets_table,
)
from qaplan.workload import BbuTask, CellScenario, workload


def test_registry_is_complete():
    assert set(PAPER_TABLES) == {
        "targets", "energy", "readout", "qubits-time", "powerbenefit", "costsavings",
    }
    # The cli offers them by name without importing this module.
    assert PAPER_TABLE_NAMES == tuple(sorted(PAPER_TABLES))


def test_targets_shape_and_cells():
    t = targets_table()
    assert [r["task"] for r in t.records()][-1] == "Total"
    assert len(t.records()) == 9
    ref = {r["task"]: r["reference"] for r in t.records()}
    assert ref["FEC"] == pytest.approx(0.140)
    total = t.records()[-1]
    assert total["4g_8"] == pytest.approx(15.040)
    # the one divergent printed total reports the column sum, with a flag
    assert total["5g200_128"] == pytest.approx(6553.6)
    assert any("paper-inconsistent" in n for n in t.notes)


def test_energy_rows():
    t = energy_table()
    assert [r["dacs"] for r in t.records()] == [4_544, 18_304, 70_056, 135_000_000]
    first = t.records()[0]
    assert first["energy_55ua_j"] == pytest.approx(6.615e-14, rel=1e-3)
    assert first["energy_1ua_j"] == pytest.approx(1.2027e-15, rel=1e-3)
    assert any("paper-inconsistent" in n for n in t.notes)


def test_readout_rows():
    t = readout_table()
    assert [r["time_division"] for r in t.records()] == [16, 32, 52, 2236]
    assert [r["freq_mux_q1e3"] for r in t.records()] == [512, 666, 666, 666]
    assert [r["freq_mux_q1e6"] for r in t.records()] == [512, 2048, 5436, 666_666]


def test_qubits_time_rows_and_flags():
    t = qubits_time_table()
    got = [
        (r["samples"], r["runtime_us"], r["fdnl_qubits"], r["fec_qubits"],
         r["total_qubits"])
        for r in t.records()
    ]
    assert got == [
        (1, 45.0, 530_842, 567_706, 1_464_731),
        (20, 102.0, 1_203_241, 1_286_800, 3_320_055),
        (50, 192.0, 2_264_925, 2_422_211, 6_249_515),
        (100, 342.0, 4_034_397, 4_314_563, 11_131_947),
    ]
    flagged = [n for n in t.notes if "paper-inconsistent" in n]
    assert len(flagged) == 2
    assert any("samples=1;" in n for n in flagged)
    assert any("samples=20;" in n for n in flagged)


def test_powerbenefit_rows():
    t = powerbenefit_table()
    assert [r["bandwidth_mhz"] for r in t.records()] == [50, 100, 200, 400]
    heavy = t.records()[-1]
    assert heavy["qubits_bs"] == 3_320_055
    assert heavy["qubits_cran"] == 3 * 3_320_055
    assert heavy["bs_cmos_kw"] == pytest.approx(96.64, rel=1e-3)
    assert heavy["bs_qa_kw"] == pytest.approx(44.58, rel=1e-3)
    assert heavy["cran_cmos_mw"] == pytest.approx(0.31213, rel=1e-3)
    assert heavy["cran_qa_mw"] == pytest.approx(0.11915, rel=1e-3)
    light = t.records()[0]
    assert light["qubits_bs"] == 415_008
    assert light["bs_cmos_kw"] == pytest.approx(20.54, rel=1e-3)


def test_costsavings_rows():
    t = costsavings_table()
    assert [r["years"] for r in t.records()] == [1, 2, 5, 10]
    first, last = t.records()[0], t.records()[-1]
    assert first["cost_bs64_usd"] == pytest.approx(51_359.88)
    assert first["co2_bs64_kt"] == pytest.approx(0.1499, rel=1e-3)
    assert first["cost_cran_usd"] == pytest.approx(199_176.1, rel=1e-6)
    assert last["cost_bs128_usd"] == pytest.approx(2_355_038.4)
    assert last["co2_cran_kt"] == pytest.approx(5.8124, rel=1e-3)
    assert t.notes  # deltas come from the source, not compare()


# The model-derived tables read the CLI's block evaluation at the built-in
# config. Each cell equals, exactly, what the one-scenario reference API
# gives at the reference operating point: 14 nm silicon, the projected
# annealer, 20 samples and the default cost assumptions.


def test_targets_cells_equal_the_one_scenario_workload():
    scenarios = {"reference": CellScenario(20, 6, 1.0, 1)}
    for group, bw in (("4g", 20), ("5g200", 200), ("5g400", 400)):
        for antennas in ((2, 4, 8) if bw == 20 else (32, 64, 128)):
            scenarios[f"{group}_{antennas}"] = CellScenario(bw, 6, 0.5, antennas)
    t = targets_table()
    assert [c.key for c in t.columns[1:]] == list(scenarios)
    assert [r["task"] for r in t.records()] == [task.label for task in BbuTask] + ["Total"]
    for key, scenario in scenarios.items():
        load = workload(scenario)
        assert [r[key] for r in t.records()] == [load.tops[task] for task in BbuTask] + [
            load.total_tops]


def test_qubits_time_cells_equal_total_budget():
    load = workload(CellScenario(400, 6, 0.5, 64))
    expected = []
    for samples in (1, 20, 50, 100):
        budget = total_budget(load, QA_PROJECTED, samples)
        expected.append({"samples": samples, "runtime_us": qmi_runtime_us(QA_PROJECTED, samples),
                         "fdnl_qubits": budget.per_task[BbuTask.FD_NL],
                         "fec_qubits": budget.per_task[BbuTask.FEC],
                         "total_qubits": budget.total})
    assert qubits_time_table().records() == expected


def test_powerbenefit_cells_equal_compare():
    t = powerbenefit_table()
    for row, bw in zip(t.records(), (50, 100, 200, 400), strict=True):
        scenario = CellScenario(bw, 6, 0.5, 64)
        bs, cran = [compare(scenario, CMOS_14NM, QA_PROJECTED, 20, topology)
                    for topology in (BsTopology(), CranTopology())]
        assert row == {"bandwidth_mhz": bw,
                       "qubits_bs": bs.budget.total, "qubits_cran": cran.budget.total,
                       "bs_cmos_kw": bs.cmos.total_w / 1e3, "bs_qa_kw": bs.qa.total_w / 1e3,
                       "cran_cmos_mw": cran.cmos.total_w / 1e6,
                       "cran_qa_mw": cran.qa.total_w / 1e6}
        # The C-RAN ask is one cell's budget times its n_bs cells.
        per_cell = total_budget(workload(scenario), QA_PROJECTED, 20).total
        assert (row["qubits_bs"], row["qubits_cran"]) == (per_cell, per_cell * 3)


def test_costsavings_cells_equal_cost_report():
    t = costsavings_table()
    assert [r["years"] for r in t.records()] == list(COSTSAVINGS_HORIZONS)
    for name, delta_w in COSTSAVINGS_DELTAS:
        report = cost_report(delta_w, COSTSAVINGS_HORIZONS, CostAssumptions())
        assert [r[f"cost_{name}_usd"] for r in t.records()] == list(report.opex_savings_usd)
        assert [r[f"co2_{name}_kt"] for r in t.records()] == list(report.co2_savings_kt)
