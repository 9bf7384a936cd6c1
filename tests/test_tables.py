"""Reference report builders: shapes, key cells, and defect flags."""

import pytest

from qaplan.cli import PAPER_TABLE_NAMES
from qaplan.tables import (
    PAPER_TABLES,
    costsavings_table,
    energy_table,
    powerbenefit_table,
    qubits_time_table,
    readout_table,
    targets_table,
)


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
