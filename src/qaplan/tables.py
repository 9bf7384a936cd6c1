"""Reference report builders.

Each builder reproduces one table of the published reference analysis
this tool models, computed live from the model. Cells where the published
print is known to disagree with its own stated formulas carry a
"paper-inconsistent" note naming the cell, so downstream consumers can
tell a model bug from a known print defect.

The tables the model derives read the evaluation the CLI reads, at the
built-in config (`config.default_config()`): `targets` is one
`task_tops` pass over its scenarios, `qubits-time` and `powerbenefit`
read `evaluate.Stages` over one block, and `costsavings` is one
`cost_columns` call. This module does not import the CLI.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, List, Sequence

from .config import default_config
from .economics import BsTopology, CranTopology, cost_columns
from .emit import Block, Column, Rows, Table
from .evaluate import Stages
from .qa_hardware import programming_energy, readout_parallelism
from .qubit_budget import MODELED_LOAD_FRACTION
from .workload import BbuTask, CellScenario, left_sums, task_tops


def _table(name: str, columns: List[Column], cells: Sequence[Sequence],
           notes: Sequence[str] = ()) -> Table:
    """A table of one block: `cells` holds each column's cells in row order."""
    at = range(len(cells[0]))
    return Table(name, columns, Rows.of([Block([cells], [], at, at)]), notes)


def targets_table() -> Table:
    """Per-task compute targets across reference cell configurations."""
    scenarios = [("reference", CellScenario(20, 6, 1.0, 1), ".3f")]
    for bw, group in ((20, "4g"), (200, "5g200"), (400, "5g400")):
        for antennas in ((2, 4, 8) if bw == 20 else (32, 64, 128)):
            scenarios.append((f"{group}_{antennas}", CellScenario(bw, 6, 0.5, antennas),
                              ".3f" if bw == 20 else ".1f"))
    columns = [Column("task", "Task"), *[Column(key, key, spec) for key, _, spec in scenarios]]
    tops = task_tops(*zip(*[scenario for _, scenario, _ in scenarios]))
    # Each scenario's column: its tasks' TOPS, then their total.
    per_scenario = zip(*tops, left_sums(tops, len(scenarios)))
    return _table(
        "targets", columns, [[t.label for t in BbuTask] + ["Total"], *per_scenario],
        notes=[
            "units: TOPS; 64-QAM, coding rate 0.5 (reference column at rate 1.0), "
            "full duty cycles",
            "paper-inconsistent: total at 5g200_128; source prints 6,533.6 but its "
            "column sums to 6,553.6; tool reports the sum",
        ],
    )


# Device generations the programming-energy report covers: historical
# sizes with their shipped coupler counts, plus a projected large device.
ENERGY_DEVICES = (
    (512, 1_472),
    (2_048, 6_016),
    (5_436, 37_440),
    (10_000_000, 75_000_000),
)


def energy_table() -> Table:
    """Worst-case programming dissipation and thermalization per device."""
    columns = [
        Column("qubits", "Qubits", "d"),
        Column("couplers", "Couplers", "d"),
        Column("dacs", "DACs", "d"),
        Column("energy_55ua_j", "E @55uA (J)", ".4e"),
        Column("therm_55ua_s", "t @55uA (s)", ".4e"),
        Column("energy_1ua_j", "E @1uA (J)", ".4e"),
        Column("therm_1ua_s", "t @1uA (s)", ".4e"),
    ]
    qubits, couplers = zip(*ENERGY_DEVICES)
    # Per critical current, the devices' energy, thermalization and DAC columns.
    (energy_55ua, therm_55ua, dacs), (energy_1ua, therm_1ua, _) = [
        zip(*[programming_energy(n_qubits, n_couplers, i_c_a)
              for n_qubits, n_couplers in ENERGY_DEVICES]) for i_c_a in (55e-6, 1e-6)]
    return _table(
        "energy", columns, [qubits, couplers, dacs, energy_55ua, therm_55ua, energy_1ua, therm_1ua],
        notes=[
            "paper-inconsistent: energy_1ua_j and therm_1ua_s at qubits=512; source "
            "prints ~1 fJ / 33 ps, linear scaling of its own 55 uA cell gives 1.2 fJ "
            "/ 40 ps; tool reports the computed values",
        ],
    )


READOUT_DEVICES = (512, 2_048, 5_436, 10_000_000)


def readout_table() -> Table:
    """Readout parallelism by scheme and device size."""
    columns = [
        Column("qubits", "Qubits", "d"),
        Column("time_division", "Time-division", "d"),
        Column("freq_mux_q1e3", "Freq-mux Qr=1e3", "d"),
        Column("freq_mux_q1e6", "Freq-mux Qr=1e6", "d"),
    ]
    schemes = (("time-division",), ("frequency-multiplex", 1e3), ("frequency-multiplex", 1e6))
    return _table("readout", columns, [READOUT_DEVICES, *[
        [readout_parallelism(n, *scheme) for n in READOUT_DEVICES] for scheme in schemes]])


QUBITS_TIME_SAMPLES = (1, 20, 50, 100)
# Published totals at these sample counts disagree with the published
# per-task rows; kept here to annotate emissions.
QUBITS_TIME_DIVERGENT = {1: "1.60M", 20: "1.99M"}


def qubits_time_table() -> Table:
    """Qubit requirement vs problem runtime for the built-in heavy 5G cell."""
    columns = [
        Column("samples", "Samples", "d"),
        Column("runtime_us", "Runtime (us)", ".0f"),
        Column("fdnl_qubits", "Detection qubits", "d"),
        Column("fec_qubits", "Decoding qubits", "d"),
        Column("total_qubits", "Total qubits", "d"),
    ]
    cfg = default_config()
    stages = Stages(cfg)
    stages.start(list(zip(*[scenario for _, scenario in cfg.scenarios])))
    # Per sample count, the cell's detection, decoding and total qubits.
    budgets = [[part[0] for part in stages.budget(samples)[:3]]
               for samples in QUBITS_TIME_SAMPLES]
    notes = [
        f"paper-inconsistent: total_qubits at samples={samples}; source "
        f"prints {QUBITS_TIME_DIVERGENT[samples]}, which disagrees with its "
        f"own per-task rows; tool reports per-task sum scaled by covered "
        f"fraction {MODELED_LOAD_FRACTION}"
        for samples in QUBITS_TIME_SAMPLES if samples in QUBITS_TIME_DIVERGENT
    ]
    cells = [QUBITS_TIME_SAMPLES, list(map(stages.runtime, QUBITS_TIME_SAMPLES)), *zip(*budgets)]
    return _table("qubits-time", columns, cells, notes)


POWERBENEFIT_BANDWIDTHS = (50, 100, 200, 400)


def powerbenefit_table() -> Table:
    """Qubit ask and power for both candidates across bandwidths (64 ant)."""
    columns = [
        Column("bandwidth_mhz", "B/W (MHz)", "d"),
        Column("qubits_bs", "Qubits BS", "d"),
        Column("qubits_cran", "Qubits C-RAN", "d"),
        Column("bs_cmos_kw", "BS CMOS (kW)", ".1f"),
        Column("bs_qa_kw", "BS QA (kW)", ".1f"),
        Column("cran_cmos_mw", "C-RAN CMOS (MW)", ".3f"),
        Column("cran_qa_mw", "C-RAN QA (MW)", ".3f"),
    ]
    cfg = default_config()
    base = cfg.scenarios[0][1]
    scenarios = [base._replace(bandwidth_mhz=bw) for bw in POWERBENEFIT_BANDWIDTHS]
    qubits, power = [], []
    for topology, unit in ((BsTopology(), 1e3), (CranTopology(), 1e6)):
        stages = Stages(cfg._replace(topology=topology))
        stages.start(list(zip(*scenarios)))
        # The deployment's qubit ask: each cell's total times its n_bs cells.
        qubits.append([total * topology.n_bs for total in stages.budget(cfg.samples)[2]])
        (*_, cmos_total), (*_, qa_total), _ = stages.deployments(cfg.cmos_profiles[0])
        power += [[watts / unit for watts in total] for total in (cmos_total, qa_total)]
    return _table(
        "powerbenefit", columns, [POWERBENEFIT_BANDWIDTHS, *qubits, *power],
        notes=[
            "qubit columns run ~7% above the source's printed counts (386K-3.08M "
            "BS), whose derivation from its stated per-task models is not exactly "
            "recoverable; power columns reproduce the source within 15%",
        ],
    )


# Power savings the published cost table was computed from (watts).
COSTSAVINGS_DELTAS = (
    ("bs64", 41e3),
    ("bs128", 188e3),
    ("cran", 159e3),
)
COSTSAVINGS_HORIZONS = (1, 2, 5, 10)


def costsavings_table() -> Table:
    """Operating savings of the annealer candidate at the source's deltas."""
    columns = [Column("years", "Years", "d")]
    for name, _ in COSTSAVINGS_DELTAS:
        columns.append(Column(f"cost_{name}_usd", f"Cost {name} ($)", ".0f"))
        columns.append(Column(f"co2_{name}_kt", f"CO2 {name} (kt)", ".2f"))
    opex, co2 = cost_columns([delta_w for _, delta_w in COSTSAVINGS_DELTAS],
                             COSTSAVINGS_HORIZONS, default_config().costs)
    # Per delta, its cost and CO2 columns over the horizons.
    per_delta = chain.from_iterable(zip(zip(*opex), zip(*co2)))
    return _table(
        "costsavings", columns, [COSTSAVINGS_HORIZONS, *per_delta],
        notes=[
            "power deltas fixed at the source's stated savings (41/188/159 kW for "
            "bs64/bs128/cran); this tool's own comparison yields larger deltas "
            "within the models' agreement band",
        ],
    )


PAPER_TABLES: Dict[str, Callable[[], Table]] = {
    "targets": targets_table,
    "energy": energy_table,
    "readout": readout_table,
    "qubits-time": qubits_time_table,
    "powerbenefit": powerbenefit_table,
    "costsavings": costsavings_table,
}
