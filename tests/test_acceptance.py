"""End-to-end checks against the published values this tool reproduces.

One test per numbered criterion; each prints a single PASS/FAIL line
(visible under pytest -s / -rA) and fails with every cell miss listed.
Cells the source prints inconsistently with its own formulas are checked
at printed precision and must carry a "paper-inconsistent" note in the
corresponding emission; everything else is checked at the stated
tolerance. Criterion 11 runs the model invariants on a fixed-seed RNG,
1000 cases per suite.
"""

import math
import random

from qaplan.cmos import scaled_profile
from qaplan.economics import (
    BsTopology,
    CranTopology,
    compare,
    cost_report,
)
from qaplan.emit import Column, Table, read_csv, read_json, render_csv, render_json
from qaplan.qa_hardware import (
    QA_PROJECTED,
    die_count,
    programming_energy,
    qmi_runtime_us,
    readout_parallelism,
    refrigerator_qubit_capacity,
)
from qaplan.qubit_budget import TaskProblemModel, task_qubits, total_budget
from qaplan.ran_power import PowerSystemLosses, bs_power
from qaplan.tables import qubits_time_table
from qaplan.timeline import BEST_CASE, WORST_CASE, qubits_at, year_available
from qaplan.workload import (
    REFERENCE_SCENARIO,
    REFERENCE_TOPS,
    SCALING,
    BbuTask,
    CellScenario,
    scale_task,
    workload,
)

SEED = 20260814


def _finish(name: str, failures: list) -> None:
    print(f"{name}: {'FAIL' if failures else 'PASS'}")
    assert not failures, f"{len(failures)} check(s) failed:\n" + "\n".join(failures)


def _match(failures, label, got, want, rel):
    if want == 0:
        ok = got == 0
    else:
        ok = abs(got - want) / abs(want) <= rel
    if not ok:
        failures.append(f"{label}: got {got}, want {want} (rel {rel})")


# --- criterion 1: per-task compute targets, exact at printed precision ---

TARGET_COLUMNS = [
    ("reference", CellScenario(20, 6, 1.0, 1), 3),
    ("4g_2", CellScenario(20, 6, 0.5, 2), 3),
    ("4g_4", CellScenario(20, 6, 0.5, 4), 3),
    ("4g_8", CellScenario(20, 6, 0.5, 8), 3),
    ("5g200_32", CellScenario(200, 6, 0.5, 32), 1),
    ("5g200_64", CellScenario(200, 6, 0.5, 64), 1),
    ("5g200_128", CellScenario(200, 6, 0.5, 128), 1),
    ("5g400_32", CellScenario(400, 6, 0.5, 32), 1),
    ("5g400_64", CellScenario(400, 6, 0.5, 64), 1),
    ("5g400_128", CellScenario(400, 6, 0.5, 128), 1),
]

PRINTED_TASKS = {
    BbuTask.DPD: (0.160, 0.320, 0.640, 1.280, 51.2, 102.4, 204.8, 102.4, 204.8, 409.6),
    BbuTask.FILTER: (0.400, 0.800, 1.600, 3.200, 128.0, 256.0, 512.0, 256.0, 512.0, 1024.0),
    BbuTask.FFT: (0.160, 0.320, 0.640, 1.280, 51.2, 102.4, 204.8, 102.4, 204.8, 409.6),
    BbuTask.FD_LIN: (0.090, 0.180, 0.360, 0.720, 28.8, 57.6, 115.2, 57.6, 115.2, 230.4),
    BbuTask.FD_NL: (0.030, 0.120, 0.480, 1.920, 307.2, 1228.8, 4915.2, 614.4, 2457.6, 9830.4),
    BbuTask.FEC: (0.140, 0.140, 0.280, 0.560, 22.4, 44.8, 89.6, 44.8, 89.6, 179.2),
    BbuTask.CPRI: (0.720, 0.720, 1.440, 2.880, 115.2, 230.4, 460.8, 230.4, 460.8, 921.6),
    BbuTask.PCP: (0.400, 0.800, 1.600, 3.200, 12.8, 25.6, 51.2, 12.8, 25.6, 51.2),
}

# 5g200_128 total: the source prints 6,533.6 but its column sums to
# 6,553.6 (transposed digits); the column-sum value is the contract and
# the emitter flags the printed one (see tables.targets_table notes).
PRINTED_TOTALS = (2.100, 3.400, 7.040, 15.040, 716.8, 2048.0, 6553.6,
                  1420.8, 4070.4, 13056.0)


def test_criterion_01_compute_targets():
    failures = []
    for i, (key, scenario, decimals) in enumerate(TARGET_COLUMNS):
        load = workload(scenario)
        for task in BbuTask:
            got = round(load.tops[task], decimals)
            if got != PRINTED_TASKS[task][i]:
                failures.append(
                    f"{task.value}@{key}: {got} != {PRINTED_TASKS[task][i]}"
                )
        got_total = round(load.total_tops, decimals)
        if got_total != PRINTED_TOTALS[i]:
            failures.append(f"total@{key}: {got_total} != {PRINTED_TOTALS[i]}")
    _finish("criterion 01 compute-target cells (80 tasks + 10 totals, exact)", failures)


# --- criterion 2: programming energy and thermalization, 5% ---

ENERGY_PRINTED = [
    # (qubits, couplers, dacs, E@55uA, t@55uA, E@1uA, t@1uA); None = the
    # flagged pair, checked at printed precision instead of 5%
    (512, 1_472, 4_544, 66e-15, 2.2e-9, None, None),
    (2_048, 6_016, 18_304, 266e-15, 8.9e-9, 5e-15, 167e-12),
    (5_436, 37_440, 70_056, 1e-12, 33e-9, 18e-15, 600e-12),
    (10_000_000, 75_000_000, 135_000_000, 2e-9, 66e-6, 36e-12, 1.2e-6),
]


def test_criterion_02_programming_energy():
    failures = []
    for qubits, couplers, dacs, e55, t55, e1, t1 in ENERGY_PRINTED:
        high = programming_energy(qubits, couplers, 55e-6)
        low = programming_energy(qubits, couplers, 1e-6)
        if high.dacs != dacs:
            failures.append(f"dacs@{qubits}: {high.dacs} != {dacs}")
        _match(failures, f"E55@{qubits}", high.energy_j, e55, 0.05)
        _match(failures, f"t55@{qubits}", high.thermalization_s, t55, 0.05)
        if e1 is None:
            # source prints ~1 fJ / 33 ps here but its own 55 uA cell and
            # linear I_c scaling imply 1.2 fJ; accept the half-ULP band of
            # the one-significant-figure print, and require the time to
            # follow the energy through the 30 uW cooling budget
            if not 0.5e-15 <= low.energy_j < 1.5e-15:
                failures.append(f"E1@{qubits}: {low.energy_j} outside [0.5, 1.5) fJ")
            if not math.isclose(low.thermalization_s, low.energy_j / 30e-6,
                                rel_tol=1e-12):
                failures.append(f"t1@{qubits} does not track E/30uW")
        else:
            _match(failures, f"E1@{qubits}", low.energy_j, e1, 0.05)
            _match(failures, f"t1@{qubits}", low.thermalization_s, t1, 0.05)
    _finish("criterion 02 programming energy/thermalization (5%)", failures)


# --- criterion 3: readout parallelism, exact ---

READOUT_PRINTED = [
    (512, 16, 512, 512),
    (2_048, 32, 666, 2_048),
    (5_436, 52, 666, 5_436),
    (10_000_000, 2_236, 666, 666_666),
]


def test_criterion_03_readout_parallelism():
    failures = []
    for qubits, td, fm_lo, fm_hi in READOUT_PRINTED:
        got_td = readout_parallelism(qubits, "time-division")
        got_lo = readout_parallelism(qubits, "frequency-multiplex", 1e3)
        got_hi = readout_parallelism(qubits, "frequency-multiplex", 1e6)
        if (got_td, got_lo, got_hi) != (td, fm_lo, fm_hi):
            failures.append(
                f"readout@{qubits}: {(got_td, got_lo, got_hi)} != {(td, fm_lo, fm_hi)}"
            )
    # approximate prints: "~2,200" covers 2236 at two significant figures,
    # "666K" is within 0.1% (inclusive) of the computed 666,666
    td_big = readout_parallelism(10_000_000, "time-division")
    if not 2150 <= td_big < 2250:
        failures.append(f"time-division@10M {td_big} outside ~2,200 print band")
    fm_big = readout_parallelism(10_000_000, "frequency-multiplex", 1e6)
    if abs(fm_big - 666_000) / 666_000 > 0.001 + 1e-12:
        failures.append(f"freq-mux@10M {fm_big} beyond 0.1% of 666K")
    _finish("criterion 03 readout parallelism cells (exact)", failures)


# --- criterion 4: refrigerator die budget, 1% ---


def test_criterion_04_refrigerator_capacity():
    failures = []
    dies = die_count()
    qubits = refrigerator_qubit_capacity()
    if dies != 1_746_886:
        failures.append(f"die count {dies} != 1,746,886")
    if qubits != 13_975_088:
        failures.append(f"capacity {qubits} != 13,975,088")
    _match(failures, "die count vs ~1.75M print", dies, 1.75e6, 0.01)
    _match(failures, "capacity vs ~14M print", qubits, 14e6, 0.01)
    _finish("criterion 04 refrigerator die budget (1%)", failures)


# --- criterion 5: problem runtimes, exact ---


def test_criterion_05_problem_runtimes():
    failures = []
    got = [qmi_runtime_us(QA_PROJECTED, n) for n in (1, 20, 50, 100)]
    if got != [45.0, 102.0, 192.0, 342.0]:
        failures.append(f"runtimes {got} != [45, 102, 192, 342]")
    _finish("criterion 05 problem runtimes (exact)", failures)


# --- criterion 6: qubit requirement vs runtime, 1% / flagged totals ---

QUBITS_PRINTED = [
    # (samples, fdnl, fec, total or None when the print is inconsistent)
    (1, 530e3, 570e3, None),    # prints 1.60M
    (20, 1.20e6, 1.29e6, None),  # prints 1.99M
    (50, 2.26e6, 2.43e6, 6.25e6),
    (100, 4.03e6, 4.34e6, 11.16e6),
]


def test_criterion_06_qubit_requirements():
    failures = []
    load = workload(CellScenario(400, 6, 0.5, 64))
    for samples, fdnl, fec, total in QUBITS_PRINTED:
        budget = total_budget(load, QA_PROJECTED, samples)
        _match(failures, f"fdnl@{samples}", budget.per_task[BbuTask.FD_NL], fdnl, 0.01)
        _match(failures, f"fec@{samples}", budget.per_task[BbuTask.FEC], fec, 0.01)
        if total is not None:
            _match(failures, f"total@{samples}", budget.total, total, 0.01)
        else:
            want = math.ceil(sum(budget.per_task.values()) / 0.75)
            if budget.total != want:
                failures.append(f"total@{samples}: {budget.total} != sum/0.75 = {want}")
    flags = [n for n in qubits_time_table().notes if "paper-inconsistent" in n]
    for samples in (1, 20):
        if not any(f"samples={samples};" in n for n in flags):
            failures.append(f"missing paper-inconsistent flag for samples={samples}")
    _finish("criterion 06 qubit requirements (1%, divergent totals flagged)", failures)


# --- criterion 7: silicon efficiencies, exact ---


def test_criterion_07_cmos_efficiencies():
    failures = []
    got_14 = scaled_profile("14nm", 0.8).efficiency_tops_per_w
    got_15 = scaled_profile("1.5nm", 0.4).efficiency_tops_per_w
    if got_14 != 0.076:
        failures.append(f"14nm efficiency {got_14} != 0.076")
    if got_15 != 0.30:
        failures.append(f"1.5nm efficiency {got_15} != 0.30")
    _finish("criterion 07 silicon efficiencies (exact)", failures)


# --- criterion 8: deployment power, 15% ---

POWER_PRINTED = [
    # (antennas, topology, cmos watts, annealer watts) at 400 MHz, 14 nm
    (32, BsTopology(), 34.7e3, 37e3),
    (64, BsTopology(), 89.9e3, 49e3),
    (128, BsTopology(), 261.3e3, 73e3),
    (64, CranTopology(), 290e3, 131e3),
]


def test_criterion_08_deployment_power():
    failures = []
    from qaplan.cmos import CMOS_14NM
    for antennas, topology, cmos_w, qa_w in POWER_PRINTED:
        scenario = CellScenario(400, 6, 0.5, antennas)
        r = compare(scenario, CMOS_14NM, QA_PROJECTED, 20, topology)
        kind = "cran" if isinstance(topology, CranTopology) else "bs"
        _match(failures, f"cmos@{antennas}ant/{kind}", r.cmos.total_w, cmos_w, 0.15)
        _match(failures, f"qa@{antennas}ant/{kind}", r.qa.total_w, qa_w, 0.15)
    _finish("criterion 08 deployment power (15%)", failures)


# --- criterion 9: cost savings, 5% ---

COST_PRINTED = [
    # (delta watts, [(years, cost usd, co2 kt), ...])
    (41e3, [(1, 50e3, 0.15), (2, 100e3, 0.30), (5, 250e3, 0.75), (10, 500e3, 1.50)]),
    (188e3, [(1, 235e3, 0.68), (2, 471e3, 1.37), (5, 1.17e6, 3.43), (10, 2.35e6, 6.87)]),
    (159e3, [(1, 200e3, 0.57), (2, 400e3, 1.15), (5, 1e6, 2.87), (10, 2e6, 5.75)]),
]


def test_criterion_09_cost_savings():
    failures = []
    for delta_w, cells in COST_PRINTED:
        report = cost_report(delta_w, [y for y, _, _ in cells])
        for i, (years, cost, co2) in enumerate(cells):
            _match(failures, f"cost@{delta_w/1e3:g}kW/{years}y",
                   report.opex_savings_usd[i], cost, 0.05)
            _match(failures, f"co2@{delta_w/1e3:g}kW/{years}y",
                   report.co2_savings_kt[i], co2, 0.05)
    _finish("criterion 09 cost savings cells (5%)", failures)


# --- criterion 10: availability years, +/-1 ---

YEARS_PRINTED = [(39_000, 2026), (618_000, 2035), (1_850_000, 2038)]


def test_criterion_10_availability_years():
    failures = []
    for required, printed_year in YEARS_PRINTED:
        got = year_available(BEST_CASE, required)
        if abs(got - printed_year) > 1:
            failures.append(f"{required} qubits: year {got} not within 1 of {printed_year}")
    _finish("criterion 10 availability years (+/-1)", failures)


# --- criterion 11: randomized invariants, fixed seed, 1000 cases each ---


def _random_scenario(rng: random.Random) -> CellScenario:
    return CellScenario(
        bandwidth_mhz=rng.uniform(0.1, 2000.0),
        modulation_bits=rng.choice((1, 2, 4, 6, 8)),
        coding_rate=rng.uniform(0.01, 1.0),
        antennas=rng.randint(1, 1024),
        duty_time=rng.uniform(0.01, 1.0),
        duty_freq=rng.uniform(0.01, 1.0),
    )


def _suite_scaling(rng, cases):
    # demand separates into per-axis power laws and never drops when
    # bandwidth grows
    failures = []
    ref = REFERENCE_SCENARIO
    for i in range(cases):
        s = _random_scenario(rng)
        task = rng.choice(list(BbuTask))
        e = SCALING[task]
        want = REFERENCE_TOPS[task]
        want *= (s.bandwidth_mhz / ref.bandwidth_mhz) ** e.bandwidth
        want *= (s.modulation_bits / ref.modulation_bits) ** e.modulation
        want *= (s.coding_rate / ref.coding_rate) ** e.coding_rate
        want *= (s.antennas / ref.antennas) ** e.antennas
        want *= (s.duty_time / ref.duty_time) ** e.duty_time
        want *= (s.duty_freq / ref.duty_freq) ** e.duty_freq
        if not math.isclose(scale_task(task, s), want, rel_tol=1e-9):
            failures.append(f"scaling separability, case {i}")
        wider = s._replace(
            bandwidth_mhz=s.bandwidth_mhz * rng.uniform(1.0, 4.0))
        if workload(wider).total_tops < workload(s).total_tops * (1 - 1e-12):
            failures.append(f"bandwidth monotonicity, case {i}")
        if len(failures) > 5:
            break
    return failures


def _suite_supply_losses(rng, cases):
    # stripping the three supply-loss stages recovers the component sum
    failures = []
    for i in range(cases):
        sig = PowerSystemLosses(
            rng.uniform(0, 0.5), rng.uniform(0, 0.5), rng.uniform(0, 0.5))
        b = bs_power(
            bbu_w=rng.uniform(0, 1e6), antennas=rng.randint(0, 512),
            losses=sig, refrigeration_w=rng.uniform(0, 5e4))
        inside = b.bbu_w + b.ru_w + b.pa_w
        recovered = (b.total_w - b.refrigeration_w) * (
            (1 - sig.sigma_ac) * (1 - sig.sigma_ms) * (1 - sig.sigma_dc))
        if not math.isclose(recovered, inside, rel_tol=1e-9, abs_tol=1e-9):
            failures.append(f"supply-loss identity, case {i}")
        if len(failures) > 5:
            break
    return failures


def _suite_hardware(rng, cases):
    # runtime affine in samples, energy linear in critical current,
    # time-division readout obeys its floor bounds
    failures = []
    for i in range(cases):
        a, b = rng.randint(0, 1000), rng.randint(0, 1000)
        lhs = qmi_runtime_us(QA_PROJECTED, a + b)
        rhs = (qmi_runtime_us(QA_PROJECTED, a) + qmi_runtime_us(QA_PROJECTED, b)
               - qmi_runtime_us(QA_PROJECTED, 0))
        if not math.isclose(lhs, rhs, rel_tol=1e-12):
            failures.append(f"runtime affinity, case {i}")
        nq, nc = rng.randint(0, 10**6), rng.randint(0, 10**7)
        i_c, k = rng.uniform(1e-7, 1e-4), rng.uniform(2.0, 100.0)
        lo = programming_energy(nq, nc, i_c)
        hi = programming_energy(nq, nc, i_c * k)
        if not math.isclose(hi.energy_j, lo.energy_j * k, rel_tol=1e-9):
            failures.append(f"energy linearity, case {i}")
        n = rng.randint(2, 10**8)
        r = readout_parallelism(n)
        if not (2 * r * r <= n < 2 * (r + 1) * (r + 1)):
            failures.append(f"readout floor bounds, case {i}")
        if len(failures) > 5:
            break
    return failures


def _suite_sizing_and_cost(rng, cases):
    # ceil rounding keeps split loads within one qubit of merged; savings
    # price linearly in both watts and years
    failures = []
    model = TaskProblemModel(80e6, 384, 102.0)
    for i in range(cases):
        a, b = rng.uniform(0, 1e4), rng.uniform(0, 1e4)
        merged = task_qubits(a + b, model)
        split = task_qubits(a, model) + task_qubits(b, model)
        if not merged <= split <= merged + 1:
            failures.append(f"qubit subadditivity, case {i}")
        delta, y1, y2 = rng.uniform(-1e6, 1e6), rng.uniform(0.1, 50), rng.uniform(0.1, 50)
        r = cost_report(delta, (y1, y2, y1 + y2))
        if not math.isclose(r.opex_savings_usd[2],
                            r.opex_savings_usd[0] + r.opex_savings_usd[1],
                            rel_tol=1e-9, abs_tol=1e-9):
            failures.append(f"cost additivity in years, case {i}")
        r2 = cost_report(2 * delta, (y1,))
        if not math.isclose(r2.co2_savings_kt[0], 2 * r.co2_savings_kt[0],
                            rel_tol=1e-9, abs_tol=1e-12):
            failures.append(f"cost linearity in watts, case {i}")
        if len(failures) > 5:
            break
    return failures


def _suite_timeline(rng, cases):
    # projected sizes are available by their own year; availability is the
    # first year that suffices
    failures = []
    for i in range(cases):
        trend = rng.choice((BEST_CASE, WORST_CASE))
        year = trend.anchor_year + rng.randint(0, 60)
        if year_available(trend, qubits_at(trend, year)) > year:
            failures.append(f"timeline round trip, case {i}")
        required = rng.randint(1, 10**8)
        y = year_available(trend, required)
        if qubits_at(trend, y) < required:
            failures.append(f"availability too early, case {i}")
        if y > trend.anchor_year and qubits_at(trend, y - 1) >= required:
            failures.append(f"availability not tight, case {i}")
        if len(failures) > 5:
            break
    return failures


def _suite_emission(rng, cases):
    # rendering is deterministic and csv/json carry identical numbers
    failures = []
    for i in range(cases):
        rows = [
            {"label": f"r{j}", "x": rng.uniform(-1e9, 1e9), "n": rng.randint(0, 10**9)}
            for j in range(rng.randint(1, 4))
        ]
        t = Table(
            name="rand",
            columns=[Column("label", "L"), Column("x", "X", ".6g"), Column("n", "N", "d")],
            rows=rows,
            notes=["note"] if rng.random() < 0.5 else [],
        )
        csv_text = render_csv(t)
        if csv_text != render_csv(t):
            failures.append(f"csv determinism, case {i}")
        back_csv = read_csv(csv_text).rows
        back_json = read_json(render_json(t)).rows
        if back_csv != back_json:
            failures.append(f"csv/json number mismatch, case {i}")
        if len(failures) > 5:
            break
    return failures


def test_criterion_11_randomized_invariants():
    rng = random.Random(SEED)
    failures = []
    failures += _suite_scaling(rng, 1000)
    failures += _suite_supply_losses(rng, 1000)
    failures += _suite_hardware(rng, 1000)
    failures += _suite_sizing_and_cost(rng, 1000)
    failures += _suite_timeline(rng, 1000)
    failures += _suite_emission(rng, 1000)
    _finish("criterion 11 randomized invariants (6 suites x 1000 cases)", failures)
