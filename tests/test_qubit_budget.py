"""Problem models and qubit sizing for the offloaded tasks."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from qaplan.qa_hardware import QA_CURRENT, QA_PROJECTED, QaProfile, qmi_runtime_us
from qaplan.qubit_budget import (
    FEC_OPS_PER_PROBLEM,
    FEC_QUBITS_PER_PROBLEM,
    LDPC_COLS,
    LDPC_ROWS,
    MODELED_LOAD_FRACTION,
    QubitBudget,
    TaskProblemModel,
    _fdnl_problem_shapes,
    ldpc_aux_depth,
    task_qubits,
    total_budget,
)
from qaplan.workload import VALID_MODULATION_BITS, BbuTask, CellScenario, workload

SCENARIO_400 = CellScenario(400, 6, 0.5, 64)

# Frozen budget columns for the 400 MHz / 64 antenna cell at the four
# quoted sample counts: (samples, detection, decoding, total).
BUDGET_ROWS = [
    (1, 530_842, 567_706, 1_464_731),
    (20, 1_203_241, 1_286_800, 3_320_055),
    (50, 2_264_925, 2_422_211, 6_249_515),
    (100, 4_034_397, 4_314_563, 11_131_947),
]


def test_detection_problem_shape():
    assert _fdnl_problem_shapes([64], [6]) == ([80e6], [384])  # 6 bits x 64 users
    assert qmi_runtime_us(QA_PROJECTED, 20) == 102.0


def test_detection_ops_scale_with_system_area():
    (ops,), (qubits,) = _fdnl_problem_shapes([32], [6])
    assert ops == pytest.approx(20e6)
    assert qubits == 192


def test_decoder_problem_shape():
    assert FEC_OPS_PER_PROBLEM == 150e6
    assert FEC_QUBITS_PER_PROBLEM == 21_120


@pytest.mark.parametrize(
    "row_weight,depth",
    [(0.0, 0), (0.5, 0), (2.0, 1), (6.0, 2), (8.64, 3), (14.0, 3), (20.0, 4), (30.0, 4)],
)
def test_parity_chain_depth(row_weight, depth):
    assert ldpc_aux_depth(row_weight) == depth


def test_decoder_embedding_size():
    # 8448 variables plus 4224 rows x depth-3 chains
    assert (LDPC_ROWS, LDPC_COLS) == (4224, 8448)
    assert FEC_QUBITS_PER_PROBLEM == 8448 + 3 * 4224 == 21_120


@pytest.mark.parametrize("samples,fdnl,fec,total", BUDGET_ROWS)
def test_budget_at_quoted_sample_counts(samples, fdnl, fec, total):
    budget = total_budget(workload(SCENARIO_400), QA_PROJECTED, samples)
    assert budget.per_task[BbuTask.FD_NL] == fdnl
    assert budget.per_task[BbuTask.FEC] == fec
    assert budget.total == total
    assert budget.covered_fraction == MODELED_LOAD_FRACTION


def test_bad_problem_models_rejected():
    with pytest.raises(ValueError):
        TaskProblemModel(ops_per_problem=0, qubits_per_problem=1, runtime_us=1)
    with pytest.raises(ValueError):
        TaskProblemModel(ops_per_problem=1, qubits_per_problem=0, runtime_us=1)


@given(
    st.floats(min_value=0.0, max_value=1e4),
    st.floats(min_value=0.0, max_value=1e4),
)
def test_task_qubits_subadditive(a, b):
    # ceil rounding keeps split workloads within one qubit of the merged one
    model = TaskProblemModel(80e6, 384, 102.0)
    merged = task_qubits(a + b, model)
    split = task_qubits(a, model) + task_qubits(b, model)
    assert merged <= split <= merged + 1


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=400))
def test_budget_monotone_in_samples(s1, s2):
    lo, hi = sorted((s1, s2))
    load = workload(SCENARIO_400)
    assert (
        total_budget(load, QA_PROJECTED, lo).total
        <= total_budget(load, QA_PROJECTED, hi).total
    )


@given(st.floats(min_value=0.1, max_value=60.0))
def test_parity_chain_depth_covers_weight(w):
    n = ldpc_aux_depth(w)
    target = w - math.fmod(w, 2.0)
    assert 2 ** (n + 1) - 2 >= target
    assert n == 0 or 2**n - 2 < target


def _reference_task_qubits(tops, model):
    # `task_qubits` as it was before the split, one product per task.
    if tops < 0:
        raise ValueError(f"tops must be non-negative, got {tops}")
    pps = tops * 1e12 / model.ops_per_problem
    qubits = pps * model.qubits_per_problem * model.runtime_us * 1e-6
    if not math.isfinite(qubits):
        raise ValueError(f"qubit requirement at {tops:g} TOPS is not finite")
    return math.ceil(qubits)


def _reference_fdnl_model(profile, samples, users, modulation_bits):
    # The detection problem model as it was before the split.
    if users < 1:
        raise ValueError(f"users must be at least 1, got {users}")
    return TaskProblemModel(
        ops_per_problem=80e6 * (users / 64.0) ** 2,
        qubits_per_problem=modulation_bits * users,
        runtime_us=qmi_runtime_us(profile, samples),
    )


def _reference_fec_model(profile, samples):
    # The decoding problem model as it was before the split.
    return TaskProblemModel(
        ops_per_problem=150e6,
        qubits_per_problem=21_120,
        runtime_us=qmi_runtime_us(profile, samples),
    )


def _reference_budget(load, profile, samples):
    # `total_budget` as it was before the split: problem models built per
    # call, each task's qubits in one product.
    scenario = load.scenario
    fdnl = _reference_fdnl_model(profile, samples, scenario.antennas,
                                 scenario.modulation_bits)
    fec = _reference_fec_model(profile, samples)
    per_task = {
        BbuTask.FD_NL: _reference_task_qubits(load.tops[BbuTask.FD_NL], fdnl),
        BbuTask.FEC: _reference_task_qubits(load.tops[BbuTask.FEC], fec),
    }
    return per_task, math.ceil(sum(per_task.values()) / MODELED_LOAD_FRACTION)


def _outcome(budget):
    try:
        return budget()
    except ValueError as exc:
        return f"ValueError: {exc}"


fractions = st.sampled_from([1.0, 0.5, 0.25])
workloads = st.builds(
    CellScenario,
    bandwidth_mhz=st.floats(min_value=1e-300, max_value=1e6),
    modulation_bits=st.sampled_from(VALID_MODULATION_BITS),
    coding_rate=st.floats(min_value=1e-3, max_value=1.0),
    antennas=st.integers(min_value=1, max_value=10**5),
    duty_time=fractions,
    duty_freq=fractions,
).map(workload)
times = st.sampled_from([0.0, 1.0, 87.5, 1000.0, 1e300])
profiles = st.builds(QaProfile, name=st.just("drawn"), programming_us=times,
                     anneal_us=times, readout_us=times, readout_delay_us=times,
                     refrigeration_w=st.just(25e3))
sample_counts = st.one_of(st.integers(min_value=0, max_value=10**4),
                          st.sampled_from([10**300, 10**308, 10**400]))


@settings(max_examples=300, deadline=None)
@given(workloads, st.one_of(st.just(QA_PROJECTED), st.just(QA_CURRENT), profiles),
       sample_counts)
@example(workload(SCENARIO_400), QaProfile("idle", 0.0, 0.0, 0.0, 0.0), 20)  # no runtime
@example(workload(SCENARIO_400), QaProfile("slow", 1e300, 1e300), 10**300)  # inf qubits
def test_split_budget_is_bit_identical_to_the_unsplit_one(load, profile, samples):
    # The sample-free step (`rate_columns`) keeps the left part of each
    # task's product, so every field and every message must be unchanged.
    want = _outcome(lambda: _reference_budget(load, profile, samples))
    got = _outcome(lambda: total_budget(load, profile, samples))
    if isinstance(got, QubitBudget):
        got = dict(got.per_task), got.total
    assert got == want


def test_sample_counts_past_float_range_are_domain_errors():
    load = workload(SCENARIO_400)
    with pytest.raises(ValueError, match="^sample count past float range: 401 digits$"):
        total_budget(load, QA_PROJECTED, 10**400)
