"""Problem models and qubit sizing for the offloaded tasks."""

import math

import pytest
from hypothesis import given, strategies as st

from qaplan.qa_hardware import QA_PROJECTED
from qaplan.qubit_budget import (
    FEC_QUBITS_PER_PROBLEM,
    LDPC_COLS,
    LDPC_ROWS,
    MODELED_LOAD_FRACTION,
    ProblemModels,
    TaskProblemModel,
    fdnl_problem_model,
    fec_problem_model,
    ldpc_aux_depth,
    task_qubits,
    total_budget,
)
from qaplan.workload import BbuTask, CellScenario, workload

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
    m = fdnl_problem_model(QA_PROJECTED, samples=20, users=64, modulation_bits=6)
    assert m.ops_per_problem == 80e6
    assert m.qubits_per_problem == 384  # 6 bits x 64 users
    assert m.runtime_us == 102.0


def test_detection_ops_scale_with_system_area():
    small = fdnl_problem_model(QA_PROJECTED, 20, users=32, modulation_bits=6)
    assert small.ops_per_problem == pytest.approx(20e6)
    assert small.qubits_per_problem == 192


def test_decoder_problem_shape():
    m = fec_problem_model(QA_PROJECTED, samples=20)
    assert m.ops_per_problem == 150e6
    assert m.qubits_per_problem == 21_120
    assert m.runtime_us == 102.0


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


def test_shared_problem_models_give_the_same_budget():
    models = ProblemModels(QA_PROJECTED)
    for scenario in (SCENARIO_400, CellScenario(100, 2, 0.5, 8), SCENARIO_400):
        load = workload(scenario)
        for samples in (1, 20, 1):
            assert (total_budget(load, QA_PROJECTED, samples, models)
                    == total_budget(load, QA_PROJECTED, samples))
    assert models.fec(20) is models.fec(20)
    assert models.fdnl(20, 64, 6) is models.fdnl(20, 64, 6)
    assert models.fdnl(20, 64, 6) == fdnl_problem_model(QA_PROJECTED, 20, 64, 6)

