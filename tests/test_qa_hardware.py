"""Annealer timing, programming energy, readout parallelism, capacity."""

import math

import pytest
from hypothesis import given, strategies as st

from qaplan.qa_hardware import (
    BUILTIN_QA,
    DACS_PER_QUBIT,
    FULL_SCALE_SFQ,
    KAPPA,
    PHI0,
    QA_CURRENT,
    QA_PROJECTED,
    QUBITS_PER_DIE,
    QaProfile,
    dac_count,
    die_count,
    programming_energy,
    qmi_runtime_us,
    readout_parallelism,
    refrigerator_qubit_capacity,
)

# Historical device inventory used for the energy cross-checks. Coupler
# counts are per-device facts.
DEVICES = [
    (512, 1472),
    (2048, 6016),
    (5436, 37440),
    (10_000_000, 75_000_000),
]


def test_runtime_at_quoted_sample_counts():
    got = [qmi_runtime_us(QA_PROJECTED, n) for n in (1, 20, 50, 100)]
    assert got == [45.0, 102.0, 192.0, 342.0]


def test_runtime_rejects_bad_samples():
    with pytest.raises(ValueError):
        qmi_runtime_us(QA_PROJECTED, -1)
    with pytest.raises(ValueError):
        qmi_runtime_us(QA_PROJECTED, 1.5)


def test_runtime_past_float_range_is_a_domain_error_for_whole_profiles():
    # Whole-number times keep the runtime an exact int, which overflows
    # only where a rate multiplies it.
    whole = QaProfile("whole", programming_us=1, anneal_us=1, readout_us=1,
                      readout_delay_us=1, refrigeration_w=1)
    for profile in (QA_PROJECTED, whole):
        with pytest.raises(ValueError, match="past float range: 401 digits"):
            qmi_runtime_us(profile, 10**400)
    assert qmi_runtime_us(whole, 20) == 61


def test_builtin_profiles():
    assert set(BUILTIN_QA) == {"projected", "current"}
    assert QA_PROJECTED.sample_cycle_us == 3.0
    assert QA_CURRENT.sample_cycle_us == pytest.approx(1088.5)


def test_dac_counts_per_device():
    expected = [4544, 18304, 70056, 135_000_000]
    got = [dac_count(nq, nc) for nq, nc in DEVICES]
    assert got == expected


@pytest.mark.parametrize(
    "n_qubits,n_couplers,i_c,energy,seconds",
    [
        # 55 uA storage loops
        (512, 1472, 55e-6, 6.615e-14, 2.205e-9),
        (2048, 6016, 55e-6, 2.6646e-13, 8.882e-9),
        (5436, 37440, 55e-6, 1.0198e-12, 3.3994e-8),
        (10_000_000, 75_000_000, 55e-6, 1.9653e-9, 6.5509e-5),
        # 1 uA storage loops
        (512, 1472, 1e-6, 1.2027e-15, 4.0091e-11),
        (2048, 6016, 1e-6, 4.8447e-15, 1.6149e-10),
        (5436, 37440, 1e-6, 1.8542e-14, 6.1807e-10),
        (10_000_000, 75_000_000, 1e-6, 3.5733e-11, 1.1911e-6),
    ],
)
def test_programming_energy_per_device(n_qubits, n_couplers, i_c, energy, seconds):
    got = programming_energy(n_qubits, n_couplers, i_c)
    assert got.energy_j == pytest.approx(energy, rel=5e-4)
    assert got.thermalization_s == pytest.approx(seconds, rel=5e-4)
    # thermalization is always heat over the 30 uW cold-stage budget
    assert got.thermalization_s == pytest.approx(got.energy_j / 30e-6, rel=1e-12)


def test_programming_energy_formula():
    got = programming_energy(1, 0, 1e-6)
    assert (got.dacs, DACS_PER_QUBIT, FULL_SCALE_SFQ, KAPPA) == (6, 6, 32, 4.0)
    assert got.energy_j == pytest.approx(6 * 32 * 4.0 * 1e-6 * PHI0, rel=1e-12)


def test_programming_energy_needs_a_positive_critical_current():
    with pytest.raises(ValueError, match="critical current must be positive, got 0.0"):
        programming_energy(512, 1472, 0.0)


def test_readout_time_division():
    got = [readout_parallelism(n) for n in (0, 512, 2048, 5436, 10_000_000)]
    assert got == [0, 16, 32, 52, 2236]


def test_readout_frequency_multiplex():
    lo = [readout_parallelism(n, "frequency-multiplex", 1e3)
          for n in (512, 2048, 5436, 10_000_000)]
    assert lo == [512, 666, 666, 666]
    hi = [readout_parallelism(n, "frequency-multiplex", 1e6)
          for n in (512, 2048, 5436, 10_000_000)]
    assert hi == [512, 2048, 5436, 666_666]


def test_readout_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        readout_parallelism(512, "psychic")
    with pytest.raises(ValueError):
        readout_parallelism(512, "frequency-multiplex")
    with pytest.raises(ValueError, match="needs a positive quality factor"):
        readout_parallelism(512, "frequency-multiplex", 0.0)


def test_wafer_die_budget():
    assert die_count() == 1_746_886
    assert refrigerator_qubit_capacity() == 13_975_088
    assert QUBITS_PER_DIE == 8


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=500))
def test_runtime_affine_in_samples(a, b):
    base = qmi_runtime_us(QA_PROJECTED, 0)
    ra = qmi_runtime_us(QA_PROJECTED, a)
    rb = qmi_runtime_us(QA_PROJECTED, b)
    assert ra + rb - base == pytest.approx(qmi_runtime_us(QA_PROJECTED, a + b))


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**7),
    st.floats(min_value=1e-7, max_value=1e-4),
    st.floats(min_value=2.0, max_value=200.0),
)
def test_energy_linear_in_critical_current(nq, nc, i_c, factor):
    lo = programming_energy(nq, nc, i_c)
    hi = programming_energy(nq, nc, i_c * factor)
    assert hi.energy_j == pytest.approx(lo.energy_j * factor, rel=1e-9)
    assert hi.dacs == lo.dacs == 6 * nq + nc


@given(st.integers(min_value=2, max_value=10**8))
def test_time_division_floor_bounds(n):
    r = readout_parallelism(n)
    assert 2 * r * r <= n
    assert 2 * (r + 1) * (r + 1) > n


@given(st.floats(min_value=1.0, max_value=1e7))
def test_frequency_multiplex_caps_at_device_size(q):
    n = 1000
    assert readout_parallelism(n, "frequency-multiplex", q) <= n
