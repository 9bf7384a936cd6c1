"""Silicon efficiency scaling and power draw."""

import pytest
from hypothesis import given, strategies as st

from qaplan.cmos import (
    ANCHOR_VDD,
    BUILTIN_CMOS,
    CMOS_1_5NM,
    CMOS_14NM,
    CMOS_65NM,
    CmosProfile,
    cmos_power,
    efficiency_from_vdd,
    round_sig,
    scaled_profile,
)


def test_anchor_profile():
    assert ANCHOR_VDD == 1.1
    assert CMOS_65NM.efficiency_tops_per_w == 0.04
    assert CMOS_65NM.leakage_fraction == 0.30


def test_quoted_efficiencies():
    # the two downstream nodes, at the precision the analysis quotes them
    assert CMOS_14NM.efficiency_tops_per_w == 0.076
    assert CMOS_1_5NM.efficiency_tops_per_w == 0.30


def test_exact_mode_keeps_full_precision():
    p14 = scaled_profile("14nm", 0.8, mode="exact")
    assert p14.efficiency_tops_per_w == pytest.approx(0.075625, abs=1e-12)
    p15 = scaled_profile("1.5nm", 0.4, mode="exact")
    assert p15.efficiency_tops_per_w == pytest.approx(0.3025, abs=1e-12)


def test_builtin_registry():
    assert set(BUILTIN_CMOS) == {"65nm", "14nm", "1.5nm"}
    assert BUILTIN_CMOS["14nm"] is CMOS_14NM


ROUND_SIG_CASES = [(0.075625, 0.076), (0.3025, 0.30), (12345, 12000),
                   (0.04, 0.04), (0.0, 0.0)]


# Each id names the two significant figures every rounding keeps.
@pytest.mark.parametrize("value,expected", ROUND_SIG_CASES,
                         ids=[f"{v}-2-{e}" for v, e in ROUND_SIG_CASES])
def test_round_sig(value, expected):
    assert round_sig(value) == expected


def test_power_includes_leakage():
    # 1 TOPS at the 65 nm anchor: 25 W dynamic plus 30% leakage
    assert cmos_power(1.0, CMOS_65NM) == pytest.approx(32.5)


def test_zero_load_draws_nothing():
    assert cmos_power(0.0, CMOS_14NM) == 0.0


def test_negative_load_rejected():
    with pytest.raises(ValueError):
        cmos_power(-1.0, CMOS_14NM)


def test_a_profile_without_leakage_builds():
    assert CmosProfile("x", 1.0, 0.0).leakage_fraction == 0.0


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        scaled_profile("x", 0.8, mode="fancy")


@given(st.floats(min_value=0.2, max_value=1.2))
def test_efficiency_scales_with_inverse_square_voltage(vdd):
    eff = efficiency_from_vdd(vdd)
    assert eff == pytest.approx(0.04 * (1.1 / vdd) ** 2, rel=1e-12)


@given(
    st.floats(min_value=0.0, max_value=1e5),
    st.floats(min_value=1.0, max_value=100.0),
)
def test_power_is_linear_in_load(tops, factor):
    base = cmos_power(tops, CMOS_14NM)
    assert cmos_power(tops * factor, CMOS_14NM) == pytest.approx(
        base * factor, rel=1e-9, abs=1e-12
    )


@given(st.floats(min_value=0.2, max_value=1.0), st.floats(min_value=1.01, max_value=3.0))
def test_lower_voltage_never_hurts_efficiency(vdd, factor):
    assert efficiency_from_vdd(vdd) > efficiency_from_vdd(vdd * factor)
