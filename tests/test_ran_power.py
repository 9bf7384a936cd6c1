"""Site power roll-ups: radio chains, supply losses, fronthaul."""

import copy
import math
import pickle

import pytest
from hypothesis import example, given, strategies as st

from qaplan.ran_power import (
    DEFAULT_LOSSES,
    FRONTHAUL_REF_BPS,
    FRONTHAUL_REF_W,
    PA_W,
    RU_CHAIN_W,
    PowerBreakdown,
    PowerSystemLosses,
    bs_power,
    cran_power,
    fronthaul_w,
)

LINK = fronthaul_w(100e9)  # 7.4 kW


def test_default_loss_chain():
    s = DEFAULT_LOSSES
    assert (s.sigma_ac, s.sigma_ms, s.sigma_dc) == (0.09, 0.07, 0.06)
    assert s.supply_factor == pytest.approx(1 / (0.91 * 0.93 * 0.94), rel=1e-12)


def test_chain_constants():
    assert RU_CHAIN_W == 10.8
    assert PA_W == 102.6


def test_loss_fractions_validated():
    with pytest.raises(ValueError):
        PowerSystemLosses(1.0, 0.07, 0.06)
    with pytest.raises(ValueError):
        PowerSystemLosses(-0.1, 0.07, 0.06)


def test_single_antenna_site():
    b = bs_power(bbu_w=100.0, antennas=1)
    assert b.bbu_w == 100.0
    assert b.ru_w == 10.8
    assert b.pa_w == 102.6
    inside = 100.0 + 10.8 + 102.6
    assert b.total_w == pytest.approx(inside / (0.91 * 0.93 * 0.94))
    assert b.power_system_w == pytest.approx(b.total_w - inside)


def test_refrigeration_not_multiplied_by_supply_losses():
    plain = bs_power(bbu_w=0.0, antennas=1)
    cooled = bs_power(bbu_w=0.0, antennas=1, refrigeration_w=25e3)
    assert cooled.total_w == pytest.approx(plain.total_w + 25e3)
    assert cooled.power_system_w == pytest.approx(plain.power_system_w)


def test_fronthaul_reference_point():
    assert fronthaul_w(500e6) == 37.0
    assert fronthaul_w(100e9) == pytest.approx(7400.0)


@given(st.floats(min_value=1e-3, max_value=1e300))
@example(1e159)  # past about 4.9e157 b/s, `p_max * capacity` overflows
def test_a_fronthaul_link_draws_what_the_load_proportional_formula_gives(capacity_bps):
    # `p_max * load / capacity` at full load, bit for bit, wherever its
    # product stays in float range; its full-load draw past that.
    p_max = FRONTHAUL_REF_W * capacity_bps / FRONTHAUL_REF_BPS
    old = p_max * capacity_bps / capacity_bps
    assert fronthaul_w(capacity_bps) == (old if math.isfinite(old) else p_max)
    assert math.isfinite(fronthaul_w(capacity_bps))


def test_cran_sums_remote_sites():
    site = dict(antennas=3, site_bbu_w=0.0, link_w=LINK)
    pool = cran_power(bbu_w=1000.0, **site, n_sites=2)
    solo = cran_power(bbu_w=1000.0, **site, n_sites=0)
    assert pool.fronthaul_w == pytest.approx(2 * 7400.0)
    assert pool.ru_w == pytest.approx(2 * 3 * RU_CHAIN_W)
    assert pool.pa_w == pytest.approx(2 * 3 * PA_W)
    assert solo.fronthaul_w == 0
    assert pool.total_w > solo.total_w


def test_negative_site_count_rejected():
    with pytest.raises(ValueError, match="n_sites must be non-negative"):
        cran_power(bbu_w=100.0, antennas=1, site_bbu_w=0.0, link_w=LINK, n_sites=-1)


def test_negative_antenna_count_rejected():
    # As `bs_power` refuses it; the cli refuses antennas below 1 before.
    with pytest.raises(ValueError, match="^antennas must be non-negative, got -4$"):
        cran_power(0.0, -4, 0.0, 0.0, 1)


def test_remote_silicon_shows_up_in_bbu_total():
    pool = cran_power(bbu_w=100.0, antennas=0, site_bbu_w=50.0, link_w=LINK, n_sites=1)
    assert pool.bbu_w == pytest.approx(150.0)


losses = st.builds(
    PowerSystemLosses,
    sigma_ac=st.floats(min_value=0.0, max_value=0.5),
    sigma_ms=st.floats(min_value=0.0, max_value=0.5),
    sigma_dc=st.floats(min_value=0.0, max_value=0.5),
)


@given(
    st.floats(min_value=0.0, max_value=1e6),
    st.integers(min_value=0, max_value=512),
    losses,
)
def test_supply_overhead_identity(bbu_w, antennas, sig):
    # everything but refrigeration passes through the three-stage supply:
    # stripping the losses must recover the component sum exactly
    b = bs_power(bbu_w=bbu_w, antennas=antennas, losses=sig)
    inside = b.bbu_w + b.ru_w + b.pa_w
    recovered = b.total_w * (1 - sig.sigma_ac) * (1 - sig.sigma_ms) * (1 - sig.sigma_dc)
    assert recovered == pytest.approx(inside, rel=1e-9, abs=1e-9)


@given(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=0.0, max_value=1e6))
def test_pool_power_additive_in_load(a, b):
    site = dict(antennas=1, site_bbu_w=1.0, link_w=LINK)
    lone = (cran_power(bbu_w=a, **site, n_sites=0).total_w
            + cran_power(bbu_w=b, **site, n_sites=0).total_w)
    joint = cran_power(bbu_w=a + b, **site, n_sites=0).total_w
    assert joint == pytest.approx(lone, rel=1e-9, abs=1e-6)


@given(st.integers(min_value=0, max_value=64))
def test_radio_power_proportional_to_antennas(n):
    b = bs_power(bbu_w=0.0, antennas=n)
    assert b.ru_w == pytest.approx(10.8 * n)
    assert b.pa_w == pytest.approx(102.6 * n)


watts = st.floats(min_value=0.0, max_value=1e12)


@given(st.lists(watts, min_size=6, max_size=6))
def test_total_is_the_left_to_right_sum_of_the_components(parts):
    b = PowerBreakdown(*parts)
    assert b.total_w == ((((parts[0] + parts[1]) + parts[2]) + parts[3]) + parts[4]) + parts[5]
    assert [b.bbu_w, b.ru_w, b.pa_w, b.power_system_w, b.fronthaul_w,
            b.refrigeration_w] == parts


def test_breakdowns_are_immutable_values():
    a, b = bs_power(0.0, 8), bs_power(0.0, 8)
    assert a == b and hash(a) == hash(b)
    assert a != bs_power(1.0, 8)
    assert repr(a) == (
        f"PowerBreakdown(bbu_w=0.0, ru_w={8 * RU_CHAIN_W!r}, pa_w={8 * PA_W!r}, "
        f"power_system_w={a.power_system_w!r}, fronthaul_w=0.0, refrigeration_w=0.0)")
    with pytest.raises(AttributeError):
        a.bbu_w = 5.0
    # The total is summed from the components, never stored or passed in.
    assert copy.copy(a) == pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(ValueError, match="unexpected field names"):
        a._replace(total_w=-1.0)
    moved = a._replace(bbu_w=5.0)
    assert moved == PowerBreakdown(5.0, *a[1:])
    assert moved.total_w == a.total_w + 5.0
