"""Growth-trend extrapolation and availability milestones."""

import sys
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from qaplan.timeline import (
    BEST_CASE,
    HISTORICAL_QUBITS,
    WORST_CASE,
    GrowthTrend,
    qubits_at,
    YearTable,
    year_available,
)


def test_shipped_device_record():
    assert HISTORICAL_QUBITS == {
        2011: 128, 2013: 512, 2015: 1152, 2017: 2048, 2020: 5436, 2023: 7440,
    }


def test_trend_anchors():
    assert (BEST_CASE.anchor_year, BEST_CASE.anchor_qubits) == (2020, 5436)
    assert BEST_CASE.growth_factor == pytest.approx(5436 / 2048)
    assert (WORST_CASE.anchor_year, WORST_CASE.anchor_qubits) == (2023, 7440)
    assert WORST_CASE.growth_factor == pytest.approx(7440 / 5436)


def test_projection_at_anchor_and_beyond():
    assert qubits_at(BEST_CASE, 2020) == 5436
    assert qubits_at(BEST_CASE, 2023) == 14428  # floor(5436 * (5436/2048))
    assert qubits_at(BEST_CASE, 2026) == 38_298


def test_no_extrapolation_before_anchor():
    with pytest.raises(ValueError):
        qubits_at(BEST_CASE, 2019)


@pytest.mark.parametrize(
    "required,best_year,worst_year",
    [
        (39_000, 2027, 2039),
        (618_000, 2035, 2066),
        (1_850_000, 2038, 2076),
    ],
)
def test_availability_years(required, best_year, worst_year):
    assert year_available(BEST_CASE, required) == best_year
    assert year_available(WORST_CASE, required) == worst_year


def test_small_requirements_available_at_anchor():
    assert year_available(BEST_CASE, 1) == 2020
    assert year_available(BEST_CASE, 5436) == 2020
    assert year_available(BEST_CASE, 5437) > 2020
    # A trend may start at one qubit.
    assert year_available(GrowthTrend("t", 2020, 1, 2.0), 1) == 2020


@pytest.mark.parametrize("trend,year,count", [
    (BEST_CASE, 4175, 14 * 10**307), (WORST_CASE, 8723, 17 * 10**307),
], ids=["best-case", "worst-case"])
def test_a_size_past_float_range_is_a_named_domain_error(trend, year, count):
    # Each trend's size leaves float range in `year`; a count it passes
    # only there raises the same error from `year_available`.
    assert qubits_at(trend, year - 1) < count
    message = f"{trend.name} trend size in {year} is past float range"
    with pytest.raises(ValueError, match=message):
        qubits_at(trend, year)
    with pytest.raises(ValueError, match=message):
        year_available(trend, count)
    with pytest.raises(ValueError, match="required_qubits past float range: 401 digits"):
        year_available(trend, 10**400)


@pytest.mark.parametrize("count,size", [
    (float("inf"), "inf"), (sys.float_info.max * 2, "inf"), (10**309, "310 digits"),
    (int(sys.float_info.max) + 1, "309 digits"),
], ids=["inf", "float-past-max", "int-310-digits", "int-309-digits"])
def test_a_count_past_float_range_is_named_by_digits_or_by_value(count, size):
    # An int by its digits; a float, which has none, by its value.
    with pytest.raises(ValueError) as raised:
        year_available(BEST_CASE, count)
    assert str(raised.value) == f"required_qubits past float range: {size}"


@pytest.mark.parametrize("counts,error", [
    ([10, 10**6, 0], "required_qubits must be positive, got 0"),
    ([10**6, 10, 10**309, 0], "required_qubits past float range: 310 digits"),
    ([float("nan"), 10**6], "required_qubits must be positive, got nan"),
])
def test_a_column_with_a_bad_count_builds_its_table_once(monkeypatch, counts, error):
    # The counts before the bad one are looked up through the one table, so
    # each year's size is projected once, and the bad count's error raises.
    calls, want = [], year_available(BEST_CASE, 10**6)

    def counted(trend, year):
        calls.append(year)
        return qubits_at(trend, year)

    monkeypatch.setattr("qaplan.timeline.qubits_at", counted)
    table = YearTable(BEST_CASE)
    with pytest.raises(ValueError) as raised:
        table.years(counts)
    assert str(raised.value) == error
    assert calls == list(range(2020, 2020 + len(table.sizes)))
    assert table.years([10**6, 10]) == [want, 2020]
    assert calls == list(range(2020, 2020 + len(table.sizes)))  # each year once


def test_invalid_trends_rejected():
    with pytest.raises(ValueError):
        GrowthTrend("flat", 2020, 5436, growth_factor=1.0)
    with pytest.raises(ValueError):
        GrowthTrend("empty", 2020, 0, growth_factor=2.0)


trends = st.sampled_from([BEST_CASE, WORST_CASE])


@given(trends, st.integers(min_value=0, max_value=60))
def test_projection_monotone_in_year(trend, offset):
    y = trend.anchor_year + offset
    assert qubits_at(trend, y + 1) >= qubits_at(trend, y)


@given(trends, st.integers(min_value=0, max_value=60))
def test_round_trip_never_later_than_source_year(trend, offset):
    # a device size projected for year y must be available by y
    y = trend.anchor_year + offset
    n = qubits_at(trend, y)
    assert year_available(trend, n) <= y


@given(trends, st.integers(min_value=1, max_value=10**8))
def test_year_available_is_tight(trend, required):
    y = year_available(trend, required)
    assert qubits_at(trend, y) >= required
    if y > trend.anchor_year:
        assert qubits_at(trend, y - 1) < required


def _outcome(call):
    """What `call()` returns, or the type and text of what it raises."""
    try:
        return call()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


_size = lru_cache(maxsize=None)(qubits_at)


def _first_year(trend, count):
    """The definition: the first year, from the anchor on, whose `qubits_at`
    reaches `count`. A count the sizes pass only past float range raises at
    the first year whose size is past it."""
    if count < 1:
        raise ValueError(f"required_qubits must be positive, got {count}")
    if count > sys.float_info.max:
        raise ValueError(f"required_qubits past float range: {len(str(count))} digits")
    year = trend.anchor_year
    while _size(trend, year) < count:
        year += 1
    return year


# Counts from 1 to past the largest float, where every size is too small;
# each trend's sizes, and one qubit more, where the year turns.
_COUNTS = (st.integers(1, 10**8) | st.integers(1, 10**310)
           | st.sampled_from([1, 5436, 7440, 10**300, int(sys.float_info.max),
                              int(sys.float_info.max) + 1, 10**308, 10**400])
           | st.builds(lambda trend, years, more: qubits_at(trend, trend.anchor_year + years)
                       + more, trends, st.integers(0, 2000), st.integers(0, 1)))


@settings(max_examples=300, deadline=None)
@given(trends, st.lists(_COUNTS | st.integers(-3, 0), min_size=1, max_size=5))
@example(WORST_CASE, [10**300])  # a long table
@example(BEST_CASE, [2, 18 * 10**307, 0])  # the first failing count raises
@example(BEST_CASE, [qubits_at(BEST_CASE, 4174), qubits_at(BEST_CASE, 4174) + 1])
@example(WORST_CASE, [qubits_at(WORST_CASE, 8722) + 1])  # past each trend's last finite size
def test_years_by_lookup_equal_year_available(trend, counts):
    # Errors come in column order: the first failing count raises.
    want = _outcome(lambda: [_first_year(trend, count) for count in counts])
    assert _outcome(lambda: YearTable(trend).years(counts)) == want
    # One table, extended count by count, and `year_available` of each.
    table = YearTable(trend)
    each = [_outcome(lambda: [_first_year(trend, count)]) for count in counts]
    assert [_outcome(lambda: table.years([count])) for count in counts] == each
    assert [_outcome(lambda: [year_available(trend, count)]) for count in counts] == each
