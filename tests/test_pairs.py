"""The summary that `tools/pairs.py` prints for paired benchmark runs."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "pairs.py")
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_median_past_the_parent_spread():
    parent = [10.0, 11.0, 10.5, 10.2, 10.8, 10.1, 10.9, 10.4, 10.6, 10.3]
    change = [value - 1.0 for value in parent]
    found = pairs.summarize(parent, change, lower_is_better=True)
    assert found["parent"][1] == pytest.approx(10.45)
    assert found["change"][1] == pytest.approx(9.45)
    assert (found["wins"], found["pairs"], found["gain"]) == (10, 10, True)
    # The same runs read the other way round: a loss, never a gain.
    assert pairs.summarize(parent, change, lower_is_better=False)["wins"] == 0
    assert not pairs.summarize(parent, change, lower_is_better=False)["gain"]


def test_a_tie_or_a_lost_pair_counts_against_the_nine_tenths():
    parent = [10.0] * 10
    change = [9.0] * 9 + [10.0]  # one tie: 9 of 10 won, the rule holds
    assert pairs.summarize(parent, change, True)["gain"]
    change = [9.0] * 8 + [10.0, 11.0]  # 8 of 10
    found = pairs.summarize(parent, change, True)
    assert (found["wins"], found["gain"]) == (8, False)


def test_a_median_within_the_parent_spread_is_no_gain():
    # The change wins every pair, by less than the parent's quartile range.
    parent = [10.0, 12.0, 14.0, 16.0, 18.0, 10.0, 12.0, 14.0, 16.0, 18.0]
    change = [value - 0.5 for value in parent]
    found = pairs.summarize(parent, change, True)
    assert found["wins"] == 10
    assert found["parent"][2] - found["parent"][0] > 0.5
    assert not found["gain"]


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        pairs.summarize([1.0, 2.0], [1.0], True)
    with pytest.raises(ValueError):
        pairs.summarize([], [], True)


def test_a_regression_is_a_median_worse_by_more_than_the_bound_of_the_parent_median():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    # 10% worse against a 25% bound: no regression; 30% worse: a regression.
    assert pairs.regression(parent, [v * 1.1 for v in parent], True, 0.25) == "no"
    assert pairs.regression(parent, [v * 1.3 for v in parent], True, 0.25) == "yes"
    # Higher is better: the same runs read the other way round.
    assert pairs.regression(parent, [v * 0.7 for v in parent], False, 0.25) == "yes"
    assert pairs.regression(parent, [v * 1.3 for v in parent], False, 0.25) == "no"
    # A 1% loss in a metric bound at 5% is within the bound.
    assert pairs.regression(parent, [v * 0.99 for v in parent], False, 0.05) == "no"


def test_a_parent_spread_past_the_bound_leaves_the_verdict_unresolved():
    parent = [10.0, 20.0, 10.0, 20.0, 10.0, 20.0, 10.0, 20.0, 10.0, 20.0]  # quartiles 10 apart
    assert pairs.regression(parent, parent, True, 0.25) == "unresolved"
    assert pairs.regression(parent, [v * 2 for v in parent], True, 0.25) == "unresolved"
    # Unless every change run beats every parent run.
    assert pairs.regression(parent, [9.0] * 10, True, 0.25) == "no"
    assert pairs.regression(parent, [21.0] * 10, False, 0.25) == "no"
