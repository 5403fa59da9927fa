"""The verdicts of benchmarks/pairs.py: pair wins, the gain rule, the
bound check and the operation totals, on hand-made pairs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "benchmarks" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

LOWER = {"name": "t", "unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "r", "unit": "1/s", "better": "higher", "bound": 0.25}


def _pairs(parent, change, name):
    return [{"parent": {"metrics": {name: p}}, "change": {"metrics": {name: c}}}
            for p, c in zip(parent, change)]


def _summary(parent, change, spec=LOWER):
    return pairs.summarise(_pairs(parent, change, spec["name"]),
                           [spec])[spec["name"]]


# parent runs 1.0 .. 1.9 s: median 1.45, quartiles 1.225 and 1.675
PARENT = [1.0 + k / 10 for k in range(10)]


def test_nine_wins_and_a_gap_above_the_iqr_show_a_gain():
    change = [p - 0.5 for p in PARENT[:9]] + [PARENT[9] + 1.0]
    s = _summary(PARENT, change)
    assert s["change_wins"] == 9 and s["pairs"] == 10
    assert s["parent"] == pytest.approx(
        {"median": 1.45, "q1": 1.225, "q3": 1.675})
    assert s["change"]["median"] == pytest.approx(0.95)
    assert s["gain_shown"]


def test_eight_wins_show_no_gain():
    change = [p - 0.5 for p in PARENT[:8]] + [p + 1.0 for p in PARENT[8:]]
    s = _summary(PARENT, change)
    assert s["change_wins"] == 8
    assert not s["gain_shown"]


def test_a_gap_inside_the_iqr_shows_no_gain():
    # every pair won, by 0.4 s against an interquartile range of 0.45 s
    s = _summary(PARENT, [p - 0.4 for p in PARENT])
    assert s["change_wins"] == 10
    assert not s["gain_shown"]


@pytest.mark.parametrize("spec", [LOWER, HIGHER])
def test_a_tie_counts_for_neither_side(spec):
    s = _summary([2.0, 2.0, 3.0], [2.0, 2.0, 3.0], spec)
    assert s["change_wins"] == 0
    assert s["change_over_parent"] == 1.0
    assert not s["gain_shown"] and s["within_bound"]


def test_higher_better_gain_and_wins():
    s = _summary(PARENT, [p + 0.5 for p in PARENT], HIGHER)
    assert s["change_wins"] == 10
    assert s["gain_shown"]
    assert not _summary(PARENT, [p - 0.5 for p in PARENT], HIGHER)["gain_shown"]


@pytest.mark.parametrize("spec,edge,past", [
    # a median of 2.0: lower-better may grow to 2.5, higher-better drop
    # to 1.5 (a quarter of 2.0 either way), and no further
    (LOWER, 2.5, 2.5625), (HIGHER, 1.5, 1.4375)])
def test_within_bound_at_the_edge(spec, edge, past):
    assert _summary([2.0], [edge], spec)["within_bound"]
    assert not _summary([2.0], [past], spec)["within_bound"]
    better = 1.0 if spec["better"] == "lower" else 4.0
    assert _summary([2.0], [better], spec)["within_bound"]


def test_operations_sum_each_side_over_the_pairs():
    runs = [({"attempted": 40, "failed": 0}, {"attempted": 42, "failed": 1}),
            ({"attempted": 38, "failed": 2}, {"attempted": 41, "failed": 0})]
    got = pairs.operations([{"parent": p, "change": c} for p, c in runs])
    assert got == {"parent": {"attempted": 78, "failed": 2},
                   "change": {"attempted": 83, "failed": 1}}
    assert pairs.operations([]) == {
        "parent": {"attempted": 0, "failed": 0},
        "change": {"attempted": 0, "failed": 0}}
