"""The band and shift of benchmarks/criteria_spread.py, on hand-made
per-seed values; no training runs."""

import importlib.util
import math
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "criteria_spread",
    Path(__file__).resolve().parents[1] / "benchmarks" / "criteria_spread.py")
spread = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spread)

# sd sqrt(10), so the band of a 5-seed mean is sqrt(10 / 5) = sqrt(2)
PARENT = {"0": 0.0, "1": 2.0, "2": 4.0, "3": 6.0, "4": 8.0}
BAND = math.sqrt(2.0)


def _shifted(d, seeds=PARENT):
    return {s: PARENT[s] + d for s in seeds}


def test_band_is_the_standard_error_of_a_five_seed_mean():
    s = spread.spread(list(PARENT.values()))
    assert s["mean"] == 4.0 and s["sd"] == pytest.approx(math.sqrt(10.0))
    assert (s["q1"], s["median"], s["q3"], s["iqr"]) == (2.0, 4.0, 6.0, 4.0)
    v = spread.verdict(PARENT, _shifted(0.5))
    assert v["band"] == pytest.approx(BAND)
    assert v["shift"] == pytest.approx(0.5)
    assert v["shift_in_bands"] == pytest.approx(0.5 / BAND)
    assert v["within"]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_verdict_holds_at_three_bands_and_fails_just_past(sign):
    at = spread.verdict(PARENT, _shifted(sign * 3 * BAND * (1 - 1e-9)))
    assert at["within"] and at["shift_in_bands"] == pytest.approx(sign * 3)
    past = spread.verdict(PARENT, _shifted(sign * 3 * BAND * (1 + 1e-6)))
    assert not past["within"]


def test_seeds_pair_by_value_not_position():
    # each seed moves by its own amount; the mean of the moves is 1.0
    moves = {"0": 3.0, "1": -1.0, "2": 0.0, "3": 2.0, "4": 1.0}
    change = {s: PARENT[s] + moves[s] for s in reversed(list(PARENT))}
    v = spread.verdict(PARENT, change)
    assert v["shift"] == pytest.approx(1.0)
    # the same count of seeds under other names is no match
    renamed = {str(int(s) + 1): x for s, x in PARENT.items()}
    with pytest.raises(ValueError, match="seed sets differ"):
        spread.verdict(PARENT, renamed)
    with pytest.raises(ValueError, match="at least two seeds"):
        spread.verdict({"0": 1.0}, {"0": 2.0})


def test_compare_gives_each_criterion_both_sides_and_a_verdict():
    def side(d_c9):
        return {"seeds": {s: {"c6": -x, "c7": x, "c8": x, "c9": x + d_c9,
                              "c10": 2 * x} for s, x in PARENT.items()}}

    report = spread.compare(side(0.0), side(5.0))
    assert set(report["criteria"]) == {"c6", "c7", "c8", "c9", "c10"}
    c9 = report["criteria"]["c9"]
    assert c9["parent"]["per_seed"] == PARENT
    assert c9["change"]["mean"] == pytest.approx(9.0)
    assert c9["band"] == pytest.approx(BAND) and not c9["within"]
    c10 = report["criteria"]["c10"]
    assert c10["band"] == pytest.approx(2 * BAND) and c10["shift"] == 0.0
    assert c10["within"] and not report["all_within"]
    assert spread.compare(side(0.0), side(0.0))["all_within"]
