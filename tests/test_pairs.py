"""The verdicts of benchmarks/pairs.py: pair wins, the gain rule, the
bound check and the operation totals, on hand-made pairs; and the code
state it records per run, on a temporary git repository."""

import hashlib
import importlib.util
import shutil
import subprocess
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


def _git(root, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=root,
        check=True, capture_output=True).stdout


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_code_state_tells_a_dirty_tree_from_its_commit(tmp_path):
    repo = tmp_path / "repo"
    (repo / "sub").mkdir(parents=True)
    _git(repo, "init", "-q")
    (repo / "a.py").write_text("x = 1\n")
    _git(repo, "add", "a.py")
    _git(repo, "commit", "-q", "-m", "one")
    head = _git(repo, "rev-parse", "HEAD").decode().strip()
    clean = pairs.code_state(repo)
    assert clean == {"commit": head, "dirty": False,
                     "diff_sha256": hashlib.sha256(b"").hexdigest()}
    # an edit to a tracked file: same commit, dirty, the diff's hash
    (repo / "a.py").write_text("x = 2\n")
    edited = pairs.code_state(repo)
    diff = _git(repo, "diff", "HEAD")
    assert diff and edited == {"commit": head, "dirty": True,
                               "diff_sha256": hashlib.sha256(diff).hexdigest()}
    # an untracked file is dirty too, though git diff HEAD leaves it out
    (repo / "a.py").write_text("x = 1\n")
    (repo / "b.py").write_text("y = 1\n")
    assert pairs.code_state(repo) == {**clean, "dirty": True}
    # committing the change moves the commit and cleans the tree
    _git(repo, "add", "b.py")
    _git(repo, "commit", "-q", "-m", "two")
    assert pairs.code_state(repo) == {
        **clean, "commit": _git(repo, "rev-parse", "HEAD").decode().strip()}
    assert pairs.code_state(repo)["commit"] != head
    # a subdirectory of a work tree, and a plain directory, are not
    # checkouts of their own
    none = {"commit": None, "dirty": None, "diff_sha256": None}
    assert pairs.code_state(repo / "sub") == none
    (tmp_path / "plain").mkdir()
    assert pairs.code_state(tmp_path / "plain") == none
