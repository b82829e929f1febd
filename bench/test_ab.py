"""Tests of bench/ab.py's statistics, directory choice, reading of its
leftover worktrees and removal of bytecode caches, on fixed inputs.
Run with

    python -m pytest -q bench/test_ab.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ab  # noqa: E402  (bench/ab.py, found through sys.path)


def test_quartiles_interpolate_between_the_sorted_values():
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0]) == {"q1": 1.75, "median": 2.5, "q3": 3.25}


# ten pairs of a lower-is-better metric: the base spreads 14.00-14.18, quartiles 14.045 and 14.135
BASE = [14.00, 14.02, 14.04, 14.06, 14.08, 14.10, 14.12, 14.14, 14.16, 14.18]


def test_a_change_that_wins_nine_pairs_by_more_than_the_base_spread_is_better():
    change = [b - 0.2 for b in BASE[:9]] + [BASE[9] + 0.01]
    row = ab.compare(BASE, change, "lower")
    assert (row["change_wins"], row["base_wins"], row["ties"]) == (9, 1, 0)
    assert row["base_iqr"] == pytest.approx(0.09)
    assert row["gain"] == pytest.approx(0.2)
    assert row["verdict"] == "better"


def test_eight_wins_or_a_gap_inside_the_base_spread_is_unresolved():
    eight = [b - 0.2 for b in BASE[:8]] + [b + 0.01 for b in BASE[8:]]
    assert ab.compare(BASE, eight, "lower")["verdict"] == "unresolved"
    close = [b - 0.01 for b in BASE]  # every pair won, by less than the spread
    row = ab.compare(BASE, close, "lower")
    assert row["change_wins"] == 10 and row["verdict"] == "unresolved"


def test_ties_count_for_neither_side():
    change = list(BASE[:2]) + [b - 0.3 for b in BASE[2:]]
    row = ab.compare(BASE, change, "lower")
    assert (row["change_wins"], row["base_wins"], row["ties"]) == (8, 0, 2)
    assert row["verdict"] == "unresolved"


def test_fewer_pairs_than_the_rule_asks_resolve_nothing():
    assert ab.compare(BASE[:9], [b - 1 for b in BASE[:9]], "lower")["verdict"] == "unresolved"


def test_a_change_the_base_beats_by_more_than_its_spread_is_worse():
    row = ab.compare(BASE, [b + 0.15 for b in BASE], "lower")
    assert row["base_wins"] == 10 and row["gain"] == pytest.approx(-0.15)
    assert row["verdict"] == "worse"
    assert ab.compare(BASE, [b + 0.05 for b in BASE], "lower")["verdict"] == "unresolved"


def test_higher_is_better_turns_every_comparison_round():
    change = [b + 0.2 for b in BASE]
    row = ab.compare(BASE, change, "higher")
    assert row["change_wins"] == 10 and row["gain"] == pytest.approx(0.2)
    assert row["verdict"] == "better"


def test_summarize_reads_each_metric_of_each_side():
    runs = [{"base": {"metrics": {"peak_rss_mb": {"value": b}}}} for b in BASE]
    for run, b in zip(runs, BASE):
        run["change"] = {"metrics": {"peak_rss_mb": {"value": b - 0.2}}}
    # as BENCHMARK.json lists it
    metrics = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]
    row = ab.summarize(runs, metrics)["peak_rss_mb"]
    assert row["unit"] == "MB" and row["verdict"] == "better"
    assert row["base"]["median"] == pytest.approx(14.09)
    assert row["change"]["median"] == pytest.approx(13.89)


def test_the_base_tree_sits_beside_the_checkout_with_a_path_of_the_same_length(tmp_path):
    checkout = tmp_path / "repo"
    checkout.mkdir()
    first = ab.sibling(checkout)
    assert first.parent == tmp_path and len(str(first)) == len(str(checkout))
    first.mkdir()
    second = ab.sibling(checkout)
    assert second != first and len(str(second)) == len(str(checkout)) and not second.exists()
    with pytest.raises(SystemExit):
        ab.sibling(tmp_path / "r")  # no free name of one character


# `git worktree list --porcelain` with the main checkout, a worktree this tool
# locked, one locked with no reason, one locked by something else and a
# prunable one
PORCELAIN = """worktree /work/repo
HEAD 70e1eb0603bbfa61d2a82bf67e936c64af53b7fe
branch refs/heads/main

worktree /work/reab0
HEAD 70e1eb0603bbfa61d2a82bf67e936c64af53b7fe
detached
locked bench/ab.py

worktree /work/reab1
HEAD 70e1eb0603bbfa61d2a82bf67e936c64af53b7fe
detached
locked added with --lock

worktree /work/reab2
HEAD 70e1eb0603bbfa61d2a82bf67e936c64af53b7fe
detached
locked other

worktree /work/reab3
HEAD 70e1eb0603bbfa61d2a82bf67e936c64af53b7fe
detached
prunable gitdir file points to non-existent location"""


def test_only_the_worktrees_locked_with_the_tools_reason_are_stale():
    assert ab.locked_worktrees(PORCELAIN) == ["/work/reab0"]
    both = PORCELAIN.replace("locked other", "locked bench/ab.py")
    assert ab.locked_worktrees(both) == ["/work/reab0", "/work/reab2"]
    assert ab.locked_worktrees(PORCELAIN.split("\n\n")[0]) == []
    assert ab.locked_worktrees("") == []


def test_only_the_bytecode_caches_under_src_are_removed(tmp_path):
    caches = ["src/__pycache__", "src/genocchi/__pycache__", "src/genocchi/sub/__pycache__"]
    kept = ["src/genocchi/sub", "src/genocchi/pycache", "tests/__pycache__", "bench/__pycache__"]
    for directory in caches + kept:
        (tmp_path / directory).mkdir(parents=True, exist_ok=True)
        (tmp_path / directory / "module.cpython-311.pyc").write_bytes(b"")
    assert ab.remove_bytecode(tmp_path) == 3
    left = {str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*") if path.is_dir()}
    assert left == {"src", "src/genocchi", "tests", "bench"} | set(kept)
    assert ab.remove_bytecode(tmp_path) == 0
