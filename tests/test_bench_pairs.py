"""The pair summary of tools/bench_pairs.py: wins, quartiles and `clear`."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / \
    "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(values):
    return [{"metrics": {"m": {"value": v, "unit": "s"}}} for v in values]


def test_summary_counts_wins_and_separation():
    parent = _runs([10, 11, 12, 13, 14, 10, 11, 12, 13, 14])
    faster = _runs([5, 6, 7, 8, 9, 5, 6, 7, 8, 15])
    got = bench_pairs.summarize({"m": "lower"}, parent, faster)["m"]
    assert got["change_wins"] == 9
    assert got["parent"]["median"] == 12
    assert (got["parent"]["q1"], got["parent"]["q3"]) == (11, 13)
    assert got["ratio"] == pytest.approx(7 / 12)
    assert got["clear"]
    # the same numbers read as a loss when higher is better
    got = bench_pairs.summarize({"m": "higher"}, parent, faster)["m"]
    assert got["change_wins"] == 1 and not got["clear"]


def test_summary_needs_more_than_the_parent_spread():
    parent = _runs([10, 20, 10, 20, 10, 20, 10, 20, 10, 20])
    slightly = _runs([9, 19, 9, 19, 9, 19, 9, 19, 9, 19])
    got = bench_pairs.summarize({"m": "lower"}, parent, slightly)["m"]
    assert got["change_wins"] == 10
    assert not got["clear"]

