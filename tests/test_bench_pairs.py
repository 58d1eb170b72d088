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



def test_cli_block_summarizes_wall_time_and_compares_stdout():
    argv = ["lr", "3,2,1", "2,1", "2,1"]
    parent = [(t, b'{"c": 2}\n') for t in (10, 11, 12, 13, 14) * 2]
    change = [(t, b'{"c": 2}\n') for t in (5, 6, 7, 8, 15) * 2]
    got = bench_pairs.cli_summary(argv, parent, change)
    assert got["argv"] == argv and got["same_stdout"]
    wall = got["wall_s"]
    assert wall["better"] == "lower" and wall["change_wins"] == 8
    assert wall["parent"]["median"] == 12 and wall["change"]["median"] == 7
    assert wall["ratio"] == pytest.approx(7 / 12)
    assert not wall["clear"]
    # one changed byte on either side is reported
    change[3] = (8, b'{"c": 3}\n')
    assert not bench_pairs.cli_summary(argv, parent, change)["same_stdout"]
