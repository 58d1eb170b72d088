"""The CLI's parser is built once per process and shared by every call of
``cli.main``; these tests hold that sharing to what a fresh parser gives,
and the one-shot ``python -m crystal_lr.cli`` path to the in-process one."""

import argparse
import os
import pathlib
import subprocess
import sys

import pytest

from crystal_lr import cli

PIERI_DUAL = ["pieri", "--dual", "--", "1,0", "2"]  # golden pieri_dual_10_2
MISPLACED_FLAG = ["--seed", "0", "verify", "pieri", "--quick"]

# pairs whose second call would read a value the first one left behind:
# a store_true flag, an int option, a command-name error and --help
SEQUENCE = [
    PIERI_DUAL,
    ["pieri", "--", "1,0", "2"],
    ["decompose", "--margin", "5", "B(0) * B(0)"],
    ["decompose", "B(0) * B(0)"],
    MISPLACED_FLAG,
    ["lr", "3,2,1", "2,1", "2,1"],
    ["--help"],
    ["genlr", "--", "1,0,-1", "1,0", "-1"],
]


def _call(argv, capsys):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_shared_parser_keeps_no_per_call_state(capsys, monkeypatch):
    # argparse parses each command into a namespace of its own and copies
    # it over, so a reused Namespace can leave the output unchanged: the
    # Namespaces main parses into are compared as well
    parsed = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsed.append(parse_args(self, *args, **kwargs))
        return parsed[-1]

    def run(argv):
        start = len(parsed)
        code, out, err = _call(argv, capsys)
        return code, out, err, [dict(vars(ns)) for ns in parsed[start:]]

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    # each argv's reference is taken in reverse order, so that anything one
    # call leaves for the next shows up in the forward run below
    fresh = {}
    for argv in reversed(SEQUENCE):
        cli._build_parser.cache_clear()
        fresh[tuple(argv)] = run(argv)
    cli._build_parser.cache_clear()
    for argv in SEQUENCE:
        assert run(argv) == fresh[tuple(argv)], argv
    assert len({id(ns) for ns in parsed}) == len(parsed)
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("argv", [PIERI_DUAL, MISPLACED_FLAG])
def test_module_entry_point_matches_in_process(argv, capsys, monkeypatch):
    # argparse wraps usage text to the terminal width: fix it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _call(argv, capsys)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "crystal_lr.cli"] + argv,
                          env=env, capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, out.encode("utf-8"), err.encode("utf-8"))
