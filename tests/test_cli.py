"""The CLI's parser is built once per process and shared by every call of
``cli.main``; these tests hold that sharing to what a fresh parser gives,
and the one-shot ``python -m crystal_lr.cli`` path to the in-process one.
A one-shot process loads only the modules its command runs, and still
ends each refusal in its exit code.  The emitter that writes stdout prints
what json.dumps(obj, ensure_ascii=False, indent=2) prints."""

import argparse
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from crystal_lr import cli, verify
from test_golden import CASES, GOLDEN, REPORTS

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
    proc = _run_module(argv, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, out.encode("utf-8"), err.encode("utf-8"))


# hostile inputs, each with the exit code it must end in: the empty factor
# B(Lambda_()) is the trivial crystal, and a Pieri or past-level-0 LR
# expansion scans only the shapes between its factors, however far the
# entries reach; a huge margin still ends in a named error
HOSTILE = [
    (["decompose", "B(0,-2000)", "--margin", "0"], 0),
    (["decompose", "B(0,-10000000)", "--margin", "0"], 0),
    (["decompose", "B(0,-10000000) * Bmn(1;)", "--margin", "0"], 0),
    (["extremal-lr", "--margin", "0", "--", "0,-10000000", "", "", "", "1",
      ""], 0),
    (["pieri", "--", "0,-10000000", "3"], 0),
    (["decompose", "B(0) * B(0)", "--margin", "100000"], 2),
    (["decompose", "B(0) * B(0)", "--margin", "1000000000"], 2),
]


@pytest.mark.parametrize("argv, code", HOSTILE,
                         ids=[" ".join(argv) for argv, _ in HOSTILE])
def test_hostile_input_ends_in_time(argv, code):
    # a subprocess with a timeout, so a regression fails instead of hanging
    proc = _run_module(argv, timeout=20)
    assert proc.returncode == code, proc.stderr
    assert (proc.stderr == b"") == (code == 0)


# one-shot refusals in a fresh process, each with its exit code and the
# text stderr must carry: an unknown suite is refused before verify loads,
# and a MixedLevelError from the lazily loaded lr_engine still ends in 3,
# for any Bdual factor, with a positive-level factor beside it or without
REFUSED = [
    (["verify", "nosuch"], 2, b"'nosuch'"),
    (["decompose", "Bmn(1;)*Bdual(0)"], 3, b"negative-level factor"),
    (["decompose", "Bdual(0)"], 3, b"negative-level factor"),
]


@pytest.mark.parametrize("argv, code, named", REFUSED,
                         ids=[" ".join(argv) for argv, _, _ in REFUSED])
def test_refusal_exit_code_in_a_fresh_process(argv, code, named):
    proc = _run_module(argv, timeout=120)
    assert proc.returncode == code
    assert named in proc.stderr and proc.stdout == b""


def test_parser_suites_are_verify_suites():
    assert cli.SUITES == tuple(verify.SUITES)


def _dumps(obj):
    return json.dumps(obj, ensure_ascii=False, indent=2)


# strings the C escaper must handle: quotes, backslashes, control
# characters, U+2028 (JSON leaves it raw) and non-ASCII letters
TRICKY = '"\\/\x00\x1f\x7f\b\f\n\r\t\u2028\u2029é∅λ😀'
TEXT = st.text(st.one_of(st.characters(), st.sampled_from(TRICKY)))
SCALARS = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0, 1, -1]), st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 200).flatmap(
        lambda n: st.sampled_from([n, -n])),
    TEXT)
JSON = st.recursive(SCALARS, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(TEXT, kids, max_size=4)), max_leaves=25)


@given(JSON)
@example([True, 1, False, 0, None, 2 ** 64, -2 ** 70])
@example({"a": [], "b": {}, "c": [(), [[]], {"d": {}}], "e": [{}, []]})
@example({TRICKY: TRICKY, "": "", "\u2028": ["\\", '"']})
@example(((), [], {}))
def test_to_json_matches_json_dumps(obj):
    assert cli._to_json(obj) == _dumps(obj)


# json.dumps prints floats and coerces non-str keys; no CLI answer holds
# either, and the emitter refuses them, as json.dumps refuses a Fraction
@pytest.mark.parametrize("obj", [
    1.5, Fraction(1, 2), [1, {"a": 0.0}], {1: 2}, {None: 1}, {True: 1},
    {"a": {(1,): 1}}], ids=repr)
def test_to_json_refuses_what_answers_never_hold(obj):
    with pytest.raises(TypeError):
        cli._to_json(obj)


@pytest.mark.parametrize("name", sorted(CASES))
def test_to_json_prints_golden_payloads(name):
    args = cli._build_parser().parse_args(CASES[name])
    code, payload = args.func(args)
    assert code == 0
    text = cli._to_json(payload)
    assert text == _dumps(payload)
    assert text + "\n" == (GOLDEN / (name + ".out")).read_text(
        encoding="utf-8")


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_to_json_prints_golden_reports(name):
    report = REPORTS[name]()
    assert cli._to_json(report) == _dumps(report)


# the crystal_lr modules a fresh process loads, as the module docstring
# states them: the module and its parser (--help) need only shapes, and
# each command adds its own engine
BASE = {"crystal_lr", "crystal_lr.shapes"}
LOADS = [
    (["--help"], BASE),
    (["lr", "3,2,1", "2,1", "2,1"], BASE),
    (["kostka-foulkes", "3,2,1", "2,2,1,1"], BASE),
    (["hl-act", "--mu", "2,1,0"],
     BASE | {"crystal_lr.ring", "crystal_lr.hall_littlewood"}),
    (["decompose", "B(0) * Bcol(2)"],
     BASE | {"crystal_lr.crystal", "crystal_lr.lr_engine"}),
    (["verify", "pieri", "--quick"],
     BASE | {"crystal_lr." + m for m in (
         "crystal", "lr_engine", "ring", "hall_littlewood", "characters",
         "matrices", "verify")}),
]


@pytest.mark.parametrize("argv, modules", LOADS,
                         ids=[" ".join(argv) for argv, _ in LOADS])
def test_command_loads_only_its_engine(argv, modules):
    loaded = _loaded_modules(argv)
    assert {m for m in loaded if m.split(".")[0] == "crystal_lr"} == modules


# only h_delem builds a Fraction, and it imports fractions (with decimal and
# numbers behind it) itself; a query never reaches it
@pytest.mark.parametrize("argv", [
    ["hl-act", "--mu", "2,1,0"],
    ["lr", "3,2,1", "2,1", "2,1"],
    ["decompose", "B(0) * Bcol(2)"],
], ids=lambda argv: argv[0])
def test_query_loads_no_fractions(argv):
    assert "fractions" not in _loaded_modules(argv)


def _loaded_modules(argv):
    """The modules a fresh python -m crystal_lr.cli process on argv
    imports, read from -X importtime, which writes one "import time: self
    | cumulative | name" line to stderr per module imported."""
    proc = _run_module(argv, timeout=120, flags=["-X", "importtime"])
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.decode().splitlines()
            if line.startswith("import time:")}


def _run_module(argv, timeout, flags=()):
    """Run python -m crystal_lr.cli on argv with src/ on the path, the
    interpreter flags given before -m."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-m", "crystal_lr.cli"] + argv, env=env,
        capture_output=True, timeout=timeout)
