"""Golden stdout gate: fixed CLI commands must print exactly the bytes
recorded in ``tests/golden/``, and so must the JSON of fixed
``verify_truncated`` reports that no command prints.

Only stdout is compared; verify suites write their timings to stderr.  The
files were written by running this module as a script at the commit whose
output is the reference:

    PYTHONPATH=src python tests/test_golden.py --rewrite

Any other argument list, none included, writes nothing and exits non-zero.
"""

import io
import json
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from crystal_lr import cli, lr_engine

GOLDEN = pathlib.Path(__file__).with_name("golden")
USAGE = "usage: python tests/test_golden.py --rewrite"

CASES = {
    "verify_all_quick_seed0": ["verify", "all", "--quick", "--seed", "0"],
    "verify_pieri_seed0": ["verify", "pieri", "--seed", "0"],
    "verify_s_action_seed0": ["verify", "s-action", "--seed", "0"],
    "verify_annihilator_seed0": ["verify", "annihilator", "--seed", "0"],
    "verify_hl_seed0": ["verify", "hl", "--seed", "0"],
    "hl_act_2_1_0": ["hl-act", "--mu", "2,1,0"],
    "hl_act_1_0_-1_T3": ["hl-act", "--mu", "1,0,-1", "--T", "3"],
    "lr_321_21_21": ["lr", "3,2,1", "2,1", "2,1"],
    "kostka_foulkes_321_2211": ["kostka-foulkes", "3,2,1", "2,2,1,1"],
    "kostka_foulkes_3221_1x8": ["kostka-foulkes", "3,2,2,1",
                                "1,1,1,1,1,1,1,1"],
    "kostka_foulkes_20-1_100": ["kostka-foulkes", "--", "2,0,-1", "1,0,0"],
    "decompose_B0_Bcol2": ["decompose", "B(0) * Bcol(2)"],
    "decompose_B1-1_Bmn1_1": ["decompose", "B(1,-1) * Bmn(1;1)"],
    "genlr_10-1_10_-1": ["genlr", "--", "1,0,-1", "1,0", "-1"],
    "pieri_dual_10_2": ["pieri", "--dual", "--", "1,0", "2"],
    "extremal_lr_margin1": ["extremal-lr", "--margin", "1", "--",
                            "1,0", "1", "", "0", "", "1"],
}

# verify_truncated reports, full discrepancy lists and their order included;
# the first is perfbench's census case that stays a mismatch at [-10, 10],
# the second the three window-fit refusals with their detail texts
REPORTS = {
    "verify_truncated_bmn1_b-1_b0_mismatch": lambda: (
        lr_engine.verify_truncated(
            [("Bmn", (1,), ()), ("B", (-1,)), ("B", (0,))], (-3, 3),
            lr_engine.extremal_lr((-1,), (1,), (), (0,), (), (), (-3, 3)))),
    "verify_truncated_window_too_small": lambda: [
        lr_engine.verify_truncated(f, (0, 0), {})
        for f in ([("B", (20,))], [("B", (-20,))],
                  [("Bmn", (1,) * 20, ())])],
}


def _report_text(name):
    return json.dumps(REPORTS[name](), ensure_ascii=False, indent=2) + "\n"


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name):
    code, out = _run(CASES[name])
    assert code == 0
    assert out == (GOLDEN / (name + ".out")).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_golden_report(name):
    assert _report_text(name) == (GOLDEN / (name + ".out")).read_text(
        encoding="utf-8")


@pytest.mark.parametrize("args", [["--help"], []])
def test_script_rewrites_only_on_flag(args):
    files = sorted(GOLDEN.glob("*.out"))
    before = {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in files}
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__] + args, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert USAGE in proc.stderr
    assert sorted(GOLDEN.glob("*.out")) == files
    assert {p: (p.read_bytes(), p.stat().st_mtime_ns)
            for p in files} == before


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit(USAGE + "\n(rewrites every tests/golden/*.out from the "
                 "current code)")
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        code, out = _run(argv)
        if code != 0:
            sys.exit("%s exited with %s" % (name, code))
        (GOLDEN / (name + ".out")).write_text(out, encoding="utf-8")
    for name in sorted(REPORTS):
        (GOLDEN / (name + ".out")).write_text(_report_text(name),
                                             encoding="utf-8")
