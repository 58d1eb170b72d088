"""Golden stdout gate: fixed CLI commands must print exactly the bytes
recorded in ``tests/golden/``.

Only stdout is compared; verify suites write their timings to stderr.  The
files were written by running this module as a script at the commit whose
output is the reference:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import pathlib
import sys
from contextlib import redirect_stdout

import pytest

from crystal_lr import cli

GOLDEN = pathlib.Path(__file__).with_name("golden")

CASES = {
    "verify_all_quick_seed0": ["verify", "all", "--quick", "--seed", "0"],
    "hl_act_2_1_0": ["hl-act", "--mu", "2,1,0"],
    "hl_act_1_0_-1_T3": ["hl-act", "--mu", "1,0,-1", "--T", "3"],
    "lr_321_21_21": ["lr", "3,2,1", "2,1", "2,1"],
    "kostka_foulkes_321_2211": ["kostka-foulkes", "3,2,1", "2,2,1,1"],
    "decompose_B0_Bcol2": ["decompose", "B(0) * Bcol(2)"],
}


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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        code, out = _run(argv)
        if code != 0:
            sys.exit("%s exited with %s" % (name, code))
        (GOLDEN / (name + ".out")).write_text(out, encoding="utf-8")
