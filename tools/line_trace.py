"""The executable lines of src/crystal_lr that no fixed run reaches.

    PYTHONPATH=src python3 tools/line_trace.py

Run from the root of a checkout.  Under the stdlib `trace` module, with
the package's imports traced too, it runs every CLI case (`CASES`) and
every report (`REPORTS`) of tests/test_golden.py, then, for each workload
of perfbench/workloads.py, seed 1's generate, run and check.  It prints
each executable line of src/crystal_lr that none of them ran, as
`module.py:line: text`, then the totals.  A line is executable when a code
object of its module maps bytecode to it.  Takes no options; stdlib only.
"""

import contextlib
import io
import random
import sys
import trace
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "crystal_lr"


def executable_lines(path):
    """Line numbers that some code object compiled from path maps to."""
    def walk(code):
        out = {line for _, _, line in code.co_lines() if line}
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                out |= walk(const)
        return out
    return walk(compile(path.read_text(), str(path), "exec"))


def run_everything():
    # imported here, under the tracer, so module-level lines count as run
    import test_golden
    import workloads
    for argv in test_golden.CASES.values():
        code, _ = test_golden._run(argv)
        assert code == 0, argv
    for report in test_golden.REPORTS.values():
        report()
    for generate, run, check in workloads.WORKLOADS.values():
        items = generate(random.Random(1))
        for item in items:
            assert check(item, run(item)), item["kind"]


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"),
                    str(ROOT / "perfbench")]
    tracer = trace.Trace(count=1, trace=0,
                         ignoredirs=[sys.prefix, sys.exec_prefix])
    with contextlib.redirect_stderr(io.StringIO()):
        tracer.runfunc(run_everything)
    ran = {}
    for (filename, line) in tracer.results().counts:
        ran.setdefault(Path(filename).resolve(), set()).add(line)
    total = unrun = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        text = path.read_text().splitlines()
        missed = sorted(lines - ran.get(path.resolve(), set()))
        total += len(lines)
        unrun += len(missed)
        for line in missed:
            print("%s:%d: %s" % (path.name, line, text[line - 1].strip()))
    print("%d of %d executable src/ lines unrun" % (unrun, total))


if __name__ == "__main__":
    main()
