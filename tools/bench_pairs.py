"""Alternated parent/change pairs of perfbench/run.py, summarized as JSON.

    python3 tools/bench_pairs.py --parent 7a1a809 --change HEAD \
        --out BENCH_26.json

Run from the root of a git checkout.  Both refs are exported with
`git archive` into fresh temporary directories, so each side runs only its
committed files, the way the benchmark is run.  The workloads, the
end-to-end metrics and the run length come from the parent's
BENCHMARK.json; the script refuses to run when the change's copy differs.
For every workload and for seeds 1 and 2 it makes 10 pairs of
`perfbench/run.py --trace 0` runs, one per side, and swaps which side runs
first from one pair to the next (parent first in odd pairs), so slow drift
on a shared host falls on both sides.  Before those it times, in 10 pairs
alternated the same way, fresh `python -m crystal_lr.cli` processes on
each side for a fixed set of one-shot commands (`CLI_COMMANDS`), with the
side's src/ as PYTHONPATH: the wall time a user of the CLI waits,
interpreter start-up and imports included.

The output holds, per workload and seed and per end-to-end metric: each
side's values in run order, median, quartiles and interquartile range, the
ratio of the medians, the number of pairs in which the change is better,
and `clear` (better in at least 90 % of the pairs, and the medians apart by
more than the parent's interquartile range).  The same summary of `wall_s`
is written per CLI command, with `same_stdout`: whether every one of its
runs, on both sides, printed the same bytes.  It also records both commits,
the argv of every run (with the interpreter that runs this script, the
workload and the seed as placeholders), nproc, the Python version and
PYTHONDONTWRITEBYTECODE.  Stdlib only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PAIRS = 10
SEEDS = (1, 2)
CLI_COMMANDS = [
    ["lr", "3,2,1", "2,1", "2,1"],
    ["hl-act", "--mu", "2,1,0"],
    ["decompose", "B(0) * Bcol(2)"],
    ["verify", "pieri", "--quick"],
    ["verify", "duality-en"],
    ["verify", "bicrystal"],
    ["verify", "extremal"],
    ["extremal-lr", "--margin", "1", "--", "1,0", "1", "", "0", "", "1"],
]


def _export(ref, into):
    """Write the tree of ref into the directory into; its full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", ref + "^{commit}"], check=True,
        capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def _argv(workload, seed, seconds):
    return [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]


def _run(root, argv):
    """One perfbench run in root; its last stdout line, the result."""
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError("%s: run.py exited %d: %s" % (
            root, proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cli_run(root, argv):
    """One fresh `python -m crystal_lr.cli` process on argv, importing from
    root's src/; its wall time and stdout."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "crystal_lr.cli"] + argv,
                          cwd=root, env=env, capture_output=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("%s: %s exited %d: %s" % (
            root, argv, proc.returncode, proc.stderr.decode()[-2000:]))
    return wall, proc.stdout


def _alternated(run):
    """PAIRS pairs of run(side), parent first in odd pairs; each side's
    results in pair order."""
    out = {"parent": [], "change": []}
    for i in range(PAIRS):
        for side in (("parent", "change") if i % 2 == 0 else
                     ("change", "parent")):
            out[side].append(run(side))
    return out


def _side(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def summarize(metrics, parent_runs, change_runs):
    """Per metric ({name: "lower" | "higher"}), both sides and the pair
    comparison; runs are the result objects of run.py, in pair order."""
    out = {}
    for name, better in metrics.items():
        par = [r["metrics"][name]["value"] for r in parent_runs]
        chg = [r["metrics"][name]["value"] for r in change_runs]
        sign = 1 if better == "lower" else -1
        wins = sum(1 for p, c in zip(par, chg) if sign * (p - c) > 0)
        p, c = _side(par), _side(chg)
        out[name] = {
            "better": better, "parent": p, "change": c,
            "ratio": c["median"] / p["median"] if p["median"] else None,
            "change_wins": wins,
            "clear": (wins >= 0.9 * len(par)
                      and sign * (p["median"] - c["median"]) > p["iqr"]),
        }
    return out


def cli_summary(argv, parent, change):
    """The block of one CLI command; parent and change are its (wall_s,
    stdout) runs in pair order."""
    def runs(side):
        return [{"metrics": {"wall_s": {"value": wall}}} for wall, _ in side]
    return {"argv": argv,
            "same_stdout": len({out for _, out in parent + change}) == 1,
            "wall_s": summarize({"wall_s": "lower"}, runs(parent),
                                runs(change))["wall_s"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD~1")
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        roots = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {}
        for side, root in roots.items():
            root.mkdir()
            commits[side] = _export(getattr(args, side), root)
        spec = (roots["parent"] / "BENCHMARK.json").read_text()
        if (roots["change"] / "BENCHMARK.json").read_text() != spec:
            sys.exit("BENCHMARK.json differs between %s and %s; the pairs "
                     "would not measure the same thing" % (
                         args.parent, args.change))
        bench = json.loads(spec)
        metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
        seconds = bench["run_seconds"]
        record = {
            "parent": {"ref": args.parent, "commit": commits["parent"]},
            "change": {"ref": args.change, "commit": commits["change"]},
            "command": ["PYTHON"] + _argv("WORKLOAD", "SEED", seconds)[1:],
            "order": "parent first in odd pairs, change first in even pairs",
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "PYTHONDONTWRITEBYTECODE":
                os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "cli_command": ["PYTHON", "-m", "crystal_lr.cli", "ARGV"],
            "cli": [],
            "results": [],
        }
        out = Path(args.out)
        for cmd in CLI_COMMANDS:
            runs = _alternated(lambda side: _cli_run(roots[side], cmd))
            record["cli"].append(cli_summary(cmd, runs["parent"],
                                             runs["change"]))
            print("cli %s: %d pairs done" % (" ".join(cmd), PAIRS),
                  file=sys.stderr)
        out.write_text(json.dumps(record, indent=1) + "\n")
        for workload in (w["name"] for w in bench["workloads"]):
            for seed in SEEDS:
                runs = _alternated(lambda side: _run(
                    roots[side], _argv(workload, seed, seconds)))
                print("%s seed %d: %d pairs done" % (workload, seed, PAIRS),
                      file=sys.stderr)
                record["results"].append({
                    "workload": workload, "seed": seed,
                    "pairs": PAIRS,
                    "failed": {side: sum(r["failed"] for r in runs[side])
                               for side in runs},
                    "all_correct": all(r["correct"] for side in runs.values()
                                       for r in side),
                    "metrics": summarize(metrics, runs["parent"],
                                         runs["change"])})
                # rewritten after every workload and seed, so a run cut
                # short keeps what it finished
                out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
