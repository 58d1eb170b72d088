"""Benchmark entry point for crystal_lr.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each repetition is a fresh process
(perfbench/worker.py) that imports crystal_lr from src/, generates the
seeded items and runs them one at a time.  The number of repetitions is
fixed by the workload and --seconds alone (see NOMINAL_S), so a faster and
a slower commit are measured with the same number of samples per item.
The first repetition checks every answer; the later ones run the same items
and must reproduce its output digest bit for bit, which carries its
verdicts over.

Every repetition does the same deterministic work, and on a shared host
interference only ever slows it down, one CPU at a time and for seconds on
end.  So successive rounds of repetitions are pinned to each allowed CPU in
turn, and each item's latency is its least over the repetitions: wall_s is
the sum of those over the batch, and p50 and p90 are taken across items.
setup_s and peak_rss_mb are medians over the repetitions.  The fastest and
the median elapsed batch time are in the provenance record.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics, plus trace.overhead_s
(traced minus untraced wall_s).  The last stdout line is the result object;
the line before it is the provenance record.  Exits non-zero without a result
when a repetition fails to run or src/crystal_lr is missing.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census", "components", "zring", "queries")
# Nominal seconds of one untraced repetition and of one traced round (an
# untraced plus a traced repetition) of each workload, measured when the
# benchmark was written, on a 2-vCPU KVM guest with Python 3.11.7.  A run
# makes int(--seconds / nominal) of them (untraced: at least MIN_REPS),
# however fast the code under test is.
NOMINAL_S = {"census": (2.4, 6.4), "components": (1.5, 4.0),
             "zring": (1.4, 3.2), "queries": (1.4, 3.2)}
MIN_REPS = 3
# A run ends within DEADLINE_S: it starts no repetition that would not
# finish by then, so a far slower commit still gets a result, from fewer
# repetitions (the provenance record gives both counts).  --seconds above
# half of it is refused.
DEADLINE_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms",
              "item_p90_ms": "ms", "peak_rss_mb": "MB"}


def _fail(msg):
    print("perfbench: %s" % msg, file=sys.stderr)
    return 1


def _commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "crystal_lr").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _rank(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _least_per_item(reps):
    return [min(r["item_s"][i] for r in reps)
            for i in range(len(reps[0]["item_s"]))]


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield", "_frac")):
        return "ratio"
    return "count"


def planned_rounds(workload, seconds, trace):
    rep_s, round_s = NOMINAL_S[workload]
    if trace:
        return max(1, int(seconds / round_s))
    return max(MIN_REPS, int(seconds / rep_s))


def _repetition(workload, seed, trace, check, cpu, deadline):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace),
           "--check", str(int(check)), "--cpu", str(cpu)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError("repetition exited %d: %s" % (
            proc.returncode, proc.stderr.strip()[-2000:]))
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    module = Path(rec["module"]).resolve()
    if ROOT / "src" not in module.parents:
        raise RuntimeError("imported crystal_lr from %s, not from %s"
                           % (module, ROOT / "src"))
    rec["setup_s"] = rec["ready"] - spawned
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= DEADLINE_S / 2:
        return _fail("--seconds must lie in (0, %g]" % (DEADLINE_S / 2))
    if not (ROOT / "src" / "crystal_lr" / "__init__.py").is_file():
        return _fail("no src/crystal_lr under %s" % ROOT)

    start = time.monotonic()
    deadline = start + DEADLINE_S
    modes = (0, 1) if args.trace else (0,)
    cpus = sorted(os.sched_getaffinity(0))
    rounds = planned_rounds(args.workload, args.seconds, args.trace)
    plain, traced = [], []
    longest = 0.0
    try:
        for rnd in range(rounds):
            t0 = time.monotonic()
            if rnd and t0 + longest > deadline:
                break
            for mode in modes:
                first = not plain and not traced
                rec = _repetition(args.workload, args.seed, mode, first,
                                  cpus[rnd % len(cpus)], deadline)
                (traced if mode else plain).append(rec)
            longest = max(longest, time.monotonic() - t0)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return _fail(str(exc))

    reps = plain + traced
    digests = {r["digest"] for r in reps}
    n_items = len(plain[0]["item_s"])
    # the first repetition's verdicts hold for every repetition that
    # reproduces its digest; one that does not counts as failed throughout
    first = plain[0]
    failed = sum(len(first["failed"]) if r["digest"] == first["digest"]
                 else n_items for r in reps)
    attempted = n_items * len(reps)
    per_item = sorted(_least_per_item(plain))
    wall = sum(per_item)
    if args.trace:
        # one consistent snapshot: the fastest traced repetition
        best = min(traced, key=lambda r: r["wall_s"])
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in best["layers"].items()}
        metrics["cli.output_bytes"] = {"value": best["output_bytes"],
                                       "unit": "bytes"}
        metrics["trace.overhead_s"] = {
            "value": sum(_least_per_item(traced)) - wall, "unit": "s"}
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "wall_s": wall,
            "item_p50_ms": 1e3 * _rank(per_item, 0.5),
            "item_p90_ms": 1e3 * _rank(per_item, 0.9),
            "peak_rss_mb": statistics.median(r["rss_kb"]
                                             for r in plain) / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": plain[0]["python"], "nproc": os.cpu_count(),
        "commit": _commit(), "source_sha256": _source_sha256(),
        "items": n_items, "items_per_kind": plain[0]["kinds"],
        "repetitions": {"planned_rounds": rounds, "untraced": len(plain),
                        "traced": len(traced)},
        "elapsed_s": time.monotonic() - start,
        "batch_s": {"fastest": min(r["wall_s"] for r in plain),
                    "median": statistics.median(r["wall_s"] for r in plain)},
        "percentile_samples": {
            "items": n_items, "beyond_p90": n_items - math.ceil(0.9 * n_items),
            "repetitions_per_item": len(plain)},
        "digest": sorted(digests), "failed_frac": failed / attempted,
        "errors": [r["errors"] for r in reps if r["errors"]][:3],
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": failed == 0 and len(digests) == 1,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
