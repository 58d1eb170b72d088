"""One benchmark repetition, in a fresh single-threaded process.

Imports crystal_lr, generates the seeded items, runs them one at a time
(closed loop), then checks every answer outside the timed region and prints
one JSON record on stdout.  run.py starts this with PYTHONPATH pointing at
the checkout's src/.

    python3 perfbench/worker.py --workload census --seed 1 --trace 0
"""

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time
from collections import Counter

import crystal_lr
import workloads


def run_batch(run, items):
    """Time each item; returns (outputs, seconds per item, errors, wall)."""
    outs, times, errors = [], [], {}
    start = time.perf_counter()
    for i, item in enumerate(items):
        t0 = time.perf_counter()
        try:
            out = run(item)
        except Exception as exc:  # an item that raises counts as failed
            out = None
            errors[i] = repr(exc)
        times.append(time.perf_counter() - t0)
        outs.append(out)
    return outs, times, errors, time.perf_counter() - start


def check_batch(check, items, outs, errors):
    """Indices of the items that raised or failed their check."""
    failed = []
    for i, (item, out) in enumerate(zip(items, outs)):
        if i in errors:
            failed.append(i)
            continue
        try:
            ok = check(item, out)
        except Exception as exc:  # a check that raises is a failed item
            errors[i] = "check: %r" % (exc,)
            ok = False
        if not ok:
            failed.append(i)
    return failed


def digest(outs):
    """sha256 over the canonical item outputs, in order."""
    h = hashlib.sha256()
    for out in outs:
        h.update(json.dumps(workloads.canon(out),
                            separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=1,
                    help="check every answer (0: only report the digest)")
    ap.add_argument("--cpu", type=int, default=None,
                    help="pin this process to one CPU")
    args = ap.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    generate, run, check = workloads.WORKLOADS[args.workload]
    items = generate(random.Random(args.seed))
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    ready = time.monotonic()
    outs, times, errors, wall = run_batch(run, items)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = tracer.finish() if tracer else None
    failed = (check_batch(check, items, outs, errors) if args.check
              else sorted(errors))
    output_bytes = 0
    if args.workload == "queries":
        output_bytes = sum(len(out[1].encode()) for out in outs if out)
    record = {
        "ready": ready, "wall_s": wall, "item_s": times, "rss_kb": rss_kb,
        "digest": digest(outs), "failed": failed,
        "errors": {str(i): errors[i] for i in sorted(errors)[:5]},
        "kinds": dict(sorted(Counter(i["kind"] for i in items).items())),
        "output_bytes": output_bytes, "layers": layers,
        "module": crystal_lr.__file__,
        "python": sys.version.split()[0],
    }
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
