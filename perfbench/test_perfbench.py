"""Self-checks of the benchmark: its answer checks can fail, its digest sees
an altered output, its seeds keep the item mix, and only a traced run
installs wrappers."""

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import crystal_lr
import run
import tracing
import worker
import workloads
from crystal_lr import lr_engine

HERE = Path(__file__).resolve().parent


def _marked():
    return [(name, attr) for name, module in vars(crystal_lr).items()
            if type(module) is type(crystal_lr)
            for attr, value in vars(module).items()
            if getattr(value, tracing.MARK, False)]


def _census_item(predict):
    return {"kind": "mutant", "factors": [("Bcol", 1), ("Bcol", 1)],
            "window": (-2, 2), "predict": predict}


def test_census_dropped_class_fails(monkeypatch):
    _, run, check = workloads.WORKLOADS["census"]
    full = lr_engine.level0_product((1,), (), (1,), ())
    assert len(full) == 2
    dropped = dict(list(full.items())[1:])
    monkeypatch.setitem(workloads.PREDICTORS, "full", lambda: full)
    monkeypatch.setitem(workloads.PREDICTORS, "dropped", lambda: dropped)
    items = [_census_item(("full", ())), _census_item(("dropped", ()))]
    outs, _, errors, _ = worker.run_batch(run, items)
    assert worker.check_batch(check, items, outs, errors) == [1]
    assert outs[1]["status"] == "mismatch"


def test_zring_perturbed_expected_fails():
    generate, run, check = workloads.WORKLOADS["zring"]
    items = [i for i in generate(random.Random(0))
             if i["kind"] == "s_action" and len(i["mu"]) <= len(i["lam"])]
    items = items[:3]
    outs, _, errors, _ = worker.run_batch(run, items)
    assert worker.check_batch(check, items, outs, errors) == []
    got, want = outs[0]
    key = next(iter(want))
    outs[0] = (got, {**want, key: want[key] + 1})
    assert worker.check_batch(check, items, outs, errors) == [0]


def test_altered_query_changes_digest():
    generate, run, check = workloads.WORKLOADS["queries"]
    items = generate(random.Random(0))[:6]
    outs, _, errors, _ = worker.run_batch(run, items)
    assert worker.check_batch(check, items, outs, errors) == []
    before = worker.digest(outs)
    assert worker.digest(list(outs)) == before
    code, text = outs[3]
    outs[3] = (code, text.replace("\n", " \n", 1))
    assert worker.digest(outs) != before


def test_seeds_keep_item_count_per_kind():
    for name, (generate, _, _) in workloads.WORKLOADS.items():
        a, b = generate(random.Random(1)), generate(random.Random(2))
        assert len(a) >= 100, name
        assert Counter(i["kind"] for i in a) == Counter(
            i["kind"] for i in b), name
        assert a != b, name
        assert generate(random.Random(1)) == a, name


def test_only_traced_runs_install_wrappers():
    _, run, _ = workloads.WORKLOADS["census"]
    items = [_census_item(("pieri_column", (1, False, (0,))))]
    items[0]["factors"] = [("B", (0,)), ("Bcol", 1)]
    worker.run_batch(run, items)
    assert _marked() == []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ("shapes", "lr_coefficient") in _marked()
        assert ("lr_engine", "lr_coefficient") in _marked()
        worker.run_batch(run, items)
    finally:
        layers = tracer.finish()
    assert _marked() == []
    assert layers["lr_engine.census.words"] > 0
    assert layers["lr_engine.census.sources"] == 2
    assert layers["crystal.signature.calls"] > 0
    assert layers["lr_engine.census.window_attempts"] == 1


def test_benchmark_lists_every_printed_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer()
    tracer.install()
    names = set(tracer.finish()) | {"cli.output_bytes", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == names
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "queries", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_repetition_count_depends_on_workload_and_seconds_only():
    assert set(run.NOMINAL_S) == set(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        assert run.planned_rounds(name, 25, 0) >= run.MIN_REPS
        assert run.planned_rounds(name, 25, 1) >= 1
    # a run that could not end within the deadline is refused up front
    assert run.main(["--workload", "queries", "--seed", "1",
                     "--seconds", str(run.DEADLINE_S)]) != 0
