"""Contract tests for the benchmark, on its quick workloads.

One quick run of every workload, untraced and traced (same seed), backs
the metric, span, profiler-agreement and determinism checks; the wrapped
name identity is checked in process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
#: per-layer metrics that count work and must repeat exactly for a seed
COUNT_METRICS = (
    "probe.em_iterations",
    "ems.iterations",
    "ems.unconverged",
    "transform.calls",
    "resilience.retries",
)

if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))


@pytest.fixture(scope="module")
def quick_record(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--seed", "5", "--trace"]
        + ["--out", str(out)],
        capture_output=True,
        text=True,
        timeout=150,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text())


def select(record, traced):
    return {run["workload"]: run for run in record["runs"] if run["trace"] == traced}


def test_quick_run_emits_every_declared_metric_with_its_unit(quick_record):
    for traced, kind in ((False, "end_to_end"), (True, "per_layer")):
        runs = select(quick_record, traced)
        assert set(runs) == WORKLOADS
        declared = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
        for run in runs.values():
            assert run["correct"] and run["failed"] == 0, run["failures"]
            assert {name: m["unit"] for name, m in run["metrics"].items()} == declared
    host = quick_record["host"]
    assert host["sched_affinity"] >= 1 and host["blas"]["name"]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        assert 1 <= int(host[var]) <= host["sched_affinity"]


def test_traced_spans_nest_inside_their_parents(quick_record):
    for run in select(quick_record, True).values():
        spans = [json.loads(line) for line in open(ROOT / run["spans_file"])]
        by_id = {span["id"]: span for span in spans}
        children = {}
        for span in spans:
            assert span["end"] >= span["start"]
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
                assert parent["round"] == span["round"]
                children.setdefault(parent["id"], []).append(span)
        for span in spans:
            covered = sum(c["end"] - c["start"] for c in children.get(span["id"], ()))
            assert covered <= span["end"] - span["start"] + 1e-9
        for name, metric in run["metrics"].items():
            if name.endswith("self_s") or name == "unattributed_s":
                assert metric["value"] >= 0, name


def test_outside_in_totals_agree_with_profiler_stages(quick_record):
    for run in select(quick_record, True).values():
        assert run["outside_in"]
        for stage, total in run["outside_in"].items():
            profiled = run["profile"][stage]
            assert abs(total - profiled) <= 0.05 * profiled + 0.010, (run["workload"], stage)


def test_same_seed_reproduces_deterministic_outputs(quick_record):
    plain, traced = select(quick_record, False), select(quick_record, True)
    for workload in WORKLOADS:
        assert plain[workload]["attempted"] == traced[workload]["attempted"]
        assert plain[workload]["records"] == traced[workload]["records"]


def test_untraced_run_leaves_wrapped_names_untouched(tmp_path):
    import spans
    import workloads

    originals = [(owner, name, vars(owner)[name]) for owner, name, *_ in spans.TARGETS]

    def untouched():
        return all(vars(owner)[name] is function for owner, name, function in originals)

    workload = workloads.make_workload("mean-round", 5, True, str(tmp_path))
    workloads.measure(workload, 0.0, 1)
    assert untouched()
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        with tracer.installed():
            assert not untouched()
            run = workloads.measure(workload, 0.0, 1, tracer)
        assert untouched()
        metrics = spans.layer_metrics(tracer.spans, run.users, run.counters)
        counts.append({name: metrics[name] for name in COUNT_METRICS})
    assert counts[0] == counts[1] and counts[0]["ems.iterations"] > 0


def test_compare_verdicts():
    import compare

    steady, faster = [10.0, 10.1, 9.9, 10.0], [13.0, 13.1, 12.9, 13.0]
    assert compare.verdict(steady, faster, "higher", 0.1)[0] == "better"
    assert compare.verdict(faster, steady, "higher", 0.1)[0] == "worse"
    assert compare.verdict(steady, steady, "lower", 0.1)[0] == "same"
    assert compare.verdict(steady, [5.0, 10.0, 12.0, 16.0], "higher", 0.1)[0] == "unresolved"


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=ignore)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mean-round", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
