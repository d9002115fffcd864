"""Run the benchmark: four DAP workloads, named metrics, an outside-in trace.

One workload, as a regression driver runs it (the last stdout line is the
JSON result)::

    python3 bench/run.py --workload mean-round --seed 1 --seconds 20 --trace 0

Every workload, each in fresh processes, with a summary table, the traced
per-layer numbers and the tracing overhead::

    python3 bench/run.py [--seed N] [--seeds K] [--quick] [--trace] [--out FILE]

Each run spawns fresh child processes: two set-up-only children and one
measuring child, so ``setup_s`` (child start to the first timed call) is the
median of three set-ups.  ``--trace 1`` runs one traced measuring child and
reports the per-layer metrics instead of the end-to-end ones.  A run whose
outputs fail a correctness check prints its result and exits 1.  Metric
names, units and bounds live in ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_PY = BENCH_DIR / "run.py"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 3
#: every run must end within this many seconds, children included
RUN_BUDGET_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


class BenchError(RuntimeError):
    """A child failed to produce a result (not a correctness failure)."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# child roles: one fresh process per set-up sample and per measurement
# ----------------------------------------------------------------------
def host_info() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "sched_affinity": nproc(),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def peak_rss_mb() -> float:
    """The larger of this process's and its waited-for children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def child_main(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.make_workload(args.workload, args.seed, args.quick, str(OUT_DIR))
    setup_s = time.time() - args.t0
    if args.role == "setup":
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    seconds, min_units = (0.0, workload.quick_units) if args.quick else (args.seconds, 1)
    payload = {"setup_s": setup_s, "host": host_info()}
    try:
        if args.trace:
            import spans

            tracer = spans.Tracer()
            with tracer.installed():
                run = workloads.measure(workload, seconds, min_units, tracer)
            spans_file = OUT_DIR / (
                f"spans-{args.workload}-seed{args.seed}{'-quick' if args.quick else ''}.jsonl"
            )
            tracer.write_jsonl(str(spans_file))
            payload["metrics"] = spans.layer_metrics(tracer.spans, run.users, run.counters)
            payload["outside_in"] = spans.outside_in_totals(tracer.spans)
            payload["spans_file"] = str(spans_file.relative_to(ROOT))
        else:
            run = workloads.measure(workload, seconds, min_units)
            payload["metrics"] = {
                "users_per_s": run.users_per_s,
                "latency_p50_s": run.latency_p50_s,
                "peak_rss_mb": peak_rss_mb(),
            }
    finally:
        workload.close()
    payload.update(
        attempted=run.attempted,
        failed=run.failed,
        failures=run.failures[:10],
        users=run.users,
        timed_s=run.timed_s,
        latencies=run.latencies,
        records=run.records,
        profile=run.profile,
        counters=run.counters,
    )
    print(json.dumps(payload))
    return 0


# ----------------------------------------------------------------------
# parent: spawn children, assemble one result per run
# ----------------------------------------------------------------------
def child_env() -> dict:
    """The parent's environment with BLAS threads capped at ``nproc``."""
    env = dict(os.environ)
    cores = nproc()
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(env.get(var, cores))
        except ValueError:
            wanted = cores
        env[var] = str(max(1, min(wanted, cores)))
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(role: str, args, trace: bool, deadline: float) -> dict:
    """Run one child to completion (its whole process group on timeout)."""
    command = [sys.executable, str(RUN_PY), "--role", role, "--workload", args.workload]
    command += ["--seed", str(args.seed), "--seconds", repr(args.seconds)]
    command += ["--trace", str(int(trace))] + (["--quick"] if args.quick else [])
    t0 = time.time()
    child = subprocess.Popen(
        command + ["--t0", repr(t0)],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as error:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        if isinstance(error, subprocess.TimeoutExpired):
            raise BenchError(f"{role} child for {args.workload} timed out") from error
        raise
    if child.returncode != 0:
        raise BenchError(f"{role} child for {args.workload} exited with {child.returncode}")
    payload = json.loads(out.strip().splitlines()[-1])
    payload["wall_s"] = time.time() - t0
    return payload


def run_workload(args, trace: bool, spec: dict) -> dict:
    """One run of one workload: the contract's result plus the full record."""
    deadline = time.monotonic() + RUN_BUDGET_S
    samples = []
    if not trace and not args.quick:
        for _ in range(SETUP_SAMPLES - 1):
            samples.append(spawn("setup", args, False, deadline)["setup_s"])
    child = spawn("measure", args, trace, deadline)
    metrics = child.pop("metrics")
    samples.append(child.pop("setup_s"))
    declared = spec["per_layer" if trace else "end_to_end"]
    if not trace:
        metrics["setup_s"] = statistics.median(samples)
    names = [metric["name"] for metric in declared]
    if set(metrics) != set(names):
        raise BenchError(
            f"{args.workload} emitted {sorted(metrics)}, BENCHMARK.json declares {names}"
        )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": trace,
        "correct": child["failed"] == 0 and child["attempted"] >= 1,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
        "setup_samples": samples,
        **child,
    }


def result_line(run: dict) -> str:
    return json.dumps({key: run[key] for key in ("correct", "attempted", "failed", "metrics")})


def describe(run: dict) -> str:
    values = " ".join(f"{name}={m['value']:.6g}" for name, m in run["metrics"].items())
    status = "ok" if run["correct"] else f"FAILED {run['failed']}/{run['attempted']}"
    return (
        f"[bench] {run['workload']} seed={run['seed']} trace={int(run['trace'])} "
        f"units={run['attempted']} {status}: {values}"
    )


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def summarize(runs: list) -> None:
    """Medians over seeds per (workload, metric), plus the tracing overhead."""
    for workload in dict.fromkeys(run["workload"] for run in runs):
        medians = {}
        for trace in (False, True):
            rows = [r for r in runs if r["workload"] == workload and r["trace"] == trace]
            if not rows:
                continue
            label = "traced" if trace else "untraced"
            print(f"[bench] {workload} ({label}, {len(rows)} run(s)):")
            for name, metric in rows[0]["metrics"].items():
                medians[name] = statistics.median(r["metrics"][name]["value"] for r in rows)
                print(f"[bench]   {name:28s} {medians[name]:14.6g} {metric['unit']}")
        if "users_per_s" in medians and medians.get("traced.users_per_s"):
            overhead = medians["users_per_s"] / medians["traced.users_per_s"] - 1.0
            print(f"[bench]   tracing overhead on users_per_s: {overhead:+.2%}")


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seeds", type=int, default=1, help="consecutive seeds per workload (all workloads)"
    )
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="small workloads, all checks on")
    parser.add_argument("--out", help="write every run's full record (host, metrics, checks)")
    parser.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"[bench] no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.role is not None:
        return child_main(args)

    runs = []
    try:
        if args.workload is not None:
            runs.append(run_workload(args, bool(args.trace), spec))
        else:
            for workload in spec["workloads"]:
                for seed in range(args.seed, args.seed + args.seeds):
                    one = argparse.Namespace(
                        **{**vars(args), "workload": workload["name"], "seed": seed}
                    )
                    for trace in (False, True) if args.trace else (False,):
                        runs.append(run_workload(one, trace, spec))
                        print(describe(runs[-1]), flush=True)
            summarize(runs)
    except BenchError as error:
        print(f"[bench] {error}", file=sys.stderr)
        return 1

    if args.out:
        record = {
            "host": {"git_sha": git_sha(), **runs[0]["host"]},
            "args": {
                "seed": args.seed,
                "seeds": args.seeds,
                "seconds": args.seconds,
                "quick": args.quick,
                "trace": args.trace,
            },
            "runs": runs,
        }
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    for run in runs:
        for failure in run["failures"]:
            print(f"[bench] {run['workload']} seed={run['seed']}: {failure}", file=sys.stderr)
    if args.workload is not None:
        print(describe(runs[0]))
        print(result_line(runs[0]))
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
