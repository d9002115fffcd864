"""Shard benchmark: DAP collection rounds at scale, per shard-worker count.

Runs one DAP-CEMF* round (under a biased-Byzantine attack) at large
population sizes through ``build_population`` + ``DAPProtocol.run_sharded``
at several shard-worker counts.  Wall time, peak memory and the per-stage
split of the round (``repro.utils.profiling``) are recorded per
configuration.

The JSON payload is one ``results`` list of ``{mode, n_users, ok,
wall_time_s, peak_rss_mb, profile, collect_workers, ...}`` rows (``mode``
is ``sharded-<workers>``).  ``profile`` maps each stage to its seconds:
``population.build`` (``build_population``), ``collect`` (group assignment,
shard dispatch and merge), its ``collect.*`` sub-timers, ``probe`` and
``aggregate``.  The sub-timers run where the shards run and come home with
each shard's result, so at ``k`` workers they sum the seconds of ``k``
processes and are bounded by ``k x collect``, not by ``collect``.  The
payload's ``host`` block names the machine the rows were measured on.

Every measurement runs in a fresh subprocess under an address-space cap
(``--mem-limit-gb``, default 4 GiB): a round holds the raw values (~80 MiB
at 10^7 users) and one seed block's reports at a time — up to
``block_size x repeats`` under the numpy reference backend this script runs,
one leaf of at most 2^15 under ``fast`` and the local protocol.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard.py --out BENCH_shard.json
    PYTHONPATH=src python benchmarks/bench_shard.py --sizes 1000000 --workers 1 4
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time

EPSILON = 1.0
GAMMA = 0.25
SEED = 7
#: dataset records are sampled with replacement, so the dataset itself stays
#: small no matter the population size
DATASET_SAMPLES = 100_000
DEFAULT_SIZES = (1_000_000, 10_000_000)
DEFAULT_WORKERS = (1, 2, 4, 8)


def _peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux: ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _peak_rss_children_mb() -> float:
    """Peak resident set size over reaped child processes in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _host() -> dict:
    """The machine the rows are measured on: CPU, cores, Python, numpy, BLAS."""
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_single(mode: str, n_users: int, mem_limit_gb: float) -> dict:
    """Child entry point: one collection round, reported as JSON on stdout."""
    if mem_limit_gb > 0:
        limit = int(mem_limit_gb * 1024**3)
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    import numpy as np  # noqa: F401  (imported after the rlimit is set)

    from repro.attacks.bba import BiasedByzantineAttack
    from repro.attacks.distributions import PAPER_POISON_RANGES
    from repro.core.dap import DAPConfig, DAPProtocol
    from repro.datasets.synthetic import uniform_dataset
    from repro.simulation.population import build_population
    from repro.utils import profiling

    dataset = uniform_dataset(n_samples=DATASET_SAMPLES, rng=SEED)
    attack = BiasedByzantineAttack(PAPER_POISON_RANGES["[C/2,C]"])
    protocol = DAPProtocol(DAPConfig(epsilon=EPSILON, estimator="cemf_star"))

    if not mode.startswith("sharded-"):
        raise ValueError(f"unknown mode {mode!r}")
    workers = int(mode.rsplit("-", 1)[1])
    before = profiling.snapshot()
    start = time.perf_counter()
    with profiling.stage("population.build"):
        population = build_population(dataset, n_users, GAMMA, rng=SEED)
    result = protocol.run_sharded(
        population.normal_values,
        attack,
        population.n_byzantine,
        rng=SEED,
        n_shards=workers,
        n_workers=workers,
    )
    elapsed = time.perf_counter() - start
    profile = profiling.delta_since(before)
    truth = population.true_mean

    return {
        "mode": mode,
        "n_users": n_users,
        "ok": True,
        "wall_time_s": round(elapsed, 3),
        "peak_rss_mb": round(max(_peak_rss_mb(), _peak_rss_children_mb()), 1),
        "profile": {
            name: round(seconds, 3) for name, seconds in sorted(profile.items())
        },
        "estimate": result.estimate,
        "true_mean": truth,
        "abs_error": abs(result.estimate - truth),
        "gamma_hat": result.gamma_hat,
        "collect_workers": workers,
    }


def run_child(mode: str, n_users: int, mem_limit_gb: float, timeout_s: float) -> dict:
    """Run one configuration in a subprocess and parse its JSON report."""
    command = [
        sys.executable,
        __file__,
        "--single",
        mode,
        str(n_users),
        "--mem-limit-gb",
        str(mem_limit_gb),
    ]
    start = time.perf_counter()
    try:
        child = subprocess.run(
            command, capture_output=True, text=True, timeout=timeout_s
        )
    except subprocess.TimeoutExpired:
        return {
            "mode": mode,
            "n_users": n_users,
            "ok": False,
            "error": f"timed out after {timeout_s:g}s",
        }
    elapsed = time.perf_counter() - start
    if child.returncode != 0:
        tail = (child.stderr or "").strip().splitlines()
        return {
            "mode": mode,
            "n_users": n_users,
            "ok": False,
            "error": tail[-1] if tail else f"exit code {child.returncode}",
            "wall_time_s": round(elapsed, 3),
        }
    return json.loads(child.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES))
    parser.add_argument(
        "--workers", type=int, nargs="+", default=list(DEFAULT_WORKERS)
    )
    parser.add_argument("--mem-limit-gb", type=float, default=4.0)
    parser.add_argument("--timeout-s", type=float, default=1800.0)
    parser.add_argument("--out", default="BENCH_shard.json")
    parser.add_argument("--single", nargs=2, metavar=("MODE", "N_USERS"), default=None)
    args = parser.parse_args(argv)

    if args.single is not None:
        mode, n_users = args.single[0], int(args.single[1])
        try:
            report = run_single(mode, n_users, args.mem_limit_gb)
        except MemoryError:
            print("MemoryError: exceeded the address-space cap", file=sys.stderr)
            return 3
        print(json.dumps(report))
        return 0

    results = []
    estimates: dict = {}
    for n_users in args.sizes:
        for mode in [f"sharded-{workers}" for workers in args.workers]:
            print(f"[bench_shard] {mode} @ {n_users:,} users ...", flush=True)
            report = run_child(mode, n_users, args.mem_limit_gb, args.timeout_s)
            status = (
                f"{report['wall_time_s']:.1f}s, {report['peak_rss_mb']:.0f} MiB"
                if report.get("ok")
                else f"FAILED ({report.get('error')})"
            )
            print(f"[bench_shard]   -> {status}", flush=True)
            results.append(report)
            if report.get("ok"):
                estimates.setdefault(n_users, set()).add(report["estimate"])

    # the sharded estimate must not depend on the worker count
    for n_users, values in estimates.items():
        if len(values) > 1:
            print(
                f"[bench_shard] WARNING: sharded estimates diverge at "
                f"{n_users:,} users: {sorted(values)}",
                file=sys.stderr,
            )

    payload = {
        "benchmark": "sharded DAP collection per shard-worker count",
        "host": _host(),
        "config": {
            "epsilon": EPSILON,
            "gamma": GAMMA,
            "estimator": "cemf_star",
            "attack": "bba [C/2,C]",
            "dataset_samples": DATASET_SAMPLES,
            "mem_limit_gb": args.mem_limit_gb,
            "seed": SEED,
            "workers": list(args.workers),
        },
        "results": results,
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"[bench_shard] wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
