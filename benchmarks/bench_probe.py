"""Probe benchmark: batched hypothesis EM and vectorized defense kernels.

Three sections, all compared against their seed-equivalent baselines:

* **greedy frequency probing** — ``FrequencyDAP.probe_poisoned_categories``
  on one k-RR collection round per category-grid size, once with
  ``probe_strategy="cold"`` (one cold-start EM solve per candidate per
  greedy round — the seed search) and once with ``"batched"`` (screened,
  warm-started, gap-certified batched EM).  The batched row records whether
  its selections match the cold row bit for bit (they must).
* **isolation-forest scoring** — ``IsolationForest.scores`` (array-encoded
  interval trees) vs ``scores_loop`` (per-user recursion) on the same
  fitted forest, with a bit-identity check.
* **1-D k-means** — ``kmeans_1d`` (sorted-centre ``searchsorted``
  assignment) vs an inline replica of the seed implementation (full
  ``(n, k)`` distance matrix per iteration), with a bit-identity check.

The JSON payload has the same shape as ``BENCH_shard.json`` (one
``results`` list of ``{mode, ..., ok, wall_time_s}`` rows), so the
benchmark trajectories are directly comparable.  Exit status is nonzero if
any equivalence check fails, which is what the CI ``probe-smoke`` job
asserts on its quick grid.

Usage::

    PYTHONPATH=src python benchmarks/bench_probe.py --out BENCH_probe.json
    PYTHONPATH=src python benchmarks/bench_probe.py --quick --out /tmp/p.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

EPSILON = 1.0
SEED = 7
GAMMA = 0.25
N_POISONED = 3
#: greedy-probe acceptance threshold.  The library default (2.0) is tuned
#: for the paper's ~10^4-user rounds; at the 10^5–10^6-user scale benched
#: here the log-likelihood gains of *noise* categories reach that level, so
#: a borderline gain lands within the EM iteration cap's resolution and the
#: stopping decision becomes an artifact of how far the solver happened to
#: iterate.  20.0 keeps the decision margins orders of magnitude above both
#: solvers' certified accuracy at every benchmarked scale.
MIN_LIKELIHOOD_GAIN = 20.0
DEFAULT_CATEGORIES = (16, 32, 64)
DEFAULT_PROBE_USERS = 500_000
DEFAULT_DEFENSE_SIZES = (100_000, 1_000_000)
QUICK_CATEGORIES = (8, 12)
QUICK_PROBE_USERS = 50_000
QUICK_DEFENSE_SIZES = (20_000,)
FOREST_FIT_SAMPLES = 5_000


def _timed(function, *args, **kwargs):
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - start


def _timed_best(repeats, function, *args, **kwargs):
    """Best-of-``repeats`` wall time (the runs are deterministic)."""
    best = None
    for _ in range(repeats):
        result, elapsed = _timed(function, *args, **kwargs)
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def bench_probe(categories, n_users):
    """Greedy category probing: cold vs batched on identical counts."""
    from repro.core.frequency import FrequencyDAP

    rows = []
    for n_categories in categories:
        rng = np.random.default_rng(SEED)
        # a mildly skewed categorical population plus N_POISONED poisoned
        # categories at overall fraction GAMMA
        probabilities = 1.0 / (1.0 + np.arange(n_categories))
        probabilities /= probabilities.sum()
        n_byzantine = int(round(n_users * GAMMA))
        normal = rng.choice(n_categories, size=n_users - n_byzantine, p=probabilities)
        targets = tuple(
            rng.choice(n_categories, size=N_POISONED, replace=False).tolist()
        )

        cold = FrequencyDAP(
            EPSILON,
            n_categories,
            min_likelihood_gain=MIN_LIKELIHOOD_GAIN,
            probe_strategy="cold",
        )
        batched = FrequencyDAP(
            EPSILON,
            n_categories,
            min_likelihood_gain=MIN_LIKELIHOOD_GAIN,
            probe_strategy="batched",
        )
        counts = cold.collect_sharded(
            normal, targets, n_byzantine, rng=rng
        ).counts_float()

        (cold_set, _), cold_s = _timed_best(
            2, cold.probe_poisoned_categories, counts
        )
        (batched_set, _), batched_s = _timed_best(
            2, batched.probe_poisoned_categories, counts
        )
        match = cold_set == batched_set
        base = {
            "n_categories": n_categories,
            "n_users": n_users,
            "true_poisoned": sorted(targets),
        }
        rows.append(
            {
                "mode": "probe-cold",
                **base,
                "ok": True,
                "wall_time_s": round(cold_s, 3),
                "poisoned_categories": cold_set,
            }
        )
        rows.append(
            {
                "mode": "probe-batched",
                **base,
                "ok": bool(match),
                "wall_time_s": round(batched_s, 3),
                "poisoned_categories": batched_set,
                "selection_match": bool(match),
                "speedup_vs_cold": round(cold_s / max(batched_s, 1e-9), 1),
            }
        )
        print(
            f"[bench_probe] probing k={n_categories}: cold {cold_s:.2f}s, "
            f"batched {batched_s:.2f}s ({cold_s / max(batched_s, 1e-9):.1f}x), "
            f"selections {'match' if match else 'DIVERGE'}",
            flush=True,
        )
    return rows


def bench_isolation_forest(sizes):
    """Isolation-forest scoring: per-user recursion vs array-encoded trees."""
    from repro.defenses.isolation_forest import IsolationForest

    rng = np.random.default_rng(SEED)
    train = np.concatenate(
        [rng.normal(0.0, 1.0, FOREST_FIT_SAMPLES), rng.uniform(4.0, 8.0, 300)]
    )
    forest = IsolationForest(n_trees=50, subsample_size=256, rng=SEED).fit(train)

    rows = []
    for n_users in sizes:
        values = rng.normal(0.0, 2.0, n_users)
        loop_scores, loop_s = _timed(forest.scores_loop, values)
        vector_scores, vector_s = _timed(forest.scores, values)
        identical = bool(np.array_equal(loop_scores, vector_scores))
        rows.append(
            {
                "mode": "iforest-loop",
                "n_users": n_users,
                "ok": True,
                "wall_time_s": round(loop_s, 3),
            }
        )
        rows.append(
            {
                "mode": "iforest-vectorized",
                "n_users": n_users,
                "ok": identical,
                "wall_time_s": round(vector_s, 3),
                "bit_identical": identical,
                "speedup_vs_loop": round(loop_s / max(vector_s, 1e-9), 1),
            }
        )
        print(
            f"[bench_probe] iforest n={n_users:,}: loop {loop_s:.1f}s, "
            f"vectorized {vector_s:.2f}s ({loop_s / max(vector_s, 1e-9):.0f}x), "
            f"{'bit-identical' if identical else 'DIVERGE'}",
            flush=True,
        )
    return rows


def _kmeans_seed(values, n_clusters, max_iter, seed):
    """Inline replica of the seed kmeans_1d (distance matrix + argmin)."""
    rng = np.random.default_rng(seed)
    values = np.asarray(values, dtype=float).ravel()
    n_clusters = min(n_clusters, values.size)
    quantiles = np.linspace(0.0, 1.0, n_clusters + 2)[1:-1]
    centers = np.quantile(values, quantiles)
    labels = np.zeros(values.size, dtype=int)
    for _ in range(max_iter):
        distances = np.abs(values[:, None] - centers[None, :])
        new_labels = distances.argmin(axis=1)
        new_centers = centers.copy()
        for cluster in range(n_clusters):
            members = values[new_labels == cluster]
            if members.size:
                new_centers[cluster] = members.mean()
            else:
                new_centers[cluster] = values[rng.integers(0, values.size)]
        if np.array_equal(new_labels, labels) and np.allclose(new_centers, centers):
            labels, centers = new_labels, new_centers
            break
        labels, centers = new_labels, new_centers
    return labels, centers


def bench_kmeans(sizes, cluster_counts=(2, 8)):
    """1-D k-means: seed distance matrix vs searchsorted assignment.

    ``k = 2`` is the defence's configuration.  At larger ``k`` the
    ``O(n log k)`` assignment beats the ``O(n k)`` matrix per iteration, but
    the (bit-identity-constrained) per-cluster means loop both paths share
    dominates total Lloyd time, so end-to-end gains there stay modest.
    """
    from repro.defenses.kmeans import kmeans_1d

    rows = []
    for n_values in sizes:
        for n_clusters in cluster_counts:
            rng = np.random.default_rng(SEED)
            values = np.concatenate(
                [
                    rng.normal(-1.0, 0.3, int(n_values * 0.8)),
                    rng.normal(2.0, 0.4, n_values - int(n_values * 0.8)),
                ]
            )
            (brute_labels, brute_centers), brute_s = _timed(
                _kmeans_seed, values, n_clusters, 100, SEED
            )
            (fast_labels, fast_centers), fast_s = _timed(
                kmeans_1d, values, n_clusters, 100, SEED
            )
            identical = bool(
                np.array_equal(brute_labels, fast_labels)
                and np.array_equal(brute_centers, fast_centers)
            )
            base = {"n_values": n_values, "n_clusters": n_clusters}
            rows.append(
                {
                    "mode": "kmeans-brute",
                    **base,
                    "ok": True,
                    "wall_time_s": round(brute_s, 3),
                }
            )
            rows.append(
                {
                    "mode": "kmeans-searchsorted",
                    **base,
                    "ok": identical,
                    "wall_time_s": round(fast_s, 3),
                    "bit_identical": identical,
                    "speedup_vs_brute": round(brute_s / max(fast_s, 1e-9), 1),
                }
            )
            print(
                f"[bench_probe] kmeans n={n_values:,} k={n_clusters}: brute "
                f"{brute_s:.2f}s, searchsorted {fast_s:.2f}s "
                f"({brute_s / max(fast_s, 1e-9):.1f}x), "
                f"{'bit-identical' if identical else 'DIVERGE'}",
                flush=True,
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--categories", type=int, nargs="+", default=list(DEFAULT_CATEGORIES)
    )
    parser.add_argument("--probe-users", type=int, default=DEFAULT_PROBE_USERS)
    parser.add_argument(
        "--defense-sizes", type=int, nargs="+", default=list(DEFAULT_DEFENSE_SIZES)
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small grids for CI smoke (overrides the size arguments)",
    )
    parser.add_argument("--out", default="BENCH_probe.json")
    args = parser.parse_args(argv)

    if args.quick:
        args.categories = list(QUICK_CATEGORIES)
        args.probe_users = QUICK_PROBE_USERS
        args.defense_sizes = list(QUICK_DEFENSE_SIZES)

    results = []
    results += bench_probe(args.categories, args.probe_users)
    results += bench_isolation_forest(args.defense_sizes)
    results += bench_kmeans(args.defense_sizes)

    payload = {
        "benchmark": "batched hypothesis EM + vectorized defense kernels",
        "config": {
            "epsilon": EPSILON,
            "gamma": GAMMA,
            "n_poisoned": N_POISONED,
            "min_likelihood_gain": MIN_LIKELIHOOD_GAIN,
            "categories": list(args.categories),
            "probe_users": args.probe_users,
            "defense_sizes": list(args.defense_sizes),
            "seed": SEED,
            "quick": bool(args.quick),
        },
        "results": results,
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"[bench_probe] wrote {args.out}")

    failures = [row for row in results if not row.get("ok")]
    if failures:
        print(
            f"[bench_probe] FAILED: {len(failures)} rows diverged from the "
            f"baseline: {[row['mode'] for row in failures]}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
