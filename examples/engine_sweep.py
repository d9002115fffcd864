"""Parallel sweep with run artifacts: the experiment engine end to end.

Builds the Figure 6 quick grid as an :class:`~repro.engine.ExperimentSpec`,
executes it on a process pool, persists the columnar run artifact, then
demonstrates the two things the artifact buys:

* **resume** — re-running the same spec with the same seed against the
  artifact performs no new computation;
* **offline analysis** — the records are reloaded from disk and pivoted into
  the paper-style table without touching the simulator.

Run with::

    PYTHONPATH=src python examples/engine_sweep.py
"""

from __future__ import annotations

import os
import time

from repro.engine import load_run, run_experiment
from repro.experiments import ExperimentScale, build_fig6_spec
from repro.experiments.fig6 import format_fig6

STORE_PATH = "runs/fig6_quick.json"


def main() -> None:
    scale = ExperimentScale(n_users=10_000, n_trials=2, gamma=0.25)
    workers = min(4, os.cpu_count() or 1)

    # the spec is the whole experiment: points, factories, scale
    spec = build_fig6_spec(scale, epsilons=(0.5, 1.0, 2.0), rng=0)
    print(f"spec {spec.name!r}: {len(spec.points)} points x "
          f"{len(spec.schemes_for(spec.points[0]))} schemes, {workers} workers")

    start = time.perf_counter()
    records = run_experiment(spec, rng=0, n_workers=workers, store_path=STORE_PATH)
    print(f"computed {len(records)} records in {time.perf_counter() - start:.2f}s "
          f"-> {STORE_PATH}")

    # resume: same spec + same seed matrix + same artifact = no recomputation
    start = time.perf_counter()
    resumed = run_experiment(
        build_fig6_spec(scale, epsilons=(0.5, 1.0, 2.0), rng=0),
        rng=0,
        store_path=STORE_PATH,
    )
    assert [r.mse for r in resumed] == [r.mse for r in records]
    print(f"resumed from artifact in {time.perf_counter() - start:.2f}s "
          f"(no simulation re-run)")

    # offline analysis straight from the artifact
    artifact = load_run(STORE_PATH)
    identity = artifact.meta["fingerprint"]
    print(f"\nartifact identity: spec {identity['name']!r}, seed matrix "
          f"{identity['seed_matrix']['sha256'][:16]}\n")
    print(format_fig6(artifact.records))


if __name__ == "__main__":
    main()
