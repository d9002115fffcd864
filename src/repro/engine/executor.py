"""Parallel experiment executor.

Runs an :class:`~repro.engine.spec.ExperimentSpec` either serially or fanned
out over a ``concurrent.futures`` process pool.  Determinism contract:

1. The master generator is consumed exactly once, up front, to draw the
   ``(n_points, n_trials)`` seed matrix, in the order a point-by-point
   serial sweep would draw its per-point trial seeds.
2. Every work unit (a ``(point, scheme)`` pair, or a whole point for
   point-granular specs) derives all of its randomness from its row of the
   seed matrix.
3. Results are gathered back into canonical unit order.

Together these make the output bit-identical for any worker count, including
the serial fallback.  They also make the records a function of the spec and
the seed matrix alone, so :func:`run_identity` (the spec's fingerprint plus
the matrix's digest) is what a stored artifact must match to be resumed.

Workers are forked (or spawned) with the spec shipped once via the pool
initializer; each worker then owns a process-local transform cache
(:mod:`repro.utils.transform_cache`), so caches warm up independently without
any cross-process coordination.
"""

from __future__ import annotations

import os
import warnings
from typing import Any, Callable, Dict, List, Sequence

#: progress callback signature: ``(completed_units, total_units)``
ProgressCallback = Callable[[int, int], None]

import numpy as np

from repro import knobs
from repro.engine.spec import ExperimentSpec, Unit
from repro.engine.store import load_run, save_run
from repro.resilience import stats
from repro.resilience.faults import active_injector
from repro.resilience.pool import (
    ResilientPool,
    reset_degradation_latch,
    retry_call,
)
from repro.simulation.sweep import SweepRecord
from repro.utils import profiling
from repro.utils.rng import RngLike, ensure_rng

#: sentinel accepted by ``n_workers`` to use every available CPU
AUTO_WORKERS = "auto"

#: the :class:`~repro.resilience.pool.ResilientPool` seam name for work-unit
#: dispatch — fault plans target experiment units through this scope
UNIT_POOL_LABEL = "engine.unit"

# worker-process state installed once by the pool initializer
_WORKER_SPEC: ExperimentSpec | None = None
_WORKER_SEEDS: np.ndarray | None = None


def resolve_workers(n_workers: int | str | None) -> int:
    """Normalise the ``n_workers`` argument to an effective worker count."""
    if n_workers is None:
        return 1
    if n_workers == AUTO_WORKERS:
        return max(1, os.cpu_count() or 1)
    n_workers = int(n_workers)
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    return n_workers


def draw_seed_matrix(rng: np.random.Generator, n_points: int, n_trials: int) -> np.ndarray:
    """Pre-draw the per-(point, trial) seed matrix from the master stream.

    A single ``(n_points, n_trials)`` draw consumes the PCG64 stream in the
    same order as ``n_points`` successive length-``n_trials`` draws, so
    pre-drawing keeps a serial sweep's seeds while decoupling the points from
    each other.
    """
    return rng.integers(0, 2**63 - 1, size=(n_points, n_trials), dtype=np.int64)


def run_identity(spec: ExperimentSpec, seed_matrix: np.ndarray) -> dict:
    """What a stored artifact must match to resume: the spec's fingerprint
    plus the seed matrix's digest, since every unit's randomness comes from
    its row of the matrix.  A generator in the same state resumes; one in
    any other state recomputes.
    """
    return {**spec.fingerprint(), "seed_matrix": knobs.canonical(seed_matrix)}


def _init_worker(spec: ExperimentSpec, seed_matrix: np.ndarray) -> None:
    global _WORKER_SPEC, _WORKER_SEEDS
    _WORKER_SPEC = spec
    _WORKER_SEEDS = seed_matrix


def _run_unit(
    unit: Unit,
) -> tuple[Unit, List[Any], Dict[str, float], Dict[str, int]]:
    assert _WORKER_SPEC is not None and _WORKER_SEEDS is not None
    before = profiling.snapshot()
    resilience_before = stats.snapshot()
    records = _WORKER_SPEC.evaluate_unit(unit, _WORKER_SEEDS[unit[0]])
    # stage wall times and recovery events accumulate per process; shipping
    # each unit's delta back with its records makes pool runs profile — and
    # count nested shard-pool recoveries — like serial ones
    return (
        unit,
        records,
        profiling.delta_since(before),
        stats.delta_since(resilience_before),
    )


def _report(
    progress: ProgressCallback | None, completed: int, total: int
) -> None:
    if progress is not None:
        progress(completed, total)


def _run_units(
    spec: ExperimentSpec,
    units: Sequence[Unit],
    seed_matrix: np.ndarray,
    n_workers: int,
    progress: ProgressCallback | None = None,
    done: int = 0,
    total: int | None = None,
) -> tuple[Dict[Unit, List[Any]], Dict[str, float], Dict[str, int]]:
    """Run work units through the resilient pool harness (seam ``engine.unit``).

    Serial and pooled execution, retries, pool reincarnation and the serial
    degradation path all land here; the serial worker evaluates the spec
    in-process because only pool workers carry the initializer-installed
    globals.
    """
    total = len(units) if total is None else total
    results: Dict[Unit, List[Any]] = {}
    profile: Dict[str, float] = {}
    worker_resilience: Dict[str, int] = {}
    completed = {"count": done}

    def serial_worker(unit: Unit):
        before = profiling.snapshot()
        records = spec.evaluate_unit(unit, seed_matrix[unit[0]])
        return unit, records, profiling.delta_since(before), {}

    def on_result(_index: int, payload) -> None:
        unit, records, unit_profile, unit_resilience = payload
        results[unit] = records
        profiling.merge_profiles(profile, unit_profile)
        stats.merge(worker_resilience, unit_resilience)
        completed["count"] += 1
        _report(progress, completed["count"], total)

    pool = ResilientPool(
        n_workers,
        UNIT_POOL_LABEL,
        initializer=_init_worker,
        initargs=(spec, seed_matrix),
    )
    pool.run(
        _run_unit,
        units,
        pickle_probe=spec,
        serial_worker=serial_worker,
        on_result=on_result,
    )
    return results, profile, worker_resilience


def run_experiment(
    spec: ExperimentSpec,
    rng: RngLike = None,
    n_workers: int | str | None = None,
    store_path: str | os.PathLike | None = None,
    resume: bool = True,
    progress: ProgressCallback | None = None,
    profile: bool = False,
) -> List[Any]:
    """Execute a spec and return its result records in canonical order.

    Parameters
    ----------
    spec:
        The experiment to run.
    rng:
        Master seed / generator; defaults to ``spec.seed``.  Consumed only
        for the up-front seed-matrix draw.
    n_workers:
        ``None`` / ``1`` for in-process execution, an integer for a process
        pool of that size, or ``"auto"`` for one worker per CPU.  The result
        is identical in every case.
    store_path:
        Optional JSON artifact path.  When given, completed units found in an
        existing artifact with the same :func:`run_identity` are reused
        (``resume=True``, never for an opaque spec) and the merged result is
        written back.  A point-granular spec (one that overrides
        ``evaluate_point``) is never stored: its ``store_path`` is ignored
        with a ``RuntimeWarning``.
    resume:
        Set ``False`` to ignore any existing artifact and recompute.
    progress:
        Optional ``(completed_units, total_units)`` callback invoked after
        every finished work unit (units restored from an artifact are
        reported up front), for long-run progress output.
    profile:
        Record the per-stage wall times of the freshly computed units
        (collect / probe / aggregate / defense, summed over all workers —
        see :mod:`repro.utils.profiling`) under ``meta.execution.profile``
        of the run artifact.  Units restored from an existing artifact cost
        no stage time, so they contribute nothing.
    """
    reset_degradation_latch()
    resilience_before = stats.snapshot()
    master = ensure_rng(rng if rng is not None else spec.seed)
    seed_matrix = draw_seed_matrix(master, len(spec.points), spec.n_trials)
    units = spec.units()
    if store_path is not None and spec.is_point_granular():
        warnings.warn(
            f"spec {spec.name!r} overrides evaluate_point, whose records are "
            f"not stored: no run artifact will be written to {store_path!s} "
            f"and none is resumed from it",
            RuntimeWarning,
            stacklevel=2,
        )
        store_path = None

    identity = run_identity(spec, seed_matrix) if store_path is not None else None

    completed: Dict[Unit, List[Any]] = {}
    if store_path is not None and resume and os.path.exists(store_path):
        completed = _load_completed_units(spec, identity, store_path, units)

    pending = [unit for unit in units if unit not in completed]
    done = len(completed)
    if done:
        _report(progress, done, len(units))
    n_workers = resolve_workers(n_workers)
    if n_workers > 1 and len(pending) > 1:
        collect_workers = spec.collect_workers
        if collect_workers and collect_workers > 1:
            warnings.warn(
                f"n_workers={n_workers} and collect_workers="
                f"{collect_workers} compose multiplicatively: every work "
                f"unit's collection rounds spawn their own shard pool, up "
                f"to {n_workers * collect_workers} concurrent processes — "
                f"prefer one knob unless the machine has cores for both",
                RuntimeWarning,
                stacklevel=2,
            )
    fresh, run_profile, worker_resilience = _run_units(
        spec, pending, seed_matrix, n_workers, progress, done, len(units)
    )

    records: List[Any] = []
    for unit in units:
        records.extend(completed.get(unit) or fresh[unit])
    if store_path is not None:
        _store_records(
            spec,
            identity,
            store_path,
            records,
            units,
            profile=run_profile if profile else None,
            resilience_before=resilience_before,
            worker_resilience=worker_resilience,
        )
    return records


# ----------------------------------------------------------------------
# store integration (SweepRecord sweeps only)
# ----------------------------------------------------------------------
def _load_completed_units(
    spec: ExperimentSpec, identity: dict, store_path, units: Sequence[Unit]
) -> Dict[Unit, List[Any]]:
    """Map stored records back onto this spec's units (best effort)."""
    if knobs.is_opaque(identity):
        return {}
    try:
        artifact = load_run(store_path)
    except (ValueError, KeyError, OSError) as error:
        warnings.warn(
            f"ignoring unreadable run artifact {store_path!s}: {error}",
            RuntimeWarning,
            stacklevel=3,
        )
        return {}
    if artifact.meta.get("fingerprint") != identity:
        return {}
    if len(artifact.rows) < len(units):
        _warn_on_changed_collection(spec, artifact.meta.get("execution"))
    by_key: Dict[tuple, SweepRecord] = {
        (record.point_index, record.record.scheme): record.record
        for record in artifact.rows
    }
    completed: Dict[Unit, List[Any]] = {}
    for point_index, scheme_index in units:
        scheme = spec.schemes_for(spec.points[point_index])[scheme_index]
        stored = by_key.get((point_index, scheme.name))
        if stored is not None:
            completed[(point_index, scheme_index)] = [stored]
    return completed


def _warn_on_changed_collection(spec: ExperimentSpec, stored: dict | None) -> None:
    """Warn when a partial artifact's pending units draw other randomness.

    Execution knobs never gate reuse, but under another value of a knob
    declared :data:`~repro.knobs.EXECUTION_REDRAWS` (the backend) the
    pending units draw another randomness stream than the completed ones
    did.  Plain execution knobs (``collect_workers``) never change a record.
    """
    stored = stored or {}
    changes = []
    for field in knobs.knobs(spec):
        current = getattr(spec, field.name)
        redraws = field.metadata["role"] == knobs.EXECUTION_REDRAWS
        if redraws and stored.get(field.name) != current:
            changes.append(
                f"it was recorded under {field.name} {stored.get(field.name)!r}; "
                f"pending units run under {current!r}"
            )
    if changes:
        warnings.warn(
            f"resuming a partial artifact: {'; and '.join(changes)} — "
            f"completed records are reused verbatim while the remaining ones "
            f"use the new randomness stream (statistically equivalent draws)",
            RuntimeWarning,
            stacklevel=4,
        )


def _execution_details(spec: ExperimentSpec) -> dict:
    """Every declared knob of the spec, recorded in artifacts for provenance.

    Informational only — never compared for record reuse (that is the run
    identity's job); used to warn when a partial artifact is resumed
    under a different randomness stream.  Under the shuffle protocol the
    details also carry a privacy-amplification digest: the Feldman et al.
    local→central bound evaluated at every swept epsilon with the full
    population size (an optimistic per-run summary — the exact per-group
    ledger, with the actual report counts, rides on each
    :class:`~repro.core.dap.DAPResult`).
    """
    details = {field.name: getattr(spec, field.name) for field in knobs.knobs(spec)}
    if spec.protocol == "shuffle":
        from repro.protocol.amplification import DEFAULT_DELTA, amplified_epsilon

        epsilons = sorted(
            {
                float(point["epsilon"])
                for point in spec.points
                if isinstance(point.get("epsilon"), (int, float))
            }
        )
        details["amplification"] = {
            "delta": DEFAULT_DELTA,
            "n": int(spec.n_users),
            "epsilon_central": {
                f"{epsilon:g}": amplified_epsilon(epsilon, int(spec.n_users))
                for epsilon in epsilons
            },
        }
    return details


def _store_records(
    spec: ExperimentSpec,
    identity: dict,
    store_path,
    records: Sequence[Any],
    units: Sequence[Unit],
    profile: Dict[str, float] | None = None,
    resilience_before: Dict[str, int] | None = None,
    worker_resilience: Dict[str, int] | None = None,
) -> None:
    if not all(isinstance(record, SweepRecord) for record in records):
        return
    point_indices = [unit[0] for unit in units]
    execution = _execution_details(spec)
    if profile is not None:
        execution["profile"] = {
            name: round(seconds, 6) for name, seconds in sorted(profile.items())
        }
    injector = active_injector()
    if injector is not None:
        execution["fault_plan"] = injector.plan.document()

    def write() -> None:
        # the resilience delta is recomputed per attempt so a retried write
        # records its own retry in the artifact it finally lands
        if resilience_before is not None:
            resilience = stats.delta_since(resilience_before)
            stats.merge(resilience, worker_resilience or {})
            execution["resilience"] = {
                event: count for event, count in sorted(resilience.items())
            }
        save_run(
            store_path,
            records,
            point_indices=point_indices,
            meta={"fingerprint": identity, "execution": execution},
        )

    # a transient write failure must not lose a finished run: the atomic
    # temp-file replacement makes the retry idempotent
    retry_call(write, label="engine.store", event="artifact_write_retries")


__all__ = [
    "AUTO_WORKERS",
    "UNIT_POOL_LABEL",
    "ProgressCallback",
    "draw_seed_matrix",
    "resolve_workers",
    "run_experiment",
    "run_identity",
]
