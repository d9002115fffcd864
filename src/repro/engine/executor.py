"""Parallel experiment executor.

Runs an :class:`~repro.engine.spec.ExperimentSpec` either serially or fanned
out over a ``concurrent.futures`` process pool.  Determinism contract:

1. The master generator is consumed exactly once, up front, to draw the
   ``(n_points, n_trials)`` seed matrix, in the order a point-by-point
   serial sweep would draw its per-point trial seeds.
2. Every work unit (a ``(point index, sub-unit index)`` key, as
   :meth:`~repro.engine.spec.ExperimentSpec.units` splits the points)
   derives all of its randomness from its point's row of the seed matrix.
3. Results are gathered back into canonical unit order.

Together these make the output bit-identical for any worker count, including
the serial fallback.  They also make the records a function of the spec and
the seed matrix alone, so :func:`run_identity` (the spec's fingerprint plus
the matrix's digest) is what a stored artifact must match to be resumed.
A stored artifact (:mod:`repro.engine.store`) lists the units it finished,
and a resumed run computes only the others, whatever records the spec
produces.

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
from repro.resilience.faults import active_injector
from repro.resilience.pool import ResilientPool, retry_call
from repro.utils.ledger import Observation, observe
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


def _run_unit(unit: Unit) -> List[Any]:
    assert _WORKER_SPEC is not None and _WORKER_SEEDS is not None
    return _WORKER_SPEC.evaluate_unit(unit, _WORKER_SEEDS[unit[0]])


def _run_units(
    spec: ExperimentSpec,
    units: Sequence[Unit],
    seed_matrix: np.ndarray,
    n_workers: int,
    results: Dict[Unit, List[Any]],
    progress: ProgressCallback | None,
    total: int,
) -> None:
    """Run work units through the resilient pool harness (seam ``engine.unit``).

    Serial and pooled execution, retries, pool reincarnation and the serial
    degradation path all land here; the serial worker evaluates the spec
    in-process because only pool workers carry the initializer-installed
    globals.  Each finished unit's records land in ``results`` as it
    completes, so a run that raises keeps what it finished.  A pooled
    unit's stage seconds and events come home with its records (the pool
    folds them into this process's ledger).
    """
    def serial_worker(unit: Unit) -> List[Any]:
        return spec.evaluate_unit(unit, seed_matrix[unit[0]])

    def on_result(index: int, records: List[Any]) -> None:
        results[units[index]] = records
        if progress is not None:
            progress(len(results), total)

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
        Optional JSON artifact path.  When given, the units listed in an
        existing artifact with the same :func:`run_identity` are reused
        (``resume=True``, never for an opaque spec) and every finished unit
        is written back.  A run that raises, ``KeyboardInterrupt`` included,
        first writes the units it finished, so a rerun resumes from them.
        Every spec stores: its records must be dataclasses defined under
        ``repro`` (:func:`~repro.engine.store.save_run` raises
        ``TypeError`` otherwise).
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

    The run is one observation (:func:`repro.utils.ledger.observe`): its
    stage seconds and recovery events, pool workers' included, make the
    artifact's ``meta.execution``, and each degradation warns once per run.
    """
    master = ensure_rng(rng if rng is not None else spec.seed)
    seed_matrix = draw_seed_matrix(master, len(spec.points), spec.n_trials)
    units = spec.units()
    identity = run_identity(spec, seed_matrix) if store_path is not None else None

    results: Dict[Unit, List[Any]] = {}
    if store_path is not None and resume and os.path.exists(store_path):
        results = _load_completed_units(spec, identity, store_path, units)

    pending = [unit for unit in units if unit not in results]
    done = len(results)
    if done and progress is not None:
        progress(done, len(units))
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

    def finished(run: Observation, profile: bool = False) -> List[Any]:
        """Every finished unit's records in canonical order, stored if asked."""
        ready = {unit: results[unit] for unit in units if unit in results}
        if store_path is not None:
            _store_records(spec, identity, store_path, ready, run, profile)
        return [record for records in ready.values() for record in records]

    with observe() as run:
        try:
            _run_units(
                spec, pending, seed_matrix, n_workers, results, progress, len(units)
            )
        except BaseException:
            if len(results) > done:
                finished(run)
            raise
        return finished(run, profile=profile)


# ----------------------------------------------------------------------
# store integration
# ----------------------------------------------------------------------
def _load_completed_units(
    spec: ExperimentSpec, identity: dict, store_path, units: Sequence[Unit]
) -> Dict[Unit, List[Any]]:
    """The records of this run's units that a matching artifact finished."""
    if knobs.is_opaque(identity):
        return {}
    try:
        artifact = load_run(store_path)
    except (ValueError, KeyError, TypeError, OSError) as error:
        warnings.warn(
            f"ignoring unreadable run artifact {store_path!s}: {error}",
            RuntimeWarning,
            stacklevel=3,
        )
        return {}
    if artifact.meta.get("fingerprint") != identity:
        return {}
    completed = {
        unit: artifact.units[unit] for unit in units if unit in artifact.units
    }
    if len(completed) < len(units):
        _warn_on_changed_collection(spec, artifact.meta.get("execution"))
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
    details also carry a privacy-amplification digest: the amplification
    ledger's rows (:func:`~repro.protocol.amplification.amplification_ledger`)
    at every swept epsilon with the full population size, each central
    epsilon with the bound it reports (an optimistic per-run summary — the
    exact per-group ledger, with the actual report counts, rides on each
    :class:`~repro.core.dap.DAPResult`).
    """
    details = {field.name: getattr(spec, field.name) for field in knobs.knobs(spec)}
    if spec.protocol == "shuffle":
        from repro.protocol.amplification import DEFAULT_DELTA, amplification_ledger

        epsilons = sorted(
            {
                float(point["epsilon"])
                for point in spec.points
                if isinstance(point.get("epsilon"), (int, float))
            }
        )
        rows = amplification_ledger(epsilons, [int(spec.n_users)] * len(epsilons))
        details["amplification"] = {
            "delta": DEFAULT_DELTA,
            "n": int(spec.n_users),
            "epsilon_central": {
                f"{row['epsilon_local']:g}": row["epsilon_central"] for row in rows
            },
            "bound": {f"{row['epsilon_local']:g}": row["bound"] for row in rows},
        }
    return details


def execution_record(details: dict, run: Observation, profile: bool = False) -> dict:
    """The ``execution`` block of a run artifact or a service results file.

    ``details`` (the spec's execution knobs), then, when asked, the run's
    stage seconds under ``profile``, the active fault plan, and the run's
    recovery events under ``resilience``.
    """
    execution = dict(details)
    if profile:
        execution["profile"] = {
            name: round(seconds, 6)
            for name, seconds in sorted(run.book("stages").items())
        }
    injector = active_injector()
    if injector is not None:
        execution["fault_plan"] = injector.plan.document()
    execution["resilience"] = dict(sorted(run.book("events").items()))
    return execution


def _store_records(
    spec: ExperimentSpec,
    identity: dict,
    store_path,
    units: Dict[Unit, List[Any]],
    run: Observation,
    profile: bool = False,
) -> None:
    details = _execution_details(spec)

    def write() -> None:
        # the record is assembled per attempt so a retried write records its
        # own retry in the artifact it finally lands
        execution = execution_record(details, run, profile)
        save_run(
            store_path, units, meta={"fingerprint": identity, "execution": execution}
        )

    # a transient write failure must not lose a finished run: the atomic
    # temp-file replacement makes the retry idempotent
    retry_call(write, label="engine.store", event="artifact_write_retries")


__all__ = [
    "AUTO_WORKERS",
    "UNIT_POOL_LABEL",
    "ProgressCallback",
    "draw_seed_matrix",
    "execution_record",
    "resolve_workers",
    "run_experiment",
    "run_identity",
]
