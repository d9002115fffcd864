"""One fault-tolerant pool harness for every compute seam.

:class:`ResilientPool` generalises the three process-pool paths that grew
independently (the engine executor's work units, the sharded-collection
workers, and the service runtime's per-window collect) into one dispatcher
with an explicit recovery ladder:

1. **Retry with bounded exponential backoff** — a failed task is re-run up
   to ``max_attempts`` times, sleeping ``min(cap, base * 2**k)`` between
   attempts.  Safe by construction: every task is a pure function of its
   pre-drawn seeds, so a retried task is bit-identical to a first-try task
   (test-enforced).
2. **Timeout watchdog + straggler re-dispatch** — a task overdue past
   ``task_timeout`` is cancelled if possible; a task already running is left
   as a *straggler* and a duplicate is dispatched, first result wins (both
   compute the same bits).
3. **Pool reincarnation** — a worker death (segfault, OOM kill, injected
   ``os._exit``) breaks the whole ``ProcessPoolExecutor``; the harness
   builds a fresh pool and re-dispatches everything that was in flight, up
   to ``max_pool_restarts`` incarnations.
4. **Graceful degradation to serial** — an unpicklable payload, a pool that
   cannot start, or one that keeps dying falls back to in-process execution
   with a single per-run warning (one message shape for every seam).

The recovery ladder changes wall-clock time only, never output bits, so the
whole policy is an execution detail; recovery actions are counted in
:mod:`repro.resilience.stats` and surfaced under ``meta.execution.resilience``.
Each accepted pool task brings its worker's observation-ledger delta (stage
seconds, events) home with its result, folded into the dispatching process
(:mod:`repro.utils.ledger`); a task run in-process records directly.
"""

from __future__ import annotations

import concurrent.futures
import os
from concurrent.futures.process import BrokenProcessPool
import pickle
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.resilience import stats
from repro.resilience.faults import FaultInjector, active_injector
from repro.utils import ledger

#: exit code an injected "kill" fault uses in the doomed pool worker
KILL_EXIT_CODE = 86

#: pool-level failures that trigger reincarnation / serial degradation
_POOL_FAILURES = (OSError, BrokenProcessPool)


class TaskFailedError(RuntimeError):
    """A task kept failing after every allowed attempt."""


class InjectedFault(RuntimeError):
    """The deterministic exception raised by ``raise``/``kill`` fault entries."""


@dataclass(frozen=True)
class RetryPolicy:
    """The recovery knobs (execution details, never identity).

    Attributes
    ----------
    max_attempts:
        Total tries per task (first attempt included) before
        :class:`TaskFailedError`.
    task_timeout:
        Watchdog seconds per task attempt; ``None`` disables the watchdog.
        Enforced on pool dispatch only — a serial task cannot be preempted.
    backoff_base, backoff_cap:
        Bounded exponential backoff: retry ``k`` (0-based) sleeps
        ``min(backoff_cap, backoff_base * 2**k)`` seconds.
    max_pool_restarts:
        Pool incarnations allowed after worker deaths before the run
        degrades to serial execution.
    """

    max_attempts: int = 3
    task_timeout: float | None = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    max_pool_restarts: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {self.task_timeout}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base and backoff_cap must be >= 0")
        if self.max_pool_restarts < 0:
            raise ValueError(
                f"max_pool_restarts must be >= 0, got {self.max_pool_restarts}"
            )

    def backoff(self, retry_index: int) -> float:
        return min(self.backoff_cap, self.backoff_base * (2.0 ** retry_index))


DEFAULT_POLICY = RetryPolicy()

_active_policy: RetryPolicy = DEFAULT_POLICY


def active_policy() -> RetryPolicy:
    """The process's currently active retry policy."""
    return _active_policy


@contextmanager
def use_retry_policy(policy: RetryPolicy | None) -> Iterator[RetryPolicy]:
    """Scoped retry-policy selection; ``None`` keeps whatever is active."""
    global _active_policy
    if policy is None:
        yield _active_policy
        return
    previous = _active_policy
    _active_policy = policy
    try:
        yield policy
    finally:
        _active_policy = previous


def warn_degraded(label: str, category: str, reason: str) -> None:
    """Count a fall-back to in-process execution and warn once per run.

    ``category`` keys the once-per-run latch together with ``label``, so
    different causes at one seam each warn once; the run's observation
    scopes the latch (:func:`repro.utils.ledger.first_time`).
    """
    stats.record("serial_degradations")
    if not ledger.first_time((label, category)):
        return
    warnings.warn(
        f"resilient pool [{label}] degrading to serial execution: {reason}",
        RuntimeWarning,
        stacklevel=4,
    )


def _pool_entry(
    payload: Tuple[Callable[[Any], Any], Any, Optional[str]]
) -> Tuple[Any, ledger.Books]:
    """Module-level pool trampoline: runs the task, or dies/raises on command.

    Returns the task's result with what the task added to this worker's
    observation ledger, for the dispatching process to fold in.  The
    injected ``kill`` action exits the worker process the hard way
    (``os._exit``), which breaks the whole pool exactly like a segfault or an
    OOM kill would — that is the point: it exercises the same recovery path.
    """
    worker, task, action = payload
    if action == "kill":
        os._exit(KILL_EXIT_CODE)
    if action == "raise":
        raise InjectedFault("injected task failure")
    before = ledger.snapshot()
    result = worker(task)
    return result, ledger.delta_since(before)


class ResilientPool:
    """Run tasks serially or over a self-healing process pool, in task order.

    Parameters
    ----------
    n_workers:
        ``None`` / ``1`` for in-process execution, else the pool size
        (capped at the task count).  A pure execution detail.
    label:
        The seam name (``"engine.unit"``, ``"collect.shard"``); keys fault
        matching, the degradation warning and diagnostics.
    policy:
        Recovery knobs; defaults to the process's active
        :class:`RetryPolicy`.
    initializer, initargs:
        Forwarded to every pool incarnation (the engine ships its spec once
        per worker this way).
    """

    def __init__(
        self,
        n_workers: int | None,
        label: str,
        policy: RetryPolicy | None = None,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ) -> None:
        n_workers = 1 if n_workers is None else int(n_workers)
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.label = label
        self.policy = policy if policy is not None else active_policy()
        self.initializer = initializer
        self.initargs = initargs
        self.injector: FaultInjector | None = active_injector()

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def pools(self, n_tasks: int) -> bool:
        """Whether :meth:`run` dispatches ``n_tasks`` tasks to a process pool.

        ``False`` means they run in-process; ``True`` means a pool is tried,
        which may still degrade to in-process execution.
        """
        return self.n_workers > 1 and n_tasks > 1

    def run(
        self,
        worker: Callable[[Any], Any],
        tasks: Sequence[Any],
        pickle_probe: Any = None,
        serial_worker: Callable[[Any], Any] | None = None,
        on_result: Callable[[int, Any], None] | None = None,
    ) -> List[Any]:
        """Run every task and return the results in task order.

        ``worker`` must be module-level (picklable by reference) for the pool
        path; ``serial_worker`` (default: ``worker``) runs in-process when the
        pool is not used — the engine passes a closure here because its pool
        worker reads process-global state installed by the initializer.
        ``pickle_probe`` is test-pickled before any pool is started, so
        unpicklable configurations degrade to serial instead of exploding
        inside a worker.  ``on_result`` fires once per completed task, in
        completion order.
        """
        tasks = list(tasks)
        serial_worker = serial_worker if serial_worker is not None else worker
        if not tasks:
            return []
        if not self.pools(len(tasks)):
            return self._run_serial(serial_worker, tasks, {}, on_result)
        try:
            pickle.dumps(pickle_probe if pickle_probe is not None else worker)
        except Exception as error:
            warn_degraded(
                self.label,
                "unpicklable",
                f"task payload is not picklable ({error}); use module-level "
                f"components to enable the process pool",
            )
            return self._run_serial(serial_worker, tasks, {}, on_result)
        return self._run_pool(worker, tasks, serial_worker, on_result)

    # ------------------------------------------------------------------
    # serial path (also the degradation target)
    # ------------------------------------------------------------------
    def _run_serial(
        self,
        worker: Callable[[Any], Any],
        tasks: Sequence[Any],
        results: Dict[int, Any],
        on_result: Callable[[int, Any], None] | None,
        attempts: Dict[int, int] | None = None,
    ) -> List[Any]:
        attempts = attempts if attempts is not None else {}
        for index, task in enumerate(tasks):
            if index in results:
                continue
            results[index] = self._run_one_serial(
                worker, task, index, attempts.get(index, 0)
            )
            if on_result is not None:
                on_result(index, results[index])
        return [results[index] for index in range(len(tasks))]

    def _run_one_serial(
        self, worker: Callable[[Any], Any], task: Any, index: int, attempt: int
    ) -> Any:
        while True:
            action = (
                self.injector.pool_fault(self.label, index, attempt)
                if self.injector is not None
                else None
            )
            try:
                if action == "timeout":
                    # no preemption in-process: an injected timeout becomes a
                    # watchdog event directly, exercising the same retry path
                    stats.record("timeouts")
                    raise TimeoutError("injected task timeout")
                if action is not None:
                    # a "kill" cannot take the dispatching process down with
                    # it in serial mode; it degrades to a raised fault
                    raise InjectedFault(f"injected {action} fault (serial mode)")
                return worker(task)
            except Exception as error:
                attempt += 1
                if attempt >= self.policy.max_attempts:
                    raise TaskFailedError(
                        f"resilient pool [{self.label}] task {index} failed "
                        f"after {attempt} attempts: {error}"
                    ) from error
                stats.record("retries")
                time.sleep(self.policy.backoff(attempt - 1))

    # ------------------------------------------------------------------
    # pool path
    # ------------------------------------------------------------------
    def _make_pool(self, n_tasks: int) -> concurrent.futures.ProcessPoolExecutor:
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.n_workers, n_tasks),
            initializer=self.initializer,
            initargs=self.initargs,
        )

    def _run_pool(
        self,
        worker: Callable[[Any], Any],
        tasks: Sequence[Any],
        serial_worker: Callable[[Any], Any],
        on_result: Callable[[int, Any], None] | None,
    ) -> List[Any]:
        policy = self.policy
        results: Dict[int, Any] = {}
        attempts: Dict[int, int] = {index: 0 for index in range(len(tasks))}
        pending: List[int] = list(range(len(tasks)))
        # future -> (task index, deadline or None); stragglers are futures
        # whose watchdog expired but that may still deliver a usable result
        inflight: Dict[concurrent.futures.Future, Tuple[int, Optional[float]]] = {}
        stragglers: Dict[concurrent.futures.Future, int] = {}
        restarts = 0
        pool: concurrent.futures.ProcessPoolExecutor | None = None

        def accept(index: int, future: concurrent.futures.Future) -> None:
            # first result wins; only the accepted result's ledger delta is
            # folded, so a straggler's duplicate is never counted twice
            results[index], delta = future.result()
            ledger.fold(delta)
            if on_result is not None:
                on_result(index, results[index])

        def degrade(category: str, reason: str) -> List[Any]:
            warn_degraded(self.label, category, reason)
            return self._run_serial(serial_worker, tasks, results, on_result, attempts)

        def note_retry(index: int, event: str, error: BaseException | str) -> None:
            attempts[index] += 1
            if attempts[index] >= policy.max_attempts:
                if pool is not None:
                    pool.shutdown(wait=False, cancel_futures=True)
                raise TaskFailedError(
                    f"resilient pool [{self.label}] task {index} failed after "
                    f"{attempts[index]} attempts: {error}"
                )
            stats.record(event)
            time.sleep(policy.backoff(attempts[index] - 1))
            pending.append(index)

        def reincarnate(error: BaseException) -> bool:
            """Replace a broken pool; False when restarts are exhausted."""
            nonlocal pool, restarts
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
            # everything that was riding the dead pool goes back to pending
            for future, (index, _) in list(inflight.items()):
                if index not in results and index not in pending:
                    note_retry(index, "worker_deaths", error)
            inflight.clear()
            stragglers.clear()
            restarts += 1
            if restarts > policy.max_pool_restarts:
                return False
            stats.record("pool_restarts")
            return True

        try:
            pool = self._make_pool(len(tasks))
        except _POOL_FAILURES as error:
            return degrade("pool-start", f"process pool unavailable ({error})")

        try:
            while len(results) < len(tasks):
                # dispatch up to the worker count
                while pending and len(inflight) < self.n_workers:
                    index = pending.pop(0)
                    if index in results:
                        continue
                    attempt = attempts[index]
                    action = (
                        self.injector.pool_fault(self.label, index, attempt)
                        if self.injector is not None
                        else None
                    )
                    if action == "timeout":
                        # parent-side injection: the dispatch is charged as a
                        # watchdog timeout without waiting for the wall clock
                        note_retry(index, "timeouts", "injected task timeout")
                        continue
                    try:
                        future = pool.submit(
                            _pool_entry, (worker, tasks[index], action)
                        )
                    except _POOL_FAILURES as error:
                        pending.append(index)
                        if not reincarnate(error):
                            return degrade(
                                "pool-broken",
                                f"process pool kept failing ({error}); "
                                f"{restarts - 1} restarts exhausted",
                            )
                        pool = self._make_pool(len(tasks))
                        continue
                    deadline = (
                        None
                        if policy.task_timeout is None
                        else time.monotonic() + policy.task_timeout
                    )
                    inflight[future] = (index, deadline)

                if not inflight and not stragglers:
                    if not pending and len(results) < len(tasks):
                        raise RuntimeError(
                            f"resilient pool [{self.label}] lost track of "
                            f"{len(tasks) - len(results)} tasks (internal bug)"
                        )
                    continue

                deadlines = [d for _, d in inflight.values() if d is not None]
                wait_timeout = (
                    None
                    if not deadlines
                    else max(0.01, min(deadlines) - time.monotonic())
                )
                done, _ = concurrent.futures.wait(
                    set(inflight) | set(stragglers),
                    timeout=wait_timeout,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )

                broken: BaseException | None = None
                for future in done:
                    if future in stragglers:
                        index = stragglers.pop(future)
                        if (
                            index not in results
                            and future.exception() is None
                        ):
                            # the straggler beat its replacement; identical
                            # bits either way, so first result wins
                            accept(index, future)
                        continue
                    if future not in inflight:
                        continue
                    index, _ = inflight.pop(future)
                    error = future.exception()
                    if error is None:
                        if index not in results:
                            accept(index, future)
                    elif isinstance(error, _POOL_FAILURES):
                        # a worker death poisons every future on the pool;
                        # charge this task an attempt and queue it now (it is
                        # already popped from inflight, so reincarnate() will
                        # not see it)
                        broken = error
                        note_retry(index, "worker_deaths", error)
                    else:
                        note_retry(index, "retries", error)

                if broken is not None:
                    if not reincarnate(broken):
                        return degrade(
                            "pool-broken",
                            f"process pool kept failing ({broken}); "
                            f"{restarts - 1} restarts exhausted",
                        )
                    pool = self._make_pool(len(tasks))
                    continue

                # watchdog: expire overdue futures
                now = time.monotonic()
                for future, (index, deadline) in list(inflight.items()):
                    if deadline is None or now < deadline or future.done():
                        continue
                    del inflight[future]
                    if not future.cancel():
                        # already running: keep it as a straggler while a
                        # duplicate is dispatched
                        stragglers[future] = index
                    note_retry(
                        index,
                        "timeouts",
                        f"task exceeded the {policy.task_timeout:g}s watchdog",
                    )
            return [results[index] for index in range(len(tasks))]
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)


def retry_call(
    fn: Callable[[], Any],
    label: str,
    event: str = "retries",
    retryable: tuple = (OSError,),
    policy: RetryPolicy | None = None,
) -> Any:
    """Run a side-effecting call with the pool's bounded-backoff retry.

    Used for I/O that must survive transient failure (artifact writes); the
    call must be idempotent — artifact and checkpoint writes are, because
    they go through atomic temp-file replacement.
    """
    policy = policy if policy is not None else active_policy()
    attempt = 0
    while True:
        try:
            return fn()
        except retryable as error:
            attempt += 1
            if attempt >= policy.max_attempts:
                raise
            stats.record(event)
            time.sleep(policy.backoff(attempt - 1))


__all__ = [
    "DEFAULT_POLICY",
    "InjectedFault",
    "KILL_EXIT_CODE",
    "ResilientPool",
    "RetryPolicy",
    "TaskFailedError",
    "active_policy",
    "retry_call",
    "use_retry_policy",
    "warn_degraded",
]
