"""Fault-tolerant execution layer: retrying pools, fault injection, stats.

Public surface:

- :class:`ResilientPool` / :class:`RetryPolicy` — the shared self-healing
  dispatch harness every compute seam runs on (engine work units, collection
  shards, service windows).
- :class:`FaultPlan` / :func:`use_fault_plan` — deterministic fault
  injection for chaos tests and benchmarks.
- :mod:`repro.resilience.stats` — recovery-event counts, the ``"events"``
  book of the observation ledger (:mod:`repro.utils.ledger`), surfaced
  under ``meta.execution.resilience``; a pool task's counts travel home
  with its result.

Everything here is an *execution detail*: it changes how hard a run works,
never what it computes.  Recovered runs are bit-identical to fault-free runs.
"""

from repro.resilience import stats
from repro.resilience.faults import (
    CORRUPTION_MODES,
    FAULT_KINDS,
    Fault,
    FaultInjector,
    FaultPlan,
    POOL_FAULT_KINDS,
    active_injector,
    corrupt_file,
    use_fault_plan,
)
from repro.resilience.pool import (
    DEFAULT_POLICY,
    InjectedFault,
    KILL_EXIT_CODE,
    ResilientPool,
    RetryPolicy,
    TaskFailedError,
    active_policy,
    retry_call,
    use_retry_policy,
)

__all__ = [
    "CORRUPTION_MODES",
    "DEFAULT_POLICY",
    "FAULT_KINDS",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "KILL_EXIT_CODE",
    "POOL_FAULT_KINDS",
    "ResilientPool",
    "RetryPolicy",
    "TaskFailedError",
    "active_injector",
    "active_policy",
    "corrupt_file",
    "retry_call",
    "stats",
    "use_fault_plan",
    "use_retry_policy",
]
