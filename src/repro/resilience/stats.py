"""Resilience event counts: the ``"events"`` book of the observation ledger.

The fault-tolerant execution layer counts every recovery action it takes —
task retries, timeout re-dispatches, worker-pool reincarnations, serial
degradations, checkpoint quarantines — in the process that takes it, into
the ledger of :mod:`repro.utils.ledger`; a pool task's counts travel home
with its result.  A run records its observation's events under
``meta.execution.resilience``.  They are *diagnostics, never identity*: a
retried task is bit-identical to a first-try task, so two runs of one spec
may differ in their counts while agreeing on every output bit.
"""

from __future__ import annotations

from typing import Dict

from repro.utils import ledger

#: every event name the execution layer records (fixed vocabulary so
#: downstream tooling can rely on the keys that appear)
EVENTS = (
    "retries",
    "timeouts",
    "worker_deaths",
    "pool_restarts",
    "serial_degradations",
    "injected_faults",
    "checkpoint_quarantined",
    "artifact_write_retries",
)

_BOOK = "events"


def record(event: str, n: int = 1) -> None:
    """Count ``n`` occurrences of ``event`` (must be a known event name)."""
    if event not in EVENTS:
        raise ValueError(f"unknown resilience event {event!r}; known: {EVENTS}")
    ledger.add(_BOOK, event, int(n))


def snapshot() -> Dict[str, int]:
    """A copy of this process's cumulative event counts."""
    return ledger.snapshot().get(_BOOK, {})


__all__ = ["EVENTS", "record", "snapshot"]
