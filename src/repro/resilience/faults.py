"""Deterministic fault injection: the chaos harness that proves the layer.

A :class:`FaultPlan` is a declarative JSON document naming exactly which
faults strike where — kill the pool worker running task ``k`` on attempt
``j``, pretend task ``k`` timed out, corrupt the checkpoint written after
window ``w``, fail the next artifact write — so a chaos run is as
reproducible as any other run: the same plan against the same spec injects
the same faults at the same points every time.

Plan document::

    {
      "name": "chaos_smoke",
      "faults": [
        {"kind": "kill",    "scope": "collect.shard", "task": 1, "attempt": 0},
        {"kind": "timeout", "scope": "engine.unit",   "task": 0, "attempt": 0},
        {"kind": "raise",   "scope": "collect.shard", "task": 2, "attempt": 1},
        {"kind": "checkpoint", "window": 3, "mode": "truncate"},
        {"kind": "artifact-write", "count": 1}
      ]
    }

``scope`` names a dispatch seam (:class:`~repro.resilience.pool.ResilientPool`
labels — ``"engine.unit"`` for experiment work units, ``"collect.shard"``
for collection shards); ``task`` and ``attempt`` are 0-based indices within
one pool run.  Each fault entry fires at most once per dispatching process
(``artifact-write`` up to ``count`` times); see the last paragraph for what
that means under nested pools.

A fault plan is an **execution detail**: it changes how hard the run has to
work, never what it computes — every injected fault is recovered by a retry,
a pool reincarnation, or a checkpoint rollback, and the recovered run is
bit-identical to a fault-free run (test- and benchmark-enforced).  The plan
is therefore excluded from fingerprints and digests and recorded under
``meta.execution`` only.

The active injector is process-local state scoped by :func:`use_fault_plan`,
like :func:`repro.backends.use_backend`.  Injection decisions are made in
the process that dispatches work; a forked pool worker that starts its own
nested pool consults its inherited copy of the plan independently.  So under
a pooled engine a ``collect.shard`` entry can fire once per engine worker,
and ``injected_faults`` then depends on how the units were scheduled over
the workers.  That is harmless for the outputs, because recovery is
invisible in them.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

from repro.resilience import stats

#: fault kinds a plan may inject
FAULT_KINDS = ("kill", "raise", "timeout", "checkpoint", "artifact-write")

#: pool-seam fault kinds (matched on (scope, task, attempt))
POOL_FAULT_KINDS = ("kill", "raise", "timeout")

#: checkpoint corruption modes
CORRUPTION_MODES = ("truncate", "bitflip")


@dataclass(frozen=True)
class Fault:
    """One parsed fault entry (see the module docstring for the schema)."""

    kind: str
    scope: str | None = None
    task: int = 0
    attempt: int = 0
    window: int = 0
    mode: str = "truncate"
    count: int = 1

    def document(self) -> Dict[str, Any]:
        if self.kind in POOL_FAULT_KINDS:
            return {
                "kind": self.kind,
                "scope": self.scope,
                "task": self.task,
                "attempt": self.attempt,
            }
        if self.kind == "checkpoint":
            return {"kind": self.kind, "window": self.window, "mode": self.mode}
        return {"kind": self.kind, "count": self.count}


def _parse_fault(entry: Mapping[str, Any], index: int) -> Fault:
    if not isinstance(entry, Mapping):
        raise ValueError(f"fault entry {index} must be a mapping, got {entry!r}")
    kind = entry.get("kind")
    if kind not in FAULT_KINDS:
        raise ValueError(
            f"fault entry {index} has unknown kind {kind!r}; known kinds: "
            f"{', '.join(FAULT_KINDS)}"
        )
    allowed = (
        {"kind", "scope", "task", "attempt"}
        if kind in POOL_FAULT_KINDS
        else {"kind", "window", "mode"}
        if kind == "checkpoint"
        else {"kind", "count"}
    )
    unknown = sorted(set(entry) - allowed)
    if unknown:
        raise ValueError(
            f"fault entry {index} ({kind}) has unknown keys {unknown}; "
            f"allowed: {sorted(allowed)}"
        )
    if kind in POOL_FAULT_KINDS:
        scope = entry.get("scope")
        if not isinstance(scope, str) or not scope:
            raise ValueError(f"fault entry {index} ({kind}) needs a 'scope' string")
        task = int(entry.get("task", 0))
        attempt = int(entry.get("attempt", 0))
        if task < 0 or attempt < 0:
            raise ValueError(
                f"fault entry {index} ({kind}) task/attempt must be >= 0"
            )
        return Fault(kind=kind, scope=scope, task=task, attempt=attempt)
    if kind == "checkpoint":
        mode = entry.get("mode", "truncate")
        if mode not in CORRUPTION_MODES:
            raise ValueError(
                f"fault entry {index} has unknown corruption mode {mode!r}; "
                f"known modes: {', '.join(CORRUPTION_MODES)}"
            )
        window = int(entry.get("window", 0))
        if window < 0:
            raise ValueError(f"fault entry {index} window must be >= 0")
        return Fault(kind=kind, window=window, mode=mode)
    count = int(entry.get("count", 1))
    if count < 1:
        raise ValueError(f"fault entry {index} count must be >= 1")
    return Fault(kind=kind, count=count)


@dataclass(frozen=True)
class FaultPlan:
    """A validated, immutable fault-injection plan."""

    name: str
    faults: tuple

    @classmethod
    def from_mapping(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"fault plan must be a mapping, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - {"name", "faults"})
        if unknown:
            raise ValueError(
                f"unknown fault-plan keys {unknown}; allowed: name, faults"
            )
        entries = payload.get("faults", [])
        if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
            raise ValueError("fault plan 'faults' must be a list of entries")
        faults = tuple(
            _parse_fault(entry, index) for index, entry in enumerate(entries)
        )
        return cls(name=str(payload.get("name", "fault-plan")), faults=faults)

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{os.fspath(path)}: invalid fault-plan JSON ({error})"
                ) from None
        return cls.from_mapping(payload)

    def document(self) -> Dict[str, Any]:
        """The plan as a canonical JSON-style document (for provenance)."""
        return {
            "name": self.name,
            "faults": [fault.document() for fault in self.faults],
        }

    def injector(self) -> "FaultInjector":
        """A fresh stateful injector (each fault unconsumed)."""
        return FaultInjector(self)


class FaultInjector:
    """Consumes a :class:`FaultPlan` fault by fault as execution reaches it."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._remaining: List[int] = [fault.count for fault in plan.faults]

    @property
    def fired(self) -> int:
        """How many individual faults have been injected so far."""
        return sum(
            fault.count - remaining
            for fault, remaining in zip(self.plan.faults, self._remaining)
        )

    def _consume(self, index: int) -> None:
        self._remaining[index] -= 1
        stats.record("injected_faults")

    def pool_fault(self, scope: str, task: int, attempt: int) -> Optional[str]:
        """The fault kind to inject for this dispatch, consuming it (or None)."""
        for index, fault in enumerate(self.plan.faults):
            if (
                self._remaining[index] > 0
                and fault.kind in POOL_FAULT_KINDS
                and fault.scope == scope
                and fault.task == task
                and fault.attempt == attempt
            ):
                self._consume(index)
                return fault.kind
        return None

    def checkpoint_fault(self, window: int) -> Optional[str]:
        """The corruption mode for the checkpoint after ``window`` (or None)."""
        for index, fault in enumerate(self.plan.faults):
            if (
                self._remaining[index] > 0
                and fault.kind == "checkpoint"
                and fault.window == window
            ):
                self._consume(index)
                return fault.mode
        return None

    def take_artifact_write_fault(self) -> bool:
        """Whether the next artifact write should fail, consuming one charge."""
        for index, fault in enumerate(self.plan.faults):
            if self._remaining[index] > 0 and fault.kind == "artifact-write":
                self._consume(index)
                return True
        return False


# ----------------------------------------------------------------------
# active injector (process-local, scoped like the array backend)
# ----------------------------------------------------------------------
_active: FaultInjector | None = None


def active_injector() -> FaultInjector | None:
    """The process's currently active fault injector, if any."""
    return _active


@contextmanager
def use_fault_plan(plan: FaultPlan | None) -> Iterator[FaultInjector | None]:
    """Scoped fault injection; ``None`` is a no-op passthrough.

    Builds a fresh injector per entry, so nested or repeated runs under the
    same plan each start with every fault unconsumed.
    """
    global _active
    if plan is None:
        yield _active
        return
    previous = _active
    _active = plan.injector()
    try:
        yield _active
    finally:
        _active = previous


def corrupt_file(path: str, mode: str) -> None:
    """Deliberately damage a file the way real infrastructure does.

    ``"truncate"`` keeps only the first half of the bytes (a torn write);
    ``"bitflip"`` flips one bit in the middle byte (silent media corruption).
    Both are deterministic functions of the file content.
    """
    if mode not in CORRUPTION_MODES:
        raise ValueError(
            f"unknown corruption mode {mode!r}; known: {', '.join(CORRUPTION_MODES)}"
        )
    with open(path, "rb") as handle:
        data = handle.read()
    if not data:
        return
    if mode == "truncate":
        damaged = data[: max(1, len(data) // 2)]
    else:
        middle = len(data) // 2
        damaged = data[:middle] + bytes([data[middle] ^ 0x08]) + data[middle + 1 :]
    with open(path, "wb") as handle:
        handle.write(damaged)


__all__ = [
    "CORRUPTION_MODES",
    "FAULT_KINDS",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "POOL_FAULT_KINDS",
    "active_injector",
    "corrupt_file",
    "use_fault_plan",
]
