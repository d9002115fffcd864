"""The process-local observation ledger: stage seconds and event counts.

Books of named amounts — ``"stages"`` (wall seconds, fed by
:func:`repro.utils.profiling.stage`) and ``"events"`` (recovery counts, fed
by :func:`repro.resilience.stats.record`) — read through one
:func:`snapshot`, :func:`delta_since` and :func:`fold`.  A pool task ships
its worker's delta home with its result and the dispatching process folds
it in (:class:`~repro.resilience.pool.ResilientPool`), so nested pools
compose; a run entry point reads its whole run from one :func:`observe`
scope, which also scopes the warn-once latch (:func:`first_time`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Hashable, Iterator, Mapping, Set

#: book name -> entry name -> amount
Books = Dict[str, Dict[str, float]]

_books: Books = {}
_latch: Set[Hashable] = set()


def add(book: str, name: str, amount: float) -> None:
    entries = _books.setdefault(book, {})
    entries[name] = entries.get(name, 0) + amount


def snapshot() -> Books:
    """A copy of this process's cumulative books."""
    return {book: dict(entries) for book, entries in _books.items()}


def delta_since(before: Mapping[str, Mapping[str, float]]) -> Books:
    """What each book gained since ``before`` (zero entries omitted)."""
    delta: Books = {}
    for book, entries in _books.items():
        base = before.get(book, {})
        gained = {
            name: total - base.get(name, 0)
            for name, total in entries.items()
            if total - base.get(name, 0) > 0
        }
        if gained:
            delta[book] = gained
    return delta


def fold(delta: Mapping[str, Mapping[str, float]]) -> None:
    """Add another process's :func:`delta_since` to this process's books."""
    for book, entries in delta.items():
        for name, amount in entries.items():
            add(book, name, amount)


def first_time(key: Hashable) -> bool:
    """Whether ``key`` is new to the current observation (warn-once latch)."""
    if key in _latch:
        return False
    _latch.add(key)
    return True


class Observation:
    """What this process's books gained since the observation began."""

    def __init__(self) -> None:
        self._before = snapshot()

    def book(self, name: str) -> Dict[str, float]:
        return delta_since(self._before).get(name, {})


@contextmanager
def observe() -> Iterator[Observation]:
    """One run's observation, with a fresh warn-once latch while it lasts."""
    global _latch
    outer, _latch = _latch, set()
    try:
        yield Observation()
    finally:
        _latch = outer


__all__ = [
    "Books", "Observation", "add", "delta_since", "first_time", "fold", "observe",
    "snapshot",
]
