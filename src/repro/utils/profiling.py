"""Per-stage wall-time accounting for the protocol hot paths.

The pipeline's interesting stages — client-side **collect**ion, the
likelihood-driven **probe**, the remaining collector-side **aggregate**
work, and classical **defense** scoring — are scattered across modules, so
the instrumented call sites feed their wall time through :func:`stage` into
the ``"stages"`` book of the observation ledger (:mod:`repro.utils.ledger`).
A stage costs a pair of ``perf_counter`` calls (nanoseconds against rounds
that take milliseconds), so it is always on; a run records its stage
seconds under ``meta.execution.profile`` when profiling is requested.  A
pool task's seconds travel home with its result, so a pooled run profiles
like a serial one, except that a pooled sub-stage sums the seconds of every
process that ran it.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Mapping, TypeVar

from repro.utils import ledger

_F = TypeVar("_F", bound=Callable)

#: the canonical stage names, in pipeline order; the ``collect.*`` and
#: ``probe.*`` entries are sub-timers that deliberately nest *inside* their
#: parent stage (mechanism sampling, poison-report drawing, accumulator
#: updates under ``collect``; sketch decoding and the greedy EM under
#: ``probe``), so the parent bounds their sum in one process rather than
#: adding to it
STAGES = (
    "collect",
    "collect.sample",
    "collect.poison",
    "collect.accumulate",
    "probe",
    "probe.decode",
    "probe.em",
    "aggregate",
    "defense",
)

_BOOK = "stages"


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Accumulate the wall time of the enclosed block under ``name``.

    Instrumented call sites do not nest the same stage.  Distinct stages may
    nest, and the outer stage then includes the inner one's wall time: the
    top-level stages are placed so they never do, while the ``collect.*``
    sub-timers nest inside ``collect`` by design — they attribute the
    collect total to its kernels without changing it.
    """
    start = time.perf_counter()
    try:
        yield
    finally:
        ledger.add(_BOOK, name, time.perf_counter() - start)


def profiled_stage(name: str) -> Callable[[_F], _F]:
    """Decorator form of :func:`stage` for whole functions/methods."""

    def wrap(function: _F) -> _F:
        @functools.wraps(function)
        def inner(*args, **kwargs):
            with stage(name):
                return function(*args, **kwargs)

        return inner  # type: ignore[return-value]

    return wrap


def snapshot() -> Dict[str, float]:
    """Copy of this process's cumulative stage totals (seconds)."""
    return ledger.snapshot().get(_BOOK, {})


def delta_since(before: Mapping[str, float]) -> Dict[str, float]:
    """Stage time accumulated since ``before`` (a :func:`snapshot`)."""
    return ledger.delta_since({_BOOK: before}).get(_BOOK, {})


def format_profile(profile: Mapping[str, float]) -> str:
    """Render a profile as ``stage=1.234s`` pairs in pipeline order."""
    ordered = [name for name in STAGES if name in profile]
    ordered += sorted(set(profile) - set(STAGES))
    return " ".join(f"{name}={profile[name]:.3f}s" for name in ordered)


__all__ = [
    "STAGES",
    "stage",
    "profiled_stage",
    "snapshot",
    "delta_since",
    "format_profile",
]
