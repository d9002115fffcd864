"""Pluggable array-compute backends for the pipeline's hot kernels.

The mechanism samplers and the collection accumulators funnel their array
work through one process-local :class:`~repro.backends.base.ArrayBackend`,
selected by name:

``"numpy"`` (default)
    The bit-stable reference — kernel bodies moved verbatim from the seed
    implementation, test-pinned to produce identical outputs draw for draw.
``"fast"``
    Pure-numpy single-pass rewrites (inverse-CDF samplers, sparse OUE,
    fused accumulation).  Statistically equivalent, not bit-identical.

Like ``collect_workers``, the backend is an
*execution detail*: it never enters an experiment fingerprint or scenario
digest, but it is recorded in ``meta.execution`` because the fast backend
consumes the RNG stream differently and therefore change which statistically
equivalent sample a seeded run produces.

The active backend is process-local state.  Hot-path call sites read it via
:func:`get_backend`; run-scoped selection goes through the
:func:`use_backend` context manager (``use_backend(None)`` is a no-op
passthrough, so callers can always wrap), and shard/pool workers re-apply
the parent's choice from the task payload.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.backends.base import ArrayBackend
from repro.backends.fast import FastBackend

#: selectable backend names, reference first
BACKENDS = ("numpy", "fast")

DEFAULT_BACKEND = "numpy"

# one instance per concrete class — backends are stateless, so resolving the
# same name twice may share an instance
_instances: Dict[str, ArrayBackend] = {}


def check_backend(backend: str) -> str:
    """Validate a backend name, returning it unchanged.

    Raises
    ------
    ValueError
        If ``backend`` is not one of :data:`BACKENDS`.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
        )
    return backend


def resolve_backend(name: str) -> ArrayBackend:
    """Instantiate (or reuse) the backend registered under ``name``."""
    check_backend(name)
    if name not in _instances:
        _instances[name] = FastBackend() if name == "fast" else ArrayBackend()
    return _instances[name]


_active: ArrayBackend = resolve_backend(DEFAULT_BACKEND)


def get_backend() -> ArrayBackend:
    """The process's currently active backend."""
    return _active


def set_backend(name: str) -> ArrayBackend:
    """Make ``name`` the process's active backend (returns the instance)."""
    global _active
    _active = resolve_backend(name)
    return _active


@contextmanager
def use_backend(name: Optional[str]) -> Iterator[ArrayBackend]:
    """Scoped backend selection; ``None`` keeps whatever is active.

    The ``None`` passthrough lets run-scoped callers wrap unconditionally::

        with use_backend(spec.backend):   # spec.backend may be None
            ...
    """
    global _active
    if name is None:
        yield _active
        return
    previous = _active
    _active = resolve_backend(name)
    try:
        yield _active
    finally:
        _active = previous


__all__ = [
    "ArrayBackend",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "check_backend",
    "get_backend",
    "resolve_backend",
    "set_backend",
    "use_backend",
]
