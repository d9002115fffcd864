"""Process-local cache for mechanism transition matrices.

Sweeps rebuild the same deterministic matrices — the Square Wave / Piecewise
interval-probability blocks and the EMF transform assembled from them — once
per trial, even though they depend only on ``(mechanism type, epsilon, grid
sizes)``.  This module provides the shared memo behind
:func:`repro.core.transform.cached_transform_matrix` and the Square Wave EMS
reconstruction so each distinct matrix is computed once per process.

The cache is process-local by design: the parallel experiment executor forks
one cache per worker, so no locking is needed and workers stay independent.
Every lookup hands out the stored array itself, marked read-only: callers
that hit the same entry share one block (identity says so, with no element
comparison), and writing to a returned matrix raises instead of poisoning
the cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, Tuple

import numpy as np

#: maximum number of matrices kept per process (LRU eviction beyond this)
CACHE_CAPACITY = 256

_CACHE: "OrderedDict[Tuple[Hashable, ...], np.ndarray]" = OrderedDict()
_HITS = 0
_MISSES = 0


def mechanism_cache_key(mechanism) -> Tuple[Hashable, ...]:
    """The ``(mechanism type, epsilon)`` prefix every matrix key starts with.

    Mechanism instances are fully determined by their class and budget (all
    other coefficients — PM's ``C``, SW's ``b`` — are derived from epsilon),
    so this prefix is sufficient to identify the transition kernel.
    """
    return (type(mechanism).__module__, type(mechanism).__qualname__,
            float(mechanism.epsilon))


def cached_matrix(
    key: Tuple[Hashable, ...], builder: Callable[[], np.ndarray]
) -> np.ndarray:
    """Return the read-only matrix for ``key``, building it on first use.

    ``builder`` is only invoked on a miss; its result is stored C-contiguous
    and read-only, and every caller (including the first) receives that one
    array.
    """
    global _HITS, _MISSES
    master = _CACHE.get(key)
    if master is None:
        _MISSES += 1
        master = np.ascontiguousarray(builder(), dtype=float)
        master.setflags(write=False)
        _CACHE[key] = master
        while len(_CACHE) > CACHE_CAPACITY:
            _CACHE.popitem(last=False)
    else:
        _HITS += 1
        _CACHE.move_to_end(key)
    return master


def clear_transform_cache() -> None:
    """Drop every cached matrix and reset the hit/miss counters."""
    global _HITS, _MISSES
    _CACHE.clear()
    _HITS = 0
    _MISSES = 0


def transform_cache_stats() -> dict:
    """Current cache statistics: ``{"size", "hits", "misses"}``."""
    return {"size": len(_CACHE), "hits": _HITS, "misses": _MISSES}


__all__ = [
    "CACHE_CAPACITY",
    "cached_matrix",
    "mechanism_cache_key",
    "clear_transform_cache",
    "transform_cache_stats",
]
