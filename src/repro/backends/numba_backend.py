"""Optional numba-JIT backend (falls back to the reference when absent).

When numba is importable, :class:`NumbaBackend` compiles loop-fused versions
of the two kernels where JIT beats vectorised numpy on a single core: the
PM / SW inverse-CDF samplers (one branchy loop instead of a chain of
``np.where`` temporaries) and the fused histogram pass (assign + count + sum
in one sweep).  Everything else inherits the single-pass numpy kernels from
:class:`repro.backends.fast.FastBackend` — the JIT wins there are marginal.

When numba is *not* importable, requesting the ``"numba"`` backend must not
crash a run that was merely configured on a beefier machine:
:func:`create_numba_backend` emits a :class:`RuntimeWarning` and returns the
bit-stable numpy reference instead (so artifacts record the backend that
actually ran).
"""

from __future__ import annotations

import warnings
from typing import Optional, Tuple

import numpy as np

from repro.backends.base import ArrayBackend
from repro.backends.fast import FastBackend

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    NUMBA_AVAILABLE = True
except ImportError:
    numba = None  # type: ignore[assignment]
    NUMBA_AVAILABLE = False


def numba_available() -> bool:
    """Whether the optional numba dependency is importable."""
    return NUMBA_AVAILABLE


if NUMBA_AVAILABLE:  # pragma: no cover - exercised only where numba is installed

    @numba.njit(cache=True)
    def _pm_kernel(u, left, right, C, high_prob, p_high, p_low):
        out = np.empty(u.size, dtype=np.float64)
        for i in range(u.size):
            below_band = (left[i] + C) * p_low
            if u[i] < below_band:
                x = u[i] / p_low - C
            elif u[i] < below_band + high_prob:
                x = left[i] + (u[i] - below_band) / p_high
            else:
                x = right[i] + (u[i] - below_band - high_prob) / p_low
            out[i] = min(max(x, -C), C)
        return out

    @numba.njit(cache=True)
    def _sw_kernel(u, values, b, p_high, p_low):
        window_mass = 2.0 * b * p_high
        out = np.empty(u.size, dtype=np.float64)
        for i in range(u.size):
            below_window = values[i] * p_low
            if u[i] < below_window:
                x = u[i] / p_low - b
            elif u[i] < below_window + window_mass:
                x = (values[i] - b) + (u[i] - below_window) / p_high
            else:
                x = (values[i] + b) + (u[i] - below_window - window_mass) / p_low
            out[i] = min(max(x, -b), 1.0 + b)
        return out

    @numba.njit(cache=True)
    def _histogram_kernel(values, low, width, n_buckets):
        counts = np.zeros(n_buckets, dtype=np.int64)
        total = 0.0
        last = n_buckets - 1
        for i in range(values.size):
            idx = int(np.floor((values[i] - low) / width))
            if idx < 0:
                idx = 0
            elif idx > last:
                idx = last
            counts[idx] += 1
            total += values[i]
        return counts, total


class NumbaBackend(FastBackend):  # pragma: no cover - requires numba
    """JIT-compiled kernels over the fast backend's algorithms."""

    name = "numba"
    # the fused histogram kernel sums left to right, not pairwise, so leaf
    # sums would not add up to the one-shot block sum
    streams_leaves = False

    def pm_sample(self, values, left, right, C, high_prob, p_high, p_low, rng):
        u = rng.random(values.size)
        return _pm_kernel(u, left, right, C, high_prob, p_high, p_low)

    def sw_sample(self, values, b, p_high, p_low, rng):
        u = rng.random(values.size)
        return _sw_kernel(u, values, b, p_high, p_low)

    def histogram_chunk(self, values, grid) -> Tuple[np.ndarray, Optional[float]]:
        counts, total = _histogram_kernel(
            values, grid.low, grid.width, grid.n_buckets
        )
        return counts, float(total)


#: process-wide latch: the fallback warning fires once, not on every backend
#: construction (a windowed service resolving its backend per window — or a
#: shard pool resolving it per worker task — must not spam hundreds of
#: identical warnings; Python's own warning registry dedupes per call site,
#: which this module defeats by being called from many places)
_fallback_warned = False


def _reset_fallback_warning() -> None:
    """Re-arm the once-per-process fallback warning (test hook)."""
    global _fallback_warned
    _fallback_warned = False


def create_numba_backend() -> ArrayBackend:
    """The numba backend, or the numpy reference (with a warning) without numba."""
    global _fallback_warned
    if not NUMBA_AVAILABLE:
        if not _fallback_warned:
            _fallback_warned = True
            warnings.warn(
                "numba is not installed; the 'numba' backend falls back to the "
                "bit-stable numpy reference",
                RuntimeWarning,
                stacklevel=3,
            )
        return ArrayBackend()
    return NumbaBackend()  # pragma: no cover - requires numba


__all__ = ["NumbaBackend", "create_numba_backend", "numba_available", "NUMBA_AVAILABLE"]
