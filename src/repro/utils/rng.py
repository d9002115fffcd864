"""Random-number-generator helpers.

Every stochastic component in the library accepts either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None``.  ``ensure_rng``
normalises all three into a ``Generator`` so that experiments are reproducible
end to end when a seed is supplied and still convenient when it is not.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``rng``.

    Parameters
    ----------
    rng:
        ``None`` (fresh nondeterministic generator), an ``int`` seed, a
        ``SeedSequence``, or an existing ``Generator`` (returned unchanged).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer, np.random.SeedSequence)):
        return np.random.default_rng(rng)
    raise TypeError(
        f"rng must be None, an int seed, a SeedSequence or a Generator, got {type(rng)!r}"
    )


def derive_seed(rng: RngLike, salt: int = 0) -> int:
    """Derive a deterministic child seed from ``rng`` plus an integer salt."""
    base = ensure_rng(rng)
    return int(base.integers(0, 2**31 - 1)) ^ (salt * 2654435761 % (2**31))


__all__ = ["RngLike", "ensure_rng", "derive_seed"]
