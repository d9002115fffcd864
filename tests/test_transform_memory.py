"""Memory regression: the side probe never materialises the stacked transform.

At ``d' = 4096`` output buckets each side hypothesis has 2048 one-hot poison
columns, so a stacked ``d' x (d + P)`` matrix would take 66 MiB per side.
The transform keeps only the ``d' x d`` normal block plus the poison rows,
and the probe's EM runs on that pair, so the traced peak stays a few MiB.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.core.probing import probe_poisoned_side
from repro.ldp.piecewise import PiecewiseMechanism

D_IN, D_OUT = 64, 4096
PEAK_BOUND_MIB = 16.0


def test_side_probe_peak_stays_below_the_stacked_matrix():
    counts = np.random.default_rng(0).poisson(200.0, D_OUT).astype(float)
    tracemalloc.start()
    try:
        probe = probe_poisoned_side(
            PiecewiseMechanism(1 / 16), None, D_IN, D_OUT, counts=counts, max_iter=5
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert probe.side in ("left", "right")
    assert peak / 2**20 < PEAK_BOUND_MIB
