"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper through the
drivers in :mod:`repro.experiments`, prints the paper-style rows it produced
(so the run doubles as a reproduction report), and asserts the qualitative
shape the paper claims.  The scale is deliberately laptop-friendly; raise
``BENCH_SCALE`` towards :data:`repro.experiments.PAPER_SCALE` to approach the
paper's absolute numbers.

Each driver runs once, untimed: a figure's claim needs one run, not the
calibrated rounds pytest-benchmark would time.  Pass ``--benchmark-enable``
to time the drivers again.
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentScale

#: population / trial scale used by every benchmark
BENCH_SCALE = ExperimentScale(n_users=12_000, n_trials=2, gamma=0.25)

#: a smaller scale for the heaviest sweeps (full figure grids)
BENCH_SCALE_SMALL = ExperimentScale(n_users=6_000, n_trials=1, gamma=0.25)


@pytest.fixture
def benchmark(benchmark, request):
    """pytest-benchmark's fixture, calling the driver once unless timing is asked for."""
    if not request.config.getoption("benchmark_enable"):
        benchmark.disabled = True
    return benchmark


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    return BENCH_SCALE


@pytest.fixture(scope="session")
def bench_scale_small() -> ExperimentScale:
    return BENCH_SCALE_SMALL
