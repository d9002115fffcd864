"""The legacy serial sweep, kept as a test oracle for the experiment engine.

Before the engine, every figure ran :func:`sweep`: points in order, each
point drawing its trial seeds from one master generator and evaluating all
schemes on them through :func:`evaluate_schemes`.  The engine pre-draws the
same seeds as one matrix and fans the units out; tests check that its
records equal this path's bit for bit, and that every scheme of a point
sees the same population draws.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence

import numpy as np

from repro.attacks.base import Attack
from repro.datasets.base import NumericalDataset
from repro.engine.spec import PointSpec
from repro.simulation.runner import TrialResult, run_trials
from repro.simulation.schemes import Scheme
from repro.simulation.sweep import SweepRecord
from repro.utils.rng import RngLike, ensure_rng


def evaluate_schemes(
    schemes: Sequence[Scheme],
    dataset: NumericalDataset,
    attack: Attack | None,
    n_users: int,
    gamma: float,
    n_trials: int = 5,
    rng: RngLike = None,
    input_domain: tuple[float, float] = (-1.0, 1.0),
) -> Dict[str, TrialResult]:
    """Evaluate several schemes on the *same* sequence of trial seeds.

    Using a shared seed sequence per trial index keeps the comparison paired:
    every scheme sees the same population draw and the same attack randomness,
    which reduces the variance of MSE differences between schemes.
    """
    rng = ensure_rng(rng)
    trial_seeds = rng.integers(0, 2**63 - 1, size=n_trials, dtype=np.int64)
    results: Dict[str, TrialResult] = {}
    for scheme in schemes:
        results[scheme.name] = run_trials(
            scheme,
            dataset,
            attack,
            n_users,
            gamma,
            trial_seeds,
            input_domain=input_domain,
        )
    return results


def sweep(
    points: Iterable[PointSpec],
    scheme_factory: Callable[[PointSpec], Sequence[Scheme]],
    attack_factory: Callable[[PointSpec], Attack | None],
    dataset_factory: Callable[[PointSpec], NumericalDataset],
    n_users: int,
    gamma: float | Callable[[PointSpec], float],
    n_trials: int = 3,
    rng: RngLike = None,
    input_domain: tuple[float, float] | Callable[[PointSpec], tuple[float, float]] = (-1.0, 1.0),
) -> List[SweepRecord]:
    """Run a sweep and return one record per (point, scheme).

    The factories receive the sweep point so every aspect of the experiment
    (schemes, attack, dataset, Byzantine proportion, input domain) can depend
    on the swept parameters.
    """
    rng = ensure_rng(rng)
    records: List[SweepRecord] = []
    for point in points:
        point = dict(point)
        schemes = scheme_factory(point)
        attack = attack_factory(point)
        dataset = dataset_factory(point)
        point_gamma = gamma(point) if callable(gamma) else gamma
        point_domain = input_domain(point) if callable(input_domain) else input_domain
        results = evaluate_schemes(
            schemes,
            dataset,
            attack,
            n_users=n_users,
            gamma=point_gamma,
            n_trials=n_trials,
            rng=rng,
            input_domain=point_domain,
        )
        for name, result in results.items():
            records.append(
                SweepRecord(
                    point=point,
                    scheme=name,
                    mse=result.mse,
                    bias=result.bias,
                    n_trials=n_trials,
                )
            )
    return records
