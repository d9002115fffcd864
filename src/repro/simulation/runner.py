"""Trial runner: repeated collection rounds and MSE computation.

The paper reports the MSE of each scheme's mean estimate over repeated runs;
``run_trials`` performs those repetitions, one per explicit trial seed, with
independent randomness per trial (fresh perturbation noise, fresh poison
values, fresh population draw), and :class:`TrialResult` turns them into the
scheme's MSE and bias.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.attacks.base import Attack
from repro.datasets.base import NumericalDataset
from repro.estimators.metrics import mean_squared_error
from repro.simulation.population import build_population
from repro.simulation.schemes import Scheme


@dataclass
class TrialResult:
    """Estimates of one scheme across repeated trials.

    Attributes
    ----------
    scheme:
        Scheme name.
    estimates:
        Per-trial mean estimates.
    truths:
        Per-trial ground-truth means (the normal users' mean of that trial's
        population draw).
    """

    scheme: str
    estimates: List[float] = field(default_factory=list)
    truths: List[float] = field(default_factory=list)

    @property
    def mse(self) -> float:
        """Mean squared error across trials.

        Raises
        ------
        ValueError
            If no trials were recorded — an empty estimate list would
            otherwise propagate as a silent NaN through result tables.
        """
        estimates = np.asarray(self.estimates, dtype=float)
        truths = np.asarray(self.truths, dtype=float)
        if estimates.size == 0:
            raise ValueError(
                f"scheme {self.scheme!r} has no recorded trials; cannot compute mse"
            )
        return float(np.mean((estimates - truths) ** 2))

    @property
    def bias(self) -> float:
        """Mean signed error across trials.

        Raises
        ------
        ValueError
            If no trials were recorded (same contract as :attr:`mse`).
        """
        estimates = np.asarray(self.estimates, dtype=float)
        truths = np.asarray(self.truths, dtype=float)
        if estimates.size == 0:
            raise ValueError(
                f"scheme {self.scheme!r} has no recorded trials; cannot compute bias"
            )
        return float(np.mean(estimates - truths))

    def mse_against(self, truth: float) -> float:
        """MSE against one fixed ground truth (e.g. the full dataset mean)."""
        return mean_squared_error(self.estimates, truth)


def run_trials(
    scheme: Scheme,
    dataset: NumericalDataset,
    attack: Attack | None,
    n_users: int,
    gamma: float,
    trial_seeds: Sequence[int],
    input_domain: tuple[float, float] = (-1.0, 1.0),
) -> TrialResult:
    """Run one collection round of ``scheme`` per explicit trial seed.

    Each trial re-seeds a fresh generator, so two calls with the same seed
    list — for different schemes, or in different worker processes — see the
    identical population draw per trial index.  This is the unit of work the
    parallel experiment engine fans out.
    """
    result = TrialResult(scheme=scheme.name)
    for seed in trial_seeds:
        trial_rng = np.random.default_rng(int(seed))
        population = build_population(
            dataset, n_users, gamma, rng=trial_rng, input_domain=input_domain
        )
        estimate = scheme.estimate(population, attack, rng=trial_rng)
        result.estimates.append(float(estimate))
        result.truths.append(population.true_mean)
    return result


__all__ = [
    "TrialResult",
    "run_trials",
]
