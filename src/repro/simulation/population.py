"""User populations: split a dataset into normal and Byzantine users.

The paper parameterises every experiment by the total population ``N`` and the
Byzantine proportion ``gamma``; Byzantine users' *original* values are
irrelevant (they submit whatever the attack strategy chooses), so a population
is simply the normal users' values plus a Byzantine head-count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.base import NumericalDataset
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_fraction, check_integer


def population_counts(n_users: int, gamma: float) -> tuple[int, int]:
    """The ``(n_normal, n_byzantine)`` split of a population.

    The rounding rule is ``m = round(N * gamma)``; the split always satisfies
    ``n_normal + n_byzantine == n_users`` with at least one normal user.
    """
    n_users = check_integer(n_users, "n_users", minimum=1)
    gamma = check_fraction(gamma, "gamma")
    n_byzantine = int(round(n_users * gamma))
    n_normal = n_users - n_byzantine
    if n_normal <= 0:
        raise ValueError(
            f"gamma={gamma:g} leaves no normal users in a population of {n_users}"
        )
    return n_normal, n_byzantine


def _rescale(values: np.ndarray, input_domain: tuple[float, float]) -> np.ndarray:
    low, high = input_domain
    if (low, high) != (-1.0, 1.0):
        # dataset values are normalised to [-1, 1]; rescale to the target domain
        values = (values + 1.0) / 2.0 * (high - low) + low
    return values


@dataclass
class Population:
    """A user population for one experiment trial.

    Attributes
    ----------
    normal_values:
        Original values of the normal users (already in the mechanism's input
        domain).
    n_byzantine:
        Number of Byzantine users.
    true_mean:
        Ground truth the estimators are evaluated against: the mean of the
        *normal* users' values (the collector's goal per Section III-B).
    """

    normal_values: np.ndarray
    n_byzantine: int
    true_mean: float

    @property
    def n_normal(self) -> int:
        """Number of normal users."""
        return int(self.normal_values.size)

    @property
    def n_total(self) -> int:
        """Total number of users ``N``."""
        return self.n_normal + self.n_byzantine

    @property
    def gamma(self) -> float:
        """True Byzantine proportion ``gamma = m / N``."""
        if self.n_total == 0:
            return 0.0
        return self.n_byzantine / self.n_total


def build_population(
    dataset: NumericalDataset,
    n_users: int,
    gamma: float,
    rng: RngLike = None,
    input_domain: tuple[float, float] = (-1.0, 1.0),
) -> Population:
    """Sample a population of ``n_users`` with Byzantine proportion ``gamma``.

    Normal users' values are sampled from the dataset; when the target
    mechanism uses a different input domain (e.g. Square Wave's ``[0, 1]``),
    the values are affinely rescaled into it.
    """
    n_normal, n_byzantine = population_counts(n_users, gamma)
    rng = ensure_rng(rng)
    values = _rescale(dataset.sample(n_normal, rng), input_domain)
    return Population(
        normal_values=values,
        n_byzantine=n_byzantine,
        true_mean=float(values.mean()),
    )


__all__ = [
    "Population",
    "build_population",
    "population_counts",
]
