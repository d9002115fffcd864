"""Abstract interfaces for LDP perturbation mechanisms.

Two families are distinguished:

* **Numerical** mechanisms perturb a value in a bounded interval (the paper
  normalises every dataset into ``[-1, 1]``) and produce a perturbed value in a
  possibly enlarged output domain — e.g. ``[-C, C]`` for the Piecewise
  Mechanism.  They support unbiased mean estimation.
* **Categorical** mechanisms perturb one of ``k`` categories and support
  unbiased frequency estimation.

Both expose their output domain explicitly because the threat model
(Definition 2, General Byzantine Attack) is defined directly on that output
domain: attackers may submit *any* value inside it.
"""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive


class MechanismError(RuntimeError):
    """Raised when a mechanism is used outside its contract."""


class NumericalMechanism(abc.ABC):
    """A numerical LDP mechanism over the canonical input domain.

    Parameters
    ----------
    epsilon:
        Privacy budget (> 0).
    """

    #: canonical input domain used throughout the paper
    input_domain: Tuple[float, float] = (-1.0, 1.0)

    #: whether :meth:`perturb` is elementwise input handling plus one call to
    #: the active backend's sampler, so a batch may be perturbed slice by
    #: slice (see :attr:`repro.backends.base.ArrayBackend.streams_leaves`)
    samples_on_backend: bool = False

    def __init__(self, epsilon: float) -> None:
        self.epsilon = check_positive(epsilon, "epsilon")

    # ------------------------------------------------------------------
    # interface
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def output_domain(self) -> Tuple[float, float]:
        """``(D_L, D_R)`` — the interval perturbed reports live in."""

    @abc.abstractmethod
    def perturb(self, values: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Perturb a batch of values from the input domain."""

    @abc.abstractmethod
    def worst_case_variance(self) -> float:
        """Worst-case per-report variance over inputs in the input domain.

        For the Piecewise Mechanism this is the quantity the DAP aggregation
        weights of Theorem 6 are built from.
        """

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def check_inputs(self, values: np.ndarray) -> None:
        """Raise :class:`MechanismError` unless ``values`` lie in the input domain.

        NaN compares false and passes; callers that must refuse it check
        separately.
        """
        low, high = self.input_domain
        values = np.asarray(values, dtype=float)
        if values.size and (values.min() < low - 1e-9 or values.max() > high + 1e-9):
            raise MechanismError(
                f"{type(self).__name__} inputs must lie in [{low}, {high}], got range "
                f"[{values.min():.4g}, {values.max():.4g}]"
            )

    def _validate_inputs(self, values: np.ndarray) -> np.ndarray:
        self.check_inputs(values)
        low, high = self.input_domain
        return np.clip(np.asarray(values, dtype=float), low, high)

    def estimate_mean(self, reports: np.ndarray) -> float:
        """Unbiased mean estimate from perturbed reports.

        The default implementation averages the reports, which is correct for
        every mechanism whose output is an unbiased estimator of its input
        (PM, Duchi, Hybrid, Laplace).  Mechanisms whose raw reports are biased
        (e.g. Square Wave) override this.
        """
        reports = np.asarray(reports, dtype=float)
        if reports.size == 0:
            raise MechanismError("cannot estimate a mean from zero reports")
        return float(reports.mean())

    def sample_output_domain(self, size: int, rng: RngLike = None) -> np.ndarray:
        """Uniform samples from the output domain.

        Convenience used by attack implementations: a General Byzantine Attack
        may place poison values anywhere inside ``output_domain``.
        """
        rng = ensure_rng(rng)
        low, high = self.output_domain
        return rng.uniform(low, high, size=size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(epsilon={self.epsilon:g})"


class DomainRestrictedMechanism(NumericalMechanism):
    """A mechanism view whose output domain is narrowed to a sub-interval.

    Used by the shuffle-model protocol (:mod:`repro.protocol.client`): once
    reports are shuffled, an adversary cannot tell which budget group a slot
    belongs to, so poison that must remain plausible for *every* group has to
    live in the intersection of all per-group output domains.  Attacks are
    handed this view in place of the per-group mechanism — everything else
    (perturbation, variances, estimation) delegates to the wrapped mechanism
    unchanged.
    """

    def __init__(
        self, base: NumericalMechanism, output_domain: Tuple[float, float]
    ) -> None:
        low, high = float(output_domain[0]), float(output_domain[1])
        base_low, base_high = base.output_domain
        if low > high:
            raise MechanismError(
                f"restricted domain is empty: [{low:.4g}, {high:.4g}]"
            )
        if low < base_low - 1e-9 or high > base_high + 1e-9:
            raise MechanismError(
                f"restricted domain [{low:.4g}, {high:.4g}] must lie inside the "
                f"base domain [{base_low:.4g}, {base_high:.4g}]"
            )
        super().__init__(base.epsilon)
        self.base = base
        self.input_domain = base.input_domain
        self._output_domain = (low, high)

    @property
    def output_domain(self) -> Tuple[float, float]:
        return self._output_domain

    def perturb(self, values: np.ndarray, rng: RngLike = None) -> np.ndarray:
        return self.base.perturb(values, rng)

    def worst_case_variance(self) -> float:
        return self.base.worst_case_variance()

    def estimate_mean(self, reports: np.ndarray) -> float:
        return self.base.estimate_mean(reports)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        low, high = self._output_domain
        return (
            f"DomainRestrictedMechanism({self.base!r}, "
            f"output_domain=({low:.4g}, {high:.4g}))"
        )


class CategoricalMechanism(abc.ABC):
    """A categorical LDP mechanism over ``k`` categories ``0 .. k-1``."""

    def __init__(self, epsilon: float, n_categories: int) -> None:
        self.epsilon = check_positive(epsilon, "epsilon")
        if n_categories < 2:
            raise ValueError(f"n_categories must be >= 2, got {n_categories}")
        self.n_categories = int(n_categories)

    @abc.abstractmethod
    def perturb(self, categories: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Perturb a batch of category indices."""

    @abc.abstractmethod
    def estimate_frequencies(self, reports: np.ndarray) -> np.ndarray:
        """Unbiased (possibly negative) frequency estimates from reports."""

    def check_categories(self, categories: np.ndarray) -> None:
        """Raise :class:`MechanismError` unless every category is in ``[0, k)``."""
        categories = np.asarray(categories)
        if categories.size and (
            categories.min() < 0 or categories.max() >= self.n_categories
        ):
            raise MechanismError(
                f"categories must lie in [0, {self.n_categories}), got range "
                f"[{categories.min()}, {categories.max()}]"
            )

    def _validate_categories(self, categories: np.ndarray) -> np.ndarray:
        self.check_categories(categories)
        return np.asarray(categories).astype(int)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(epsilon={self.epsilon:g}, "
            f"n_categories={self.n_categories})"
        )


__all__ = [
    "NumericalMechanism",
    "DomainRestrictedMechanism",
    "CategoricalMechanism",
    "MechanismError",
]
