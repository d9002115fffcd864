"""Square Wave (SW) mechanism of Li et al. for numerical distribution estimation.

The SW mechanism maps an input ``v`` in ``[0, 1]`` to an output in
``[-b, 1 + b]`` where

``b = (eps * e^eps - e^eps + 1) / (2 * e^eps * (e^eps - 1 - eps))``.

With probability mass concentrated on the window ``[v - b, v + b]`` (density
``p = e^eps / (2 b e^eps + 1)``) and the remaining mass spread uniformly over
the rest of the output domain (density ``q = 1 / (2 b e^eps + 1)``), the ratio
``p / q = e^eps`` gives epsilon-LDP.

SW reports are *not* unbiased estimates of the inputs, so mean estimation goes
through distribution reconstruction: the collector builds the transition
matrix over a bucket grid and runs Expectation-Maximisation with Smoothing
(:func:`repro.ldp.ems.expectation_maximization_smoothing`).  That is also how
the paper plugs SW into DAP (Section V-D, Figure 8): the EMF transform matrix
simply swaps PM's transition probabilities for SW's.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.backends import get_backend
from repro.ldp.base import NumericalMechanism
from repro.registry import MECHANISMS
from repro.utils.discretization import BucketGrid
from repro.utils.histogram import histogram_mean, normalize_histogram
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.transform_cache import cached_matrix, mechanism_cache_key


@MECHANISMS.register("square-wave", aliases=("sw", "square_wave"), kind="numerical")
class SquareWaveMechanism(NumericalMechanism):
    """Square Wave mechanism over the input domain ``[0, 1]``."""

    input_domain: Tuple[float, float] = (0.0, 1.0)
    samples_on_backend = True

    def __init__(self, epsilon: float) -> None:
        super().__init__(epsilon)
        exp_eps = math.exp(self.epsilon)
        self._exp_eps = exp_eps
        denom = 2.0 * exp_eps * (exp_eps - 1.0 - self.epsilon)
        if denom <= 0:  # pragma: no cover - impossible for epsilon > 0
            raise ValueError("invalid epsilon for Square Wave mechanism")
        #: half-width of the high-probability window
        self.b = (self.epsilon * exp_eps - exp_eps + 1.0) / denom
        self._p_high = exp_eps / (2.0 * self.b * exp_eps + 1.0)
        self._p_low = 1.0 / (2.0 * self.b * exp_eps + 1.0)

    # ------------------------------------------------------------------
    # geometry / sampling
    # ------------------------------------------------------------------
    @property
    def output_domain(self) -> Tuple[float, float]:
        return (-self.b, 1.0 + self.b)

    def perturb(self, values: np.ndarray, rng: RngLike = None) -> np.ndarray:
        rng = ensure_rng(rng)
        values = self._validate_inputs(values)
        flat = values.ravel()
        out = get_backend().sw_sample(flat, self.b, self._p_high, self._p_low, rng)
        return out.reshape(values.shape)

    # ------------------------------------------------------------------
    # analytics
    # ------------------------------------------------------------------
    def interval_probability(self, value: float, out_low: float, out_high: float) -> float:
        """``Pr[v' in [out_low, out_high] | v = value]``."""
        lo, hi = self.output_domain
        out_low = max(out_low, lo)
        out_high = min(out_high, hi)
        if out_high <= out_low:
            return 0.0
        w_low, w_high = value - self.b, value + self.b
        high_overlap = max(0.0, min(out_high, w_high) - max(out_low, w_low))
        total = out_high - out_low
        low_overlap = total - high_overlap
        return high_overlap * self._p_high + low_overlap * self._p_low

    def interval_probability_matrix(
        self, values: np.ndarray, edges: np.ndarray
    ) -> np.ndarray:
        """Transition matrix ``(len(edges)-1, len(values))`` like PM's."""
        values = np.asarray(values, dtype=float)
        edges = np.asarray(edges, dtype=float)
        lo, hi = self.output_domain
        out_low = np.clip(edges[:-1][:, None], lo, hi)
        out_high = np.clip(edges[1:][:, None], lo, hi)
        total = np.clip(out_high - out_low, 0.0, None)
        w_low = (values - self.b)[None, :]
        w_high = (values + self.b)[None, :]
        high_overlap = np.clip(
            np.minimum(out_high, w_high) - np.maximum(out_low, w_low), 0.0, None
        )
        low_overlap = total - high_overlap
        return high_overlap * self._p_high + low_overlap * self._p_low

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------
    def reconstruct_distribution(
        self,
        reports: np.ndarray,
        n_input_buckets: int = 256,
        n_output_buckets: int | None = None,
        smoothing: bool = True,
        max_iter: int = 1000,
        tol: float = 1e-6,
    ) -> tuple[np.ndarray, BucketGrid]:
        """Reconstruct the input distribution from SW reports via EM(S).

        Returns the normalised histogram over ``n_input_buckets`` buckets of
        ``[0, 1]`` together with the grid it lives on.
        """
        from repro.ldp.ems import expectation_maximization_smoothing

        reports = np.asarray(reports, dtype=float)
        if n_output_buckets is None:
            n_output_buckets = max(2 * n_input_buckets, 32)
        in_grid = BucketGrid(0.0, 1.0, n_input_buckets)
        out_grid = BucketGrid(*self.output_domain, n_output_buckets)
        # the EMS transition matrix depends only on (epsilon, grid sizes), so
        # repeated reconstructions in a sweep reuse the process-local cache
        transform = cached_matrix(
            mechanism_cache_key(self) + ("ems_transform", n_input_buckets, n_output_buckets),
            lambda: self.interval_probability_matrix(in_grid.centers, out_grid.edges),
        )
        counts = out_grid.counts(reports)
        histogram = expectation_maximization_smoothing(
            transform, counts, smoothing=smoothing, max_iter=max_iter, tol=tol
        )
        return histogram, in_grid

    def estimate_mean(self, reports: np.ndarray, n_input_buckets: int = 256) -> float:
        """Mean estimate via EMS distribution reconstruction."""
        histogram, grid = self.reconstruct_distribution(reports, n_input_buckets)
        return histogram_mean(normalize_histogram(histogram), grid.centers)

    def worst_case_variance(self) -> float:
        """Worst-case variance of a single raw report around its input.

        SW reports are biased towards the centre, so this is an upper bound on
        the spread used only for aggregation weighting heuristics.
        """
        lo, hi = self.output_domain
        # variance of a uniform distribution over the whole output domain
        return (hi - lo) ** 2 / 12.0


__all__ = ["SquareWaveMechanism"]
