"""Piecewise Mechanism (PM) of Wang et al., the paper's default perturbation.

Given an input ``v`` in ``[-1, 1]`` and budget ``epsilon``, the mechanism
outputs ``v'`` in ``[-C, C]`` with

* ``C = (e^{eps/2} + 1) / (e^{eps/2} - 1)``,
* ``l(v) = (C + 1)/2 * v - (C - 1)/2`` and ``r(v) = l(v) + C - 1``,
* with probability ``e^{eps/2} / (e^{eps/2} + 1)`` the output is uniform on the
  "high" band ``[l(v), r(v)]``; otherwise it is uniform on the complement
  ``[-C, l(v)) U (r(v), C]``.

The output is an unbiased estimator of the input, and the worst-case
per-report variance (over inputs ``v = +-1``) is

``1 / (e^{eps/2} - 1) + (e^{eps/2} + 3) / (3 (e^{eps/2} - 1)^2)``

which is exactly the ``Var_worst`` term in the DAP aggregation weights
(Theorem 6).

Besides sampling, this module exposes the *analytical* transition
probabilities that the EMF transform matrix (Figure 2 of the paper) is built
from: :meth:`PiecewiseMechanism.interval_probability` integrates the output
density over an arbitrary output interval for a given input.  These matrices
depend only on ``(epsilon, grid sizes)``, so sweep workloads build them
through :func:`repro.core.transform.cached_transform_matrix`, which memoises
them per process (see :mod:`repro.utils.transform_cache`).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.backends import get_backend
from repro.ldp.base import NumericalMechanism
from repro.registry import MECHANISMS
from repro.utils.rng import RngLike, ensure_rng


@MECHANISMS.register("piecewise", aliases=("pm",), kind="numerical")
class PiecewiseMechanism(NumericalMechanism):
    """Piecewise Mechanism for numerical values in ``[-1, 1]``."""

    samples_on_backend = True

    def __init__(self, epsilon: float) -> None:
        super().__init__(epsilon)
        half = math.exp(self.epsilon / 2.0)
        self._exp_half = half
        #: output domain half-width C
        self.C = (half + 1.0) / (half - 1.0)
        #: probability of landing in the high-probability band
        self.high_prob = half / (half + 1.0)
        # density of the output pdf inside / outside the high band
        band_width = self.C - 1.0  # = 2 / (e^{eps/2} - 1)
        self._p_high = self.high_prob / band_width
        self._p_low = self._p_high / math.exp(self.epsilon)

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def output_domain(self) -> Tuple[float, float]:
        return (-self.C, self.C)

    def high_band(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(l(v), r(v))`` — the high-probability band for each input."""
        values = np.asarray(values, dtype=float)
        left = (self.C + 1.0) / 2.0 * values - (self.C - 1.0) / 2.0
        right = left + self.C - 1.0
        return left, right

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def perturb(self, values: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Perturb a batch of values (Algorithm 1 of the paper).

        The sampling kernel itself lives on the active array backend
        (:func:`repro.backends.get_backend`): the default numpy backend is
        bit-identical to the historical implementation, fast backends sample
        the same distribution through a single-pass inverse CDF.
        """
        rng = ensure_rng(rng)
        values = self._validate_inputs(values)
        flat = values.ravel()
        left, right = self.high_band(flat)
        outputs = get_backend().pm_sample(
            flat, left, right, self.C, self.high_prob, self._p_high, self._p_low, rng
        )
        return outputs.reshape(values.shape)

    # ------------------------------------------------------------------
    # analytics
    # ------------------------------------------------------------------
    def pdf(self, output: float, value: float) -> float:
        """Output density ``Pr[v' = output | v = value]``."""
        if not -self.C <= output <= self.C:
            return 0.0
        left, right = self.high_band(np.array([value]))
        if left[0] <= output <= right[0]:
            return self._p_high
        return self._p_low

    def interval_probability(
        self, value: float, out_low: float, out_high: float
    ) -> float:
        """``Pr[v' in [out_low, out_high] | v = value]``.

        This is the quantity each entry of the EMF transform matrix needs:
        the probability that a normal user's report lands in a given output
        bucket.  Computed exactly by measuring the overlap of the output
        bucket with the high-probability band.
        """
        out_low = max(out_low, -self.C)
        out_high = min(out_high, self.C)
        if out_high <= out_low:
            return 0.0
        left, right = self.high_band(np.array([value]))
        l_v, r_v = float(left[0]), float(right[0])
        high_overlap = max(0.0, min(out_high, r_v) - max(out_low, l_v))
        total = out_high - out_low
        low_overlap = total - high_overlap
        return high_overlap * self._p_high + low_overlap * self._p_low

    def interval_probability_matrix(
        self, values: np.ndarray, edges: np.ndarray
    ) -> np.ndarray:
        """Vectorised transition probabilities.

        Parameters
        ----------
        values:
            Input values (length ``d``), typically bucket centres of the
            original domain grid.
        edges:
            Output bucket edges (length ``d' + 1``).

        Returns
        -------
        numpy.ndarray
            Matrix of shape ``(d', d)`` where entry ``(i, k)`` is
            ``Pr[v' in output bucket i | v = values[k]]``.
        """
        values = np.asarray(values, dtype=float)
        edges = np.asarray(edges, dtype=float)
        left, right = self.high_band(values)  # shape (d,)
        out_low = edges[:-1][:, None]          # (d', 1)
        out_high = edges[1:][:, None]          # (d', 1)
        out_low = np.clip(out_low, -self.C, self.C)
        out_high = np.clip(out_high, -self.C, self.C)
        total = np.clip(out_high - out_low, 0.0, None)
        high_overlap = np.clip(
            np.minimum(out_high, right[None, :]) - np.maximum(out_low, left[None, :]),
            0.0,
            None,
        )
        low_overlap = total - high_overlap
        return high_overlap * self._p_high + low_overlap * self._p_low

    def variance(self, value: float) -> float:
        """Per-report variance for a specific input value."""
        half = self._exp_half
        return value**2 / (half - 1.0) + (half + 3.0) / (3.0 * (half - 1.0) ** 2)

    def worst_case_variance(self) -> float:
        """Worst-case variance, attained at ``v = +-1`` (Theorem 6's ``B_t``)."""
        return self.variance(1.0)


__all__ = ["PiecewiseMechanism"]
