"""Expectation-Maximization Filter — EMF (Algorithm 2).

Given the transform matrix ``M`` and the collected (perturbed + poison)
reports, EMF reconstructs the latent frequency histogram
``F = {x_1..x_d, y_1..y_{n_poison}}`` by maximum-likelihood EM:

* ``x`` is the frequency histogram of **normal users' original values**;
* ``y`` is the frequency histogram of **poison values** over the poison
  buckets of the output domain.

The log-likelihood (Equation 8) is concave in ``F``, so EM converges to the
global maximiser.  When ``epsilon -> 0`` Theorem 3 shows ``x`` converges to
the uniform distribution and ``y`` to the true poison-value distribution,
which is what makes the downstream feature estimation work.

The termination condition follows Section VI-A: iterate until the
log-likelihood improves by less than ``tau = 0.01 * e^epsilon`` (overridable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.transform import TransformMatrix
from repro.ldp.ems import (
    em_reconstruct,
    # unused here; the benchmark's span tracer (bench/spans.py) rebinds
    # this module global by name, so it stays until that target goes
    em_reconstruct_batch,  # noqa: F401
)
from repro.utils.histogram import histogram_mean, histogram_variance

#: hard cap on EM iterations; above the slowest probe side seen in practice
#: (~2,400 iterations for the left side of a 2x10^5-user, eps=1 DAP round's
#: probe at eps=0.0625, ~250 for its right side)
DEFAULT_MAX_ITER = 5_000

#: floor under every warm-start weight: EM's multiplicative update can never
#: revive an exactly-zero component, so without it new data could not move
#: mass back there (the floor washes out within an iteration or two)
WARM_START_FLOOR = 1e-12


def default_tolerance(epsilon: float | None) -> float:
    """The paper's termination threshold ``tau = 0.01 * e^epsilon``."""
    if epsilon is None:
        return 1e-6
    return max(1e-9, 0.01 * math.exp(epsilon))


@dataclass
class EMFResult:
    """Output of EMF (and of the EMF*/CEMF* post-processing).

    Attributes
    ----------
    normal_histogram:
        ``x_hat`` — reconstructed frequency histogram of normal users over the
        input grid (sums to ``1 - gamma_hat``).
    poison_histogram:
        ``y_hat`` — reconstructed frequency histogram of poison values over
        the poison buckets (sums to ``gamma_hat``).
    transform:
        The transform matrix the reconstruction was run against.
    log_likelihood, n_iterations, converged:
        EM diagnostics.
    """

    normal_histogram: np.ndarray
    poison_histogram: np.ndarray
    transform: TransformMatrix
    log_likelihood: float
    n_iterations: int
    converged: bool

    # ------------------------------------------------------------------
    # derived Byzantine features
    # ------------------------------------------------------------------
    @property
    def gamma_hat(self) -> float:
        """Estimated proportion of Byzantine users (Equation 9)."""
        return float(self.poison_histogram.sum())

    @property
    def weights(self) -> np.ndarray:
        """The full weight vector ``[x_hat, y_hat]`` — the form ``initial``
        takes when a later solve over the same transform is warm-started."""
        return np.concatenate([self.normal_histogram, self.poison_histogram])

    @property
    def normal_histogram_variance(self) -> float:
        """Variance of ``x_hat`` — the side-probing criterion (Algorithm 3)."""
        return histogram_variance(self.normal_histogram)

    @property
    def poison_mean(self) -> float:
        """Mean of the reconstructed poison values (Equation 11).

        Returns the centre of the poison range when no poison mass was
        reconstructed (``gamma_hat == 0``), which keeps downstream formulas
        well defined and contributes nothing to the corrected mean.
        """
        centers = self.transform.poison_bucket_centers
        mass = self.poison_histogram.sum()
        if mass <= 0:
            return float(centers.mean()) if centers.size else 0.0
        return histogram_mean(self.poison_histogram, centers)

    def normalized_normal_histogram(self) -> np.ndarray:
        """``x_hat`` rescaled to sum to one (the normal users' distribution)."""
        total = self.normal_histogram.sum()
        if total <= 0:
            d = self.normal_histogram.size
            return np.full(d, 1.0 / d)
        return self.normal_histogram / total

    def estimated_normal_mean(self) -> float:
        """Mean of the reconstructed normal-user distribution.

        This is the distribution-estimation route to the mean (used by the
        Square Wave variant); the PM route uses
        :func:`repro.core.mean_estimation.corrected_mean` instead.
        """
        return histogram_mean(
            self.normalized_normal_histogram(), self.transform.input_grid.centers
        )


def warm_start_weights(
    weights: np.ndarray | None, transform: TransformMatrix, label: str
) -> np.ndarray | None:
    """Validate a warm-start vector for ``transform`` and floor it for EM.

    ``None`` stays ``None`` (a cold start).  A vector of the wrong length
    raises ``ValueError`` — state accumulated over different grids must not
    silently skew a solve — and so does a non-finite or negative entry.
    Valid weights are floored at :data:`WARM_START_FLOOR`.  ``label`` names
    the solve in the error message.
    """
    if weights is None:
        return None
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (transform.n_components,):
        raise ValueError(
            f"warm start for {label} must have length {transform.n_components} "
            f"(current grids), got shape {weights.shape}; discard warm state "
            f"accumulated over different grids"
        )
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ValueError(
            f"warm start for {label} must be finite and non-negative; the "
            f"warm state is corrupt"
        )
    return np.maximum(weights, WARM_START_FLOOR)


def run_emf(
    transform: TransformMatrix,
    reports: np.ndarray | None = None,
    counts: np.ndarray | None = None,
    epsilon: float | None = None,
    tol: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    initial: np.ndarray | None = None,
) -> EMFResult:
    """Run EMF (Algorithm 2).

    Parameters
    ----------
    transform:
        Transform matrix built by :func:`repro.core.transform.build_transform_matrix`.
    reports:
        Collected perturbed values; mutually exclusive with ``counts``.
    counts:
        Pre-computed output-bucket counts (length ``d'``).
    epsilon:
        Privacy budget used only to derive the default tolerance
        ``tau = 0.01 e^epsilon``.
    tol, max_iter:
        EM convergence controls (``tol`` overrides the epsilon-derived value).
    initial:
        Optional warm-start weights (length ``d + n_poison``, i.e. a previous
        run's ``concatenate([normal_histogram, poison_histogram])``); defaults
        to the uniform cold start.  The log-likelihood is concave, so both
        head for the same maximiser, but the ``tau`` stop ends each solve
        wherever its step fell below ``tau``: a warm and a cold solve stop at
        different points on the flat top, each within the stop rule's slack
        (see :func:`warm_start_weights` for the floor a warm vector gets).
    """
    if (reports is None) == (counts is None):
        raise ValueError("provide exactly one of `reports` or `counts`")
    if counts is None:
        counts = transform.output_counts(reports)
    counts = np.asarray(counts, dtype=float)
    if tol is None:
        tol = default_tolerance(epsilon)

    result = em_reconstruct(
        transform.normal_block,
        counts,
        initial=initial,
        max_iter=max_iter,
        tol=tol,
        tail_rows=transform.poison_bucket_indices,
    )
    normal, poison = transform.split_weights(result.weights)
    return EMFResult(
        normal_histogram=normal,
        poison_histogram=poison,
        transform=transform,
        log_likelihood=result.log_likelihood,
        n_iterations=result.n_iterations,
        converged=result.converged,
    )


__all__ = [
    "EMFResult",
    "run_emf",
    "default_tolerance",
    "warm_start_weights",
    "DEFAULT_MAX_ITER",
]
