"""EMF* with concentration — CEMF* (Theorem 5).

When Byzantine users concentrate their poison values on a small sub-range,
EMF/EMF* smear the reconstructed poison histogram over the whole poisoned
side.  CEMF* *suppresses* poison buckets whose EMF-reconstructed mass is below
a threshold — treating them as if no poison value could be there — and reruns
the constrained EM with those buckets pinned at zero.  Theorem 5 shows the
reconstruction monotonically improves as more genuinely-empty poison buckets
are suppressed.

The suppression threshold follows Section VI-C: a poison bucket survives only
if its EMF mass exceeds ``0.5 * gamma_hat / n_poison_buckets`` (i.e. half of
the mass it would hold if poison values were spread uniformly).
"""

from __future__ import annotations

import numpy as np

from repro.core.emf import DEFAULT_MAX_ITER, EMFResult
from repro.core.emf_star import run_emf_star
from repro.core.transform import TransformMatrix
from repro.utils.validation import check_positive

#: the paper's default: keep buckets holding at least half the uniform share
DEFAULT_SUPPRESSION_FACTOR = 0.5


def suppression_mask(
    poison_histogram: np.ndarray,
    gamma_hat: float,
    factor: float = DEFAULT_SUPPRESSION_FACTOR,
) -> np.ndarray:
    """Boolean mask of poison buckets to suppress (True = force to zero).

    A bucket is suppressed when its reconstructed mass is below
    ``factor * gamma_hat / n_poison_buckets``.  When every bucket would be
    suppressed (e.g. ``gamma_hat`` is 0), nothing is suppressed so the
    downstream EM stays well defined.
    """
    check_positive(factor, "factor")
    poison_histogram = np.asarray(poison_histogram, dtype=float)
    n_buckets = poison_histogram.size
    if n_buckets == 0:
        return np.zeros(0, dtype=bool)
    threshold = factor * gamma_hat / n_buckets
    mask = poison_histogram < threshold
    if mask.all():
        return np.zeros(n_buckets, dtype=bool)
    return mask


def run_cemf_star(
    transform: TransformMatrix,
    emf_result: EMFResult,
    gamma_hat: float | None = None,
    reports: np.ndarray | None = None,
    counts: np.ndarray | None = None,
    epsilon: float | None = None,
    tol: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    suppression_factor: float = DEFAULT_SUPPRESSION_FACTOR,
    initial: np.ndarray | None = None,
) -> EMFResult:
    """Run CEMF*: suppress weak poison buckets, then rerun EMF*.

    Parameters
    ----------
    transform:
        Transform matrix for the group being post-processed.
    emf_result:
        A prior EMF (or EMF*) result on the *same* transform — its poison
        histogram decides which buckets are suppressed.
    gamma_hat:
        Byzantine proportion to constrain to; defaults to the proportion
        carried by ``emf_result``.
    reports, counts, epsilon, tol, max_iter, initial:
        Same as :func:`repro.core.emf_star.run_emf_star`.
    suppression_factor:
        Multiplier on the uniform per-bucket share used as the threshold.
    """
    if emf_result.transform.n_poison_components != transform.n_poison_components:
        raise ValueError(
            "emf_result was computed on a transform with a different number of "
            "poison buckets"
        )
    if gamma_hat is None:
        gamma_hat = emf_result.gamma_hat
    mask = suppression_mask(
        emf_result.poison_histogram, gamma_hat, factor=suppression_factor
    )
    return run_emf_star(
        transform,
        gamma_hat=gamma_hat,
        reports=reports,
        counts=counts,
        epsilon=epsilon,
        tol=tol,
        max_iter=max_iter,
        fixed_zero_poison=mask,
        initial=initial,
    )


__all__ = ["run_cemf_star", "suppression_mask", "DEFAULT_SUPPRESSION_FACTOR"]
