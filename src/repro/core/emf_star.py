"""EMF with restrictions — EMF* (Algorithm 4, Theorem 4).

EMF* is a *post-processing* of EMF: it reuses the proportion of Byzantine
users ``gamma_hat`` probed by a previous (small-epsilon) EMF run and imposes

``sum(x_hat) = 1 - gamma_hat`` and ``sum(y_hat) = gamma_hat``

as hard constraints in every M-step.  Theorem 4 shows the constrained
maximiser simply renormalises the normal-user block and the poison block
separately:

``x_k = (1 - gamma) * P_xk / sum(P_x)``,  ``y_j = gamma * P_yj / sum(P_y)``.

The constraint removes infeasible poison reconstructions and noticeably
improves the poison-value histogram when the group's own epsilon is large.
"""

from __future__ import annotations

import numpy as np

from repro.core.emf import DEFAULT_MAX_ITER, EMFResult, default_tolerance
from repro.core.transform import TransformMatrix
from repro.ldp.ems import em_reconstruct


def run_emf_star(
    transform: TransformMatrix,
    gamma_hat: float,
    reports: np.ndarray | None = None,
    counts: np.ndarray | None = None,
    epsilon: float | None = None,
    tol: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    fixed_zero_poison: np.ndarray | None = None,
    initial: np.ndarray | None = None,
) -> EMFResult:
    """Run EMF* (Algorithm 4).

    Parameters
    ----------
    transform:
        Transform matrix for the group being post-processed.
    gamma_hat:
        The Byzantine proportion probed by a prior EMF run (typically from the
        smallest-epsilon group, where Theorem 3 makes it most accurate).
    reports, counts:
        Collected values or pre-computed output-bucket counts (exactly one).
    fixed_zero_poison:
        Optional boolean mask over the *poison* columns forcing them to zero —
        this is how CEMF* reuses this routine after bucket suppression.
    initial:
        Optional warm-start weights, as in :func:`repro.core.emf.run_emf`;
        pinned components are zeroed and the rest renormalised before the
        first iteration.
    """
    if (reports is None) == (counts is None):
        raise ValueError("provide exactly one of `reports` or `counts`")
    if counts is None:
        counts = transform.output_counts(reports)
    counts = np.asarray(counts, dtype=float)
    if tol is None:
        tol = default_tolerance(epsilon)

    n_normal = transform.n_normal_components
    fixed_zero = None
    if fixed_zero_poison is not None:
        fixed_zero_poison = np.asarray(fixed_zero_poison, dtype=bool)
        if fixed_zero_poison.shape != (transform.n_poison_components,):
            raise ValueError(
                "fixed_zero_poison must have one entry per poison column, got "
                f"{fixed_zero_poison.shape}"
            )
        fixed_zero = np.concatenate(
            [np.zeros(n_normal, dtype=bool), fixed_zero_poison]
        )

    result = em_reconstruct(
        transform.normal_block,
        counts,
        initial=initial,
        max_iter=max_iter,
        tol=tol,
        poison_mass=(gamma_hat, n_normal),
        fixed_zero=fixed_zero,
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


__all__ = ["run_emf_star"]
