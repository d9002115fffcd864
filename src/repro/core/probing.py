"""Poisoned-side probing (Algorithm 3).

The collector does not know whether the attack pushes the mean up (right) or
down (left).  Algorithm 3 settles it by running EMF twice — once with poison
buckets on the right half of the output domain (``M_R``) and once on the left
(``M_L``) — and picking the side whose reconstructed *normal-user* histogram
``x_hat`` has the smaller variance.  Theorem 3 explains why: with the correct
side, ``x_hat`` converges towards the (near-uniform) perturbed normal
distribution; with the wrong side, all poison mass is forced into ``x_hat``
and skews it heavily.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.core.emf import DEFAULT_MAX_ITER, EMFResult, run_emf, warm_start_weights
from repro.core.transform import TransformMatrix, cached_transform_matrix


@dataclass
class SideProbeResult:
    """Outcome of the poisoned-side probing.

    Attributes
    ----------
    side:
        ``"left"`` or ``"right"`` — the side Algorithm 3 selects.
    variance_left, variance_right:
        Variance of the reconstructed normal histogram under each hypothesis
        (Table I reports exactly these numbers).
    emf_left, emf_right:
        The full EMF results for each hypothesis, so callers can reuse the
        winning reconstruction without re-running EM.
    """

    side: str
    variance_left: float
    variance_right: float
    emf_left: EMFResult
    emf_right: EMFResult

    @property
    def selected(self) -> EMFResult:
        """EMF result of the selected side."""
        return self.emf_left if self.side == "left" else self.emf_right

    @property
    def selected_transform(self) -> TransformMatrix:
        """Transform matrix of the selected side."""
        return self.selected.transform

    def warm_weights(self) -> Dict[str, np.ndarray]:
        """Per-side converged weight vectors, keyed ``"left"``/``"right"``.

        Exactly the ``warm_start`` mapping a later :func:`probe_poisoned_side`
        call over the same grids accepts — the windowed service feeds window
        ``w``'s probe with window ``w-1``'s converged weights.
        """
        return {"left": self.emf_left.weights, "right": self.emf_right.weights}


def probe_poisoned_side(
    mechanism,
    reports: np.ndarray | None,
    n_input_buckets: int,
    n_output_buckets: int,
    reference_mean: float | None = None,
    epsilon: float | None = None,
    tol: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    counts: np.ndarray | None = None,
    warm_start: Mapping[str, np.ndarray] | None = None,
    poison_domain: tuple[float, float] | None = None,
) -> SideProbeResult:
    """Run Algorithm 3 and return the side decision plus both EMF runs.

    Parameters
    ----------
    mechanism:
        The numerical mechanism the normal users applied (PM or SW).
    reports:
        All collected reports (normal + poison, indistinguishable).
        Mutually exclusive with ``counts``.
    n_input_buckets, n_output_buckets:
        Grid resolutions ``d`` and ``d'``.
    reference_mean:
        The pessimistic mean ``O'`` splitting the output domain (defaults to
        the domain centre).
    epsilon, tol, max_iter:
        EM convergence controls forwarded to :func:`repro.core.emf.run_emf`.
    counts:
        Pre-computed output-bucket counts (length ``n_output_buckets``), e.g.
        from a streaming :class:`~repro.collect.HistogramAccumulator`.  Both
        side hypotheses share the same output grid, so one histogram is the
        complete sufficient statistic of the probe.
    warm_start:
        Optional per-side initial weight vectors (a previous
        :meth:`SideProbeResult.warm_weights` mapping), which is what makes
        steady-state incremental probing cheap.  Missing sides cold-start;
        each vector goes through :func:`repro.core.emf.warm_start_weights`,
        so one of the wrong length (a stale checkpoint built over different
        grids), or with a non-finite or negative entry, raises
        ``ValueError``.
    poison_domain:
        Known support of the poison values when the trust model bounds the
        adversary (see :func:`repro.core.transform.build_transform_matrix`);
        ``None`` keeps the classical whole-side hypotheses.
    """
    if (reports is None) == (counts is None):
        raise ValueError("provide exactly one of `reports` or `counts`")
    if counts is not None:
        counts = np.asarray(counts, dtype=float)
        if counts.shape != (n_output_buckets,):
            raise ValueError(
                f"counts must have length n_output_buckets={n_output_buckets}, "
                f"got shape {counts.shape}"
            )
    epsilon = mechanism.epsilon if epsilon is None else epsilon

    transforms = {}
    for side in ("left", "right"):
        transforms[side] = cached_transform_matrix(
            mechanism,
            n_input_buckets=n_input_buckets,
            n_output_buckets=n_output_buckets,
            side=side,
            reference_mean=reference_mean,
            poison_domain=poison_domain,
        )
        if counts is None:
            # both sides share the output grid; bucketize once
            counts = transforms[side].output_counts(np.asarray(reports, dtype=float))

    # each side is one EMF solve on the kernel every stage-4 solve runs, so
    # the selected side's result is exactly what stage 4 would compute from
    # the same starting point
    warm_start = warm_start or {}
    emf_left, emf_right = (
        run_emf(
            transforms[side],
            counts=counts,
            epsilon=epsilon,
            tol=tol,
            max_iter=max_iter,
            initial=warm_start_weights(
                warm_start.get(side), transforms[side], f"probe side {side!r}"
            ),
        )
        for side in ("left", "right")
    )
    variance_left = emf_left.normal_histogram_variance
    variance_right = emf_right.normal_histogram_variance
    side = "left" if variance_left < variance_right else "right"
    return SideProbeResult(
        side=side,
        variance_left=variance_left,
        variance_right=variance_right,
        emf_left=emf_left,
        emf_right=emf_right,
    )


__all__ = ["SideProbeResult", "probe_poisoned_side"]
