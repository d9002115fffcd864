"""Byzantine feature estimation (Section IV-C).

Bundles the three features the collector needs:

1. the **poisoned side** (Algorithm 3);
2. the **proportion of Byzantine users** ``gamma_hat = sum(y_hat)``
   (Equation 9);
3. the **poison-value histogram** ``y_hat`` (and its mean ``M_alpha``,
   Equation 11).

``estimate_byzantine_features`` runs the whole pipeline on one batch of
reports; the DAP protocol calls it per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.emf import EMFResult
from repro.core.probing import SideProbeResult, probe_poisoned_side
from repro.core.transform import default_bucket_counts


@dataclass
class ByzantineFeatures:
    """The probed features of the colluding attackers.

    Attributes
    ----------
    gamma_hat:
        Estimated fraction of reports that are poison.
    side:
        Estimated poisoned side (``"left"`` or ``"right"``).
    poison_histogram:
        Reconstructed poison-value histogram over the poison buckets.
    poison_bucket_centers:
        Output-domain centre of each poison bucket.
    poison_mean:
        Mean of the reconstructed poison values (Equation 11's ``M_alpha``).
    probe:
        The underlying side-probe result (contains both EMF runs).
    """

    gamma_hat: float
    side: str
    poison_histogram: np.ndarray
    poison_bucket_centers: np.ndarray
    poison_mean: float
    probe: SideProbeResult

    @property
    def emf(self) -> EMFResult:
        """The EMF result of the selected side."""
        return self.probe.selected

    def estimated_byzantine_count(self, n_reports: int) -> float:
        """``m_hat = gamma_hat * N`` for a batch of ``n_reports`` reports."""
        return self.gamma_hat * float(n_reports)


def estimate_byzantine_features(
    mechanism,
    reports: np.ndarray | None = None,
    n_input_buckets: int | None = None,
    n_output_buckets: int | None = None,
    reference_mean: float | None = None,
    epsilon: float | None = None,
    tol: float | None = None,
    counts: np.ndarray | None = None,
    n_reports: int | None = None,
    warm_start: Mapping[str, np.ndarray] | None = None,
    poison_domain: tuple[float, float] | None = None,
) -> ByzantineFeatures:
    """Probe the Byzantine features from one batch of reports.

    Bucket counts default to the paper's ``d' = floor(sqrt(N))`` and
    ``d = floor(d' (e^{eps/2}-1)/(e^{eps/2}+1))``.

    The batch may be given either as raw ``reports`` or as streaming
    sufficient statistics: output-grid ``counts`` (length
    ``n_output_buckets``, which is then required) plus ``n_reports`` (used
    for the default bucket formulas; defaults to ``counts.sum()``).

    ``warm_start`` optionally seeds both side EMs from a previous probe's
    converged weights, and ``poison_domain`` restricts the poison-column
    support when the trust model bounds the adversary's values (see
    :func:`repro.core.probing.probe_poisoned_side`).
    """
    if (reports is None) == (counts is None):
        raise ValueError("provide exactly one of `reports` or `counts`")
    epsilon = mechanism.epsilon if epsilon is None else epsilon
    if counts is not None:
        counts = np.asarray(counts, dtype=float)
        if n_output_buckets is None:
            raise ValueError("n_output_buckets is required with pre-computed counts")
        if n_reports is None:
            n_reports = int(counts.sum())
    else:
        reports = np.asarray(reports, dtype=float)
        n_reports = reports.size
    if n_output_buckets is None or n_input_buckets is None:
        d_in, d_out = default_bucket_counts(max(1, n_reports), epsilon)
        n_input_buckets = n_input_buckets or d_in
        n_output_buckets = n_output_buckets or d_out

    probe = probe_poisoned_side(
        mechanism,
        reports,
        n_input_buckets=n_input_buckets,
        n_output_buckets=n_output_buckets,
        reference_mean=reference_mean,
        epsilon=epsilon,
        tol=tol,
        counts=counts,
        warm_start=warm_start,
        poison_domain=poison_domain,
    )
    emf = probe.selected
    return ByzantineFeatures(
        gamma_hat=emf.gamma_hat,
        side=probe.side,
        poison_histogram=emf.poison_histogram.copy(),
        poison_bucket_centers=emf.transform.poison_bucket_centers.copy(),
        poison_mean=emf.poison_mean,
        probe=probe,
    )


__all__ = ["ByzantineFeatures", "estimate_byzantine_features"]
