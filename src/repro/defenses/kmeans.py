"""k-means-based defence of Li et al. (Figure 9 comparison).

The defence repeatedly samples random user subsets, computes a mean estimate
per subset, clusters the subset estimates into two clusters with 1-D 2-means,
keeps the larger cluster (assumed to consist of mostly-clean subsets) and
averages its estimates.  Poisoned subsets drag their estimate away from the
clean cluster, so with enough subsets the clean cluster dominates.

The paper samples ``beta * N`` users per subset with up to one million subsets;
the subset count here is configurable (the default keeps experiments fast
while preserving the method's behaviour).
"""

from __future__ import annotations

import numpy as np

from repro.defenses.base import Defense, DefenseResult
from repro.ldp.base import NumericalMechanism
from repro.registry import DEFENSES
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_fraction, check_integer

#: elements per vectorised subset-sampling block (index + gather arrays stay
#: a few MiB regardless of the population size)
SUBSET_BLOCK_ELEMENTS = 1 << 20


def _nearest_center_labels_brute(
    values: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Reference assignment: full ``(n, k)`` distance matrix + ``argmin``."""
    distances = np.abs(values[:, None] - centers[None, :])
    return distances.argmin(axis=1)


def _nearest_center_labels(values: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-centre assignment, bit-identical to the brute-force matrix.

    The defence's configuration, two strictly increasing centres, takes one
    comparison of the same two distances ``argmin`` would compute (strict
    ``<``, so ties pick centre 0) instead of materialising the ``(n, 2)``
    matrix; every other case is the brute-force matrix itself.
    """
    if centers.size == 2 and centers[0] < centers[1]:
        return (
            np.abs(values - centers[1]) < np.abs(values - centers[0])
        ).astype(np.intp)
    return _nearest_center_labels_brute(values, centers)


def kmeans_1d(
    values: np.ndarray,
    n_clusters: int = 2,
    max_iter: int = 100,
    rng: RngLike = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm on one-dimensional data.

    Returns ``(labels, centers)``.  Centres are initialised at evenly spaced
    quantiles, which is deterministic and robust for 1-D data; the ``rng`` is
    only used to break ties when a cluster empties.  Assignment is
    :func:`_nearest_center_labels` (bit-identical to the distance matrix,
    test-enforced), so the defence's two-centre iteration is ``O(n)`` time
    and memory.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("kmeans_1d requires at least one value")
    n_clusters = check_integer(n_clusters, "n_clusters", minimum=1)
    n_clusters = min(n_clusters, values.size)
    rng = ensure_rng(rng)

    quantiles = np.linspace(0.0, 1.0, n_clusters + 2)[1:-1]
    centers = np.quantile(values, quantiles)
    labels = np.zeros(values.size, dtype=int)
    for _ in range(max_iter):
        new_labels = _nearest_center_labels(values, centers)
        new_centers = centers.copy()
        for cluster in range(n_clusters):
            members = values[new_labels == cluster]
            if members.size:
                new_centers[cluster] = members.mean()
            else:
                # re-seed an empty cluster at a random value
                new_centers[cluster] = values[rng.integers(0, values.size)]
        if np.array_equal(new_labels, labels) and np.allclose(new_centers, centers):
            labels, centers = new_labels, new_centers
            break
        labels, centers = new_labels, new_centers
    return labels, centers


@DEFENSES.register("K-means", aliases=("kmeans",))
class KMeansDefense(Defense):
    """Subset-sampling + 2-means defence.

    Parameters
    ----------
    sampling_rate:
        Fraction ``beta`` of users drawn into each subset.
    n_subsets:
        Number of random subsets (the paper uses up to 10^6; the default of
        200 keeps the behaviour while staying laptop-friendly).
    """

    name = "K-means"

    def __init__(self, sampling_rate: float = 0.1, n_subsets: int = 200) -> None:
        self.sampling_rate = check_fraction(sampling_rate, "sampling_rate", inclusive=False)
        self.n_subsets = check_integer(n_subsets, "n_subsets", minimum=2)

    def estimate_mean(
        self,
        reports: np.ndarray,
        mechanism: NumericalMechanism,
        rng: RngLike = None,
    ) -> DefenseResult:
        reports = self._validate_reports(reports)
        rng = ensure_rng(rng)
        n = reports.size
        subset_size = max(1, int(round(n * self.sampling_rate)))

        # Subsets are drawn and averaged in 2-D blocks: a (rows, subset_size)
        # integer draw consumes the bit stream exactly like successive 1-D
        # draws (row-major fill), and a row-wise mean reduces each contiguous
        # row like the historical per-subset mean — bit-identical results,
        # one vectorised gather instead of n_subsets Python iterations, and
        # peak memory bounded by the block size however large the
        # population-scaled subsets get.
        subset_means = np.empty(self.n_subsets)
        rows = max(1, SUBSET_BLOCK_ELEMENTS // subset_size)
        for start in range(0, self.n_subsets, rows):
            stop = min(start + rows, self.n_subsets)
            idx = rng.integers(0, n, size=(stop - start, subset_size))
            subset_means[start:stop] = reports[idx].mean(axis=1)

        labels, centers = kmeans_1d(subset_means, n_clusters=2, rng=rng)
        counts = np.bincount(labels, minlength=2)
        majority = int(np.argmax(counts))
        estimate = float(subset_means[labels == majority].mean())
        low, high = mechanism.input_domain
        estimate = float(np.clip(estimate, low, high))
        return DefenseResult(
            estimate=estimate,
            kept_mask=None,
            metadata={
                "subset_size": subset_size,
                "n_subsets": self.n_subsets,
                "cluster_centers": centers.tolist(),
                "majority_cluster_share": float(counts[majority] / self.n_subsets),
            },
        )


__all__ = ["KMeansDefense", "kmeans_1d"]
