"""Shared utilities: RNG handling, validation, discretisation and histograms.

These helpers are intentionally small and dependency-free (NumPy only); every
other subpackage builds on them.
"""

from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_fraction,
    check_in_interval,
    check_positive,
    check_probability_vector,
)
from repro.utils.discretization import BucketGrid, bucketize, bucket_centers
from repro.utils.histogram import (
    histogram_counts,
    normalize_histogram,
    histogram_mean,
    histogram_variance,
)

__all__ = [
    "ensure_rng",
    "check_fraction",
    "check_in_interval",
    "check_positive",
    "check_probability_vector",
    "BucketGrid",
    "bucketize",
    "bucket_centers",
    "histogram_counts",
    "normalize_histogram",
    "histogram_mean",
    "histogram_variance",
]
