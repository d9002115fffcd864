"""The EMF transform matrix ``M`` (Figure 2 of the paper).

In the paper, ``M`` is a ``d' x (d + n_poison)`` matrix whose rows index
output (perturbed value) buckets and whose columns index latent components:

* the first ``d`` columns describe **normal users**: column ``k`` holds
  ``Pr[report in output bucket i | input in original bucket k]``, computed
  from the mechanism's analytic transition probabilities evaluated at the
  bucket centre;
* the remaining ``n_poison`` columns describe **poison values**: Byzantine
  users submit their chosen value directly, so column ``j`` is the indicator
  of the output bucket hosting that poison bucket (``M[i, y_j] = 1`` iff
  ``i`` is the j-th poison bucket).

The poison half is fully described by its list of output rows, so it is
stored as exactly that: a :class:`TransformMatrix` holds the ``d' x d``
normal block plus ``poison_bucket_indices``, and the EM solvers in
:mod:`repro.ldp.ems` take the pair (``tail_rows``).  Only that module
builds the stacked matrix: for problems too small to gain from split
products, and for the certified accelerated straggler finisher.

Poison buckets are the output buckets lying on the *poisoned side* of the
reference mean ``O'`` (right side by default), matching footnote 5: when
``O' != 0`` the poisoned side simply receives proportionally more or fewer
output buckets.

The default bucket counts follow Section VI-A: ``d' = floor(sqrt(N))`` output
buckets and ``d = floor(d' * (e^{eps/2} - 1) / (e^{eps/2} + 1))`` input
buckets (at least 2 of each).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Tuple

import numpy as np

from repro.utils.discretization import BucketGrid
from repro.utils.transform_cache import cached_matrix, mechanism_cache_key
from repro.utils.validation import check_integer


class _SupportsTransitionMatrix(Protocol):
    """Any mechanism exposing analytic interval transition probabilities."""

    input_domain: Tuple[float, float]

    @property
    def output_domain(self) -> Tuple[float, float]: ...  # pragma: no cover

    def interval_probability_matrix(
        self, values: np.ndarray, edges: np.ndarray
    ) -> np.ndarray: ...  # pragma: no cover


MIN_INPUT_BUCKETS = 8
MIN_OUTPUT_BUCKETS = 16


def default_bucket_counts(n_reports: int, epsilon: float) -> tuple[int, int]:
    """Paper defaults ``(d, d')`` for ``n_reports`` collected values.

    ``d' = floor(sqrt(N))`` and ``d = floor(d' (e^{eps/2}-1)/(e^{eps/2}+1))``.
    The paper's populations are around one million users, for which these
    formulas give comfortable resolutions (``d' = 1000``, ``d >= 15`` even at
    ``eps = 1/16``); at the smaller scales this library also supports, the raw
    formulas can collapse to one or two input buckets and make the
    poisoned-side variance comparison meaningless, so both counts are clamped
    to sane minima (``d >= 8``, ``d' >= 16``).
    """
    check_integer(n_reports, "n_reports", minimum=1)
    d_out = max(MIN_OUTPUT_BUCKETS, int(math.floor(math.sqrt(n_reports))))
    half = math.exp(epsilon / 2.0)
    d_in = int(math.floor(d_out * (half - 1.0) / (half + 1.0)))
    d_in = max(MIN_INPUT_BUCKETS, d_in)
    return d_in, d_out


@dataclass(frozen=True)
class TransformMatrix:
    """The transform matrix, stored as its normal block plus poison rows.

    Attributes
    ----------
    normal_block:
        ``(d', d)`` array: the first ``d`` columns of ``M``.
    input_grid:
        Grid over the original value domain (``d`` buckets).
    output_grid:
        Grid over the perturbed value domain (``d'`` buckets).
    poison_bucket_indices:
        Output-bucket index of each poison column (length ``n_poison``):
        column ``d + j`` of ``M`` is one at row ``poison_bucket_indices[j]``
        and zero elsewhere.
    side:
        Which side of ``reference_mean`` hosts the poison buckets.
    reference_mean:
        The ``O'`` used to split the output domain.
    poison_domain:
        Support the poison values are known to lie in, when the trust model
        bounds the adversary (the shuffle protocol's ladder-wide domain
        intersection); ``None`` means the whole poisoned side (the classical
        local-model assumption).
    poison_values:
        The value ``nu_j`` each poison column represents; defaults to the
        poison buckets' centres, clipped into ``poison_domain`` when one is
        set (a wide group's coarse buckets can dwarf a narrow known support).
    """

    normal_block: np.ndarray
    input_grid: BucketGrid
    output_grid: BucketGrid
    poison_bucket_indices: np.ndarray
    side: str
    reference_mean: float
    poison_domain: Tuple[float, float] | None = None
    poison_values: np.ndarray | None = None

    # ------------------------------------------------------------------
    # shapes
    # ------------------------------------------------------------------
    @property
    def n_normal_components(self) -> int:
        """Number of normal-user columns ``d``."""
        return self.input_grid.n_buckets

    @property
    def n_poison_components(self) -> int:
        """Number of poison columns."""
        return int(self.poison_bucket_indices.size)

    @property
    def n_components(self) -> int:
        """Total number of latent components ``d + n_poison``."""
        return self.n_normal_components + self.n_poison_components

    @property
    def poison_bucket_centers(self) -> np.ndarray:
        """The value each poison column represents (the paper's ``nu_j``).

        Bucket centres in the local model; centres clipped into the known
        poison support when the trust model provides one.
        """
        if self.poison_values is not None:
            return self.poison_values
        return self.output_grid.centers[self.poison_bucket_indices]

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def split_weights(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split a latent weight vector into ``(normal, poison)`` parts."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.n_components,):
            raise ValueError(
                f"weights must have length {self.n_components}, got {weights.shape}"
            )
        d = self.n_normal_components
        return weights[:d].copy(), weights[d:].copy()

    def output_counts(self, reports: np.ndarray) -> np.ndarray:
        """Histogram counts of perturbed reports on the output grid."""
        return self.output_grid.counts(np.asarray(reports, dtype=float))


def build_transform_matrix(
    mechanism: _SupportsTransitionMatrix,
    n_input_buckets: int,
    n_output_buckets: int,
    side: str = "right",
    reference_mean: float | None = None,
    poison_domain: Tuple[float, float] | None = None,
    use_cache: bool = False,
) -> TransformMatrix:
    """Build the transform matrix ``M`` for a mechanism.

    Only the ``d' x d`` normal block is allocated; the poison columns are
    returned as their output rows (``poison_bucket_indices``).

    Parameters
    ----------
    mechanism:
        A numerical mechanism exposing ``interval_probability_matrix`` (PM and
        SW both do).
    n_input_buckets, n_output_buckets:
        The paper's ``d`` and ``d'``.
    side:
        ``"right"`` or ``"left"`` — which side of ``reference_mean`` hosts the
        poison buckets (Algorithm 3 probes both).
    reference_mean:
        The pessimistic mean ``O'`` splitting the output domain; defaults to
        the centre of the output domain (0 for PM, 0.5 for SW), matching the
        paper's simplification ``O' = 0``.
    poison_domain:
        When the trust model bounds the adversary's values (the shuffle
        protocol restricts poison to the budget ladder's output-domain
        intersection), only output buckets overlapping this interval host
        poison columns, and each column's ``nu_j`` is the bucket centre
        clipped into the interval.  ``None`` (the local model) keeps the
        classical whole-side support — bit-identical to the historical
        transform.
    use_cache:
        Serve the normal block from the process-local transform cache.  The
        block depends only on ``(mechanism type, epsilon, d, d')``, so sweeps
        that rebuild the same matrix per trial hit the cache after the first
        build; every call shares the cache's one read-only block.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    check_integer(n_input_buckets, "n_input_buckets", minimum=1)
    check_integer(n_output_buckets, "n_output_buckets", minimum=2)

    in_low, in_high = mechanism.input_domain
    out_low, out_high = mechanism.output_domain
    if reference_mean is None:
        reference_mean = 0.5 * (out_low + out_high)
    if not out_low < reference_mean < out_high:
        raise ValueError(
            f"reference_mean {reference_mean} must lie strictly inside the output "
            f"domain [{out_low}, {out_high}]"
        )

    input_grid = BucketGrid(in_low, in_high, n_input_buckets)
    output_grid = BucketGrid(out_low, out_high, n_output_buckets)

    if use_cache:
        key = mechanism_cache_key(mechanism) + (
            "normal_block", n_input_buckets, n_output_buckets
        )
        normal_block = cached_matrix(
            key,
            lambda: mechanism.interval_probability_matrix(
                input_grid.centers, output_grid.edges
            ),
        )
    else:
        normal_block = mechanism.interval_probability_matrix(
            input_grid.centers, output_grid.edges
        )

    centers = output_grid.centers
    if side == "right":
        poison_indices = np.flatnonzero(centers >= reference_mean)
    else:
        poison_indices = np.flatnonzero(centers <= reference_mean)
    poison_values: np.ndarray | None = None
    if poison_domain is not None:
        domain_low, domain_high = float(poison_domain[0]), float(poison_domain[1])
        if domain_low > domain_high:
            raise ValueError(
                f"poison_domain low must not exceed high, got {poison_domain}"
            )
        # keep buckets *overlapping* the known support (a wide group's coarse
        # buckets can be broader than the whole support), then pin each
        # column's value inside it
        edges = output_grid.edges
        overlaps = (edges[poison_indices] < domain_high) & (
            edges[poison_indices + 1] > domain_low
        )
        poison_indices = poison_indices[overlaps]
        poison_values = np.clip(centers[poison_indices], domain_low, domain_high)
    if poison_indices.size == 0:
        raise ValueError(
            "no output buckets fall on the requested poisoned side; increase "
            "n_output_buckets or adjust reference_mean / poison_domain"
        )

    return TransformMatrix(
        normal_block=normal_block,
        input_grid=input_grid,
        output_grid=output_grid,
        poison_bucket_indices=poison_indices,
        side=side,
        reference_mean=float(reference_mean),
        poison_domain=(
            None
            if poison_domain is None
            else (float(poison_domain[0]), float(poison_domain[1]))
        ),
        poison_values=poison_values,
    )


def cached_transform_matrix(
    mechanism: _SupportsTransitionMatrix,
    n_input_buckets: int,
    n_output_buckets: int,
    side: str = "right",
    reference_mean: float | None = None,
    poison_domain: Tuple[float, float] | None = None,
) -> TransformMatrix:
    """:func:`build_transform_matrix` backed by the process-local cache.

    Numerically identical to an uncached build; the expensive normal block
    (the mechanism's interval-probability matrix over the grids) is computed
    once per ``(mechanism type, epsilon, d, d')`` per process — the poison
    rows are recomputed per call, so ``poison_domain`` needs no cache key.
    The returned ``TransformMatrix``'s normal block is the cache's read-only
    array, shared by every transform over the same grids (both probe sides
    included); its poison rows are its own.
    """
    return build_transform_matrix(
        mechanism,
        n_input_buckets=n_input_buckets,
        n_output_buckets=n_output_buckets,
        side=side,
        reference_mean=reference_mean,
        poison_domain=poison_domain,
        use_cache=True,
    )


__all__ = [
    "TransformMatrix",
    "build_transform_matrix",
    "cached_transform_matrix",
    "default_bucket_counts",
]
