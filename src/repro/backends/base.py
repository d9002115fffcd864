"""The bit-stable numpy reference backend.

:class:`ArrayBackend` is both the kernel interface and its reference
implementation: every method body here is the historical (seed) numpy
implementation of that kernel, moved verbatim from the mechanism /
accumulator modules so the dispatch seam cannot change a single draw or a
single rounding.  The equivalence tests in ``tests/test_backends.py`` pin
this backend bit-for-bit against frozen copies of the seed algorithms.

The subclass :mod:`repro.backends.fast` overrides individual kernels with
faster algorithms that are *statistically* equivalent — same distributions,
different RNG consumption — which is why the backend choice is an execution
detail (like ``collect_workers``) and not part of a run's identity.  The EM
solvers of :mod:`repro.ldp.ems` call numpy directly and are not backend
kernels.

Kernel families:

* **mechanism sampling** — ``pm_sample`` / ``sw_sample`` (numerical),
  ``oue_sample`` / ``olh_sample`` / ``krr_sample`` (categorical);
* **OLH support counting** — ``olh_support`` (tiled over bounded user
  chunks, so the ``(category, user)`` hash grid never materialises);
* **accumulation** — ``histogram_chunk`` / ``category_chunk`` /
  ``sketch_chunk``, the fused assign+bincount of
  :mod:`repro.collect.accumulators`;
* **count-sketch** — ``sketch_sample``, the high-cardinality client kernel
  of :mod:`repro.ldp.count_sketch` (reports are ``(row, bucket)`` pairs, so
  it never materialises the categorical domain; the decode gathers through
  that module's cached cell table and is not a backend kernel).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

#: elements per (category x user) hashing tile in :meth:`ArrayBackend.olh_support`
#: — bounds the transient hash matrix to a few dozen MiB however many users
#: reported
OLH_SUPPORT_TILE_ELEMENTS = 1 << 22


def raise_category_range(reports: np.ndarray, n_categories: int) -> None:
    """Raise the accumulator family's category-range error (shared message)."""
    raise ValueError(
        f"category reports must lie in [0, {n_categories}), got range "
        f"[{reports.min()}, {reports.max()}]"
    )


def raise_sketch_range(reports: np.ndarray, n_rows: int, width: int) -> None:
    """Raise the sketch accumulator's cell-range error (shared message)."""
    rows = reports[:, 0]
    buckets = reports[:, 1]
    raise ValueError(
        f"sketch reports must be (row, bucket) pairs with row in [0, {n_rows}) "
        f"and bucket in [0, {width}), got rows in [{rows.min()}, {rows.max()}] "
        f"and buckets in [{buckets.min()}, {buckets.max()}]"
    )


class ArrayBackend:
    """Reference numpy kernels (bit-identical to the seed implementation)."""

    name = "numpy"

    #: whether a block's reports may be drawn and summed in consecutive
    #: slices ("leaves") without changing a bit: ``pm_sample`` / ``sw_sample``
    #: take exactly one uniform per report, in report order, and
    #: ``histogram_chunk`` pre-reduces with numpy's pairwise ``sum``.  The
    #: reference samplers draw a band mask first and fill it in a second
    #: pass, so they need the whole block at once.
    streams_leaves = False

    # ------------------------------------------------------------------
    # numerical mechanism sampling
    # ------------------------------------------------------------------
    def pm_sample(
        self,
        values: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        C: float,
        high_prob: float,
        p_high: float,
        p_low: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Piecewise Mechanism sampling: two-pass band/complement draws."""
        n = values.size
        outputs = np.empty(n, dtype=float)
        in_band = rng.random(n) < high_prob

        # high-probability band: uniform on [l(v), r(v)]
        n_in = int(in_band.sum())
        if n_in:
            u = rng.random(n_in)
            outputs[in_band] = left[in_band] + u * (right[in_band] - left[in_band])

        # low-probability region: uniform on [-C, l(v)) U (r(v), C]
        out_band = ~in_band
        n_out = int(out_band.sum())
        if n_out:
            l_out = left[out_band]
            r_out = right[out_band]
            left_len = l_out + C               # length of [-C, l(v))
            right_len = C - r_out              # length of (r(v), C]
            total_len = left_len + right_len
            u = rng.random(n_out) * total_len
            take_left = u < left_len
            sample = np.where(take_left, -C + u, r_out + (u - left_len))
            outputs[out_band] = sample
        return outputs

    def sw_sample(
        self,
        values: np.ndarray,
        b: float,
        p_high: float,
        p_low: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Square Wave sampling: two-pass window/complement draws."""
        n = values.size
        out = np.empty(n, dtype=float)

        window_mass = 2.0 * b * p_high
        in_window = rng.random(n) < window_mass

        n_in = int(in_window.sum())
        if n_in:
            out[in_window] = values[in_window] + rng.uniform(-b, b, size=n_in)

        out_window = ~in_window
        n_out = int(out_window.sum())
        if n_out:
            v = values[out_window]
            left_len = (v - b) - (-b)          # = v
            right_len = (1.0 + b) - (v + b)    # = 1 - v
            total_len = left_len + right_len
            u = rng.random(n_out) * total_len
            take_left = u < left_len
            sample = np.where(take_left, -b + u, v + b + (u - left_len))
            out[out_window] = sample
        return out

    # ------------------------------------------------------------------
    # categorical mechanism sampling
    # ------------------------------------------------------------------
    def oue_sample(
        self,
        categories: np.ndarray,
        n_categories: int,
        p: float,
        q: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """OUE sampling: dense ``(n, k)`` Bernoulli matrix plus 1-bit overwrite."""
        n = categories.size
        bits = rng.random((n, n_categories)) < q
        keep_one = rng.random(n) < p
        bits[np.arange(n), categories] = keep_one
        return bits.astype(np.int8)

    def olh_sample(
        self,
        categories: np.ndarray,
        domain: int,
        p: float,
        hash_fn: Callable[[np.ndarray, np.ndarray, int], np.ndarray],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """OLH sampling: per-user seed, hash, then k-RR over the hashed domain."""
        n = categories.size
        seeds = rng.integers(0, 2**32 - 1, size=n, dtype=np.uint64)
        hashed = hash_fn(categories, seeds, domain)
        keep = rng.random(n) < p
        random_other = rng.integers(0, domain - 1, size=n)
        random_other = np.where(random_other >= hashed, random_other + 1, random_other)
        reports = np.where(keep, hashed, random_other)
        return np.column_stack([seeds.astype(np.int64), reports.astype(np.int64)])

    def krr_sample(
        self,
        categories: np.ndarray,
        n_categories: int,
        p: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """k-RR sampling: keep with probability ``p``, else a uniform other."""
        n = categories.size
        keep = rng.random(n) < p
        # when flipping, draw uniformly among the other k-1 categories
        random_other = rng.integers(0, n_categories - 1, size=n)
        random_other = np.where(
            random_other >= categories, random_other + 1, random_other
        )
        return np.where(keep, categories, random_other)

    # ------------------------------------------------------------------
    # OLH support counting
    # ------------------------------------------------------------------
    def olh_support(
        self,
        seeds: np.ndarray,
        observed: np.ndarray,
        n_categories: int,
        domain: int,
        hash_fn: Callable[[np.ndarray, np.ndarray, int], np.ndarray],
    ) -> np.ndarray:
        """Per-category support counts, tiled over bounded user chunks.

        Row ``j`` of the conceptual ``(category, user)`` grid holds every
        user's hash of candidate category ``j``; materialising the whole grid
        is O(k*n) memory, so the comparison runs tile by tile over the users
        (:data:`OLH_SUPPORT_TILE_ELEMENTS` elements per tile).  Counts are
        integers, so the tiled total is identical to the one-shot broadcast
        whatever the tile size.
        """
        categories = np.arange(n_categories, dtype=np.int64)[:, np.newaxis]
        tile = max(1, OLH_SUPPORT_TILE_ELEMENTS // max(1, n_categories))
        support = np.zeros(n_categories, dtype=np.int64)
        for start in range(0, seeds.size, tile):
            seed_tile = seeds[start : start + tile][np.newaxis, :]
            hashed = hash_fn(categories, seed_tile, domain)
            support += np.count_nonzero(
                hashed == observed[np.newaxis, start : start + tile], axis=1
            )
        return support

    # ------------------------------------------------------------------
    # accumulation
    # ------------------------------------------------------------------
    def histogram_chunk(self, values: np.ndarray, grid) -> Tuple[np.ndarray, Optional[float]]:
        """One chunk's histogram counts plus an optional chunk sum.

        Returns ``(counts, chunk_sum)``.  ``chunk_sum is None`` instructs the
        accumulator to feed the raw values to its :class:`ExactSum` (the
        chunking-invariant fsum path — the reference behaviour); a float
        instructs it to fold that pre-reduced chunk sum instead (what the
        fast backends return).  The caller has already validated finiteness;
        the reference path re-validates inside ``grid.assign`` exactly as the
        seed implementation did.
        """
        idx = grid.assign(values)
        return np.bincount(idx, minlength=grid.n_buckets), None

    def category_chunk(self, reports: np.ndarray, n_categories: int) -> np.ndarray:
        """One chunk's category counts (validates the report range)."""
        if reports.min() < 0 or reports.max() >= n_categories:
            raise_category_range(reports, n_categories)
        return np.bincount(reports, minlength=n_categories)

    def sketch_chunk(self, reports: np.ndarray, n_rows: int, width: int) -> np.ndarray:
        """One chunk's ``(n_rows, width)`` sketch counts from (row, bucket) pairs."""
        rows = reports[:, 0]
        buckets = reports[:, 1]
        if (
            rows.min() < 0
            or rows.max() >= n_rows
            or buckets.min() < 0
            or buckets.max() >= width
        ):
            raise_sketch_range(reports, n_rows, width)
        flat = np.bincount(rows * width + buckets, minlength=n_rows * width)
        return flat.reshape(n_rows, width)

    # ------------------------------------------------------------------
    # count-sketch
    # ------------------------------------------------------------------
    def sketch_sample(
        self,
        categories: np.ndarray,
        n_rows: int,
        width: int,
        p: float,
        hash_fn: Callable[[np.ndarray, np.ndarray, int], np.ndarray],
        row_seeds: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Count-sketch sampling: uniform row, hash into ``width``, w-ary k-RR.

        Each user picks one of the ``n_rows`` hash rows uniformly, hashes its
        category into that row's ``width`` buckets, and reports the bucket
        through k-RR over the bucket domain (keep with probability ``p``, else
        uniform among the other ``width - 1`` buckets).  Reports are ``(row,
        bucket)`` int64 pairs — O(1) per user regardless of the category
        count.
        """
        n = categories.size
        rows = rng.integers(0, n_rows, size=n)
        hashed = hash_fn(categories, row_seeds[rows], width)
        keep = rng.random(n) < p
        random_other = rng.integers(0, width - 1, size=n)
        random_other = np.where(random_other >= hashed, random_other + 1, random_other)
        buckets = np.where(keep, hashed, random_other)
        return np.column_stack([rows.astype(np.int64), buckets.astype(np.int64)])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


__all__ = [
    "ArrayBackend",
    "OLH_SUPPORT_TILE_ELEMENTS",
    "raise_category_range",
    "raise_sketch_range",
]
