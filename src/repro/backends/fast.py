"""Single-pass numpy kernels: statistically equivalent, not bit-identical.

The reference kernels in :mod:`repro.backends.base` mirror the seed
implementation draw for draw, which costs them extra RNG passes and fancy
indexing (PM/SW sample a band mask first and then fill the two regions with
separate draws; OUE materialises a dense ``(n, k)`` float matrix just to
threshold it).  :class:`FastBackend` replaces each sampler with an
algebraically derived single-pass form over **one** uniform draw per report:

* **PM / SW** — inverse-CDF sampling.  The output density is piecewise
  constant (low / high / low), so the CDF is piecewise linear and inverts in
  closed form; one uniform ``u`` selects the region *and* the position in it.
* **OUE** — sparse flipped-bit sampling.  Column ``j`` of the report matrix
  is iid Bernoulli(q) (before the true-bit overwrite), so its number of ones
  is Binomial(n, q) and, given the count, the positions are a uniform sample
  without replacement.  Drawing ``(count, positions)`` per column touches
  O(q·n·k) cells instead of thresholding ``n*k`` doubles.
* **OLH / k-RR** — the keep-or-other decision and the "other" choice reuse
  the same uniform: conditioned on ``u >= p``, ``(u - p) / (1 - p)`` is
  again uniform on ``[0, 1)``.
* **histogram / category accumulation** — skip the redundant re-validation
  pass and replace the exact fsum feed with a pre-reduced ``values.sum()``
  per chunk (the accumulator folds it as a scalar).

Every kernel here draws *different* random numbers from the same generator
state than the reference does, so runs under this backend are statistically
equivalent but not bit-identical — exactly why ``backend`` is an execution
detail and not part of a run's fingerprint.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.backends.base import ArrayBackend, raise_category_range, raise_sketch_range

#: below this many (user x category) cells the dense OUE sampler wins — the
#: per-column python loop of the sparse sampler only pays off at scale
OUE_SPARSE_MIN_CELLS = 1 << 16


class FastBackend(ArrayBackend):
    """Pure-numpy single-pass kernels (no extra dependencies)."""

    name = "fast"
    streams_leaves = True

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
        # CDF: mass (left + C) * p_low below the band, high_prob inside it,
        # the remainder above — each piece linear, so invert directly.
        u = rng.random(values.size)
        below_band = (left + C) * p_low
        out = np.where(
            u < below_band,
            u / p_low - C,
            np.where(
                u < below_band + high_prob,
                left + (u - below_band) / p_high,
                right + (u - below_band - high_prob) / p_low,
            ),
        )
        # the closed-form inverse hits the domain ends exactly in real
        # arithmetic; clip the float rounding so reports stay in [-C, C]
        return np.clip(out, -C, C, out=out)

    def sw_sample(
        self,
        values: np.ndarray,
        b: float,
        p_high: float,
        p_low: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        # CDF over [-b, 1+b]: mass v * p_low below the window [v-b, v+b],
        # 2*b*p_high inside it, the remainder above.
        u = rng.random(values.size)
        below_window = values * p_low
        window_mass = 2.0 * b * p_high
        out = np.where(
            u < below_window,
            u / p_low - b,
            np.where(
                u < below_window + window_mass,
                (values - b) + (u - below_window) / p_high,
                (values + b) + (u - below_window - window_mass) / p_low,
            ),
        )
        return np.clip(out, -b, 1.0 + b, out=out)

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
        n = categories.size
        if n * n_categories < OUE_SPARSE_MIN_CELLS or q > 0.5:
            return super().oue_sample(categories, n_categories, p, q, rng)
        bits = np.zeros((n, n_categories), dtype=np.int8)
        # column j's ones: Binomial(n, q) many, uniformly placed — the
        # distribution of an iid Bernoulli(q) column, drawn sparsely
        flips = rng.binomial(n, q, size=n_categories)
        for column in range(n_categories):
            count = int(flips[column])
            if count:
                bits[rng.choice(n, size=count, replace=False), column] = 1
        keep_one = rng.random(n) < p
        bits[np.arange(n), categories] = keep_one
        return bits

    def olh_sample(
        self,
        categories: np.ndarray,
        domain: int,
        p: float,
        hash_fn: Callable[[np.ndarray, np.ndarray, int], np.ndarray],
        rng: np.random.Generator,
    ) -> np.ndarray:
        n = categories.size
        seeds = rng.integers(0, 2**32 - 1, size=n, dtype=np.uint64)
        hashed = hash_fn(categories, seeds, domain)
        u = rng.random(n)
        keep = u < p
        other = self._uniform_other(u, hashed, domain, p)
        reports = np.where(keep, hashed, other)
        return np.column_stack([seeds.astype(np.int64), reports.astype(np.int64)])

    def krr_sample(
        self,
        categories: np.ndarray,
        n_categories: int,
        p: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        u = rng.random(categories.size)
        keep = u < p
        other = self._uniform_other(u, categories, n_categories, p)
        return np.where(keep, categories, other)

    @staticmethod
    def _uniform_other(
        u: np.ndarray, kept: np.ndarray, domain: int, p: float
    ) -> np.ndarray:
        """Uniform category != ``kept`` from the tail of the keep draw.

        Conditioned on ``u >= p``, ``(u - p) / (1 - p)`` is uniform on
        ``[0, 1)`` and independent of the keep decision, so it indexes one of
        the ``domain - 1`` other categories without a second RNG pass.
        Entries with ``u < p`` are garbage, but the caller selects them away.
        """
        other = ((u - p) * ((domain - 1) / (1.0 - p))).astype(np.int64)
        np.clip(other, 0, domain - 2, out=other)
        other += other >= kept
        return other

    # ------------------------------------------------------------------
    # accumulation
    # ------------------------------------------------------------------
    def histogram_chunk(self, values: np.ndarray, grid) -> Tuple[np.ndarray, Optional[float]]:
        # same assignment arithmetic as grid.assign (so counts stay identical
        # to the reference), minus its repeated finiteness pass; the chunk sum
        # is pre-reduced instead of fed value-by-value through fsum
        idx = np.floor((values - grid.low) / grid.width).astype(int)
        np.clip(idx, 0, grid.n_buckets - 1, out=idx)
        return np.bincount(idx, minlength=grid.n_buckets), float(values.sum())

    def category_chunk(self, reports: np.ndarray, n_categories: int) -> np.ndarray:
        try:
            counts = np.bincount(reports, minlength=n_categories)
        except ValueError:
            # negative report — re-raise with the accumulator family's message
            raise_category_range(reports, n_categories)
        if counts.size > n_categories:
            raise_category_range(reports, n_categories)
        return counts

    def sketch_chunk(self, reports: np.ndarray, n_rows: int, width: int) -> np.ndarray:
        rows = reports[:, 0]
        buckets = reports[:, 1]
        # buckets need an explicit range check: an out-of-range bucket paired
        # with a valid row can still land on a valid flat index.  Bad rows are
        # caught for free — negative flat indices make bincount raise, rows
        # >= n_rows overflow the minlength.
        if buckets.size and (buckets.min() < 0 or buckets.max() >= width):
            raise_sketch_range(reports, n_rows, width)
        try:
            flat = np.bincount(rows * width + buckets, minlength=n_rows * width)
        except ValueError:
            raise_sketch_range(reports, n_rows, width)
        if flat.size > n_rows * width:
            raise_sketch_range(reports, n_rows, width)
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
        n = categories.size
        rows = rng.integers(0, n_rows, size=n)
        hashed = hash_fn(categories, row_seeds[rows], width)
        u = rng.random(n)
        keep = u < p
        other = self._uniform_other(u, hashed, width, p)
        buckets = np.where(keep, hashed, other)
        return np.column_stack([rows.astype(np.int64), buckets.astype(np.int64)])


__all__ = ["FastBackend", "OUE_SPARSE_MIN_CELLS"]
