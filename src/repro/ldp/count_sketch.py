"""Count-mean-sketch frequency mechanism for high-cardinality domains.

The dense frequency oracles (k-RR, OUE, OLH) all materialise something
proportional to the category count ``k`` — a length-``k`` report vector, a
``k x k`` transform, or a ``(k, n)`` support grid — which rules out the
10^5–10^6-category regimes.  The count-mean-sketch route replaces the dense
domain with an ``r x w`` counter matrix (``sketch_rows`` x ``sketch_width``):

* **Client** — each user picks one of the ``r`` hash rows uniformly, hashes
  their category into that row's ``w`` buckets with the row's seeded mixing
  hash (the same splitmix family OLH uses), and reports the bucket through
  k-RR over the ``w`` buckets at the *full* privacy budget.  A report is one
  ``(row, bucket)`` pair — O(1) per user however large ``k`` is.
* **Server** — reports fold into the ``(r, w)`` counter matrix (mergeable,
  so sharding/checkpointing compose).  Any category's frequency decodes by
  debiasing its bucket's count in every row and averaging; the residual
  ``1/w`` collision mass is removed in closed form.

Decoding is unbiased with standard error ``~ sqrt(w)/(sqrt(n) (e^eps - 1))``
from the privacy noise plus ``~ sqrt(f2_other / (r w))`` from hash
collisions, so wider sketches trade memory for collision error and more rows
average collisions down.  Row seeds are a fixed deterministic sequence —
part of the mechanism's identity, like OLH's hash family, so two parties
instantiating the same ``(rows, width)`` sketch can merge their counters.
"""

from __future__ import annotations

import math

import numpy as np

from repro.backends import get_backend
from repro.ldp.base import CategoricalMechanism, MechanismError
from repro.ldp.olh import _hash_categories
from repro.registry import MECHANISMS
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_integer


def sketch_row_seeds(n_rows: int) -> np.ndarray:
    """Deterministic 32-bit seeds for the sketch's hash rows.

    A Weyl sequence on the golden-ratio multiplier, folded to 32 bits so the
    seeds occupy the same domain as OLH's per-user hash seeds (the shared
    ``_hash_categories`` mixes ``(seed << 32) ^ category``).  Fixed, not
    sampled: the row hashes are mechanism identity — every shard, window and
    decoding party must agree on them for sketches to merge.
    """
    n_rows = check_integer(n_rows, "n_rows", minimum=1)
    idx = np.arange(1, n_rows + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    idx ^= idx >> np.uint64(31)
    return idx & np.uint64(0xFFFFFFFF)


@MECHANISMS.register("count-sketch", aliases=("count_sketch", "cms"), kind="categorical")
class CountSketch(CategoricalMechanism):
    """Count-mean-sketch frequency oracle over categories ``0 .. k-1``.

    Parameters
    ----------
    epsilon:
        Privacy budget (> 0); spent in full on the single reported bucket.
    n_categories:
        Size of the categorical domain (may far exceed the sketch size).
    sketch_rows:
        Number of independent hash rows ``r`` (averaging down collisions).
    sketch_width:
        Buckets per row ``w`` (the k-RR domain each user reports over).
    """

    def __init__(
        self,
        epsilon: float,
        n_categories: int,
        sketch_rows: int = 4,
        sketch_width: int = 1024,
    ) -> None:
        super().__init__(epsilon, n_categories)
        self.sketch_rows = check_integer(sketch_rows, "sketch_rows", minimum=1)
        self.sketch_width = check_integer(sketch_width, "sketch_width", minimum=2)
        self.row_seeds = sketch_row_seeds(self.sketch_rows)
        exp_eps = math.exp(self.epsilon)
        #: k-RR keep/other probabilities over the ``w``-bucket domain
        self.p = exp_eps / (exp_eps + self.sketch_width - 1.0)
        self.q = 1.0 / (exp_eps + self.sketch_width - 1.0)
        self._occupancy: np.ndarray | None = None

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def perturb(self, categories: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Perturb categories into ``(n, 2)`` arrays of ``(row, bucket)``."""
        rng = ensure_rng(rng)
        categories = self._validate_categories(categories).ravel()
        return get_backend().sketch_sample(
            categories,
            self.sketch_rows,
            self.sketch_width,
            self.p,
            _hash_categories,
            self.row_seeds,
            rng,
        )

    def target_reports(
        self, targets: np.ndarray, rng: RngLike = None, size: int = 1
    ) -> np.ndarray:
        """Byzantine reports that maximally boost the target categories.

        The optimal sketch poison mirrors the dense targeted attack: pick a
        target, pick a row uniformly, and report the target's own bucket in
        that row — every poison report lands exactly where the targets'
        decodes look.  Used by the benchmark/test planted-attack rounds.
        """
        rng = ensure_rng(rng)
        targets = self._validate_categories(np.asarray(targets)).ravel()
        if targets.size == 0:
            raise MechanismError("target_reports needs at least one target category")
        chosen = targets[rng.integers(0, targets.size, size=size)]
        rows = rng.integers(0, self.sketch_rows, size=size)
        buckets = _hash_categories(chosen, self.row_seeds[rows], self.sketch_width)
        return np.column_stack([rows.astype(np.int64), buckets.astype(np.int64)])

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------
    def _validate_reports(self, reports: np.ndarray) -> np.ndarray:
        reports = np.asarray(reports)
        if reports.ndim != 2 or reports.shape[1] != 2:
            raise MechanismError(
                f"count-sketch reports must have shape (n, 2), got {reports.shape}"
            )
        return reports.astype(np.int64, copy=False)

    def fold(self, reports: np.ndarray) -> np.ndarray:
        """Fold ``(row, bucket)`` reports into ``(rows, width)`` counts."""
        return get_backend().sketch_chunk(
            self._validate_reports(reports), self.sketch_rows, self.sketch_width
        )

    def check_counts(self, counts: np.ndarray) -> np.ndarray:
        """Validate an externally accumulated sketch-count matrix."""
        counts = np.asarray(counts)
        if counts.shape != (self.sketch_rows, self.sketch_width):
            raise MechanismError(
                f"sketch counts must have shape "
                f"({self.sketch_rows}, {self.sketch_width}), got {counts.shape}"
            )
        return counts

    def hash_rows(self, categories: np.ndarray) -> np.ndarray:
        """Each category's bucket in every row: shape ``(m, rows)``."""
        categories = np.asarray(categories, dtype=np.int64).ravel()
        return _hash_categories(
            categories[:, np.newaxis],
            self.row_seeds[np.newaxis, :],
            self.sketch_width,
        )

    def estimate_categories(
        self, counts: np.ndarray, categories: np.ndarray, reduce: str = "mean"
    ) -> np.ndarray:
        """Debiased frequency estimates for a candidate set from sketch counts.

        ``reduce="mean"`` is the unbiased estimator; ``reduce="median"`` is
        the robust count-median rule — a category elevated in only a minority
        of rows (e.g. because it shares a bucket with a poisoned cell) is
        suppressed, so median decoding is what candidate *ranking* should use
        under attack while mean decoding remains the *estimate*.
        ``reduce="min"`` keeps only mass present in *every* row — the
        signature of targeted poison, which lands on all of a target's cells;
        it is what poison *flagging* keys on.
        """
        counts = self.check_counts(counts)
        if int(counts.sum()) == 0:
            raise MechanismError("cannot estimate frequencies from zero reports")
        categories = self._validate_categories(np.asarray(categories)).ravel()
        return get_backend().sketch_decode(
            counts,
            categories.astype(np.int64),
            self.p,
            self.q,
            _hash_categories,
            self.row_seeds,
            self.sketch_width,
            reduce=reduce,
        )

    def estimate_all(self, counts: np.ndarray, reduce: str = "mean") -> np.ndarray:
        """Debiased frequency estimates for the whole domain (tiled decode)."""
        return self.estimate_categories(
            counts, np.arange(self.n_categories, dtype=np.int64), reduce=reduce
        )

    def estimate_frequencies(self, reports: np.ndarray) -> np.ndarray:
        """Unbiased frequency estimates straight from ``(row, bucket)`` reports."""
        reports = self._validate_reports(reports)
        if reports.shape[0] == 0:
            raise MechanismError("cannot estimate frequencies from zero reports")
        return self.estimate_all(self.fold(reports))

    def occupancy(self) -> np.ndarray:
        """Per-cell domain occupancy: categories hashing to each ``(row, bucket)``.

        A function of the mechanism's identity alone (domain size, row
        seeds, width), so the full-domain hash pass runs once per instance;
        the cached array is read-only.
        """
        if self._occupancy is None:
            occupancy = get_backend().sketch_occupancy(
                self.n_categories, _hash_categories, self.row_seeds, self.sketch_width
            )
            occupancy.flags.writeable = False
            self._occupancy = occupancy
        return self._occupancy

    # ------------------------------------------------------------------
    # accuracy
    # ------------------------------------------------------------------
    def frequency_stderr(self, n_reports: int) -> float:
        """Privacy-noise standard error of one decoded frequency.

        The variance of one row's debiased bucket frequency is
        ``q (1 - q) / (p - q)^2`` per report; rows partition the ``n``
        reports, and averaging ``r`` rows of ``n / r`` reports each recovers
        the full-``n`` rate.  The final collision debias rescales by
        ``w / (w - 1)``.
        """
        n_reports = check_integer(n_reports, "n_reports", minimum=1)
        w = self.sketch_width
        noise = self.q * (1.0 - self.q) / (self.p - self.q) ** 2
        return (w / (w - 1.0)) * math.sqrt(noise / n_reports)

    def collision_stderr(self, f2_other: float = 1.0) -> float:
        """Hash-collision standard error of one decoded frequency.

        ``f2_other`` is the sum of squared frequencies of the *other*
        categories (<= 1; 1 is the worst case of one colliding point mass).
        Each row contributes collision mass with variance ``~ f2_other / w``
        and the ``r`` row hashes are independent, so averaging divides the
        variance by ``r``.
        """
        w = self.sketch_width
        return (w / (w - 1.0)) * math.sqrt(max(0.0, float(f2_other)) / (self.sketch_rows * w))

    def variance_per_report(self, frequency: float = 0.0) -> float:
        """Per-user variance of a frequency estimate (privacy noise only)."""
        return (
            self.q * (1.0 - self.q) / (self.p - self.q) ** 2
            + frequency * (1.0 - frequency)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CountSketch(epsilon={self.epsilon:g}, "
            f"n_categories={self.n_categories}, "
            f"rows={self.sketch_rows}, width={self.sketch_width})"
        )


__all__ = ["CountSketch", "sketch_row_seeds"]
