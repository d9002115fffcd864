"""Chunked accumulators for the collector's sufficient statistics.

Every accumulator follows the same contract: ``update(chunk)`` consumes one
chunk of reports, ``merge(other)`` combines two accumulators over disjoint
sub-streams, and the finalised statistics are independent of how the stream
was chunked.  For integer counts (histograms, category counts) that
invariance is trivial; for the report sum it is provided by
:class:`ExactSum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping

import numpy as np

from repro.backends import get_backend
from repro.utils.discretization import BucketGrid
from repro.utils.validation import check_integer, check_positive

#: compress the partial list once it grows past this many entries
_MAX_PARTIALS = 256


# ----------------------------------------------------------------------
# snapshot validation
# ----------------------------------------------------------------------
def _snapshot_field(state: Any, key: str, what: str) -> Any:
    """Fetch a required snapshot key, mapping structural damage to ValueError.

    ``from_state`` consumes checkpoints that crossed a disk or process
    boundary, so every structural assumption is checked up front: a corrupt
    or mismatched snapshot must fail here, loudly, rather than construct an
    accumulator that silently mis-merges later.
    """
    if not isinstance(state, Mapping):
        raise ValueError(
            f"{what} snapshot must be a mapping, got {type(state).__name__}"
        )
    if key not in state:
        raise ValueError(f"{what} snapshot is missing key {key!r}")
    return state[key]


def _snapshot_float(state: Any, key: str, what: str) -> float:
    """A required finite-float snapshot field."""
    raw = _snapshot_field(state, key, what)
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValueError(
            f"{what} snapshot key {key!r} must be a number, got {raw!r}"
        ) from None
    if not math.isfinite(value):
        raise ValueError(f"{what} snapshot key {key!r} must be finite, got {value}")
    return value


def _snapshot_int(state: Any, key: str, what: str, minimum: int = 0) -> int:
    """A required integer snapshot field (booleans and floats rejected)."""
    raw = _snapshot_field(state, key, what)
    try:
        return check_integer(raw, f"{what} snapshot key {key!r}", minimum=minimum)
    except ValueError:
        raise ValueError(
            f"{what} snapshot key {key!r} must be an integer >= {minimum}, "
            f"got {raw!r}"
        ) from None


def _snapshot_counts(raw: Any, n_buckets: int, what: str) -> np.ndarray:
    """Validate a snapshot count vector: shape, integral values, sign.

    Accepts integer arrays (or lists) verbatim and float arrays whose values
    are exact integers (JSON round-trips may widen); everything else —
    fractional counts, NaNs, strings, wrong shapes — is a corrupt snapshot.
    """
    try:
        counts = np.asarray(raw)
    except (TypeError, ValueError):
        raise ValueError(f"{what} snapshot counts are not array-like") from None
    if counts.dtype.kind not in "iuf":
        raise ValueError(
            f"{what} snapshot counts must be numeric, got dtype {counts.dtype}"
        )
    if counts.shape != (n_buckets,):
        raise ValueError(
            f"{what} snapshot needs {n_buckets} counts, got shape {counts.shape}"
        )
    if counts.dtype.kind == "f":
        if not np.all(np.isfinite(counts)) or np.any(counts != np.floor(counts)):
            raise ValueError(f"{what} snapshot counts must be finite integers")
    counts = counts.astype(np.int64)
    if np.any(counts < 0):
        raise ValueError(f"{what} snapshot counts must be non-negative")
    return counts

#: internal slice length for reducing one chunk (bounds the transient
#: Python-float list to a few MiB even when a caller adds a huge array)
_SLICE = 1 << 20


class ExactSum:
    """Chunking-invariant summation of a float64 stream.

    Each chunk is reduced to a two-term expansion ``(hi, lo)``: ``hi`` is the
    correctly rounded chunk sum (``math.fsum``) and ``lo`` the correctly
    rounded residual ``sum(chunk) - hi``, so the pair carries the exact chunk
    sum to ~106 bits.  The pairs are kept as partials and combined with one
    final ``fsum``, making the result the correctly rounded total up to
    residuals of order ``2**-105`` per chunk — far below the final float64
    rounding step, so the value does not depend on the chunking.
    """

    __slots__ = ("_partials",)

    def __init__(self) -> None:
        self._partials: List[float] = []

    def add(self, values: np.ndarray) -> "ExactSum":
        """Accumulate one chunk of values."""
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            return self
        if not np.all(np.isfinite(values)):
            raise ValueError("ExactSum requires finite values")
        for start in range(0, values.size, _SLICE):
            items = values[start : start + _SLICE].tolist()
            hi = math.fsum(items)
            items.append(-hi)
            lo = math.fsum(items)
            if hi != 0.0:
                self._partials.append(hi)
            if lo != 0.0:
                self._partials.append(lo)
        self._compress()
        return self

    def add_value(self, value: float) -> "ExactSum":
        """Accumulate a single scalar."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("ExactSum requires finite values")
        if value != 0.0:
            self._partials.append(value)
        self._compress()
        return self

    def merge(self, other: "ExactSum") -> "ExactSum":
        """Absorb another accumulator (covering a disjoint sub-stream)."""
        self._partials.extend(other._partials)
        self._compress()
        return self

    def _compress(self) -> None:
        if len(self._partials) > _MAX_PARTIALS:
            self._partials = self._compacted()

    def _compacted(self) -> List[float]:
        """The partials reduced to a two-term ``(hi, lo)`` expansion."""
        hi = math.fsum(self._partials)
        lo = math.fsum(self._partials + [-hi])
        return [p for p in (hi, lo) if p != 0.0]

    @property
    def value(self) -> float:
        """The accumulated sum (correctly rounded)."""
        return math.fsum(self._partials)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot: at most two floats, value-preserving.

        The partial list is compacted to its ``(hi, lo)`` expansion — the
        same reduction :meth:`merge` applies when the list grows — so a
        restored accumulator carries the identical sum and keeps the
        chunking/merge-order invariance contract.
        """
        return {"partials": self._compacted()}

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "ExactSum":
        """Rebuild an accumulator from :meth:`state_dict` output.

        Raises ``ValueError`` on any structurally corrupt snapshot (missing
        key, non-sequence, non-numeric or non-finite partials).
        """
        raw = _snapshot_field(state, "partials", "ExactSum")
        if isinstance(raw, (str, bytes, Mapping)) or not hasattr(raw, "__iter__"):
            raise ValueError(
                f"ExactSum snapshot partials must be a sequence of floats, "
                f"got {type(raw).__name__}"
            )
        try:
            partials = [float(p) for p in raw]
        except (TypeError, ValueError):
            raise ValueError(
                "ExactSum snapshot partials must be numbers"
            ) from None
        if not all(math.isfinite(p) for p in partials):
            raise ValueError("ExactSum snapshot partials must be finite")
        out = cls()
        out._partials = [p for p in partials if p != 0.0]
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExactSum(value={self.value!r})"


class SumCount:
    """Streaming sum + count (the sufficient statistics of a mean)."""

    __slots__ = ("_sum", "count")

    def __init__(self) -> None:
        self._sum = ExactSum()
        self.count = 0

    def update(self, values: np.ndarray) -> "SumCount":
        values = np.asarray(values, dtype=float).ravel()
        self._sum.add(values)
        self.count += int(values.size)
        return self

    def merge(self, other: "SumCount") -> "SumCount":
        self._sum.merge(other._sum)
        self.count += other.count
        return self

    @property
    def sum(self) -> float:
        return self._sum.value

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("cannot take the mean of an empty stream")
        return self._sum.value / self.count


class HistogramAccumulator:
    """Streaming histogram over a fixed :class:`BucketGrid`.

    Counts are integers, so chunked accumulation is exactly equal to a
    one-shot ``grid.counts`` over the concatenated stream.  Optionally tracks
    the exact sum and count of the raw values (the DAP group accumulator
    needs both).
    """

    def __init__(self, grid: BucketGrid, track_sum: bool = False) -> None:
        self.grid = grid
        self.counts = np.zeros(grid.n_buckets, dtype=np.int64)
        self._sum = ExactSum() if track_sum else None
        self.n_values = 0

    def update(self, values: np.ndarray) -> "HistogramAccumulator":
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            return self
        # BucketGrid.assign validates too; the accumulator-level check is
        # kept so nothing is counted and no ExactSum partial is recorded
        # before the whole chunk is known-good, whichever grid implementation
        # sits underneath — the same error family ExactSum raises
        if not np.all(np.isfinite(values)):
            raise ValueError("HistogramAccumulator requires finite values")
        counts, chunk_sum = get_backend().histogram_chunk(values, self.grid)
        if self._sum is not None and chunk_sum is None:
            # reference path: exact, chunking-invariant fsum over values
            self._sum.add(values)
        # a fast backend pre-reduced the chunk to one float instead; it folds
        # into the same partials representation, so shard snapshots and
        # merges behave identically
        return self.fold(counts, values.size, chunk_sum)

    def fold(
        self, counts: np.ndarray, n_values: int, total: float | None = None
    ) -> "HistogramAccumulator":
        """Fold in values binned elsewhere: their counts and pre-reduced sum.

        ``total`` is the values' float sum (``None`` leaves the tracked sum
        alone).  It is folded first, so a non-finite total — which any
        non-finite value makes it — raises before a single count lands.
        """
        counts = np.asarray(counts)
        if counts.shape != self.counts.shape:
            raise ValueError(
                f"cannot fold {counts.shape} counts into a "
                f"{self.grid.n_buckets}-bucket histogram"
            )
        if self._sum is not None and total is not None:
            self._sum.add_value(total)
        self.counts += counts
        self.n_values += int(n_values)
        return self

    def merge(self, other: "HistogramAccumulator") -> "HistogramAccumulator":
        if other.grid != self.grid:
            raise ValueError("cannot merge histogram accumulators over different grids")
        if (self._sum is None) != (other._sum is None):
            raise ValueError("cannot merge accumulators with mismatched track_sum")
        self.counts += other.counts
        if self._sum is not None:
            self._sum.merge(other._sum)
        self.n_values += other.n_values
        return self

    @property
    def sum(self) -> float:
        if self._sum is None:
            raise ValueError("histogram accumulator was built with track_sum=False")
        return self._sum.value

    def counts_float(self) -> np.ndarray:
        """Counts as float64 (what the EM machinery consumes)."""
        return self.counts.astype(float)

    def state_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot: grid geometry, integer counts, sum partials."""
        return {
            "grid": {
                "low": self.grid.low,
                "high": self.grid.high,
                "n_buckets": self.grid.n_buckets,
            },
            "counts": self.counts.tolist(),
            "n_values": self.n_values,
            "sum": None if self._sum is None else self._sum.state_dict(),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "HistogramAccumulator":
        """Rebuild an accumulator from :meth:`state_dict` output.

        Validates the full snapshot — grid geometry (finite edges, positive
        width), count shape/dtype/sign, and the ``sum(counts) == n_values``
        invariant every live accumulator maintains — and raises
        ``ValueError`` on any mismatch, so a corrupt checkpoint cannot
        produce an accumulator that mis-merges later.
        """
        grid_state = _snapshot_field(state, "grid", "histogram")
        low = _snapshot_float(grid_state, "low", "histogram grid")
        high = _snapshot_float(grid_state, "high", "histogram grid")
        n_buckets = _snapshot_int(grid_state, "n_buckets", "histogram grid", minimum=1)
        try:
            grid = BucketGrid(low, high, n_buckets)
        except ValueError as error:
            raise ValueError(f"histogram snapshot grid is invalid: {error}") from None
        counts = _snapshot_counts(
            _snapshot_field(state, "counts", "histogram"), grid.n_buckets, "histogram"
        )
        n_values = _snapshot_int(state, "n_values", "histogram")
        if int(counts.sum()) != n_values:
            raise ValueError(
                f"histogram snapshot counts sum to {int(counts.sum())} but "
                f"claim n_values={n_values}; the snapshot is corrupt"
            )
        raw_sum = _snapshot_field(state, "sum", "histogram")
        out = cls(grid, track_sum=raw_sum is not None)
        out.counts = counts
        out.n_values = n_values
        if raw_sum is not None:
            out._sum = ExactSum.from_state(raw_sum)
        return out


class CategoryCountAccumulator:
    """Streaming category counts for the k-RR frequency path."""

    def __init__(self, n_categories: int) -> None:
        self.n_categories = check_integer(n_categories, "n_categories", minimum=1)
        self.counts = np.zeros(self.n_categories, dtype=np.int64)

    def update(self, reports: np.ndarray) -> "CategoryCountAccumulator":
        reports = np.asarray(reports, dtype=int).ravel()
        if reports.size == 0:
            return self
        # the backend validates the report range (reference: explicit min/max
        # check; fast: bincount's own negative check plus a length check) and
        # raises the same error message either way
        self.counts += get_backend().category_chunk(reports, self.n_categories)
        return self

    def merge(self, other: "CategoryCountAccumulator") -> "CategoryCountAccumulator":
        if other.n_categories != self.n_categories:
            raise ValueError("cannot merge category accumulators of different arity")
        self.counts += other.counts
        return self

    @property
    def n_reports(self) -> int:
        return int(self.counts.sum())

    def counts_float(self) -> np.ndarray:
        return self.counts.astype(float)

    def state_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot of the category counts."""
        return {"n_categories": self.n_categories, "counts": self.counts.tolist()}

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "CategoryCountAccumulator":
        """Rebuild an accumulator from :meth:`state_dict` output.

        Raises ``ValueError`` on corrupt snapshots (missing keys, wrong
        shape, fractional/negative/non-finite counts).
        """
        out = cls(_snapshot_int(state, "n_categories", "category", minimum=1))
        out.counts = _snapshot_counts(
            _snapshot_field(state, "counts", "category"),
            out.n_categories,
            "category",
        )
        return out


class SketchAccumulator:
    """Streaming ``(rows, width)`` counter matrix for the count-sketch path.

    Consumes ``(row, bucket)`` report pairs and folds them into the sketch's
    counter matrix.  Counts are integers, so chunked accumulation and merges
    are exactly equal to a one-shot fold over the concatenated stream — the
    same invariance contract as :class:`CategoryCountAccumulator`, which is
    what lets sharded collection, checkpointing and the windowed service
    compose with the sketch for free.
    """

    def __init__(self, sketch_rows: int, sketch_width: int) -> None:
        self.sketch_rows = check_integer(sketch_rows, "sketch_rows", minimum=1)
        self.sketch_width = check_integer(sketch_width, "sketch_width", minimum=2)
        self.counts = np.zeros((self.sketch_rows, self.sketch_width), dtype=np.int64)

    def update(self, reports: np.ndarray) -> "SketchAccumulator":
        reports = np.asarray(reports, dtype=np.int64)
        if reports.size == 0:
            return self
        if reports.ndim != 2 or reports.shape[1] != 2:
            raise ValueError(
                f"sketch reports must have shape (n, 2), got {reports.shape}"
            )
        # the backend validates the (row, bucket) ranges (reference: explicit
        # min/max checks; fast: bincount's own bounds plus a bucket check)
        # and raises the same error message either way
        self.counts += get_backend().sketch_chunk(
            reports, self.sketch_rows, self.sketch_width
        )
        return self

    def merge(self, other: "SketchAccumulator") -> "SketchAccumulator":
        if (
            other.sketch_rows != self.sketch_rows
            or other.sketch_width != self.sketch_width
        ):
            raise ValueError(
                f"cannot merge sketch accumulators of different geometry: "
                f"({self.sketch_rows}, {self.sketch_width}) vs "
                f"({other.sketch_rows}, {other.sketch_width})"
            )
        self.counts += other.counts
        return self

    @property
    def n_reports(self) -> int:
        return int(self.counts.sum())

    def counts_float(self) -> np.ndarray:
        return self.counts.astype(float)

    def state_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot: geometry plus row-major flat counts."""
        return {
            "sketch_rows": self.sketch_rows,
            "sketch_width": self.sketch_width,
            "counts": self.counts.ravel().tolist(),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "SketchAccumulator":
        """Rebuild an accumulator from :meth:`state_dict` output.

        Raises ``ValueError`` on corrupt snapshots (missing keys, wrong
        geometry or count length, fractional/negative/non-finite counts).
        """
        out = cls(
            _snapshot_int(state, "sketch_rows", "sketch", minimum=1),
            _snapshot_int(state, "sketch_width", "sketch", minimum=2),
        )
        flat = _snapshot_counts(
            _snapshot_field(state, "counts", "sketch"),
            out.sketch_rows * out.sketch_width,
            "sketch",
        )
        out.counts = flat.reshape(out.sketch_rows, out.sketch_width)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SketchAccumulator(rows={self.sketch_rows}, "
            f"width={self.sketch_width}, n_reports={self.n_reports})"
        )


@dataclass(frozen=True)
class GroupStats:
    """Sufficient statistics of one DAP group's report stream.

    Everything :meth:`repro.core.dap.DAPProtocol.aggregate_stats` needs:
    the output-grid histogram drives probing and the EMF family, the exact
    report sum and count drive the corrected mean, and ``n_users`` is kept
    for bookkeeping (users assigned to the group).
    """

    epsilon: float
    n_reports: int
    report_sum: float
    output_counts: np.ndarray
    output_grid: BucketGrid
    n_users: int = 0


class GroupAccumulator:
    """Chunked accumulator for one DAP group.

    The output grid must be fixed before the stream starts; the protocol
    derives it from the group's expected report count (known up front: the
    grouping stage fixes group sizes and per-user report multiplicities), so
    ``n_expected_reports`` doubles as a consistency check at finalisation.
    """

    def __init__(
        self,
        epsilon: float,
        output_grid: BucketGrid,
        n_expected_reports: int | None = None,
        n_users: int = 0,
    ) -> None:
        self.epsilon = float(epsilon)
        self.n_users = int(n_users)
        self.n_expected_reports = (
            None
            if n_expected_reports is None
            else check_integer(n_expected_reports, "n_expected_reports", minimum=0)
        )
        self._histogram = HistogramAccumulator(output_grid, track_sum=True)

    @property
    def output_grid(self) -> BucketGrid:
        return self._histogram.grid

    @property
    def n_reports(self) -> int:
        return self._histogram.n_values

    def update(self, reports: np.ndarray) -> "GroupAccumulator":
        """Consume one chunk of (perturbed or poison) reports."""
        self._histogram.update(reports)
        return self

    def fold(
        self, counts: np.ndarray, n_reports: int, report_sum: float
    ) -> "GroupAccumulator":
        """Fold in reports binned elsewhere: bucket counts plus their sum.

        The streamed collector (:mod:`repro.collect.round`) bins a block leaf by
        leaf and adds the leaf sums up numpy's pairwise-sum tree, then folds
        the block here once — the statistics :meth:`update` takes from the
        whole block under a pre-reducing backend, bit for bit.
        """
        self._histogram.fold(counts, n_reports, report_sum)
        return self

    def update_stream(self, chunks: Iterable[np.ndarray]) -> "GroupAccumulator":
        """Consume a whole iterable of report chunks."""
        for chunk in chunks:
            self.update(chunk)
        return self

    def merge(self, other: "GroupAccumulator") -> "GroupAccumulator":
        if other.epsilon != self.epsilon:
            raise ValueError("cannot merge group accumulators with different budgets")
        self._histogram.merge(other._histogram)
        self.n_users += other.n_users
        return self

    def state_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot for checkpoints and cross-process transport.

        Carries only sufficient statistics — bucket counts plus the compacted
        sum partials, never raw reports — so shipping a shard's partial round
        across a process boundary costs a few kilobytes regardless of how many
        reports it accumulated.
        """
        return {
            "epsilon": self.epsilon,
            "n_users": self.n_users,
            "n_expected_reports": self.n_expected_reports,
            "histogram": self._histogram.state_dict(),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "GroupAccumulator":
        """Rebuild an accumulator from :meth:`state_dict` output.

        On top of the histogram snapshot's own validation this checks the
        group identity fields — a finite positive budget, a non-negative
        user count, and an expected-report count the accumulated stream has
        not already overshot — raising ``ValueError`` on any mismatch.
        """
        histogram = HistogramAccumulator.from_state(
            _snapshot_field(state, "histogram", "group")
        )
        if histogram._sum is None:
            raise ValueError("group snapshot must track the report sum")
        epsilon = check_positive(
            _snapshot_float(state, "epsilon", "group"), "group snapshot epsilon"
        )
        expected = _snapshot_field(state, "n_expected_reports", "group")
        if expected is not None:
            expected = _snapshot_int(state, "n_expected_reports", "group")
            if histogram.n_values > expected:
                raise ValueError(
                    f"group snapshot accumulated {histogram.n_values} reports "
                    f"but was sized for {expected}; the snapshot is corrupt"
                )
        out = cls(
            epsilon,
            histogram.grid,
            n_expected_reports=expected,
            n_users=_snapshot_int(state, "n_users", "group"),
        )
        out._histogram = histogram
        return out

    def stats(self) -> GroupStats:
        """Finalise into :class:`GroupStats` (validates the expected count)."""
        if (
            self.n_expected_reports is not None
            and self.n_reports != self.n_expected_reports
        ):
            raise ValueError(
                f"group (epsilon={self.epsilon:g}) accumulated {self.n_reports} "
                f"reports but was sized for {self.n_expected_reports}; the output "
                f"grid would not match the aggregation-side bucket counts"
            )
        return GroupStats(
            epsilon=self.epsilon,
            n_reports=self.n_reports,
            report_sum=self._histogram.sum,
            output_counts=self._histogram.counts_float(),
            output_grid=self.output_grid,
            n_users=self.n_users,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GroupAccumulator(epsilon={self.epsilon:g}, "
            f"n_reports={self.n_reports}, d_out={self.output_grid.n_buckets})"
        )


__all__ = [
    "CategoryCountAccumulator",
    "ExactSum",
    "GroupAccumulator",
    "GroupStats",
    "HistogramAccumulator",
    "SketchAccumulator",
    "SumCount",
]
