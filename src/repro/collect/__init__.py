"""Sufficient-statistics collection.

The collector side of every protocol in this library only ever consumes
*sufficient statistics* of the report stream — bucketized histograms for the
EMF / EMF* / CEMF* probing machinery, exact sums and counts for the corrected
mean, category counts for the k-RR frequency extension.  The accumulators in
this package compute those statistics block by block and merge, so a round
holds at most one block's reports at a time — one leaf of at most 2^15
reports under the ``fast`` backend and the local protocol, one seed block of
up to ``block_size x repeats`` reports under the numpy reference backend or
the shuffle protocol (see :func:`repro.collect.round.collect_shard`):

* :class:`~repro.collect.accumulators.ExactSum` — chunking-invariant
  compensated summation (the corrected mean divides a report sum, so the sum
  must not depend on how the reports were split);
* :class:`~repro.collect.accumulators.SumCount` — streaming mean;
* :class:`~repro.collect.accumulators.HistogramAccumulator` — counts over a
  :class:`~repro.utils.discretization.BucketGrid`;
* :class:`~repro.collect.accumulators.CategoryCountAccumulator` — counts over
  a categorical domain;
* :class:`~repro.collect.accumulators.SketchAccumulator` — the ``(rows,
  width)`` counter matrix of the count-sketch high-cardinality frequency
  path;
* :class:`~repro.collect.accumulators.GroupAccumulator` /
  :class:`~repro.collect.accumulators.GroupStats` — everything one DAP group
  contributes to :meth:`repro.core.dap.DAPProtocol.aggregate_stats`.

:mod:`repro.collect.sharding` adds the deterministic block-seeded
:class:`~repro.collect.sharding.ShardPlan`: every accumulator's associative
``merge()`` plus per-block pre-drawn seeds make the merged round
bit-identical at any shard count and any worker count.  Shard tasks read
their users' values through :class:`~repro.collect.sharding.ValueSlice`
handles into one :class:`~repro.collect.sharding.ShardValues` buffer, shared
memory when the round is pooled, so no task pickles values.
:mod:`repro.collect.round` is the one collection round behind every
protocol's ``collect_sharded``: the shard task, the worker and the merge,
written once, with each protocol supplying a small client.
"""

from repro.collect.accumulators import (
    CategoryCountAccumulator,
    ExactSum,
    GroupAccumulator,
    GroupStats,
    HistogramAccumulator,
    SketchAccumulator,
    SumCount,
)
from repro.collect.sharding import (
    DEFAULT_SHARD_BLOCK,
    ShardPlan,
    ShardSlice,
    build_shard_plan,
)

__all__ = [
    "CategoryCountAccumulator",
    "DEFAULT_SHARD_BLOCK",
    "ExactSum",
    "GroupAccumulator",
    "GroupStats",
    "HistogramAccumulator",
    "ShardPlan",
    "SketchAccumulator",
    "ShardSlice",
    "SumCount",
    "build_shard_plan",
]
