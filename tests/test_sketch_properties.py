"""Hypothesis property tests for the count-sketch collection path.

The sketch route inherits the collection contracts the rest of the collector
relies on — merge order/shard/chunk invariance, value-preserving snapshots —
plus its own decode invariants.  These are the properties that make sharded
and windowed sketch collection *exactly* equal to one-shot collection, which
is what the bit-identity gates in the benchmark assert at scale.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collect import SketchAccumulator
from repro.ldp.count_sketch import CountSketch, sketch_row_seeds
from tests.client_reports import chunk_array

COMMON_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _reports(rng: np.random.Generator, n: int, rows: int, width: int) -> np.ndarray:
    """Synthetic (row, bucket) report pairs."""
    return np.column_stack(
        [
            rng.integers(0, rows, size=n).astype(np.int64),
            rng.integers(0, width, size=n).astype(np.int64),
        ]
    )


class TestSketchAccumulator:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 400),
        rows=st.integers(1, 5),
        width=st.integers(2, 64),
        n_chunks=st.integers(1, 7),
    )
    @settings(max_examples=60, **COMMON_SETTINGS)
    def test_chunk_count_invariance(self, seed, n, rows, width, n_chunks):
        """Folding a stream in any number of chunks equals the one-shot fold."""
        rng = np.random.default_rng(seed)
        reports = _reports(rng, n, rows, width)
        one_shot = SketchAccumulator(rows, width).update(reports)
        chunked = SketchAccumulator(rows, width)
        for chunk in chunk_array(reports, max(1, n // n_chunks)):
            chunked.update(chunk)
        np.testing.assert_array_equal(one_shot.counts, chunked.counts)

    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(0, 120), min_size=2, max_size=6),
        rows=st.integers(1, 4),
        width=st.integers(2, 32),
        order_seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, **COMMON_SETTINGS)
    def test_merge_order_and_shard_count_invariance(
        self, seed, sizes, rows, width, order_seed
    ):
        """Merging shard accumulators in any order, and over any shard split,
        equals the one-shot fold of the concatenated stream."""
        rng = np.random.default_rng(seed)
        shards = [_reports(rng, size, rows, width) for size in sizes]
        full = np.vstack(shards) if shards else np.empty((0, 2), dtype=np.int64)
        one_shot = SketchAccumulator(rows, width).update(full)

        accumulators = [
            SketchAccumulator(rows, width).update(shard) for shard in shards
        ]
        order = np.random.default_rng(order_seed).permutation(len(accumulators))
        merged = SketchAccumulator(rows, width)
        for index in order:
            merged.merge(accumulators[index])
        np.testing.assert_array_equal(one_shot.counts, merged.counts)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 300),
        rows=st.integers(1, 4),
        width=st.integers(2, 48),
    )
    @settings(max_examples=60, **COMMON_SETTINGS)
    def test_state_dict_round_trip_bit_identity(self, seed, n, rows, width):
        """A snapshot restores to a bit-identical accumulator that keeps
        accumulating exactly like the original."""
        rng = np.random.default_rng(seed)
        original = SketchAccumulator(rows, width).update(
            _reports(rng, n, rows, width)
        )
        restored = SketchAccumulator.from_state(original.state_dict())
        np.testing.assert_array_equal(original.counts, restored.counts)
        assert restored.counts.dtype == original.counts.dtype
        more = _reports(rng, 50, rows, width)
        np.testing.assert_array_equal(
            original.update(more).counts, restored.update(more).counts
        )


class TestSketchDecode:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(50, 500),
        k=st.integers(4, 200),
        rows=st.integers(1, 4),
        width=st.integers(4, 64),
        n_chunks=st.integers(1, 5),
    )
    @settings(max_examples=40, **COMMON_SETTINGS)
    def test_decode_matches_streaming_sketch(
        self, seed, n, k, rows, width, n_chunks
    ):
        """Decoding from a streamed/merged accumulator is bit-identical to
        decoding from the one-shot fold of the same reports."""
        rng = np.random.default_rng(seed)
        mech = CountSketch(1.0, k, sketch_rows=rows, sketch_width=width)
        reports = mech.perturb(rng.integers(0, k, size=n), rng)
        direct = mech.estimate_all(mech.fold(reports))

        streamed = SketchAccumulator(rows, width)
        for chunk in chunk_array(reports, max(1, n // n_chunks)):
            streamed.update(chunk)
        np.testing.assert_array_equal(direct, mech.estimate_all(streamed.counts))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(50, 400),
        k=st.integers(4, 100),
        width=st.integers(4, 64),
    )
    @settings(max_examples=40, **COMMON_SETTINGS)
    def test_reduce_statistics_ordering(self, seed, n, k, width):
        """Across rows, min <= median <= max implies the debiased reduces
        obey min <= median for every category, and all reduces agree at
        one row."""
        rng = np.random.default_rng(seed)
        mech = CountSketch(1.0, k, sketch_rows=3, sketch_width=width)
        counts = mech.fold(mech.perturb(rng.integers(0, k, size=n), rng))
        cats = np.arange(k)
        mean = mech.estimate_categories(counts, cats, reduce="mean")
        median = mech.estimate_categories(counts, cats, reduce="median")
        low = mech.estimate_categories(counts, cats, reduce="min")
        assert np.all(low <= median + 1e-12)
        assert np.all(low <= mean + 1e-12)

        one_row = CountSketch(1.0, k, sketch_rows=1, sketch_width=width)
        counts1 = one_row.fold(one_row.perturb(rng.integers(0, k, size=n), rng))
        np.testing.assert_array_equal(
            one_row.estimate_categories(counts1, cats, reduce="mean"),
            one_row.estimate_categories(counts1, cats, reduce="median"),
        )
        np.testing.assert_array_equal(
            one_row.estimate_categories(counts1, cats, reduce="mean"),
            one_row.estimate_categories(counts1, cats, reduce="min"),
        )

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(100, 500),
        k=st.integers(8, 120),
    )
    @settings(max_examples=30, **COMMON_SETTINGS)
    def test_decode_mass_is_approximately_normalised(self, seed, n, k):
        """The mean decode is unbiased, so the domain total concentrates
        around one (loose bound: this is a property test, not a CI gate)."""
        rng = np.random.default_rng(seed)
        mech = CountSketch(4.0, k, sketch_rows=2, sketch_width=32)
        counts = mech.fold(mech.perturb(rng.integers(0, k, size=n), rng))
        total = float(mech.estimate_all(counts).sum())
        assert abs(total - 1.0) < 1.5


class TestRowSeeds:
    @given(n_rows=st.integers(1, 64))
    @settings(max_examples=20, **COMMON_SETTINGS)
    def test_row_seeds_deterministic_prefix(self, n_rows):
        """Row seeds are a fixed sequence: a wider sketch extends, never
        reshuffles, the rows — the property that lets different parties
        agree on the hash family."""
        seeds = sketch_row_seeds(n_rows)
        assert seeds.size == n_rows
        assert np.unique(seeds).size == n_rows
        longer = sketch_row_seeds(n_rows + 3)
        np.testing.assert_array_equal(seeds, longer[:n_rows])
