"""Unit tests for the sufficient-statistics accumulators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import BiasedByzantineAttack, PoisonRange
from repro.collect import (
    CategoryCountAccumulator,
    ExactSum,
    GroupAccumulator,
    HistogramAccumulator,
    SumCount,
)
from repro.collect.round import _client_perturb
from repro.core.dap import _client_poison
from repro.ldp import PiecewiseMechanism
from repro.utils.discretization import BucketGrid
from tests.client_reports import chunk_array

CHUNK_SIZES = (1, 7, 64, 1_000, 10_000)


class TestExactSum:
    def test_invariant_across_chunkings(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(-5, 5, 9_871)
        reference = ExactSum().add(values).value
        for chunk_size in CHUNK_SIZES:
            acc = ExactSum()
            for chunk in chunk_array(values, chunk_size):
                acc.add(chunk)
            assert acc.value == reference

    def test_correctly_rounded_on_cancellation(self):
        # 1e16 + 1 - 1e16 loses the 1 under naive float addition
        acc = ExactSum()
        acc.add(np.array([1e16, 1.0]))
        acc.add(np.array([-1e16]))
        assert acc.value == 1.0

    def test_merge_matches_single_stream(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=5_000)
        left = ExactSum().add(values[:1_234])
        right = ExactSum().add(values[1_234:])
        assert left.merge(right).value == ExactSum().add(values).value

    def test_compression_keeps_value(self):
        acc = ExactSum()
        for value in np.geomspace(1e-12, 1e12, 3_000):
            acc.add_value(value)
        assert acc.value == pytest.approx(float(np.geomspace(1e-12, 1e12, 3_000).sum()))
        assert len(acc._partials) <= 256 + 2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ExactSum().add(np.array([1.0, np.inf]))


class TestSumCount:
    def test_mean_invariant_across_chunkings(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(-1, 1, 4_321)
        reference = SumCount().update(values)
        for chunk_size in CHUNK_SIZES:
            acc = SumCount()
            for chunk in chunk_array(values, chunk_size):
                acc.update(chunk)
            assert acc.count == values.size
            assert acc.mean == reference.mean

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError, match="empty"):
            SumCount().mean


class TestHistogramAccumulator:
    def test_counts_match_one_shot(self):
        rng = np.random.default_rng(3)
        grid = BucketGrid(-2.0, 2.0, 37)
        values = rng.uniform(-2.5, 2.5, 6_000)  # includes out-of-domain clipping
        expected = grid.counts(values)
        for chunk_size in CHUNK_SIZES:
            acc = HistogramAccumulator(grid, track_sum=True)
            for chunk in chunk_array(values, chunk_size):
                acc.update(chunk)
            np.testing.assert_array_equal(acc.counts_float(), expected)
            assert acc.sum == ExactSum().add(values).value
            assert acc.n_values == values.size

    def test_merge_requires_same_grid(self):
        a = HistogramAccumulator(BucketGrid(0.0, 1.0, 4))
        b = HistogramAccumulator(BucketGrid(0.0, 1.0, 5))
        with pytest.raises(ValueError, match="different grids"):
            a.merge(b)

    def test_sum_requires_tracking(self):
        acc = HistogramAccumulator(BucketGrid(0.0, 1.0, 4))
        with pytest.raises(ValueError, match="track_sum"):
            acc.sum

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_even_without_sum_tracking(self, bad):
        """Without ``track_sum`` no ExactSum ever ran, so NaN used to be
        silently counted into bucket 0 (and ±inf into the edge buckets)."""
        acc = HistogramAccumulator(BucketGrid(0.0, 1.0, 4), track_sum=False)
        with pytest.raises(ValueError, match="finite"):
            acc.update(np.array([0.5, bad]))
        np.testing.assert_array_equal(acc.counts, np.zeros(4))
        assert acc.n_values == 0


class TestCategoryCountAccumulator:
    def test_matches_bincount(self):
        rng = np.random.default_rng(4)
        reports = rng.integers(0, 9, 5_000)
        expected = np.bincount(reports, minlength=9)
        for chunk_size in CHUNK_SIZES:
            acc = CategoryCountAccumulator(9)
            for chunk in chunk_array(reports, chunk_size):
                acc.update(chunk)
            np.testing.assert_array_equal(acc.counts, expected)
            assert acc.n_reports == reports.size

    def test_rejects_out_of_range(self):
        acc = CategoryCountAccumulator(3)
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            acc.update(np.array([0, 3]))


class TestGroupAccumulator:
    def test_expected_report_mismatch_raises(self):
        acc = GroupAccumulator(1.0, BucketGrid(-3.0, 3.0, 16), n_expected_reports=10)
        acc.update(np.zeros(7))
        with pytest.raises(ValueError, match="sized for 10"):
            acc.stats()

    def test_stats_carry_sufficient_statistics(self):
        rng = np.random.default_rng(5)
        grid = BucketGrid(-3.0, 3.0, 16)
        reports = rng.uniform(-3, 3, 500)
        acc = GroupAccumulator(0.5, grid, n_expected_reports=500, n_users=250)
        acc.update_stream(chunk_array(reports, 99))
        stats = acc.stats()
        assert stats.epsilon == 0.5
        assert stats.n_reports == 500
        assert stats.n_users == 250
        assert stats.report_sum == ExactSum().add(reports).value
        np.testing.assert_array_equal(stats.output_counts, grid.counts(reports))

    def test_merge_requires_same_budget(self):
        grid = BucketGrid(-3.0, 3.0, 16)
        with pytest.raises(ValueError, match="budgets"):
            GroupAccumulator(1.0, grid).merge(GroupAccumulator(0.5, grid))


class TestSnapshots:
    """state_dict()/from_state() round trips: JSON-safe, value-preserving."""

    def test_exact_sum_round_trip_is_two_floats(self):
        acc = ExactSum().add(np.geomspace(1e-9, 1e9, 1_000))
        state = acc.state_dict()
        assert len(state["partials"]) <= 2
        assert ExactSum.from_state(state).value == acc.value

    def test_exact_sum_rejects_corrupt_state(self):
        with pytest.raises(ValueError, match="finite"):
            ExactSum.from_state({"partials": [1.0, np.nan]})

    def test_histogram_round_trip(self):
        rng = np.random.default_rng(10)
        grid = BucketGrid(-2.0, 2.0, 9)
        acc = HistogramAccumulator(grid, track_sum=True).update(rng.uniform(-2, 2, 700))
        restored = HistogramAccumulator.from_state(acc.state_dict())
        assert restored.grid == grid
        np.testing.assert_array_equal(restored.counts, acc.counts)
        assert restored.sum == acc.sum
        assert restored.n_values == acc.n_values

    def test_histogram_round_trip_without_sum(self):
        acc = HistogramAccumulator(BucketGrid(0.0, 1.0, 4)).update(np.full(5, 0.3))
        restored = HistogramAccumulator.from_state(acc.state_dict())
        with pytest.raises(ValueError, match="track_sum"):
            restored.sum
        np.testing.assert_array_equal(restored.counts, acc.counts)

    def test_histogram_rejects_wrong_count_shape(self):
        acc = HistogramAccumulator(BucketGrid(0.0, 1.0, 4))
        state = acc.state_dict()
        state["counts"] = [1, 2]
        with pytest.raises(ValueError, match="needs 4 counts"):
            HistogramAccumulator.from_state(state)

    def test_category_round_trip(self):
        acc = CategoryCountAccumulator(5).update(np.array([0, 2, 2, 4]))
        restored = CategoryCountAccumulator.from_state(acc.state_dict())
        np.testing.assert_array_equal(restored.counts, acc.counts)
        assert restored.n_categories == 5

    def test_group_round_trip_is_json_safe_and_merge_compatible(self):
        import json

        rng = np.random.default_rng(11)
        grid = BucketGrid(-3.0, 3.0, 12)
        reports = rng.uniform(-3, 3, 400)
        acc = GroupAccumulator(0.5, grid, n_expected_reports=800, n_users=200)
        acc.update(reports[:400])
        state = json.loads(json.dumps(acc.state_dict()))  # checkpointable
        restored = GroupAccumulator.from_state(state)
        assert restored.epsilon == acc.epsilon
        assert restored.n_users == acc.n_users
        assert restored.n_expected_reports == 800
        other = GroupAccumulator(0.5, grid, n_users=200).update(
            rng.uniform(-3, 3, 400)
        )
        stats = restored.merge(other).stats()
        assert stats.n_reports == 800
        assert stats.n_users == 400

    def test_group_snapshot_requires_tracked_sum(self):
        acc = GroupAccumulator(1.0, BucketGrid(-1.0, 1.0, 4))
        state = acc.state_dict()
        state["histogram"]["sum"] = None
        with pytest.raises(ValueError, match="report sum"):
            GroupAccumulator.from_state(state)


class TestClientStage:
    """The client-stage kernels every shard worker feeds its accumulators."""

    def test_perturb_repeats_each_value_inside_the_output_domain(self):
        mech = PiecewiseMechanism(1.0)
        values = np.random.default_rng(6).uniform(-1, 1, 1_000)
        reports = _client_perturb(mech, values, 3, np.random.default_rng(0))
        assert reports.size == 3_000
        low, high = mech.output_domain
        assert reports.min() >= low and reports.max() <= high

    def test_perturb_is_deterministic_and_unbiased(self):
        mech = PiecewiseMechanism(2.0)
        values = np.random.default_rng(7).uniform(-0.2, 0.2, 50_000)
        first = _client_perturb(mech, values, 1, np.random.default_rng(42))
        second = _client_perturb(mech, values, 1, np.random.default_rng(42))
        np.testing.assert_array_equal(first, second)
        # PM reports are unbiased estimates of the inputs
        assert abs(first.mean() - values.mean()) < 0.05

    def test_poison_draws_the_requested_reports_inside_the_view(self):
        attack = BiasedByzantineAttack(PoisonRange.of_c(0.5, 1.0))
        mech = PiecewiseMechanism(1.0)
        poison = _client_poison(attack, mech, 1_003, 0.0, np.random.default_rng(0))
        assert poison.size == 1_003
        low, high = mech.output_domain
        assert poison.min() >= low - 1e-9 and poison.max() <= high + 1e-9
