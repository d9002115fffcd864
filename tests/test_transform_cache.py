"""Tests for the process-local transform cache.

Satellite guarantees: a cache hit returns the same array a fresh build would
produce (for both PM and SW across several ``(epsilon, n_buckets)``
combinations), every hit hands out the one read-only master (so the probe's
two sides share a block object), and writing to a returned matrix raises
instead of poisoning the cache.
"""

import numpy as np
import pytest

from repro.core.probing import probe_poisoned_side
from repro.core.transform import build_transform_matrix, cached_transform_matrix
from repro.ldp import PiecewiseMechanism, SquareWaveMechanism
from repro.utils.transform_cache import (
    CACHE_CAPACITY,
    cached_matrix,
    clear_transform_cache,
    mechanism_cache_key,
    transform_cache_stats,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_transform_cache()
    yield
    clear_transform_cache()


MECHANISMS = [PiecewiseMechanism, SquareWaveMechanism]
GRIDS = [(0.25, 8, 16), (0.5, 12, 24), (1.0, 16, 32), (2.0, 10, 40)]


class TestCachedTransformMatrix:
    @pytest.mark.parametrize("mechanism_factory", MECHANISMS)
    @pytest.mark.parametrize("epsilon,d_in,d_out", GRIDS)
    def test_hit_equals_fresh_build(self, mechanism_factory, epsilon, d_in, d_out):
        mechanism = mechanism_factory(epsilon)
        fresh = build_transform_matrix(mechanism, d_in, d_out, side="right")
        cached_first = cached_transform_matrix(mechanism, d_in, d_out, side="right")
        cached_second = cached_transform_matrix(mechanism, d_in, d_out, side="right")
        np.testing.assert_array_equal(cached_first.normal_block, fresh.normal_block)
        np.testing.assert_array_equal(cached_second.normal_block, fresh.normal_block)
        np.testing.assert_array_equal(
            cached_second.poison_bucket_indices, fresh.poison_bucket_indices
        )
        assert transform_cache_stats()["hits"] >= 1

    @pytest.mark.parametrize("mechanism_factory", MECHANISMS)
    def test_mutation_does_not_poison_cache(self, mechanism_factory):
        mechanism = mechanism_factory(1.0)
        first = cached_transform_matrix(mechanism, 10, 20)
        expected = first.normal_block.copy()
        with pytest.raises(ValueError, match="read-only"):
            first.normal_block[:] = -1.0  # vandalise the returned block
        second = cached_transform_matrix(mechanism, 10, 20)
        assert second.normal_block is first.normal_block
        np.testing.assert_array_equal(second.normal_block, expected)

    def test_probe_sides_share_one_block_object(self):
        mechanism = PiecewiseMechanism(0.5)
        counts = np.random.default_rng(3).integers(1, 50, size=24).astype(float)
        probe = probe_poisoned_side(mechanism, None, 8, 24, counts=counts)
        left = probe.emf_left.transform
        right = probe.emf_right.transform
        assert left.normal_block is right.normal_block
        assert not left.normal_block.flags.writeable

    def test_distinct_epsilons_get_distinct_entries(self):
        a = cached_transform_matrix(PiecewiseMechanism(0.5), 8, 16)
        b = cached_transform_matrix(PiecewiseMechanism(1.0), 8, 16)
        assert not np.array_equal(a.normal_block, b.normal_block)
        assert transform_cache_stats()["misses"] == 2

    def test_sides_share_the_normal_block_entry(self):
        mechanism = PiecewiseMechanism(1.0)
        cached_transform_matrix(mechanism, 8, 16, side="right")
        cached_transform_matrix(mechanism, 8, 16, side="left")
        # the expensive normal block is keyed without the side, so the second
        # build is a hit
        stats = transform_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_mechanism_types_do_not_collide(self):
        pm = cached_transform_matrix(PiecewiseMechanism(1.0), 8, 16)
        sw = cached_transform_matrix(SquareWaveMechanism(1.0), 8, 16)
        assert pm.output_grid.low != sw.output_grid.low
        assert transform_cache_stats()["misses"] == 2


class TestGenericCache:
    def test_builder_called_once(self):
        calls = []

        def builder():
            calls.append(1)
            return np.arange(6.0).reshape(2, 3)

        key = ("test-entry",)
        first = cached_matrix(key, builder)
        second = cached_matrix(key, builder)
        assert calls == [1]
        assert second is first
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 99.0
        assert cached_matrix(key, builder)[0, 0] == 0.0

    def test_lru_eviction_beyond_capacity(self):
        for index in range(CACHE_CAPACITY + 10):
            cached_matrix(("entry", index), lambda: np.zeros(1))
        assert transform_cache_stats()["size"] == CACHE_CAPACITY

    def test_mechanism_cache_key_distinguishes(self):
        assert mechanism_cache_key(PiecewiseMechanism(1.0)) != mechanism_cache_key(
            SquareWaveMechanism(1.0)
        )
        assert mechanism_cache_key(PiecewiseMechanism(1.0)) != mechanism_cache_key(
            PiecewiseMechanism(2.0)
        )


class TestCachedPathsStayIdentical:
    def test_sw_reconstruction_unaffected_by_cache(self):
        """EMS via the cache must equal EMS with a cold cache (same arrays)."""
        mechanism = SquareWaveMechanism(1.0)
        rng = np.random.default_rng(0)
        reports = mechanism.perturb(rng.random(2_000), rng)
        cold, _ = mechanism.reconstruct_distribution(reports, n_input_buckets=32)
        warm, _ = mechanism.reconstruct_distribution(reports, n_input_buckets=32)
        np.testing.assert_array_equal(cold, warm)
