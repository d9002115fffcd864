"""Tests for privacy-budget accounting and the generic EM/EMS reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ldp.budget import (
    PrivacyBudget,
    dap_budget_ladder,
    parallel_composition,
    sequential_composition,
)
from repro.ldp.ems import (
    em_reconstruct,
    expectation_maximization_smoothing,
    smooth_histogram,
)


class TestPrivacyBudget:
    def test_spend_and_remaining(self):
        budget = PrivacyBudget(1.0)
        budget.spend(0.3)
        assert budget.remaining == pytest.approx(0.7)
        assert budget.history == [0.3]

    def test_overspend_raises(self):
        budget = PrivacyBudget(1.0)
        budget.spend(0.9)
        with pytest.raises(ValueError):
            budget.spend(0.2)

    def test_can_spend(self):
        budget = PrivacyBudget(1.0)
        assert budget.can_spend(1.0)
        assert not budget.can_spend(1.1)

    def test_split_fractions(self):
        budget = PrivacyBudget(1.0)
        alpha, beta = budget.split([0.1, 0.9])
        assert alpha == pytest.approx(0.1)
        assert beta == pytest.approx(0.9)
        assert budget.remaining == pytest.approx(0.0)

    def test_split_requires_unit_sum(self):
        with pytest.raises(ValueError):
            PrivacyBudget(1.0).split([0.5, 0.6])

    def test_n_reports(self):
        assert PrivacyBudget(1.0).n_reports(1 / 16) == 16

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PrivacyBudget(0.0)
        with pytest.raises(ValueError):
            PrivacyBudget(1.0, spent=2.0)


class TestComposition:
    def test_sequential(self):
        assert sequential_composition([0.25, 0.75]) == pytest.approx(1.0)

    def test_parallel(self):
        assert parallel_composition([0.5, 1.0, 0.25]) == pytest.approx(1.0)

    def test_parallel_empty_raises(self):
        with pytest.raises(ValueError):
            parallel_composition([])

    def test_ladder_structure(self):
        ladder = dap_budget_ladder(1.0, 1 / 16)
        assert ladder == [1.0, 0.5, 0.25, 0.125, 0.0625]

    def test_ladder_single_group(self):
        assert dap_budget_ladder(1.0, 1.0) == [1.0]

    def test_ladder_non_power_of_two(self):
        ladder = dap_budget_ladder(1.0, 0.3)
        assert ladder[0] == 1.0
        assert ladder[-1] >= 0.3

    def test_ladder_rejects_min_above_total(self):
        with pytest.raises(ValueError):
            dap_budget_ladder(0.5, 1.0)


class TestEMReconstruct:
    def test_identity_transform_recovers_empirical(self):
        counts = np.array([10.0, 30.0, 60.0])
        result = em_reconstruct(np.eye(3), counts)
        np.testing.assert_allclose(result.weights, counts / counts.sum(), atol=1e-6)
        assert result.converged

    def test_known_mixture_recovered(self, rng):
        # two latent components observed through a noisy channel
        transform = np.array([[0.8, 0.3], [0.2, 0.7]])
        truth = np.array([0.25, 0.75])
        expected_counts = 50_000 * transform @ truth
        result = em_reconstruct(transform, expected_counts)
        np.testing.assert_allclose(result.weights, truth, atol=1e-3)

    def test_weights_always_normalised(self, rng):
        transform = rng.random((6, 4))
        transform /= transform.sum(axis=0, keepdims=True)
        counts = rng.integers(1, 100, 6).astype(float)
        result = em_reconstruct(transform, counts)
        assert result.weights.sum() == pytest.approx(1.0)
        assert result.weights.min() >= 0

    def test_fixed_zero_mask_respected(self):
        transform = np.eye(3)
        counts = np.array([10.0, 20.0, 30.0])
        result = em_reconstruct(transform, counts, fixed_zero=np.array([False, True, False]))
        assert result.weights[1] == 0.0

    def test_custom_m_step_applied(self):
        transform = np.eye(2)
        counts = np.array([40.0, 60.0])

        def pin_first(responsibilities):
            out = responsibilities / responsibilities.sum()
            out[0] = 0.5
            out[1] = 0.5
            return out

        result = em_reconstruct(transform, counts, m_step=pin_first, max_iter=5)
        np.testing.assert_allclose(result.weights, [0.5, 0.5])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            em_reconstruct(np.eye(3), np.ones(2))
        with pytest.raises(ValueError):
            em_reconstruct(np.ones(3), np.ones(3))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            em_reconstruct(np.eye(2), np.array([-1.0, 1.0]))

    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            em_reconstruct(np.eye(2), np.zeros(2))

    def test_log_likelihood_monotone_increasing(self):
        rng = np.random.default_rng(0)
        transform = rng.random((8, 5))
        transform /= transform.sum(axis=0, keepdims=True)
        counts = rng.integers(1, 50, 8).astype(float)
        lls = []
        for max_iter in (1, 2, 5, 20):
            lls.append(em_reconstruct(transform, counts, max_iter=max_iter, tol=0).log_likelihood)
        assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))


class TestIndicatorTail:
    """``tail_rows``: one-hot columns appended to the transform by their rows."""

    @staticmethod
    def _one_hot_problem(rng, d_out=320, d_dense=24, n_tail=120):
        dense = rng.random((d_out, d_dense))
        dense /= dense.sum(axis=0, keepdims=True)
        tail_rows = rng.choice(d_out, size=n_tail, replace=False)
        tail_block = np.zeros((d_out, n_tail))
        tail_block[tail_rows, np.arange(n_tail)] = 1.0
        stacked = np.hstack([dense, tail_block])
        counts = rng.integers(1, 200, d_out).astype(float)
        return dense, stacked, counts, tail_rows

    def test_matches_dense_path(self):
        block, stacked, counts, tail = self._one_hot_problem(np.random.default_rng(1))
        assert tail.size * stacked.shape[0] >= 1 << 14  # above the cutover
        dense = em_reconstruct(stacked, counts, max_iter=200, tol=1e-9)
        split = em_reconstruct(block, counts, max_iter=200, tol=1e-9, tail_rows=tail)
        np.testing.assert_allclose(split.weights, dense.weights, rtol=1e-9, atol=1e-12)
        assert split.log_likelihood == pytest.approx(dense.log_likelihood)

    def test_small_problems_fall_back_to_dense_bit_for_bit(self):
        rng = np.random.default_rng(2)
        block, stacked, counts, tail = self._one_hot_problem(
            rng, d_out=24, d_dense=6, n_tail=8
        )
        dense = em_reconstruct(stacked, counts, max_iter=100, tol=1e-9)
        split = em_reconstruct(block, counts, max_iter=100, tol=1e-9, tail_rows=tail)
        np.testing.assert_array_equal(split.weights, dense.weights)
        assert split.log_likelihood == dense.log_likelihood

    #: one problem above the split cutover and one below it: the rows are
    #: checked on both paths
    SIZES = (dict(), dict(d_out=24, d_dense=6, n_tail=8))

    def test_rejects_out_of_range_tail_rows(self):
        rng = np.random.default_rng(3)
        for size in self.SIZES:
            block, _, counts, tail = self._one_hot_problem(rng, **size)
            for bad_row in (-1, block.shape[0]):
                broken = tail.copy()
                broken[-1] = bad_row
                with pytest.raises(ValueError, match="index rows"):
                    em_reconstruct(block, counts, tail_rows=broken)

    def test_rejects_duplicate_tail_rows(self):
        rng = np.random.default_rng(4)
        for size in self.SIZES:
            block, _, counts, tail = self._one_hot_problem(rng, **size)
            tail = tail.copy()
            tail[1] = tail[0]
            with pytest.raises(ValueError, match="unique"):
                em_reconstruct(block, counts, tail_rows=tail)

    def test_rejects_oversized_tail(self):
        with pytest.raises(ValueError, match="index rows"):
            em_reconstruct(np.eye(300), np.ones(300), tail_rows=np.arange(301))


class TestSmoothing:
    def test_preserves_mass(self):
        histogram = np.array([0.0, 1.0, 0.0, 0.0])
        smoothed = smooth_histogram(histogram)
        assert smoothed.sum() == pytest.approx(1.0)

    def test_spreads_mass(self):
        smoothed = smooth_histogram(np.array([0.0, 1.0, 0.0, 0.0]))
        assert smoothed[0] > 0 and smoothed[2] > 0

    def test_short_histogram_unchanged(self):
        np.testing.assert_allclose(smooth_histogram(np.array([0.4, 0.6])), [0.4, 0.6])

    def test_ems_returns_probability_vector(self, rng):
        transform = rng.random((12, 8))
        transform /= transform.sum(axis=0, keepdims=True)
        counts = rng.integers(1, 100, 12).astype(float)
        histogram = expectation_maximization_smoothing(transform, counts)
        assert histogram.sum() == pytest.approx(1.0)
        assert histogram.min() >= 0


class TestPropertyBased:
    @given(
        seed=st.integers(0, 1000),
        n_out=st.integers(3, 12),
        n_comp=st.integers(2, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_em_weights_are_distribution(self, seed, n_out, n_comp):
        rng = np.random.default_rng(seed)
        transform = rng.random((n_out, n_comp)) + 0.01
        transform /= transform.sum(axis=0, keepdims=True)
        counts = rng.integers(1, 100, n_out).astype(float)
        result = em_reconstruct(transform, counts, max_iter=200)
        assert result.weights.min() >= -1e-12
        assert result.weights.sum() == pytest.approx(1.0, abs=1e-6)
