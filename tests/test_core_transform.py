"""Tests for the EMF transform matrix."""

import numpy as np
import pytest

from repro.core.transform import (
    MIN_INPUT_BUCKETS,
    MIN_OUTPUT_BUCKETS,
    build_transform_matrix,
    default_bucket_counts,
)
from repro.ldp import PiecewiseMechanism, SquareWaveMechanism


class TestDefaultBucketCounts:
    def test_paper_formula_at_scale(self):
        d_in, d_out = default_bucket_counts(1_000_000, 2.0)
        assert d_out == 1000
        # (e - 1) / (e + 1) ~= 0.4621
        assert d_in == int(1000 * (np.e - 1) / (np.e + 1))

    def test_minimums_enforced(self):
        d_in, d_out = default_bucket_counts(20, 0.0625)
        assert d_in >= MIN_INPUT_BUCKETS
        assert d_out >= MIN_OUTPUT_BUCKETS

    def test_more_reports_more_buckets(self):
        assert default_bucket_counts(100_000, 1.0)[1] > default_bucket_counts(10_000, 1.0)[1]

    def test_invalid_reports(self):
        with pytest.raises(ValueError):
            default_bucket_counts(0, 1.0)


class TestBuildTransformMatrixPM:
    @pytest.fixture
    def transform(self):
        return build_transform_matrix(
            PiecewiseMechanism(1.0), n_input_buckets=10, n_output_buckets=40,
            side="right", reference_mean=0.0,
        )

    def test_shape(self, transform):
        assert transform.n_normal_components == 10
        # half of the 40 output buckets lie right of 0
        assert transform.n_poison_components == 20
        assert transform.n_components == 30
        # only the normal block is stored; the poison columns are their rows
        assert transform.normal_block.shape == (40, 10)
        assert transform.normal_block.flags.c_contiguous

    def test_normal_columns_sum_to_one(self, transform):
        sums = transform.normal_block.sum(axis=0)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_poison_columns_are_indicators(self, transform):
        # each poison column is one-hot at a distinct output row: the rows
        # are unique, index the output grid and cover the right half of it
        rows = transform.poison_bucket_indices
        assert rows.dtype.kind == "i"
        assert np.unique(rows).size == rows.size
        assert rows.min() >= 0 and rows.max() < transform.output_grid.n_buckets
        np.testing.assert_array_equal(
            rows, np.flatnonzero(transform.output_grid.centers >= 0.0)
        )

    def test_poison_buckets_on_right(self, transform):
        centers = transform.output_grid.centers[transform.poison_bucket_indices]
        assert centers.min() >= 0.0

    def test_poison_bucket_centers_property(self, transform):
        np.testing.assert_allclose(
            transform.poison_bucket_centers,
            transform.output_grid.centers[transform.poison_bucket_indices],
        )

    def test_split_weights(self, transform):
        weights = np.arange(30, dtype=float)
        normal, poison = transform.split_weights(weights)
        assert normal.size == 10 and poison.size == 20
        np.testing.assert_array_equal(normal, np.arange(10))

    def test_split_weights_wrong_length(self, transform):
        with pytest.raises(ValueError):
            transform.split_weights(np.ones(5))

    def test_output_counts(self, transform, rng):
        reports = rng.uniform(-2, 2, 500)
        counts = transform.output_counts(reports)
        assert counts.sum() == 500


class TestBuildTransformMatrixVariants:
    def test_left_side(self):
        transform = build_transform_matrix(
            PiecewiseMechanism(1.0), 8, 20, side="left", reference_mean=0.0
        )
        centers = transform.output_grid.centers[transform.poison_bucket_indices]
        assert centers.max() <= 0.0

    def test_nonzero_reference_mean_shifts_split(self):
        mech = PiecewiseMechanism(1.0)
        right_default = build_transform_matrix(mech, 8, 40, "right", 0.0)
        right_shifted = build_transform_matrix(mech, 8, 40, "right", 1.0)
        assert right_shifted.n_poison_components < right_default.n_poison_components

    def test_square_wave_mechanism_supported(self):
        mech = SquareWaveMechanism(1.0)
        transform = build_transform_matrix(mech, 8, 24, side="right")
        assert transform.n_normal_components == 8
        np.testing.assert_allclose(transform.normal_block.sum(axis=0), 1.0, atol=1e-9)
        # default reference mean is the output-domain centre
        assert transform.reference_mean == pytest.approx(0.5)

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            build_transform_matrix(PiecewiseMechanism(1.0), 8, 20, side="middle")

    def test_reference_mean_outside_domain(self):
        with pytest.raises(ValueError):
            build_transform_matrix(
                PiecewiseMechanism(1.0), 8, 20, side="right", reference_mean=100.0
            )

    def test_too_few_output_buckets_rejected(self):
        with pytest.raises(ValueError):
            build_transform_matrix(PiecewiseMechanism(1.0), 8, 1, side="right")
