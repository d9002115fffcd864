"""Hypothesis property tests on the library's core invariants.

These complement the per-module property tests with cross-cutting invariants:
LDP guarantees, EM mass conservation, protocol output ranges and the
equivalence invariant of Theorem 1.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attacks import BiasedByzantineAttack, GeneralByzantineAttack, PoisonRange
from repro.attacks.reduction import reduce_gba_to_bba, total_deviation
from repro.collect import (
    CategoryCountAccumulator,
    ExactSum,
    GroupAccumulator,
    HistogramAccumulator,
)
from repro.utils.discretization import BucketGrid
from repro.core.aggregation import aggregation_weights
from repro.core.emf import run_emf
from repro.core.emf_star import run_emf_star
from repro.core.mean_estimation import corrected_mean, corrected_mean_from_stats
from repro.core.transform import build_transform_matrix
from repro.datasets.synthetic import uniform_dataset
from repro.ldp import DuchiMechanism, KRandomizedResponse, PiecewiseMechanism
from repro.simulation.population import build_population, population_counts
from tests.client_reports import chunk_array

COMMON_SETTINGS = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestLDPGuarantees:
    @given(
        epsilon=st.floats(0.2, 3.0),
        x1=st.floats(-1, 1),
        x2=st.floats(-1, 1),
        lo=st.floats(-0.9, 0.8),
        width=st.floats(0.05, 1.0),
    )
    @settings(max_examples=60, **COMMON_SETTINGS)
    def test_pm_interval_probabilities_respect_epsilon(self, epsilon, x1, x2, lo, width):
        """For any output interval, probabilities under two inputs differ by
        at most e^epsilon — the definition of epsilon-LDP."""
        mech = PiecewiseMechanism(epsilon)
        hi = lo + width
        p1 = mech.interval_probability(x1, lo, hi)
        p2 = mech.interval_probability(x2, lo, hi)
        if p1 > 0 and p2 > 0:
            assert p1 / p2 <= math.exp(epsilon) * (1 + 1e-9)
            assert p2 / p1 <= math.exp(epsilon) * (1 + 1e-9)

    @given(epsilon=st.floats(0.2, 3.0), k=st.integers(2, 10))
    @settings(max_examples=40, **COMMON_SETTINGS)
    def test_krr_probability_ratio_is_exactly_epsilon(self, epsilon, k):
        mech = KRandomizedResponse(epsilon, k)
        assert mech.p / mech.q == pytest.approx(math.exp(epsilon))

    @given(epsilon=st.floats(0.2, 3.0))
    @settings(max_examples=40, **COMMON_SETTINGS)
    def test_duchi_output_probabilities_respect_epsilon(self, epsilon):
        mech = DuchiMechanism(epsilon)
        p_max = float(mech.positive_probability(np.array([1.0]))[0])
        p_min = float(mech.positive_probability(np.array([-1.0]))[0])
        assert p_max / p_min <= math.exp(epsilon) * (1 + 1e-9)


class TestEMFInvariants:
    @given(
        epsilon=st.floats(0.2, 2.0),
        gamma=st.floats(0.0, 0.45),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=15, **COMMON_SETTINGS)
    def test_emf_output_is_probability_vector(self, epsilon, gamma, seed):
        rng = np.random.default_rng(seed)
        mech = PiecewiseMechanism(epsilon)
        n_normal, n_total = 1_500, 2_000
        n_byz = int(round(n_total * gamma))
        values = rng.uniform(-0.8, 0.8, n_normal)
        reports = [mech.perturb(values, rng)]
        if n_byz:
            reports.append(
                BiasedByzantineAttack(PoisonRange.of_c(0.5, 1.0)).poison_reports(
                    n_byz, mech, 0.0, rng
                ).reports
            )
        reports = np.concatenate(reports)
        transform = build_transform_matrix(mech, 8, 24, "right", 0.0)
        result = run_emf(transform, reports=reports, epsilon=epsilon)
        total = result.normal_histogram.sum() + result.poison_histogram.sum()
        assert total == pytest.approx(1.0, abs=1e-6)
        assert 0.0 <= result.gamma_hat <= 1.0
        lo, hi = mech.output_domain
        assert lo <= result.poison_mean <= hi

    @given(gamma=st.floats(0.0, 0.9), seed=st.integers(0, 500))
    @settings(max_examples=15, **COMMON_SETTINGS)
    def test_emf_star_respects_any_gamma_constraint(self, gamma, seed):
        rng = np.random.default_rng(seed)
        mech = PiecewiseMechanism(1.0)
        reports = mech.perturb(rng.uniform(-1, 1, 1_500), rng)
        transform = build_transform_matrix(mech, 8, 24, "right", 0.0)
        result = run_emf_star(transform, gamma_hat=gamma, reports=reports, epsilon=1.0)
        assert result.gamma_hat == pytest.approx(gamma, abs=1e-6)


class TestEstimatorInvariants:
    @given(
        gamma=st.floats(0, 0.9),
        poison_mean=st.floats(-5, 5),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=50, **COMMON_SETTINGS)
    def test_corrected_mean_always_clipped(self, gamma, poison_mean, seed):
        rng = np.random.default_rng(seed)
        reports = rng.uniform(-3, 3, 200)
        estimate = corrected_mean(reports, gamma, poison_mean)
        assert -1.0 <= estimate <= 1.0

    @given(
        epsilons=st.lists(st.floats(0.2, 3.0), min_size=1, max_size=6),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=50, **COMMON_SETTINGS)
    def test_aggregation_weights_are_distribution(self, epsilons, seed):
        rng = np.random.default_rng(seed)
        counts = rng.uniform(0, 200, len(epsilons))
        weights = aggregation_weights(epsilons, counts)
        assert weights.min() >= 0
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)


class TestPopulationSplitInvariants:
    """Byzantine/normal splits at extreme gamma and tiny populations."""

    @given(n_users=st.integers(1, 5_000), gamma=st.floats(0.0, 1.0))
    @settings(max_examples=200, **COMMON_SETTINGS)
    def test_counts_always_sum_to_n_or_reject(self, n_users, gamma):
        try:
            n_normal, n_byzantine = population_counts(n_users, gamma)
        except ValueError:
            # only legitimate rejection: rounding leaves no normal user
            assert int(round(n_users * gamma)) >= n_users
            return
        assert n_normal + n_byzantine == n_users
        assert n_normal >= 1
        assert n_byzantine == int(round(n_users * gamma))

    @given(n_users=st.integers(1, 2_000))
    @settings(max_examples=50, **COMMON_SETTINGS)
    def test_gamma_zero_means_no_byzantine(self, n_users):
        assert population_counts(n_users, 0.0) == (n_users, 0)

    @given(n_users=st.integers(2, 2_000))
    @settings(max_examples=50, **COMMON_SETTINGS)
    def test_near_one_gamma_keeps_at_least_one_normal_or_rejects(self, n_users):
        with pytest.raises(ValueError, match="no normal users"):
            population_counts(n_users, 1.0)
        # the largest gamma that still rounds to n-1 Byzantine users works
        n_normal, n_byzantine = population_counts(n_users, (n_users - 1) / n_users)
        assert n_normal >= 1 and n_normal + n_byzantine == n_users

    @given(
        n_users=st.integers(1, 1_500),
        gamma=st.floats(0.0, 0.999),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=80, **COMMON_SETTINGS)
    def test_build_population_rounds_like_population_counts(
        self, n_users, gamma, seed
    ):
        dataset = uniform_dataset(n_samples=200, rng=0)
        try:
            counts = population_counts(n_users, gamma)
        except ValueError:
            with pytest.raises(ValueError):
                build_population(dataset, n_users, gamma, rng=seed)
            return
        population = build_population(dataset, n_users, gamma, rng=seed)
        assert (population.n_normal, population.n_byzantine) == counts
        assert population.true_mean == pytest.approx(np.mean(population.normal_values))


class TestStreamingSumInvariants:
    @given(
        seed=st.integers(0, 1_000),
        n=st.integers(1, 3_000),
        chunk_a=st.integers(1, 500),
        chunk_b=st.integers(1, 500),
        scale=st.floats(1e-3, 1e6),
    )
    @settings(max_examples=60, **COMMON_SETTINGS)
    def test_exact_sum_is_chunking_invariant(self, seed, n, chunk_a, chunk_b, scale):
        values = np.random.default_rng(seed).normal(scale=scale, size=n)
        sums = set()
        for chunk_size in (chunk_a, chunk_b, n, 10**9):
            acc = ExactSum()
            for chunk in chunk_array(values, chunk_size):
                acc.add(chunk)
            sums.add(acc.value)
        assert len(sums) == 1

    @given(
        gamma=st.floats(0, 0.9),
        poison_mean=st.floats(-5, 5),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=50, **COMMON_SETTINGS)
    def test_corrected_mean_stats_form_matches_array_form(
        self, gamma, poison_mean, seed
    ):
        reports = np.random.default_rng(seed).uniform(-3, 3, 200)
        assert corrected_mean_from_stats(
            float(reports.sum()), reports.size, gamma, poison_mean
        ) == corrected_mean(reports, gamma, poison_mean)


def _random_partition(rng: np.random.Generator, n: int, n_parts: int):
    """Random (possibly empty-part) partition of ``range(n)`` into slices."""
    cuts = np.sort(rng.integers(0, n + 1, size=max(0, n_parts - 1)))
    bounds = np.concatenate([[0], cuts, [n]])
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


class TestShardMergeInvariants:
    """Any partition of a report stream, accumulated per shard and merged in
    any order — with a snapshot round-trip in between — is bit-identical to
    one-shot accumulation, for all four accumulators."""

    @given(
        seed=st.integers(0, 1_000),
        n=st.integers(1, 2_000),
        n_parts=st.integers(1, 12),
        scale=st.floats(1e-3, 1e6),
        snapshot=st.booleans(),
    )
    @settings(max_examples=60, **COMMON_SETTINGS)
    def test_exact_sum_partition_merge_any_order(
        self, seed, n, n_parts, scale, snapshot
    ):
        rng = np.random.default_rng(seed)
        values = rng.normal(scale=scale, size=n)
        reference = ExactSum().add(values).value
        parts = [
            ExactSum().add(values[a:b])
            for a, b in _random_partition(rng, n, n_parts)
        ]
        if snapshot:
            parts = [ExactSum.from_state(part.state_dict()) for part in parts]
        rng.shuffle(parts)
        merged = parts[0]
        for part in parts[1:]:
            merged.merge(part)
        assert merged.value == reference

    @given(
        seed=st.integers(0, 1_000),
        n=st.integers(1, 1_500),
        n_parts=st.integers(1, 10),
        snapshot=st.booleans(),
    )
    @settings(max_examples=40, **COMMON_SETTINGS)
    def test_histogram_partition_merge_any_order(self, seed, n, n_parts, snapshot):
        rng = np.random.default_rng(seed)
        grid = BucketGrid(-2.0, 2.0, 23)
        values = rng.uniform(-2.5, 2.5, n)
        reference = HistogramAccumulator(grid, track_sum=True).update(values)
        parts = [
            HistogramAccumulator(grid, track_sum=True).update(values[a:b])
            for a, b in _random_partition(rng, n, n_parts)
        ]
        if snapshot:
            parts = [HistogramAccumulator.from_state(p.state_dict()) for p in parts]
        rng.shuffle(parts)
        merged = parts[0]
        for part in parts[1:]:
            merged.merge(part)
        np.testing.assert_array_equal(merged.counts, reference.counts)
        assert merged.sum == reference.sum
        assert merged.n_values == reference.n_values

    @given(
        seed=st.integers(0, 1_000),
        n=st.integers(1, 1_500),
        n_parts=st.integers(1, 10),
        k=st.integers(2, 9),
        snapshot=st.booleans(),
    )
    @settings(max_examples=40, **COMMON_SETTINGS)
    def test_category_counts_partition_merge_any_order(
        self, seed, n, n_parts, k, snapshot
    ):
        rng = np.random.default_rng(seed)
        reports = rng.integers(0, k, n)
        reference = CategoryCountAccumulator(k).update(reports)
        parts = [
            CategoryCountAccumulator(k).update(reports[a:b])
            for a, b in _random_partition(rng, n, n_parts)
        ]
        if snapshot:
            parts = [
                CategoryCountAccumulator.from_state(p.state_dict()) for p in parts
            ]
        rng.shuffle(parts)
        merged = parts[0]
        for part in parts[1:]:
            merged.merge(part)
        np.testing.assert_array_equal(merged.counts, reference.counts)

    @given(
        seed=st.integers(0, 1_000),
        n=st.integers(1, 1_500),
        n_parts=st.integers(1, 10),
        snapshot=st.booleans(),
    )
    @settings(max_examples=40, **COMMON_SETTINGS)
    def test_group_accumulator_partition_merge_any_order(
        self, seed, n, n_parts, snapshot
    ):
        rng = np.random.default_rng(seed)
        grid = BucketGrid(-3.0, 3.0, 17)
        reports = rng.uniform(-3, 3, n)
        reference = GroupAccumulator(
            0.5, grid, n_expected_reports=n, n_users=n
        ).update(reports).stats()
        partition = _random_partition(rng, n, n_parts)
        parts = [
            GroupAccumulator(0.5, grid, n_users=b - a).update(reports[a:b])
            for a, b in partition
        ]
        if snapshot:
            parts = [GroupAccumulator.from_state(p.state_dict()) for p in parts]
        rng.shuffle(parts)
        merged = GroupAccumulator(0.5, grid, n_expected_reports=n)
        for part in parts:
            merged.merge(part)
        stats = merged.stats()
        assert stats.report_sum == reference.report_sum
        assert stats.n_users == reference.n_users
        np.testing.assert_array_equal(stats.output_counts, reference.output_counts)

    @given(seed=st.integers(0, 500), n=st.integers(0, 500), scale=st.floats(1e-3, 1e9))
    @settings(max_examples=60, **COMMON_SETTINGS)
    def test_exact_sum_snapshot_round_trip_preserves_value(self, seed, n, scale):
        values = np.random.default_rng(seed).normal(scale=scale, size=n)
        acc = ExactSum().add(values)
        restored = ExactSum.from_state(acc.state_dict())
        assert restored.value == acc.value
        # a restored accumulator keeps accumulating identically
        more = np.random.default_rng(seed + 1).normal(scale=scale, size=16)
        assert restored.add(more).value == ExactSum().add(values).add(more).value


class TestTheorem1Invariant:
    @given(
        n_left=st.integers(0, 30),
        n_right=st.integers(0, 30),
        seed=st.integers(0, 1000),
        epsilon=st.floats(0.3, 2.0),
    )
    @settings(max_examples=50, **COMMON_SETTINGS)
    def test_any_gba_reduces_to_one_sided_attack(self, n_left, n_right, seed, epsilon):
        rng = np.random.default_rng(seed)
        mech = PiecewiseMechanism(epsilon)
        lo, hi = mech.output_domain
        reports = np.concatenate(
            [rng.uniform(lo, 0, n_left), rng.uniform(0, hi, n_right)]
        )
        reduced = reduce_gba_to_bba(reports, 0.0, lo, hi)
        assert total_deviation(reduced, 0.0) == pytest.approx(
            total_deviation(reports, 0.0), abs=1e-6 * max(1, abs(hi))
        )
        assert not (np.any(reduced > 1e-9) and np.any(reduced < -1e-9))
        if reduced.size:
            assert reduced.min() >= lo - 1e-9 and reduced.max() <= hi + 1e-9
