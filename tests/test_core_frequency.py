"""Tests for the categorical frequency-estimation extension (Section V-D)."""

import numpy as np
import pytest

from repro.core import frequency
from repro.core.frequency import FrequencyDAP, ostrich_frequencies
from repro.datasets import covid_dataset
from repro.estimators import frequency_mse
from repro.ldp import KRandomizedResponse
from repro.ldp.ems import _stacked, em_reconstruct_accelerated


@pytest.fixture(scope="module")
def covid():
    return covid_dataset(n_samples=12_000, rng=3)


class TestOstrichFrequencies:
    def test_clean_reports_recover_frequencies(self, covid, rng):
        mech = KRandomizedResponse(2.0, covid.n_categories)
        reports = mech.perturb(covid.categories, rng)
        estimate = ostrich_frequencies(mech, reports)
        assert estimate.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(estimate, covid.true_frequencies, atol=0.03)

    def test_unclipped_variant(self, covid, rng):
        mech = KRandomizedResponse(2.0, covid.n_categories)
        reports = mech.perturb(covid.categories, rng)
        estimate = ostrich_frequencies(mech, reports, clip=False)
        assert estimate.sum() == pytest.approx(1.0, abs=0.05)


class TestFrequencyDAPCollection:
    def test_report_count(self, covid, rng):
        dap = FrequencyDAP(1.0, covid.n_categories)
        counts = dap.collect_sharded(covid.categories[:2_000], (9,), 500, rng=rng)
        assert counts.n_reports == 2_500

    def test_byzantine_requires_targets(self, covid, rng):
        dap = FrequencyDAP(1.0, covid.n_categories)
        with pytest.raises(ValueError):
            dap.collect_sharded(covid.categories[:100], (), 10, rng=rng)

    def test_poison_reports_hit_targets(self, covid, rng):
        dap = FrequencyDAP(1.0, covid.n_categories)
        counts = dap.collect_sharded(covid.categories[:0], (3, 4), 1_000, rng=rng)
        assert set(np.flatnonzero(counts.counts)) <= {3, 4}


class TestFrequencyDAPEstimation:
    def test_detects_single_poisoned_category(self, covid, rng):
        dap = FrequencyDAP(1.0, covid.n_categories)
        n_byz = 2_000
        normal = covid.categories[:6_000]
        result = dap.run(normal, (3,), n_byz, rng=rng)
        assert 3 in result.poisoned_categories
        assert result.gamma_hat == pytest.approx(n_byz / (normal.size + n_byz), abs=0.08)

    def test_beats_ostrich_under_attack(self, covid, rng):
        epsilon = 1.0
        n_byz = 2_000
        normal = covid.categories[:6_000]
        truth = np.bincount(normal, minlength=covid.n_categories) / normal.size
        dap = FrequencyDAP(epsilon, covid.n_categories)
        counts = dap.collect_sharded(normal, (3,), n_byz, rng=rng)
        dap_mse = frequency_mse(dap.estimate_from_counts(counts).frequencies, truth)
        reports = np.repeat(np.arange(covid.n_categories), counts.counts)
        mech = KRandomizedResponse(epsilon, covid.n_categories)
        ostrich_mse = frequency_mse(ostrich_frequencies(mech, reports), truth)
        assert dap_mse < ostrich_mse

    def test_no_attack_flags_nothing_catastrophic(self, covid, rng):
        dap = FrequencyDAP(1.0, covid.n_categories, min_likelihood_gain=10.0)
        normal = covid.categories[:6_000]
        result = dap.run(normal, (), 0, rng=rng)
        assert result.gamma_hat < 0.15
        assert result.frequencies.sum() == pytest.approx(1.0)

    def test_estimator_variants_run(self, covid, rng):
        normal = covid.categories[:4_000]
        for estimator in ("emf", "emf_star", "cemf_star"):
            dap = FrequencyDAP(1.0, covid.n_categories, estimator=estimator)
            result = dap.run(normal, (3,), 1_000, rng=rng)
            assert result.frequencies.sum() == pytest.approx(1.0)
            assert result.frequencies.min() >= 0

    def test_multiple_poisoned_categories(self, covid, rng):
        dap = FrequencyDAP(2.0, covid.n_categories)
        normal = covid.categories[:6_000]
        result = dap.run(normal, (2, 3), 3_000, rng=rng)
        assert set(result.poisoned_categories) & {2, 3}

    def test_run_end_to_end(self, covid, rng):
        dap = FrequencyDAP(1.0, covid.n_categories)
        result = dap.run(covid.categories[:3_000], (5,), 800, rng=rng)
        assert result.frequencies.size == covid.n_categories

    def test_empty_reports_rejected(self, covid):
        with pytest.raises(ValueError):
            FrequencyDAP(1.0, covid.n_categories).estimate(np.array([], dtype=int))

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            FrequencyDAP(1.0, 1)
        with pytest.raises(ValueError):
            FrequencyDAP(1.0, 5, estimator="bogus")
        with pytest.raises(ValueError):
            FrequencyDAP(0.0, 5)


def _recipe_categories(k: int, kind: str) -> np.ndarray:
    """ROADMAP item 13's inputs: 200,000 Zipf(1.3) or harmonic categories."""
    rng = np.random.default_rng(1)
    if kind == "zipf":
        return rng.zipf(1.3, 200_000) % k
    harmonic = 1.0 / np.arange(1, k + 1)
    return rng.choice(k, 200_000, p=harmonic / harmonic.sum())


class TestCertifiedProbeRounds:
    """Every gain the greedy probe accepts is certified within gap_tol."""

    @pytest.mark.parametrize("n_byzantine", [0, 10_000])
    @pytest.mark.parametrize("kind", ["zipf", "harmonic"])
    def test_accepted_gains_are_certified(
        self, monkeypatch, kind, n_byzantine
    ):
        k = 64
        dap = FrequencyDAP(2.0, k)
        counts = dap.collect_sharded(
            _recipe_categories(k, kind), (k - 1, k - 2), n_byzantine, rng=2
        ).counts_float()
        rounds = []
        solve = frequency.em_reconstruct_batch

        def recording_solve(dense, counts, tail_rows, **kwargs):
            batch = solve(dense, counts, tail_rows, **kwargs)
            rounds.append((tail_rows, kwargs, batch))
            return batch

        monkeypatch.setattr(frequency, "em_reconstruct_batch", recording_solve)
        flags, _ = dap.probe_poisoned_categories(counts)
        dense = dap._transition_matrix()

        def gap(transform, weights):
            gradient = transform.T @ (counts / np.maximum(transform @ weights, 1e-300))
            return gradient.max() - weights @ gradient

        # each accepted round's winner: certified within gap_tol
        for tail_rows, kwargs, batch in rounds[: len(flags)]:
            best = int(np.argmax(batch.log_likelihoods))
            assert batch.converged[best]
            transform = _stacked(dense, tail_rows[best])
            assert gap(transform, batch.weights[best]) < kwargs["gap_tol"]
        # the starting incumbent (the first round's floor, less the gain):
        # within gap_tol of the no-poison optimum
        _, kwargs, _ = rounds[0]
        reference = em_reconstruct_accelerated(dense, counts, gap_tol=1e-6)
        assert gap(dense, reference.weights) < 1e-6
        incumbent_ll = kwargs["ll_floor"] - dap.min_likelihood_gain
        assert reference.log_likelihood + 1e-6 - incumbent_ll < kwargs["gap_tol"]
        if n_byzantine:
            assert k - 1 in flags
