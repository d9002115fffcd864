"""Tests for the simulation harness (population, schemes, runner, sweep)."""

import numpy as np
import pytest

from repro.attacks import BiasedByzantineAttack, NoAttack, PAPER_POISON_RANGES
from repro.datasets import uniform_dataset
from repro.ldp import SquareWaveMechanism
from repro.simulation import (
    BaselineProtocolScheme,
    DAPScheme,
    Population,
    SingleRoundScheme,
    build_population,
    make_scheme,
    run_trials,
)
from repro.simulation.sweep import format_table, records_to_table
from tests.legacy_sweep import evaluate_schemes, sweep
from repro.core.dap import DAPConfig
from repro.defenses import OstrichDefense


@pytest.fixture(scope="module")
def dataset():
    return uniform_dataset(n_samples=5_000, low=-0.5, high=0.5, rng=1)


ATTACK = BiasedByzantineAttack(PAPER_POISON_RANGES["[C/2,C]"])


class TestPopulation:
    def test_build_population_split(self, dataset, rng):
        population = build_population(dataset, 1_000, gamma=0.25, rng=rng)
        assert population.n_byzantine == 250
        assert population.n_normal == 750
        assert population.n_total == 1_000
        assert population.gamma == pytest.approx(0.25)

    def test_true_mean_matches_normal_values(self, dataset, rng):
        population = build_population(dataset, 500, 0.2, rng=rng)
        assert population.true_mean == pytest.approx(population.normal_values.mean())

    def test_gamma_one_rejected(self, dataset, rng):
        with pytest.raises(ValueError):
            build_population(dataset, 100, 1.0, rng=rng)

    def test_input_domain_rescaling(self, dataset, rng):
        population = build_population(dataset, 500, 0.0, rng=rng, input_domain=(0.0, 1.0))
        assert population.normal_values.min() >= 0.0
        assert population.normal_values.max() <= 1.0

    def test_empty_population_properties(self):
        population = Population(normal_values=np.array([0.0]), n_byzantine=0, true_mean=0.0)
        assert population.gamma == 0.0


class TestSchemes:
    def test_make_scheme_names(self):
        for name in ("DAP-EMF", "DAP-EMF*", "DAP-CEMF*", "Ostrich", "Trimming",
                     "K-means", "Boxplot", "IsolationForest", "Baseline"):
            scheme = make_scheme(name, epsilon=1.0)
            assert scheme.name
        with pytest.raises(KeyError):
            make_scheme("unknown", 1.0)

    def test_dap_scheme_estimate(self, dataset, rng):
        scheme = DAPScheme(DAPConfig(epsilon=1.0, epsilon_min=1 / 4))
        population = build_population(dataset, 3_000, 0.25, rng=rng)
        estimate = scheme.estimate(population, ATTACK, rng=rng)
        assert -1.0 <= estimate <= 1.0

    def test_single_round_scheme_no_attack_accurate(self, dataset, rng):
        scheme = SingleRoundScheme(OstrichDefense(), epsilon=2.0)
        population = build_population(dataset, 4_000, 0.0, rng=rng)
        estimate = scheme.estimate(population, NoAttack(), rng=rng)
        assert estimate == pytest.approx(population.true_mean, abs=0.1)

    def test_baseline_protocol_scheme(self, dataset, rng):
        scheme = BaselineProtocolScheme(epsilon=1.0)
        population = build_population(dataset, 3_000, 0.2, rng=rng)
        estimate = scheme.estimate(population, ATTACK, rng=rng)
        assert -1.0 <= estimate <= 1.0

    def test_make_scheme_with_sw_mechanism(self):
        scheme = make_scheme("Ostrich", 1.0, mechanism_factory=SquareWaveMechanism)
        assert isinstance(scheme.mechanism, SquareWaveMechanism)

    def test_kmeans_kwargs_forwarded(self):
        scheme = make_scheme("K-means", 1.0, sampling_rate=0.3, n_subsets=10)
        assert scheme.defense.sampling_rate == 0.3
        assert scheme.defense.n_subsets == 10


class TestRunner:
    def test_run_trials_counts(self, dataset):
        scheme = make_scheme("Ostrich", 1.0)
        result = run_trials(scheme, dataset, NoAttack(), n_users=2_000, gamma=0.0,
                            trial_seeds=[0, 1, 2])
        assert len(result.estimates) == 3
        assert result.mse >= 0

    def test_run_trials_reproducible(self, dataset):
        scheme = make_scheme("Ostrich", 1.0)
        a = run_trials(scheme, dataset, ATTACK, 2_000, 0.25, trial_seeds=[7, 8])
        b = run_trials(scheme, dataset, ATTACK, 2_000, 0.25, trial_seeds=[7, 8])
        assert a.estimates == b.estimates

    def test_evaluate_schemes_shares_trial_seeds(self, dataset):
        schemes = [make_scheme("Ostrich", 1.0), make_scheme("Trimming", 1.0)]
        results = evaluate_schemes(schemes, dataset, ATTACK, 2_000, 0.25, n_trials=2, rng=3)
        assert set(results) == {"Ostrich", "Trimming"}
        # the two schemes saw the same populations, so the truths match
        assert results["Ostrich"].truths == results["Trimming"].truths

    def test_trial_result_statistics(self, dataset):
        result = run_trials(make_scheme("Ostrich", 2.0), dataset, NoAttack(), 2_000, 0.0,
                            trial_seeds=[0, 1, 2])
        assert result.mse == pytest.approx(
            np.mean((np.array(result.estimates) - np.array(result.truths)) ** 2)
        )
        assert result.mse_against(0.0) >= 0

    def test_dap_beats_ostrich_in_harness(self, dataset):
        schemes = [make_scheme("DAP-EMF*", 1.0, epsilon_min=1 / 8), make_scheme("Ostrich", 1.0)]
        results = evaluate_schemes(schemes, dataset, ATTACK, 4_000, 0.25, n_trials=2, rng=5)
        assert results["DAP-EMF*"].mse < results["Ostrich"].mse


class TestTrialResultEmpty:
    def test_mse_raises_on_empty(self):
        from repro.simulation.runner import TrialResult

        result = TrialResult(scheme="empty")
        with pytest.raises(ValueError, match="no recorded trials"):
            result.mse

    def test_bias_raises_on_empty(self):
        from repro.simulation.runner import TrialResult

        result = TrialResult(scheme="empty")
        with pytest.raises(ValueError, match="no recorded trials"):
            result.bias


class TestSweep:
    def test_sweep_produces_record_per_point_and_scheme(self, dataset):
        points = [{"epsilon": 0.5}, {"epsilon": 1.0}]
        records = sweep(
            points,
            scheme_factory=lambda pt: [make_scheme("Ostrich", pt["epsilon"])],
            attack_factory=lambda pt: ATTACK,
            dataset_factory=lambda pt: dataset,
            n_users=1_500,
            gamma=0.25,
            n_trials=1,
            rng=0,
        )
        assert len(records) == 2
        assert {r.point["epsilon"] for r in records} == {0.5, 1.0}

    def test_callable_gamma(self, dataset):
        points = [{"gamma": 0.1}, {"gamma": 0.3}]
        records = sweep(
            points,
            scheme_factory=lambda pt: [make_scheme("Ostrich", 1.0)],
            attack_factory=lambda pt: ATTACK,
            dataset_factory=lambda pt: dataset,
            n_users=1_500,
            gamma=lambda pt: pt["gamma"],
            n_trials=1,
            rng=0,
        )
        assert len(records) == 2

    def test_records_to_table_and_format(self, dataset):
        points = [{"epsilon": 0.5}]
        records = sweep(
            points,
            scheme_factory=lambda pt: [make_scheme("Ostrich", 0.5), make_scheme("Trimming", 0.5)],
            attack_factory=lambda pt: ATTACK,
            dataset_factory=lambda pt: dataset,
            n_users=1_500,
            gamma=0.25,
            n_trials=1,
            rng=0,
        )
        table = records_to_table(records, row_key="epsilon")
        assert set(table[0.5]) == {"Ostrich", "Trimming"}
        text = format_table(table, row_label="epsilon")
        assert "Ostrich" in text and "0.5" in text

    def test_records_to_table_rejects_missing_row_key(self, dataset):
        from repro.simulation.sweep import SweepRecord

        records = [
            SweepRecord(point={"epsilon": 0.5}, scheme="Ostrich", mse=1.0,
                        bias=0.0, n_trials=1),
            SweepRecord(point={"gamma": 0.25}, scheme="Ostrich", mse=2.0,
                        bias=0.0, n_trials=1),
        ]
        # heterogeneous points must be filtered per panel, not collapsed
        with pytest.raises(KeyError, match="epsilon"):
            records_to_table(records, row_key="epsilon")
        with pytest.raises(KeyError, match="gamma"):
            records_to_table(records, row_key="scheme", column_key="gamma")
