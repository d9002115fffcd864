"""Integration tests across modules: full pipelines on realistic workloads."""

import numpy as np
import pytest

from repro import DAPConfig, DAPProtocol
from repro.attacks import (
    BiasedByzantineAttack,
    GeneralByzantineAttack,
    InputManipulationAttack,
    PAPER_POISON_RANGES,
    reduce_gba_to_bba,
)
from repro.core.baseline_protocol import BaselineProtocol
from repro.core.mean_estimation import corrected_mean
from repro.datasets import load_dataset
from repro.defenses import OstrichDefense, TrimmingDefense
from repro.ldp import PiecewiseMechanism
from repro.simulation import build_population, make_scheme
from tests.legacy_sweep import evaluate_schemes


class TestMeanEstimationPipelines:
    """End-to-end: datasets -> attack -> protocol -> estimate."""

    @pytest.mark.parametrize("dataset_name", ["Taxi", "Beta(5,2)", "Retirement"])
    def test_dap_accuracy_across_datasets(self, dataset_name):
        dataset = load_dataset(dataset_name, n_samples=9_000, rng=1)
        attack = BiasedByzantineAttack(PAPER_POISON_RANGES["[C/2,C]"])
        config = DAPConfig(epsilon=1.0, epsilon_min=1 / 16, estimator="emf_star")
        result = DAPProtocol(config).run(dataset.values[:6_000], attack, 2_000, rng=2)
        truth = dataset.values[:6_000].mean()
        assert abs(result.estimate - truth) < 0.15

    def test_all_three_dap_variants_beat_both_baselines(self):
        dataset = load_dataset("Taxi", n_samples=8_000, rng=3)
        attack = BiasedByzantineAttack(PAPER_POISON_RANGES["[3C/4,C]"])
        schemes = [
            make_scheme(name, epsilon=1.0)
            for name in ("DAP-EMF", "DAP-EMF*", "DAP-CEMF*", "Ostrich", "Trimming")
        ]
        results = evaluate_schemes(schemes, dataset, attack, n_users=8_000, gamma=0.25,
                                   n_trials=2, rng=4)
        for dap_name in ("DAP-EMF", "DAP-EMF*", "DAP-CEMF*"):
            assert results[dap_name].mse < results["Ostrich"].mse
            assert results[dap_name].mse < results["Trimming"].mse

    def test_gba_reduction_then_correction(self):
        """Theorem 1 in practice: a two-sided GBA has the same aggregate effect
        as its BBA reduction, so correcting with either yields the same mean."""
        rng = np.random.default_rng(5)
        mech = PiecewiseMechanism(1.0)
        values = np.clip(rng.normal(0.1, 0.2, 6_000), -1, 1)
        normal_reports = mech.perturb(values, rng)
        gba = GeneralByzantineAttack(right_fraction=0.7)
        poison = gba.poison_reports(2_000, mech, 0.0, rng).reports
        reduced = reduce_gba_to_bba(poison, 0.0, *mech.output_domain)

        full = np.concatenate([normal_reports, poison])
        equivalent = np.concatenate([normal_reports, reduced])
        assert full.sum() == pytest.approx(equivalent.sum(), rel=1e-9)

    def test_baseline_protocol_vs_dap_under_evasion_of_probing(self):
        """The motivating flaw: attackers that hide during the baseline's
        probing round hurt the baseline protocol more than DAP."""
        dataset = load_dataset("Taxi", n_samples=8_000, rng=6)
        values = dataset.values[:6_000]
        truth = values.mean()
        attack = BiasedByzantineAttack(PAPER_POISON_RANGES["[C/2,C]"])

        baseline = BaselineProtocol(epsilon=1.0, alpha_fraction=0.1)
        baseline_result = baseline.run(values, attack, 2_000, evade_probing=True, rng=7)

        dap = DAPProtocol(DAPConfig(epsilon=1.0, epsilon_min=1 / 16, estimator="emf_star"))
        dap_result = dap.run(values, attack, 2_000, rng=7)

        assert abs(dap_result.estimate - truth) < abs(baseline_result.estimate - truth)

    def test_ima_is_weak_but_undetected(self):
        """An input-manipulation attack barely moves the mean but also barely
        registers in gamma_hat — matching the paper's Figure 5(d) narrative."""
        dataset = load_dataset("Taxi", n_samples=8_000, rng=8)
        values = dataset.values[:6_000]
        attack = InputManipulationAttack(1.0)
        config = DAPConfig(epsilon=1.0, epsilon_min=1 / 16)
        result = DAPProtocol(config).run(values, attack, 2_000, rng=9)
        assert result.gamma_hat < 0.15
        # even uncorrected, the IMA can only shift the mean by ~gamma * (1 - O)
        assert abs(result.estimate - values.mean()) < 0.35


class TestDefenseComparisonsOnPerturbedData:
    def test_trimming_overkills_clean_data(self):
        """Trimming half the reports on clean data biases the estimate, which
        is one of the drawbacks the paper lists in the introduction."""
        rng = np.random.default_rng(10)
        mech = PiecewiseMechanism(1.0)
        dataset = load_dataset("Beta(5,2)", n_samples=10_000, rng=10)
        reports = mech.perturb(dataset.values, rng)
        trimmed = TrimmingDefense(0.5)(reports, mech, rng)
        ostrich = OstrichDefense()(reports, mech, rng)
        truth = dataset.true_mean
        assert abs(ostrich - truth) < abs(trimmed - truth)

    def test_corrected_mean_with_oracle_features_is_nearly_exact(self):
        rng = np.random.default_rng(11)
        mech = PiecewiseMechanism(2.0)
        dataset = load_dataset("Retirement", n_samples=12_000, rng=11)
        values = dataset.values[:9_000]
        normal_reports = mech.perturb(values, rng)
        attack = BiasedByzantineAttack(PAPER_POISON_RANGES["[C/2,C]"])
        poison = attack.poison_reports(3_000, mech, 0.0, rng).reports
        reports = np.concatenate([normal_reports, poison])
        estimate = corrected_mean(reports, gamma_hat=0.25, poison_mean=float(poison.mean()))
        assert estimate == pytest.approx(values.mean(), abs=0.05)


class TestPrivacyAccountingIntegration:
    def test_dap_groups_respect_total_budget(self):
        """Every user's total spent budget equals epsilon regardless of group."""
        config = DAPConfig(epsilon=1.0, epsilon_min=1 / 8)
        protocol = DAPProtocol(config)
        for epsilon_t in config.budget_ladder:
            reports = protocol._reports_per_user(epsilon_t)
            assert reports * epsilon_t == pytest.approx(1.0)

    def test_population_and_collection_sizes_consistent(self):
        dataset = load_dataset("Beta(2,5)", n_samples=4_000, rng=12)
        population = build_population(dataset, 4_000, 0.25, rng=12)
        config = DAPConfig(epsilon=0.5, epsilon_min=1 / 4)
        protocol = DAPProtocol(config)
        groups = protocol.collect_sharded(
            population.normal_values, BiasedByzantineAttack(), population.n_byzantine, rng=13
        )
        assert sum(g.n_users for g in groups) == population.n_total
        for group in groups:
            repeats = protocol._reports_per_user(group.epsilon)
            assert group.n_reports == group.n_users * repeats
