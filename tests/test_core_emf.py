"""Tests for EMF, EMF* and CEMF* (Algorithms 2 and 4, Theorems 3-5)."""

import numpy as np
import pytest

from repro.attacks import BiasedByzantineAttack, PAPER_POISON_RANGES
from repro.core.cemf_star import run_cemf_star, suppression_mask
from repro.core.emf import default_tolerance, run_emf
from repro.core.emf_star import run_emf_star
from repro.core.transform import build_transform_matrix, default_bucket_counts
from repro.ldp import PiecewiseMechanism
from repro.ldp.ems import em_reconstruct


@pytest.fixture
def attacked(rng):
    mech = PiecewiseMechanism(0.25)
    values = np.clip(rng.normal(0.1, 0.3, 6_000), -1, 1)
    normal = mech.perturb(values, rng)
    attack = BiasedByzantineAttack(PAPER_POISON_RANGES["[C/2,C]"])
    poison = attack.poison_reports(2_000, mech, 0.0, rng).reports
    reports = np.concatenate([normal, poison])
    d_in, d_out = default_bucket_counts(reports.size, 0.25)
    transform = build_transform_matrix(mech, d_in, d_out, "right", 0.0)
    return {
        "mechanism": mech,
        "transform": transform,
        "reports": reports,
        "gamma": 2_000 / reports.size,
        "poison_mean": float(poison.mean()),
        "values": values,
    }


class TestDefaultTolerance:
    def test_matches_paper_formula(self):
        assert default_tolerance(1.0) == pytest.approx(0.01 * np.e)

    def test_none_gives_small_default(self):
        assert default_tolerance(None) == pytest.approx(1e-6)


class TestEMF:
    def test_histograms_form_distribution(self, attacked):
        result = run_emf(attacked["transform"], reports=attacked["reports"], epsilon=0.25)
        total = result.normal_histogram.sum() + result.poison_histogram.sum()
        assert total == pytest.approx(1.0, abs=1e-6)
        assert result.normal_histogram.min() >= 0
        assert result.poison_histogram.min() >= 0

    def test_gamma_estimate_close_to_truth(self, attacked):
        result = run_emf(attacked["transform"], reports=attacked["reports"], epsilon=0.25)
        assert result.gamma_hat == pytest.approx(attacked["gamma"], abs=0.08)

    def test_poison_mean_close_to_truth(self, attacked):
        result = run_emf(attacked["transform"], reports=attacked["reports"], epsilon=0.25)
        assert result.poison_mean == pytest.approx(attacked["poison_mean"], rel=0.15)

    def test_counts_and_reports_paths_agree(self, attacked):
        from_reports = run_emf(attacked["transform"], reports=attacked["reports"], epsilon=0.25)
        counts = attacked["transform"].output_counts(attacked["reports"])
        from_counts = run_emf(attacked["transform"], counts=counts, epsilon=0.25)
        np.testing.assert_allclose(
            from_reports.normal_histogram, from_counts.normal_histogram
        )

    def test_requires_exactly_one_input(self, attacked):
        with pytest.raises(ValueError):
            run_emf(attacked["transform"])
        with pytest.raises(ValueError):
            run_emf(attacked["transform"], reports=attacked["reports"], counts=np.ones(3))

    def test_no_attack_gives_small_gamma(self, rng):
        mech = PiecewiseMechanism(0.125)
        values = np.clip(rng.normal(0.0, 0.3, 8_000), -1, 1)
        reports = mech.perturb(values, rng)
        d_in, d_out = default_bucket_counts(reports.size, 0.125)
        transform = build_transform_matrix(mech, d_in, d_out, "right", 0.0)
        result = run_emf(transform, reports=reports, epsilon=0.125)
        assert result.gamma_hat < 0.08

    def test_small_epsilon_normal_histogram_near_uniform(self, rng):
        # Theorem 3: as epsilon -> 0 the reconstructed normal histogram tends
        # to uniform, so its variance is tiny even under attack.
        mech = PiecewiseMechanism(0.0625)
        values = np.clip(rng.normal(0.3, 0.2, 8_000), -1, 1)
        normal = mech.perturb(values, rng)
        poison = BiasedByzantineAttack(PAPER_POISON_RANGES["[C/2,C]"]).poison_reports(
            2_000, mech, 0.0, rng
        ).reports
        reports = np.concatenate([normal, poison])
        d_in, d_out = default_bucket_counts(reports.size, 0.0625)
        transform = build_transform_matrix(mech, d_in, d_out, "right", 0.0)
        result = run_emf(transform, reports=reports, epsilon=0.0625)
        normalized = result.normalized_normal_histogram()
        assert np.var(normalized) < 1e-3

    def test_estimated_normal_mean_reasonable(self, attacked):
        result = run_emf(attacked["transform"], reports=attacked["reports"], epsilon=0.25)
        assert result.estimated_normal_mean() == pytest.approx(
            attacked["values"].mean(), abs=0.25
        )

    def test_empty_poison_histogram_gives_zero_gamma(self):
        mech = PiecewiseMechanism(1.0)
        transform = build_transform_matrix(mech, 8, 16, "right", 0.0)
        counts = np.ones(16)
        result = run_emf(transform, counts=counts, epsilon=1.0)
        assert 0.0 <= result.gamma_hat <= 1.0


class TestEMFStar:
    def test_gamma_constraint_enforced(self, attacked):
        result = run_emf_star(
            attacked["transform"], gamma_hat=attacked["gamma"],
            reports=attacked["reports"], epsilon=0.25,
        )
        assert result.poison_histogram.sum() == pytest.approx(attacked["gamma"], abs=1e-6)
        assert result.normal_histogram.sum() == pytest.approx(1 - attacked["gamma"], abs=1e-6)

    def test_zero_gamma_means_no_poison_mass(self, attacked):
        result = run_emf_star(
            attacked["transform"], gamma_hat=0.0, reports=attacked["reports"], epsilon=0.25
        )
        assert result.poison_histogram.sum() == pytest.approx(0.0, abs=1e-9)

    def test_poison_mean_not_worse_than_emf(self, attacked):
        emf = run_emf(attacked["transform"], reports=attacked["reports"], epsilon=0.25)
        emf_star = run_emf_star(
            attacked["transform"], gamma_hat=attacked["gamma"],
            reports=attacked["reports"], epsilon=0.25,
        )
        truth = attacked["poison_mean"]
        assert abs(emf_star.poison_mean - truth) <= abs(emf.poison_mean - truth) + 0.35

    def test_invalid_gamma(self, attacked):
        with pytest.raises(ValueError):
            run_emf_star(attacked["transform"], gamma_hat=1.5, reports=attacked["reports"])

    def test_fixed_zero_poison_mask(self, attacked):
        n_poison = attacked["transform"].n_poison_components
        mask = np.zeros(n_poison, dtype=bool)
        mask[: n_poison // 2] = True
        result = run_emf_star(
            attacked["transform"], gamma_hat=attacked["gamma"],
            reports=attacked["reports"], epsilon=0.25, fixed_zero_poison=mask,
        )
        np.testing.assert_allclose(result.poison_histogram[mask], 0.0)

    def test_fixed_zero_wrong_shape(self, attacked):
        with pytest.raises(ValueError):
            run_emf_star(
                attacked["transform"], gamma_hat=0.2, reports=attacked["reports"],
                fixed_zero_poison=np.array([True]),
            )

    def test_constrained_m_step_splits_mass(self):
        # one EM step from uniform weights on the identity transform: the
        # responsibilities are [1, 1, 2, 2] and Theorem 4 splits them 0.7/0.3
        out = em_reconstruct(
            np.eye(4), np.array([1.0, 1.0, 2.0, 2.0]), max_iter=1,
            poison_mass=(0.3, 2),
        ).weights
        assert out[:2].sum() == pytest.approx(0.7)
        assert out[2:].sum() == pytest.approx(0.3)
        np.testing.assert_allclose(out, [0.35, 0.35, 0.15, 0.15])


class TestCEMFStar:
    def test_suppression_mask_threshold(self):
        histogram = np.array([0.001, 0.10, 0.002, 0.12])
        mask = suppression_mask(histogram, gamma_hat=0.22, factor=0.5)
        np.testing.assert_array_equal(mask, [True, False, True, False])

    def test_suppression_never_removes_everything(self):
        mask = suppression_mask(np.zeros(5), gamma_hat=0.2)
        assert not mask.any()

    def test_empty_histogram(self):
        assert suppression_mask(np.array([]), 0.2).size == 0

    def test_concentrated_poison_reconstruction_improves(self, rng):
        # poison concentrated on a narrow range: CEMF* should localise it at
        # least as well as EMF (Theorem 5's motivation)
        mech = PiecewiseMechanism(0.25)
        values = np.clip(rng.normal(0.0, 0.3, 6_000), -1, 1)
        normal = mech.perturb(values, rng)
        attack = BiasedByzantineAttack(PAPER_POISON_RANGES["[3C/4,C]"])
        poison = attack.poison_reports(2_000, mech, 0.0, rng).reports
        reports = np.concatenate([normal, poison])
        gamma = 2_000 / reports.size
        d_in, d_out = default_bucket_counts(reports.size, 0.25)
        transform = build_transform_matrix(mech, d_in, d_out, "right", 0.0)
        emf = run_emf(transform, reports=reports, epsilon=0.25)
        cemf = run_cemf_star(
            transform, emf_result=emf, gamma_hat=gamma, reports=reports, epsilon=0.25
        )
        truth = float(poison.mean())
        assert abs(cemf.poison_mean - truth) <= abs(emf.poison_mean - truth) + 0.2
        # suppressed buckets hold no mass
        mask = suppression_mask(emf.poison_histogram, gamma)
        np.testing.assert_allclose(cemf.poison_histogram[mask], 0.0, atol=1e-12)

    def test_mismatched_transform_rejected(self, attacked):
        emf = run_emf(attacked["transform"], reports=attacked["reports"], epsilon=0.25)
        other = build_transform_matrix(attacked["mechanism"], 8, 18, "right", 0.0)
        with pytest.raises(ValueError):
            run_cemf_star(other, emf_result=emf, reports=attacked["reports"])

    def test_gamma_defaults_to_emf_estimate(self, attacked):
        emf = run_emf(attacked["transform"], reports=attacked["reports"], epsilon=0.25)
        cemf = run_cemf_star(
            attacked["transform"], emf_result=emf, reports=attacked["reports"], epsilon=0.25
        )
        assert cemf.gamma_hat == pytest.approx(emf.gamma_hat, abs=1e-6)
