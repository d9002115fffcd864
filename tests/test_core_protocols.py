"""Tests for the baseline protocol (Section IV) and the DAP protocol (Section V)."""

import numpy as np
import pytest

from repro.attacks import BiasedByzantineAttack, NoAttack, PAPER_POISON_RANGES
from repro.core.baseline_protocol import BaselineProtocol
from repro.core.dap import DAPConfig, DAPProtocol, GroupWarmState, WarmState
from repro.defenses import OstrichDefense
from repro.ldp import PiecewiseMechanism, SquareWaveMechanism
from tests.client_reports import group_reports


@pytest.fixture(scope="module")
def normal_values():
    rng = np.random.default_rng(99)
    return np.clip(rng.normal(0.15, 0.25, 6_000), -1, 1)


ATTACK = BiasedByzantineAttack(PAPER_POISON_RANGES["[C/2,C]"])


class TestDAPConfig:
    def test_budget_ladder(self):
        config = DAPConfig(epsilon=1.0, epsilon_min=1 / 8)
        assert config.budget_ladder == [1.0, 0.5, 0.25, 0.125]
        assert config.n_groups == 4

    def test_single_group_when_min_equals_total(self):
        assert DAPConfig(epsilon=1.0, epsilon_min=1.0).n_groups == 1

    def test_invalid_epsilon_min(self):
        with pytest.raises(ValueError):
            DAPConfig(epsilon=0.5, epsilon_min=1.0)

    def test_invalid_estimator(self):
        with pytest.raises(ValueError):
            DAPConfig(epsilon=1.0, estimator="other")

    def test_invalid_intra_group_mean(self):
        with pytest.raises(ValueError):
            DAPConfig(epsilon=1.0, intra_group_mean="bogus")


class TestDAPCollect:
    def test_group_structure(self, normal_values):
        config = DAPConfig(epsilon=1.0, epsilon_min=1 / 4)
        protocol = DAPProtocol(config)
        groups = protocol.collect_sharded(normal_values, ATTACK, n_byzantine=2_000, rng=0)
        assert len(groups) == config.n_groups
        # every user lands in exactly one group
        assert sum(g.n_users for g in groups) == normal_values.size + 2_000

    def test_small_budget_groups_have_more_reports(self, normal_values):
        config = DAPConfig(epsilon=1.0, epsilon_min=1 / 4)
        groups = DAPProtocol(config).collect_sharded(normal_values, ATTACK, 2_000, rng=0)
        by_eps = {g.epsilon: g for g in groups}
        # reports scale like 1/epsilon_t for (roughly) equal-sized groups
        assert by_eps[0.25].n_reports > by_eps[0.5].n_reports > by_eps[1.0].n_reports

    def test_reports_within_group_output_domain(self, normal_values):
        config = DAPConfig(epsilon=1.0, epsilon_min=1 / 4)
        protocol = DAPProtocol(config)
        groups = group_reports(
            protocol, normal_values, ATTACK, 1_000, np.random.default_rng(0)
        )
        for group in groups:
            mech = protocol.mechanism_for(group.epsilon)
            assert group.reports.min() >= mech.output_domain[0] - 1e-9
            assert group.reports.max() <= mech.output_domain[1] + 1e-9

    def test_no_users_rejected(self):
        protocol = DAPProtocol(DAPConfig(epsilon=1.0))
        with pytest.raises(ValueError):
            protocol.collect_sharded(np.array([]), NoAttack(), 0, rng=0)

    def test_reports_per_user_cap(self):
        config = DAPConfig(epsilon=1.0, epsilon_min=1 / 64, max_reports_per_user=4)
        assert DAPProtocol(config)._reports_per_user(1 / 64) == 4


class TestDAPAggregate:
    def test_detects_attack_and_corrects(self, normal_values):
        config = DAPConfig(epsilon=1.0, epsilon_min=1 / 16, estimator="emf_star")
        result = DAPProtocol(config).run(normal_values, ATTACK, n_byzantine=2_000, rng=1)
        assert result.poisoned_side == "right"
        assert result.gamma_hat == pytest.approx(0.25, abs=0.08)
        assert result.estimate == pytest.approx(normal_values.mean(), abs=0.15)

    def test_beats_ostrich_under_attack(self, normal_values):
        config = DAPConfig(epsilon=1.0, epsilon_min=1 / 16, estimator="cemf_star")
        dap_estimate = DAPProtocol(config).run(normal_values, ATTACK, 2_000, rng=2).estimate

        mech = PiecewiseMechanism(1.0)
        rng = np.random.default_rng(2)
        reports = np.concatenate(
            [mech.perturb(normal_values, rng), ATTACK.poison_reports(2_000, mech, 0.0, rng).reports]
        )
        ostrich_estimate = OstrichDefense()(reports, mech, rng)
        truth = normal_values.mean()
        assert abs(dap_estimate - truth) < abs(ostrich_estimate - truth)

    def test_no_attack_estimate_accurate(self, normal_values):
        config = DAPConfig(epsilon=1.0, epsilon_min=1 / 8)
        result = DAPProtocol(config).run(normal_values, NoAttack(), 0, rng=3)
        assert result.estimate == pytest.approx(normal_values.mean(), abs=0.1)
        assert result.gamma_hat < 0.1

    def test_weights_sum_to_one_and_favour_large_epsilon(self, normal_values):
        config = DAPConfig(epsilon=1.0, epsilon_min=1 / 8)
        result = DAPProtocol(config).run(normal_values, ATTACK, 2_000, rng=4)
        assert result.weights.sum() == pytest.approx(1.0)
        by_eps = sorted(result.group_estimates, key=lambda g: g.epsilon)
        assert by_eps[-1].weight == max(g.weight for g in result.group_estimates)

    def test_estimator_variants_all_run(self, normal_values):
        for estimator in ("emf", "emf_star", "cemf_star"):
            config = DAPConfig(epsilon=1.0, epsilon_min=1 / 4, estimator=estimator)
            result = DAPProtocol(config).run(normal_values, ATTACK, 1_500, rng=5)
            assert -1.0 <= result.estimate <= 1.0

    def test_aggregate_rejects_empty_groups(self):
        protocol = DAPProtocol(DAPConfig(epsilon=1.0))
        with pytest.raises(ValueError):
            protocol.aggregate_accumulated([protocol.group_accumulator(1.0, 0)])

    def test_aggregate_collector_only_entry_point(self, normal_values):
        config = DAPConfig(epsilon=1.0, epsilon_min=1 / 4)
        protocol = DAPProtocol(config)
        groups = protocol.collect_sharded(normal_values, ATTACK, 1_000, rng=6)
        result = protocol.aggregate_stats([group.stats() for group in groups])
        assert len(result.group_estimates) == len(groups)

    def test_left_side_attack_detected(self, normal_values):
        attack = BiasedByzantineAttack(PAPER_POISON_RANGES["[C/2,C]"], side="left")
        config = DAPConfig(epsilon=1.0, epsilon_min=1 / 16)
        result = DAPProtocol(config).run(normal_values, attack, 2_000, rng=7)
        assert result.poisoned_side == "left"
        assert result.estimate == pytest.approx(normal_values.mean(), abs=0.2)


class TestDAPWarmState:
    """``aggregate_stats`` hands back a warm state and restarts from one."""

    SOLVES = {
        "emf": {"emf"},
        "emf_star": {"emf_star"},
        "cemf_star": {"emf", "cemf_star"},
    }

    @staticmethod
    def round_stats(normal_values, estimator="cemf_star"):
        config = DAPConfig(epsilon=1.0, epsilon_min=1 / 4, estimator=estimator)
        protocol = DAPProtocol(config)
        groups = protocol.collect_sharded(normal_values, ATTACK, 1_500, rng=8)
        return protocol, [group.stats() for group in groups]

    @pytest.mark.parametrize("estimator", ["emf", "emf_star", "cemf_star"])
    def test_state_covers_the_probe_and_every_group(self, normal_values, estimator):
        protocol, stats = self.round_stats(normal_values, estimator)
        cold = protocol.aggregate_stats(stats)
        state = cold.warm_state
        assert set(state.probe) == {"left", "right"}
        assert set(state.groups) == {s.epsilon for s in stats}
        probe_epsilon = min(s.epsilon for s in stats)
        for epsilon, group in state.groups.items():
            assert group.side == cold.poisoned_side
            expected = set(self.SOLVES[estimator])
            if epsilon == probe_epsilon:
                expected.discard("emf")  # reused from the probe, not solved
            assert set(group.weights) == expected
        assert cold.aggregate_iterations == sum(
            g.em_iterations for g in cold.group_estimates
        )

        # restarting on the same statistics from the converged state stops
        # sooner and lands within the tau stop rule's slack of the cold answer
        warm = protocol.aggregate_stats(stats, warm_state=state)
        assert warm.poisoned_side == cold.poisoned_side
        assert warm.aggregate_iterations < cold.aggregate_iterations
        assert warm.estimate == pytest.approx(cold.estimate, abs=0.02)

    def test_group_found_on_another_side_cold_starts(self, normal_values):
        protocol, stats = self.round_stats(normal_values)
        cold = protocol.aggregate_stats(stats)
        flipped = "left" if cold.poisoned_side == "right" else "right"
        stale = WarmState(
            probe={},  # no probe vectors: the probe cold-starts too
            groups={
                epsilon: GroupWarmState(flipped, group.weights)
                for epsilon, group in cold.warm_state.groups.items()
            },
        )
        again = protocol.aggregate_stats(stats, warm_state=stale)
        assert again.estimate == cold.estimate
        assert again.aggregate_iterations == cold.aggregate_iterations

    @pytest.mark.parametrize(
        "damage,message",
        [
            (lambda w: w[:-1], "must have length"),
            (lambda w: np.where(np.arange(w.size) == 0, np.nan, w), "finite"),
            (lambda w: -w, "non-negative"),
        ],
    )
    def test_invalid_group_vector_refused(self, normal_values, damage, message):
        protocol, stats = self.round_stats(normal_values)
        state = protocol.aggregate_stats(stats).warm_state
        broken = WarmState(
            probe=state.probe,
            groups={
                epsilon: GroupWarmState(
                    group.side, {k: damage(w) for k, w in group.weights.items()}
                )
                for epsilon, group in state.groups.items()
            },
        )
        with pytest.raises(ValueError, match=message):
            protocol.aggregate_stats(stats, warm_state=broken)


class TestDAPWithSquareWave:
    def test_distribution_mode_runs(self):
        # SW reconstruction needs a reasonable signal (epsilon not too small)
        # at this test scale; the paper's Figure 8 runs it on 10^6 users.
        rng = np.random.default_rng(0)
        values = rng.beta(2, 5, 6_000)  # already in [0, 1]
        config = DAPConfig(
            epsilon=2.0,
            epsilon_min=1.0,
            estimator="emf_star",
            mechanism_factory=SquareWaveMechanism,
            intra_group_mean="distribution",
        )
        result = DAPProtocol(config).run(values, NoAttack(), 0, rng=1)
        assert result.estimate == pytest.approx(values.mean(), abs=0.12)
        assert 0.0 <= result.estimate <= 1.0


class TestBaselineProtocol:
    def test_budget_split(self):
        protocol = BaselineProtocol(epsilon=1.0, alpha_fraction=0.1)
        assert protocol.epsilon_alpha == pytest.approx(0.1)
        assert protocol.epsilon_beta == pytest.approx(0.9)

    def test_estimates_mean_under_attack(self, normal_values):
        protocol = BaselineProtocol(epsilon=1.0, alpha_fraction=0.1)
        result = protocol.run(normal_values, ATTACK, n_byzantine=2_000, rng=0)
        assert result.features.side == "right"
        assert result.estimate == pytest.approx(normal_values.mean(), abs=0.25)

    def test_evading_attack_degrades_probing(self, normal_values):
        protocol = BaselineProtocol(epsilon=1.0, alpha_fraction=0.1)
        honest = protocol.run(normal_values, ATTACK, 2_000, evade_probing=False, rng=1)
        evaded = protocol.run(normal_values, ATTACK, 2_000, evade_probing=True, rng=1)
        # when attackers hide during probing, the estimated gamma drops
        assert evaded.features.gamma_hat < honest.features.gamma_hat

    def test_report_counts(self, normal_values):
        protocol = BaselineProtocol(epsilon=1.0)
        result = protocol.run(normal_values, ATTACK, 500, rng=2)
        assert result.alpha_reports.size == normal_values.size + 500
        assert result.beta_reports.size == normal_values.size + 500

    def test_invalid_alpha_fraction(self):
        with pytest.raises(ValueError):
            BaselineProtocol(epsilon=1.0, alpha_fraction=1.0)
