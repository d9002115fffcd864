"""Tests for the protocol contract (``repro.protocol``).

The contract under test, rule by rule:

* plan — name validation with the registry-style name-listing ``KeyError``,
  the contribution-cap gate arithmetic;
* transport — ``ProtocolPlan.deliver`` passes local lanes through and
  shuffles each shuffle lane with a seeded permutation that never consumes
  the round's main RNG stream;
* client — the shuffle model hands attacks a group-blind
  ``DomainRestrictedMechanism`` over the ladder's domain intersection;
* server — the amplification ledger maps local to central epsilons with
  the Feldman-style closed form;
* end to end — ``NoAttack`` rounds are bit-identical between protocols,
  targeted attacks lose power under the shuffle model, and the
  contribution cap drops a deterministic, exactly-tallied report count;
* plumbing — scenario / service / engine specs treat ``protocol`` as an
  identity knob (in documents and fingerprints only when not ``"local"``).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.attacks import (
    BiasedByzantineAttack,
    GeneralByzantineAttack,
    NoAttack,
    PointMassPoison,
)
from repro.core.dap import DAPConfig, DAPProtocol
from repro.core.frequency import FrequencyDAP
from repro.core.sketch_frequency import SketchFrequencyDAP
from repro.ldp import DomainRestrictedMechanism, PiecewiseMechanism
from repro.protocol import (
    PROTOCOL_NAMES,
    ProtocolPlan,
    amplification_ledger,
    amplified_epsilon,
    check_contribution_cap,
    check_protocol,
    intersection_output_domain,
    ledger_summary,
)
from repro.protocol.plan import SHUFFLER_NAMESPACE
from repro.registry import PROTOCOLS


class TestProtocolPlan:
    def test_known_names_pass_through(self):
        for name in PROTOCOL_NAMES:
            assert check_protocol(name) == name

    def test_unknown_name_raises_keyerror_listing_names(self):
        with pytest.raises(KeyError, match="local.*shuffle"):
            check_protocol("telepathy")

    def test_registry_lists_both_protocols(self):
        assert set(PROTOCOLS.names()) == set(PROTOCOL_NAMES)

    def test_contribution_cap_validation(self):
        assert check_contribution_cap(None) is None
        assert check_contribution_cap(3) == 3
        assert check_contribution_cap(0) == 0
        with pytest.raises(ValueError, match="contribution_cap"):
            check_contribution_cap(-1)

    def test_effective_repeats(self):
        assert ProtocolPlan().effective_repeats(7) == 7
        assert ProtocolPlan(contribution_cap=3).effective_repeats(7) == 3
        assert ProtocolPlan(contribution_cap=9).effective_repeats(7) == 7
        assert ProtocolPlan(contribution_cap=0).effective_repeats(7) == 0

    def test_plan_validates_on_construction(self):
        with pytest.raises(KeyError):
            ProtocolPlan(protocol="quantum")
        with pytest.raises(ValueError):
            ProtocolPlan(contribution_cap=-2)


SHUFFLE = ProtocolPlan(protocol="shuffle")


class TestTransport:
    def test_identity_passes_through_same_object(self):
        reports = np.arange(5.0)
        assert ProtocolPlan().deliver(reports, (0, 5)) is reports

    def test_shuffler_is_a_permutation(self):
        reports = np.arange(100.0)
        shuffled = SHUFFLE.deliver(reports, (0, 100))
        assert not np.array_equal(shuffled, reports)
        assert np.array_equal(np.sort(shuffled), reports)

    def test_shuffler_deterministic_per_seed_and_lane(self):
        reports = np.arange(50.0)
        seed4 = ProtocolPlan(protocol="shuffle", shuffle_seed=4)
        seed5 = ProtocolPlan(protocol="shuffle", shuffle_seed=5)
        a = seed4.deliver(reports, (1, 50))
        b = seed4.deliver(reports, (1, 50))
        c = seed5.deliver(reports, (1, 50))
        d = seed4.deliver(reports, (2, 50))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)
        # the lane's permutation is SeedSequence([namespace, seed, *lane])
        lane = np.random.SeedSequence([SHUFFLER_NAMESPACE, 4, 1, 50])
        order = np.random.default_rng(lane).permutation(50)
        assert np.array_equal(a, reports[order])

    def test_tiny_lanes_pass_through(self):
        one = np.array([3.5])
        assert SHUFFLE.deliver(one, (0, 1)) is one
        empty = np.empty(0)
        assert SHUFFLE.deliver(empty, (0, 0)) is empty

    def test_shuffler_never_consumes_main_rng(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state["state"].copy()
        SHUFFLE.deliver(np.arange(64.0), (0, 64))
        assert rng.bit_generator.state["state"] == before

    def test_shuffles_rows_of_2d_reports(self):
        rows = np.arange(20).reshape(10, 2)
        shuffled = SHUFFLE.deliver(rows, (0, 10))
        assert shuffled.shape == rows.shape
        assert sorted(map(tuple, shuffled)) == sorted(map(tuple, rows))


class TestAmplification:
    def test_closed_form_improves_on_local_for_large_n(self):
        assert amplified_epsilon(1.0, 10_000) < 0.25

    def test_monotone_in_n(self):
        values = [amplified_epsilon(1.0, n) for n in (100, 1_000, 10_000, 100_000)]
        assert values == sorted(values, reverse=True)

    def test_never_worse_than_local(self):
        for n in (1, 2, 5, 10):
            assert amplified_epsilon(2.0, n) <= 2.0

    def test_degenerate_inputs_return_local(self):
        assert amplified_epsilon(1.0, 0) == 1.0
        assert amplified_epsilon(0.0, 1_000) == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError, match="epsilon_local"):
            amplified_epsilon(-0.5, 100)
        with pytest.raises(ValueError, match="delta"):
            amplified_epsilon(1.0, 100, delta=2.0)

    def test_ledger_rows_and_summary(self):
        ledger = amplification_ledger([1.0, 0.5], [4_000, 2_000])
        assert len(ledger) == 2
        for row in ledger:
            assert row["epsilon_central"] <= row["epsilon_local"]
            assert row["amplification_factor"] >= 1.0
        summary = ledger_summary(ledger)
        assert summary["n_groups"] == 2
        assert summary["epsilon_local_max"] == 1.0
        assert summary["epsilon_central_max"] <= 1.0

    @pytest.mark.parametrize(
        "epsilon_local, n, expected, bound",
        [
            (8.0, 100_000, 8.0, "local"),
            (6.0, 10_000, 6.0, "local"),
            (4.0, 2_000, 4.0, "local"),
            (1.0, 10_000, 0.1800063677313965, "closed-form"),
        ],
    )
    def test_closed_form_only_inside_its_theorem(self, epsilon_local, n, expected, bound):
        """The closed form holds for eps_l <= log(n / (16 log(2/delta)));
        outside that range the ledger reports the local epsilon."""
        limit = np.log(n / (16.0 * np.log(2.0 / 1e-6)))
        assert (epsilon_local <= limit) == (bound == "closed-form")
        assert amplified_epsilon(epsilon_local, n) == pytest.approx(expected, rel=1e-12)
        (row,) = amplification_ledger([epsilon_local], [n], delta=1e-6)
        assert row["bound"] == bound
        assert row["epsilon_central"] == amplified_epsilon(epsilon_local, n)

    def test_ledger_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="one count per budget"):
            amplification_ledger([1.0], [10, 20])


class TestAdversaryView:
    def test_local_view_is_the_group_mechanism(self):
        config = DAPConfig(epsilon=4.0)
        protocol = DAPProtocol(config)
        eps = config.budget_ladder[0]
        assert protocol.adversary_mechanism(eps) is protocol.mechanism_for(eps)

    def test_shuffle_view_is_domain_restricted_to_intersection(self):
        config = DAPConfig(epsilon=4.0, protocol="shuffle")
        protocol = DAPProtocol(config)
        ladder = config.budget_ladder
        assert len(ladder) > 1
        intersection = intersection_output_domain(
            [protocol.mechanism_for(eps) for eps in ladder]
        )
        # the smallest-budget group perturbs the most, so its own domain is
        # wider than the intersection and the adversary view must shrink
        view = protocol.adversary_mechanism(ladder[-1])
        assert isinstance(view, DomainRestrictedMechanism)
        assert view.output_domain == intersection
        # the widest-epsilon group's domain *is* the intersection (nested
        # domains), so its view needs no wrapper
        assert protocol.adversary_mechanism(ladder[0]) is protocol.mechanism_for(
            ladder[0]
        )

    def test_restricted_view_validates_containment(self):
        from repro.ldp.base import MechanismError

        narrow = PiecewiseMechanism(4.0)
        with pytest.raises(MechanismError, match="inside the base domain"):
            DomainRestrictedMechanism(narrow, (-100.0, 100.0))

    def test_intersection_requires_mechanisms(self):
        with pytest.raises(ValueError, match="at least one"):
            intersection_output_domain([])


def _run(protocol_name: str, attack, seed: int = 5, **config_kwargs):
    config = DAPConfig(
        epsilon=1.0, estimator="cemf_star", protocol=protocol_name, **config_kwargs
    )
    protocol = DAPProtocol(config)
    values = np.random.default_rng([seed, 0]).uniform(-1, 1, size=1_500)
    return protocol.run(
        values, attack, n_byzantine=500, rng=np.random.default_rng([seed, 1])
    )


class TestEndToEnd:
    def test_noattack_round_accurate_under_both_protocols(self):
        # the shuffle server conditions its reconstruction on the trust
        # model's poison support (restricted transform columns), so the
        # estimate is not bit-identical to the local pipeline even with no
        # attack — but both must track the truth at plain-LDP accuracy
        errors = {"local": [], "shuffle": []}
        for seed in range(4):
            values = np.random.default_rng([seed, 0]).uniform(-1, 1, size=1_500)
            truth = float(values.mean())
            for name in errors:
                result = _run(name, NoAttack(), seed=seed)
                errors[name].append(abs(result.estimate - truth))
        assert float(np.mean(errors["local"])) < 0.25
        assert float(np.mean(errors["shuffle"])) < 0.25

    @pytest.mark.parametrize(
        "make_attack",
        [
            BiasedByzantineAttack,
            lambda: GeneralByzantineAttack(distribution=PointMassPoison()),
        ],
        ids=["bba", "gba-point-mass"],
    )
    def test_shuffle_reduces_attack_power(self, make_attack):
        # single rounds are noisy, so compare the mean attack-induced shift
        # over seeded rounds.  The BBA effect is ~0.016 against a per-round
        # spread of ~0.046, so 6 rounds miss it about one time in five;
        # 32 rounds about one time in a hundred.  A point mass at C is the
        # most damaging one-sided poison; the intersection clamp bounds it,
        # so there the shuffle shift is a fraction of the local one
        def mean_shift(protocol_name):
            shifts = []
            for seed in range(32):
                truth = float(
                    np.mean(
                        np.random.default_rng([seed, 0]).uniform(-1, 1, size=1_500)
                    )
                )
                result = _run(protocol_name, make_attack(), seed=seed)
                shifts.append(abs(result.estimate - truth))
            return float(np.mean(shifts))

        assert mean_shift("shuffle") < mean_shift("local")

    def test_local_result_has_no_ledger(self):
        result = _run("local", NoAttack())
        assert result.amplification is None

    def test_shuffle_result_carries_one_ledger_row_per_group(self):
        result = _run("shuffle", NoAttack())
        config = DAPConfig(epsilon=1.0, protocol="shuffle")
        assert result.amplification is not None
        assert len(result.amplification) == len(config.budget_ladder)
        for row in result.amplification:
            assert 0.0 < row["epsilon_central"] <= row["epsilon_local"]
            assert row["n_reports"] > 0
            assert row["epsilon_central"] == amplified_epsilon(
                row["epsilon_local"], row["n_reports"]
            )

    def test_shuffle_seed_is_an_execution_detail(self):
        a = _run("shuffle", BiasedByzantineAttack(), shuffle_seed=0)
        b = _run("shuffle", BiasedByzantineAttack(), shuffle_seed=991)
        assert a.estimate == b.estimate


class TestContributionCap:
    N = 1_200

    def _protocol(self, cap):
        return DAPProtocol(DAPConfig(epsilon=1.0, contribution_cap=cap))

    def _expected_skipped(self, protocol, n_total):
        sizes = protocol.group_sizes(n_total)
        plan = protocol.plan
        return sum(
            size * (reps - plan.effective_repeats(reps))
            for size, reps in zip(
                sizes,
                (
                    protocol._uncapped_reports_per_user(eps)
                    for eps in protocol.config.budget_ladder
                ),
            )
        )

    def test_uncapped_round_skips_nothing(self):
        protocol = self._protocol(None)
        assert protocol.contribution_summary(self.N) == 0
        values = np.random.default_rng(1).uniform(-1, 1, size=self.N)
        result = protocol.run(values, rng=np.random.default_rng(2))
        assert result.skipped_reports == 0

    def test_cap_zero_drops_every_report(self):
        protocol = self._protocol(0)
        total = sum(
            size * reps
            for size, reps in zip(
                protocol.group_sizes(self.N),
                (
                    protocol._uncapped_reports_per_user(eps)
                    for eps in protocol.config.budget_ladder
                ),
            )
        )
        assert protocol.contribution_summary(self.N) == total
        values = np.random.default_rng(1).uniform(-1, 1, size=self.N)
        groups = protocol.collect_sharded(values, rng=np.random.default_rng(2))
        assert all(group.n_reports == 0 for group in groups)

    def test_cap_one_tally_matches_arithmetic(self):
        protocol = self._protocol(1)
        assert protocol.contribution_summary(self.N) == self._expected_skipped(
            protocol, self.N
        )
        assert protocol.contribution_summary(self.N) > 0
        values = np.random.default_rng(1).uniform(-1, 1, size=self.N)
        result = protocol.run(values, rng=np.random.default_rng(2))
        assert result.skipped_reports == protocol.contribution_summary(self.N)
        assert np.isfinite(result.estimate)

    def test_generous_cap_is_a_no_op(self):
        capped = self._protocol(10_000)
        uncapped = self._protocol(None)
        values = np.random.default_rng(1).uniform(-1, 1, size=self.N)
        a = capped.run(values, rng=np.random.default_rng(2))
        b = uncapped.run(values, rng=np.random.default_rng(2))
        assert a.estimate == b.estimate
        assert a.skipped_reports == 0

    def test_frequency_cap(self):
        capped = FrequencyDAP(1.0, 8, contribution_cap=0)
        assert capped.contribution_summary(500) == 500
        categories = np.random.default_rng(3).integers(0, 8, size=500)
        counts = capped.collect_sharded(categories, rng=np.random.default_rng(4))
        assert counts.n_reports == 0
        uncapped = FrequencyDAP(1.0, 8, contribution_cap=1)
        assert uncapped.contribution_summary(500) == 0
        result = uncapped.run(categories, rng=np.random.default_rng(4))
        assert result.skipped_reports == 0

    def test_sketch_cap(self):
        capped = SketchFrequencyDAP(1.0, 32, sketch_rows=2, sketch_width=16,
                                    contribution_cap=0)
        assert capped.contribution_summary(400) == 400
        categories = np.random.default_rng(3).integers(0, 32, size=400)
        counts = capped.collect_sharded(categories, rng=np.random.default_rng(4))
        assert counts.n_reports == 0


class TestSpecPlumbing:
    def test_scenario_document_includes_protocol_only_when_set(self):
        from repro.scenario import ScenarioSpec

        base = dict(name="s", schemes=("Ostrich",), epsilons=(1.0,))
        local = ScenarioSpec(**base)
        shuffle = ScenarioSpec(**base, protocol="shuffle")
        assert "protocol" not in local.document()
        assert shuffle.document()["protocol"] == "shuffle"
        assert local.digest() != shuffle.digest()
        with pytest.raises(KeyError, match="available protocols"):
            ScenarioSpec(**base, protocol="nope")

    def test_scenario_from_dict_accepts_protocol(self):
        from repro.scenario import ScenarioSpec

        spec = ScenarioSpec.from_dict(
            {"name": "s", "schemes": ["Ostrich"], "epsilons": [1.0],
             "protocol": "shuffle"}
        )
        assert spec.protocol == "shuffle"

    def test_experiment_fingerprint_carries_protocol_only_when_set(self):
        from repro.scenario import ScenarioSpec

        base = dict(name="s", schemes=("DAP-CEMF*",), epsilons=(1.0,),
                    n_users=100, n_trials=1)
        local_fp = ScenarioSpec(**base).to_experiment_spec().fingerprint()
        shuffle_fp = (
            ScenarioSpec(**base, protocol="shuffle").to_experiment_spec().fingerprint()
        )
        assert "protocol" not in local_fp
        assert shuffle_fp["protocol"] == "shuffle"

    def test_execution_details_record_protocol_and_amplification(self):
        from repro.engine.executor import _execution_details
        from repro.scenario import ScenarioSpec

        spec = ScenarioSpec(
            name="s", schemes=("DAP-CEMF*",), epsilons=(0.5, 1.0),
            n_users=1_000, n_trials=1, protocol="shuffle",
        ).to_experiment_spec()
        details = _execution_details(spec)
        assert details["protocol"] == "shuffle"
        central = details["amplification"]["epsilon_central"]
        assert set(central) == {"0.5", "1"}
        assert central["1"] < 1.0
        # the digest is the amplification ledger's rows, bound included
        bounds = details["amplification"]["bound"]
        for row in amplification_ledger([0.5, 1.0], [1_000, 1_000]):
            key = f"{row['epsilon_local']:g}"
            assert central[key] == row["epsilon_central"]
            assert bounds[key] == row["bound"]

    def test_service_document_includes_protocol_only_when_set(self):
        from repro.service import ServiceSpec

        local = ServiceSpec(name="svc")
        shuffle = ServiceSpec(name="svc", protocol="shuffle")
        assert "protocol" not in local.document()
        assert shuffle.document()["protocol"] == "shuffle"
        assert local.digest() != shuffle.digest()
        with pytest.raises(KeyError, match="available protocols"):
            ServiceSpec(name="svc", protocol="nope")

    def test_scheme_configure_protocol(self):
        from repro.simulation.schemes import make_scheme

        dap = make_scheme("DAP-CEMF*", epsilon=1.0)
        assert dap.configure_protocol("shuffle") is dap
        assert dap.config.protocol == "shuffle"
        # schemes without a budget ladder validate and ignore
        ostrich = make_scheme("Ostrich", epsilon=1.0)
        assert ostrich.configure_protocol("shuffle") is ostrich
        with pytest.raises(KeyError, match="available protocols"):
            ostrich.configure_protocol("nope")
