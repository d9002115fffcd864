"""Chunk invariance: the bit-identity contract behind block-seeded collection.

A collection round folds every seed block's reports into the group
accumulators separately and merges shards afterwards, so the aggregate must
not depend on how the report stream was cut.  Feeding a pre-drawn report
array through the accumulators at several chunk sizes — including a chunk
larger than the stream and sizes that do not divide it — must be
bit-identical to one update with every report, for all three estimators and
for the k-RR frequency extension.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import knobs
from repro.attacks import BiasedByzantineAttack, NoAttack, PoisonRange
from repro.collect import CategoryCountAccumulator
from repro.core.dap import DAPConfig, DAPProtocol
from repro.core.frequency import FrequencyDAP
from repro.cli import _with_overrides, build_parser
from repro.engine import ExperimentSpec
from repro.engine.executor import draw_seed_matrix, run_identity
from repro.ldp.square_wave import SquareWaveMechanism
from repro.scenario import ScenarioSpec
from repro.utils.rng import ensure_rng
from tests.client_reports import accumulate, chunk_array, group_reports

SCENARIO_BASE = dict(name="x", schemes=["Ostrich"], epsilons=[1.0])
#: one valid, non-default value per settable scenario knob
SCENARIO_ALTERNATIVES = dict(
    name="y",
    description="another grid",
    schemes=["Trimming"],
    epsilons=[0.5, 1.0],
    attacks=["ima"],
    datasets=["Gaussian"],
    gammas=[0.1, 0.3],
    n_users=500,
    gamma=0.1,
    input_domain=(0.0, 1.0),
    n_trials=2,
    seed=7,
    epsilon_min=0.25,
    protocol="shuffle",
    collect_workers=4,
    backend="fast",
)


#: scenario identity knobs that never reach a record: they key the scenario
#: digest, but not the run identity its lowered experiment resumes against
SCENARIO_PROVENANCE = {"description"}


def scenario_roles(*wanted):
    """The settable scenario knobs declared with one of ``wanted``."""
    return {
        f.name
        for f in knobs.knobs(ScenarioSpec)
        if f.init and f.metadata["role"] in wanted
    }


def lowered_identity(scenario):
    """The lowered spec's fingerprint and the run identity ``run_scenario``
    resumes against."""
    master = ensure_rng(scenario.seed)
    spec = scenario.to_experiment_spec(rng=master)
    matrix = draw_seed_matrix(master, len(spec.points), spec.n_trials)
    return spec.fingerprint(), run_identity(spec, matrix)

ATTACK = BiasedByzantineAttack(PoisonRange.of_c(0.5, 1.0))
CHUNK_SIZES = (7, 997, 4_096, 10**7)  # includes chunk > n and n % chunk != 0


def _groups(protocol, n_normal=4_000, n_byzantine=1_500, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-0.8, 0.8, n_normal)
    return group_reports(protocol, values, ATTACK, n_byzantine, rng)


def _aggregate(protocol, groups, chunk_size):
    return protocol.aggregate_accumulated(accumulate(protocol, groups, chunk_size))


class TestDAPBitIdentity:
    @pytest.mark.parametrize(
        "estimator, seed", [("emf", 101), ("emf_star", 202), ("cemf_star", 303)]
    )
    def test_chunked_accumulators_match_one_shot(self, estimator, seed):
        protocol = DAPProtocol(DAPConfig(epsilon=1.0, estimator=estimator))
        groups = _groups(protocol, seed=seed)
        reference = _aggregate(protocol, groups, max(g.n_reports for g in groups))
        for chunk_size in CHUNK_SIZES:
            result = _aggregate(protocol, groups, chunk_size)
            assert result.estimate == reference.estimate
            assert result.gamma_hat == reference.gamma_hat
            assert result.poisoned_side == reference.poisoned_side
            np.testing.assert_array_equal(result.weights, reference.weights)
            for got, want in zip(result.group_estimates, reference.group_estimates):
                assert got.mean == want.mean
                assert got.gamma_hat == want.gamma_hat
                assert got.n_normal_estimate == want.n_normal_estimate

    def test_distribution_route_matches_too(self):
        # the Square Wave configuration estimates the mean from the
        # reconstructed histogram rather than the report sum
        config = DAPConfig(
            epsilon=1.0,
            estimator="emf_star",
            mechanism_factory=SquareWaveMechanism,
            intra_group_mean="distribution",
        )
        protocol = DAPProtocol(config)
        rng = np.random.default_rng(17)
        values = rng.uniform(0.1, 0.9, 3_000)
        groups = group_reports(protocol, values, ATTACK, 1_000, rng)
        reference = _aggregate(protocol, groups, 10**7)
        result = _aggregate(protocol, groups, 997)
        assert result.estimate == reference.estimate
        assert result.gamma_hat == reference.gamma_hat

    def test_wrong_grid_is_rejected(self):
        protocol = DAPProtocol(DAPConfig(epsilon=1.0))
        groups = _groups(protocol, seed=3)
        # an accumulator sized for the wrong report count has the wrong grid
        acc = protocol.group_accumulator(groups[0].epsilon, 10)
        acc.n_expected_reports = None
        acc.update(groups[0].reports)
        with pytest.raises(ValueError, match="accumulated on a"):
            protocol.aggregate_accumulated([acc])


class TestFrequencyBitIdentity:
    def test_counts_path_matches_report_path(self):
        rng = np.random.default_rng(5)
        dap = FrequencyDAP(epsilon=1.0, n_categories=8, estimator="emf_star")
        normal = rng.integers(0, 8, 4_000)
        reports = np.concatenate([dap.mechanism.perturb(normal, rng), np.full(900, 3)])
        reference = dap.estimate(reports)
        for chunk_size in CHUNK_SIZES:
            accumulator = CategoryCountAccumulator(8)
            for chunk in chunk_array(reports, chunk_size):
                accumulator.update(chunk)
            result = dap.estimate_from_counts(accumulator)
            np.testing.assert_array_equal(result.frequencies, reference.frequencies)
            assert result.poisoned_categories == reference.poisoned_categories
            assert result.gamma_hat == reference.gamma_hat


class TestCollectedGroups:
    def test_group_sizes_and_report_counts(self):
        protocol = DAPProtocol(DAPConfig(epsilon=1.0))
        values = np.random.default_rng(8).uniform(-0.5, 0.5, 3_210)
        accumulators = protocol.collect_sharded(values, ATTACK, 1_111, rng=8)
        sizes = protocol.group_sizes(3_210 + 1_111)
        assert [a.n_users for a in accumulators] == sizes
        assert [a.n_reports for a in accumulators] == [
            size * protocol._reports_per_user(a.epsilon)
            for size, a in zip(sizes, accumulators)
        ]
        # the sized accumulators finalise cleanly
        protocol.aggregate_accumulated(accumulators)

    def test_estimate_close_to_truth(self):
        protocol = DAPProtocol(DAPConfig(epsilon=2.0, estimator="cemf_star"))
        rng = np.random.default_rng(9)
        values = rng.uniform(0.1, 0.5, 20_000)
        result = protocol.run(values, ATTACK, 5_000, rng=rng)
        assert abs(result.estimate - values.mean()) < 0.1
        assert 0.1 < result.gamma_hat < 0.35

    def test_silent_attack_with_byzantine_users_completes(self):
        """Regression: NoAttack + n_byzantine > 0 used to fail the expected-
        report consistency check (the sizing assumed one poison report per
        Byzantine user)."""
        protocol = DAPProtocol(DAPConfig(epsilon=0.5))
        values = np.random.default_rng(0).uniform(-0.5, 0.5, 225)
        accumulators = protocol.collect_sharded(values, NoAttack(), 75, rng=1)
        assert sum(a.n_users for a in accumulators) == 300
        protocol.aggregate_accumulated(accumulators)  # finalises cleanly


class TestExecutionDetails:
    def test_point_granular_spec_rejects_collect_workers(self):
        class PointSpecSubclass(ExperimentSpec):
            def evaluate_point(self, point, trial_seeds):
                return []

        with pytest.raises(ValueError, match="never"):
            PointSpecSubclass(
                name="x",
                points=[{"epsilon": 1.0}],
                n_users=10,
                n_trials=1,
                collect_workers=2,
            )

    def test_collect_workers_never_enters_the_fingerprint(self):
        """The shard-worker count is an execution detail (the accumulators
        merge bit-identically), so a run must be resumable with a different
        ``--collect-workers`` — exactly like ``n_workers``."""

        def spec(**kwargs):
            return ExperimentSpec(
                name="x",
                points=[{"epsilon": 1.0}],
                n_users=10,
                n_trials=1,
                scheme_factory=lambda point: [],
                attack_factory=lambda point: None,
                dataset_factory=lambda point: None,
                **kwargs,
            )

        base = spec().fingerprint()
        assert "collect_workers" not in base
        assert spec(collect_workers=2).fingerprint() == base

    def test_every_scenario_knob_has_a_tested_alternative(self):
        # a new knob must get an alternative here, so the role tests below
        # cover it; the legacy constant and the draws version are the only
        # entries nobody can set
        assert {f.name for f in knobs.knobs(ScenarioSpec) if f.init} == set(
            SCENARIO_ALTERNATIVES
        )
        assert {f.name for f in knobs.knobs(ScenarioSpec) if not f.init} == {
            "batched",
            "draws",
        }

    def test_scenario_digest_ignores_execution_details(self):
        base = ScenarioSpec(**SCENARIO_BASE)
        base_fingerprint, base_identity = lowered_identity(base)
        execution = scenario_roles(knobs.EXECUTION, knobs.EXECUTION_REDRAWS)
        for name in execution | SCENARIO_PROVENANCE:
            changed = ScenarioSpec(
                **{**SCENARIO_BASE, name: SCENARIO_ALTERNATIVES[name]}
            )
            if name in execution:
                assert changed.digest() == base.digest(), name
            fingerprint, identity = lowered_identity(changed)
            assert fingerprint == base_fingerprint, name
            assert identity == base_identity, name
        assert set(base.execution_details()) == {"collect_workers", "backend"}

    def test_scenario_digest_pins_identity_knobs(self):
        base = ScenarioSpec(**SCENARIO_BASE)
        base_fingerprint, base_identity = lowered_identity(base)
        for name in scenario_roles(knobs.IDENTITY, knobs.IDENTITY_UNLESS_DEFAULT):
            changed = ScenarioSpec(
                **{**SCENARIO_BASE, name: SCENARIO_ALTERNATIVES[name]}
            )
            assert changed.digest() != base.digest(), name
            if name not in SCENARIO_PROVENANCE:
                fingerprint, identity = lowered_identity(changed)
                assert fingerprint != base_fingerprint, name
                assert identity != base_identity, name

    def test_scenario_document_follows_the_roles(self):
        base = ScenarioSpec(**SCENARIO_BASE)
        identity = scenario_roles(knobs.IDENTITY)
        population = {"n_users", "gamma", "input_domain"}
        expected = (identity - population) | {"population", "batched", "draws"}
        assert set(base.document()) == expected
        assert set(base.document()["population"]) == population
        shuffle = ScenarioSpec(**SCENARIO_BASE, protocol="shuffle")
        assert set(shuffle.document()) == expected | {"protocol"}

    @pytest.mark.parametrize("command", ["run", "resume"])
    @pytest.mark.parametrize(
        "field", knobs.flagged(ScenarioSpec), ids=lambda f: f.metadata["flag"]
    )
    def test_every_scenario_flag_parses_onto_its_field(self, field, command):
        value = SCENARIO_ALTERNATIVES[field.name]
        text = value if isinstance(value, str) else json.dumps(value)
        args = build_parser().parse_args(
            [command, "scenario.json", field.metadata["flag"], text]
        )
        assert getattr(args, field.name) == value
        overridden = _with_overrides(ScenarioSpec(**SCENARIO_BASE), args)
        assert getattr(overridden, field.name) == value
