"""Sharded collection: plan determinism and the bit-identity contract.

The sharded path rests on two guarantees, both enforced here:

* **plan invariance** — the block-seed streams drawn by
  :func:`repro.collect.build_shard_plan` do not depend on ``n_shards``, so
  the merged accumulators of ``collect_sharded`` are bit-identical at any
  shard count and any worker count;
* **accumulate/merge equivalence** — sharding a report stream into
  contiguous slices, accumulating each independently and folding with
  ``merge()`` yields statistics bit-identical to chunked and to one-shot
  accumulation of the same reports, for all three estimators and the k-RR
  frequency route.

Because ``run()`` is the one-shard sharded round on every protocol class,
it must equal ``collect_sharded`` plus the estimate at any shard and worker
count, and bad input must be refused in the parent — with the exception the
client stage raises — before a shard task could fail and be retried.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.attacks import BiasedByzantineAttack, PoisonRange
from repro.backends import use_backend
from repro.collect import CategoryCountAccumulator, GroupAccumulator, build_shard_plan
from repro.collect.round import _client_perturb
from repro.core.dap import DAPConfig, DAPProtocol
from repro.core.frequency import FrequencyDAP
from repro.core.sketch_frequency import SketchFrequencyDAP
from repro.datasets.synthetic import uniform_dataset
from repro.ldp.base import MechanismError
from repro.resilience import stats
from repro.simulation.runner import run_trials
from repro.simulation.schemes import make_scheme
from tests.client_reports import accumulate, group_reports

ATTACK = BiasedByzantineAttack(PoisonRange.of_c(0.5, 1.0))
SHARD_COUNTS = (1, 2, 5)


class TestShardPlan:
    def test_seeds_do_not_depend_on_shard_count(self):
        plans = [
            build_shard_plan([1_000, 900], [100, 50], n_shards=k, rng=7, block_size=64)
            for k in SHARD_COUNTS
        ]
        for plan in plans[1:]:
            assert plan.normal_seeds == plans[0].normal_seeds
            assert plan.byzantine_seeds == plans[0].byzantine_seeds

    def test_shards_cover_every_block_exactly_once(self):
        plan = build_shard_plan([1_000, 77], [130, 0], n_shards=4, rng=3, block_size=32)
        for group, (n_normal, n_byz) in enumerate(zip([1_000, 77], [130, 0])):
            normal_ranges, byz_users, normal_seeds, byz_seeds = [], 0, [], []
            for shard in plan.shards():
                for piece in shard:
                    if piece.group_index != group:
                        continue
                    if piece.n_normal:
                        normal_ranges.append((piece.normal_start, piece.normal_stop))
                    normal_seeds.extend(piece.normal_seeds)
                    byz_users += piece.n_byzantine
                    byz_seeds.extend(piece.byzantine_seeds)
            covered = sorted(normal_ranges)
            assert sum(stop - start for start, stop in covered) == n_normal
            # contiguous, non-overlapping, in order
            position = 0
            for start, stop in covered:
                assert start == position
                position = stop
            assert byz_users == n_byz
            assert tuple(normal_seeds) == plan.normal_seeds[group]
            assert tuple(byz_seeds) == plan.byzantine_seeds[group]

    def test_block_ranges_match_array_split(self):
        from repro.collect.sharding import _shard_block_range

        for n_blocks in (0, 1, 7, 16):
            for n_shards in (1, 3, 5, 16):
                pieces = np.array_split(np.arange(n_blocks), n_shards)
                for index, piece in enumerate(pieces):
                    start, stop = _shard_block_range(n_blocks, n_shards, index)
                    np.testing.assert_array_equal(np.arange(start, stop), piece)

    def test_rejects_misaligned_groups(self):
        with pytest.raises(ValueError, match="align"):
            build_shard_plan([10], [1, 2], n_shards=1, rng=0)

    def test_shards_past_the_block_count_are_empty(self):
        plan = build_shard_plan([100], [30], n_shards=8, rng=1, block_size=64)
        # two normal blocks and one Byzantine block: shards 0 and 1 hold
        # them, the remaining six shards own nothing
        shards = plan.shards()
        assert [piece.n_users for piece in shards[0]] == [64 + 30]
        assert [piece.n_users for piece in shards[1]] == [36]
        assert all(shard == [] for shard in shards[2:])

    def test_empty_groups_draw_no_seeds(self):
        plan = build_shard_plan([0, 0], [0, 0], n_shards=3, rng=2, block_size=16)
        assert plan.normal_seeds == ((), ())
        assert plan.byzantine_seeds == ((), ())
        assert plan.shards() == [[], [], []]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_shards=0),
            dict(n_shards=1, block_size=0),
            dict(n_shards=1, normal_counts=[-1]),
        ],
    )
    def test_rejects_bad_counts(self, kwargs):
        arguments = dict(normal_counts=[10], byzantine_counts=[1], rng=0)
        arguments.update(kwargs)
        with pytest.raises(ValueError):
            build_shard_plan(**arguments)

    def test_shard_index_out_of_range(self):
        plan = build_shard_plan([10], [1], n_shards=2, rng=0)
        with pytest.raises(IndexError, match="out of range"):
            plan.shard(2)


class TestDAPShardedBitIdentity:
    @pytest.mark.parametrize(
        "estimator, seed", [("emf", 11), ("emf_star", 22), ("cemf_star", 33)]
    )
    def test_invariant_to_shard_and_worker_count(self, estimator, seed):
        protocol = DAPProtocol(DAPConfig(epsilon=1.0, estimator=estimator))
        rng = np.random.default_rng(seed)
        values = rng.uniform(-0.8, 0.8, 6_000)
        reference = None
        for n_shards in SHARD_COUNTS:
            result = protocol.run_sharded(
                values,
                ATTACK,
                2_000,
                rng=np.random.default_rng(seed),
                n_shards=n_shards,
                block_size=512,
            )
            if reference is None:
                reference = result
                continue
            assert result.estimate == reference.estimate
            assert result.gamma_hat == reference.gamma_hat
            assert result.poisoned_side == reference.poisoned_side
            np.testing.assert_array_equal(result.weights, reference.weights)
        pooled = protocol.run_sharded(
            values,
            ATTACK,
            2_000,
            rng=np.random.default_rng(seed),
            n_shards=5,
            n_workers=2,
            block_size=512,
        )
        assert pooled.estimate == reference.estimate
        assert pooled.gamma_hat == reference.gamma_hat

    @pytest.mark.parametrize(
        "estimator, seed", [("emf", 101), ("emf_star", 202), ("cemf_star", 303)]
    )
    def test_shard_merge_matches_chunked_and_one_shot_aggregation(
        self, estimator, seed
    ):
        """Contiguous shards of the same reports, accumulated independently
        and merged, aggregate bit-identically to one accumulator fed in
        chunks and to one fed every report at once."""
        protocol = DAPProtocol(DAPConfig(epsilon=1.0, estimator=estimator))
        rng = np.random.default_rng(seed)
        values = rng.uniform(-0.8, 0.8, 4_000)
        groups = group_reports(protocol, values, ATTACK, 1_500, rng)
        one_shot = protocol.aggregate_accumulated(accumulate(protocol, groups, 10**7))
        chunked = protocol.aggregate_accumulated(accumulate(protocol, groups, 997))

        for n_shards in SHARD_COUNTS:
            merged = []
            for group in groups:
                accumulator = protocol.group_accumulator(
                    group.epsilon, group.n_reports, n_users=group.n_users
                )
                for piece in np.array_split(group.reports, n_shards):
                    shard_acc = GroupAccumulator(
                        group.epsilon, accumulator.output_grid
                    )
                    shard_acc.update(piece)
                    accumulator.merge(
                        GroupAccumulator.from_state(shard_acc.state_dict())
                    )
                merged.append(accumulator)
            sharded = protocol.aggregate_accumulated(merged)
            for result in (chunked, sharded):
                assert result.estimate == one_shot.estimate
                assert result.gamma_hat == one_shot.gamma_hat
                assert result.poisoned_side == one_shot.poisoned_side
                np.testing.assert_array_equal(result.weights, one_shot.weights)

    def test_group_composition_matches_group_sizes(self):
        protocol = DAPProtocol(DAPConfig(epsilon=1.0))
        values = np.random.default_rng(8).uniform(-0.5, 0.5, 3_210)
        accumulators = protocol.collect_sharded(
            values, ATTACK, 1_111, rng=np.random.default_rng(8), n_shards=3,
            block_size=256,
        )
        sizes = protocol.group_sizes(3_210 + 1_111)
        assert [a.n_users for a in accumulators] == sizes
        assert [a.n_reports for a in accumulators] == [
            size * protocol._reports_per_user(a.epsilon)
            for size, a in zip(sizes, accumulators)
        ]

    def test_each_block_is_the_client_stage_under_its_own_seed(self):
        """The block-seeding contract itself: a group's merged statistics
        equal the client kernels run block by block, each with a fresh
        generator seeded by that block's pre-drawn seed."""
        protocol = DAPProtocol(DAPConfig(epsilon=1.0, estimator="emf_star"))
        values = np.random.default_rng(4).uniform(-0.5, 0.5, 2_500)
        n_byzantine, block = 700, 128
        accumulators = protocol.collect_sharded(
            values, ATTACK, n_byzantine, rng=np.random.default_rng(4),
            n_shards=3, block_size=block,
        )

        rng = np.random.default_rng(4)
        ladder = protocol.config.budget_ladder
        users = rng.permutation(values.size + n_byzantine)
        members = [np.sort(piece) for piece in np.array_split(users, len(ladder))]
        group_values = [values[m[m < values.size]] for m in members]
        group_byzantine = [int((m >= values.size).sum()) for m in members]
        plan = build_shard_plan(
            [v.size for v in group_values], group_byzantine, n_shards=1, rng=rng,
            block_size=block,
        )
        for index, (epsilon, accumulator) in enumerate(zip(ladder, accumulators)):
            mechanism = protocol.mechanism_for(epsilon)
            repeats = protocol._reports_per_user(epsilon)
            reports = [
                _client_perturb(
                    mechanism, group_values[index][k * block : (k + 1) * block],
                    repeats, np.random.default_rng(seed),
                )
                for k, seed in enumerate(plan.normal_seeds[index])
            ]
            remaining = group_byzantine[index]
            for seed in plan.byzantine_seeds[index]:
                n_block = min(block, remaining)
                remaining -= n_block
                reports.append(
                    ATTACK.poison_reports(
                        n_block * repeats, mechanism,
                        protocol._reference_mean(mechanism),
                        np.random.default_rng(seed),
                    ).reports
                )
            want = protocol.group_accumulator(
                epsilon, accumulator.n_reports, n_users=accumulator.n_users
            ).update(np.concatenate(reports)).stats()
            got = accumulator.stats()
            assert got.n_reports == want.n_reports
            assert got.report_sum == want.report_sum
            np.testing.assert_array_equal(got.output_counts, want.output_counts)

    def test_silent_attack_with_byzantine_users_completes(self):
        """NoAttack submits zero reports however many Byzantine users exist
        (the gamma-control configuration); the expected-report sizing must
        ask the attack instead of assuming one report per user."""
        from repro.attacks.base import NoAttack

        protocol = DAPProtocol(DAPConfig(epsilon=0.5))
        values = np.random.default_rng(0).uniform(-0.5, 0.5, 225)
        accumulators = protocol.collect_sharded(
            values, NoAttack(), 75, rng=1, n_shards=2, block_size=64
        )
        repeats = [
            protocol._reports_per_user(eps) for eps in protocol.config.budget_ladder
        ]
        normal_users = sum(a.n_users for a in accumulators) - 75
        assert sum(a.n_reports // r for a, r in zip(accumulators, repeats)) == normal_users
        protocol.aggregate_accumulated(accumulators)  # finalises cleanly

    def test_estimate_lands_near_truth(self):
        protocol = DAPProtocol(DAPConfig(epsilon=2.0, estimator="cemf_star"))
        values = np.random.default_rng(9).uniform(0.1, 0.5, 20_000)
        result = protocol.run_sharded(
            values, ATTACK, 5_000, rng=9, n_shards=4, block_size=4_096
        )
        assert abs(result.estimate - values.mean()) < 0.1
        assert 0.1 < result.gamma_hat < 0.35


class TestFrequencySharded:
    def test_counts_invariant_to_shard_and_worker_count(self):
        dap = FrequencyDAP(epsilon=1.0, n_categories=8, estimator="emf_star")
        normal = np.random.default_rng(5).integers(0, 8, 4_000)
        reference = dap.collect_sharded(
            normal, (3,), 900, rng=np.random.default_rng(0), n_shards=1,
            block_size=512,
        )
        for n_shards in SHARD_COUNTS[1:]:
            counts = dap.collect_sharded(
                normal, (3,), 900, rng=np.random.default_rng(0),
                n_shards=n_shards, block_size=512,
            )
            np.testing.assert_array_equal(counts.counts, reference.counts)
        pooled = dap.collect_sharded(
            normal, (3,), 900, rng=np.random.default_rng(0), n_shards=5,
            n_workers=2, block_size=512,
        )
        np.testing.assert_array_equal(pooled.counts, reference.counts)
        assert reference.n_reports == 4_900

    def test_sharded_counts_estimate_matches_report_path(self):
        """Sharding the counts of a fixed report stream changes nothing:
        the estimate is bit-identical to ``estimate`` on the raw reports."""
        rng = np.random.default_rng(6)
        dap = FrequencyDAP(epsilon=1.0, n_categories=6)
        reports = np.concatenate(
            [dap.mechanism.perturb(rng.integers(0, 6, 3_000), rng), np.full(700, 2)]
        )
        reference = dap.estimate(reports)
        for n_shards in SHARD_COUNTS:
            accumulator = CategoryCountAccumulator(6)
            for piece in np.array_split(reports, n_shards):
                shard = CategoryCountAccumulator(6).update(piece)
                accumulator.merge(CategoryCountAccumulator.from_state(shard.state_dict()))
            result = dap.estimate_from_counts(accumulator)
            np.testing.assert_array_equal(result.frequencies, reference.frequencies)
            assert result.poisoned_categories == reference.poisoned_categories
            assert result.gamma_hat == reference.gamma_hat

    def test_requires_targets_with_byzantine_users(self):
        dap = FrequencyDAP(epsilon=1.0, n_categories=4)
        with pytest.raises(ValueError, match="poisoned_categories"):
            dap.collect_sharded(np.zeros(10, dtype=int), (), 5, rng=0)


def _categorical_round(route, protocol, backend, contribution_cap=None):
    """Digest of one pooled k-RR or sketch round: raw counts, report count
    and the master generator's next draw (which pins what the round drew)."""
    options = dict(protocol=protocol, contribution_cap=contribution_cap)
    if route == "krr":
        dap = FrequencyDAP(1.0, 8, **options)
        categories = np.random.default_rng(21).integers(0, 8, 5_000)
    else:
        dap = SketchFrequencyDAP(1.0, 500, sketch_rows=2, sketch_width=32, **options)
        categories = np.random.default_rng(22).integers(0, 500, 5_000)
    rng = np.random.default_rng(5)
    with use_backend(backend):
        accumulator = dap.collect_sharded(
            categories, (3, 7), 1_200, rng=rng, n_shards=3, n_workers=2,
            block_size=512,
        )
    digest = hashlib.sha256(accumulator.counts.astype(np.int64).tobytes())
    digest.update(str(accumulator.n_reports).encode())
    digest.update(str(int(rng.integers(2**63))).encode())
    return digest.hexdigest()[:16]


#: ten 512-user normal blocks and three Byzantine ones over 3 shards, as the
#: per-class k-RR and sketch shard workers produced them
PINNED_CATEGORICAL_ROUNDS = {
    ("krr", "local", "numpy"): "64fdc3dd1bd756b6",
    ("krr", "local", "fast"): "b2de24326178c36b",
    ("krr", "shuffle", "numpy"): "64fdc3dd1bd756b6",
    ("krr", "shuffle", "fast"): "b2de24326178c36b",
    ("sketch", "local", "numpy"): "e30fa2660a201e10",
    ("sketch", "local", "fast"): "495d671c47d57404",
    ("sketch", "shuffle", "numpy"): "e30fa2660a201e10",
    ("sketch", "shuffle", "fast"): "495d671c47d57404",
}

#: a contribution cap of 0 drops every report, so the round draws nothing
PINNED_CAPPED_ROUNDS = {"krr": "b08c289905b14527", "sketch": "41e73bad8278189a"}


@pytest.mark.parametrize("route, protocol, backend", sorted(PINNED_CATEGORICAL_ROUNDS))
def test_categorical_rounds_keep_their_pinned_bits(route, protocol, backend):
    assert (
        _categorical_round(route, protocol, backend)
        == PINNED_CATEGORICAL_ROUNDS[route, protocol, backend]
    )


@pytest.mark.parametrize("route", sorted(PINNED_CAPPED_ROUNDS))
def test_capped_categorical_rounds_keep_their_pinned_bits(route):
    assert (
        _categorical_round(route, "local", "numpy", contribution_cap=0)
        == PINNED_CAPPED_ROUNDS[route]
    )


def _shuffled_capped_dap_round(backend):
    """Digest of one pooled, shuffled DAP round under a contribution cap:
    every group's counts, report sum and report count, and the master
    generator's next draw.  Poison is drawn against the shuffle protocol's
    group-blind adversary view, so the digest pins that view's bits."""
    protocol = DAPProtocol(
        DAPConfig(epsilon=1.0, protocol="shuffle", contribution_cap=2)
    )
    values = np.random.default_rng(23).uniform(-0.8, 0.8, 3_000)
    rng = np.random.default_rng(6)
    with use_backend(backend):
        accumulators = protocol.collect_sharded(
            values, ATTACK, 1_000, rng=rng, n_shards=3, n_workers=2, block_size=256
        )
    digest = hashlib.sha256()
    for accumulator in accumulators:
        stats = accumulator.stats()
        digest.update(stats.output_counts.astype(np.int64).tobytes())
        digest.update(f"{stats.n_reports} {stats.report_sum.hex()}".encode())
    digest.update(str(int(rng.integers(2**63))).encode())
    return digest.hexdigest()[:16]


#: five budget groups capped at two reports per user, 1,000 Byzantine users
#: poisoning the ladder's output-domain intersection, over 3 shards
PINNED_SHUFFLED_DAP_ROUNDS = {"numpy": "58383dab155150f2", "fast": "08f95fd2a31c1f07"}


@pytest.mark.parametrize("backend", sorted(PINNED_SHUFFLED_DAP_ROUNDS))
def test_shuffled_capped_dap_round_keeps_its_pinned_bits(backend):
    assert _shuffled_capped_dap_round(backend) == PINNED_SHUFFLED_DAP_ROUNDS[backend]


class TestShardedTrialPath:
    def test_collect_workers_leave_records_unchanged(self):
        dataset = uniform_dataset(n_samples=2_000, rng=0)
        results = [
            run_trials(
                scheme, dataset, ATTACK, n_users=2_000, gamma=0.25,
                trial_seeds=[11, 22],
            )
            for scheme in (
                make_scheme("DAP-EMF", epsilon=1.0),
                make_scheme("DAP-EMF", epsilon=1.0).configure_collection(1),
                make_scheme("DAP-EMF", epsilon=1.0).configure_collection(2),
            )
        ]
        # same seeds, same population draw: the ground truths pair exactly,
        # and the block seeds make the estimates worker-count invariant
        assert results[0].truths == results[1].truths == results[2].truths
        assert results[0].estimates == results[1].estimates == results[2].estimates
        assert results[0].mse < 1.0

    def test_schemes_without_a_sharded_round_ignore_collect_workers(self):
        dataset = uniform_dataset(n_samples=1_000, rng=0)
        plain, configured = (
            run_trials(
                scheme, dataset, None, n_users=1_000, gamma=0.0, trial_seeds=[5, 6]
            )
            for scheme in (
                make_scheme("Ostrich", epsilon=1.0),
                make_scheme("Ostrich", epsilon=1.0).configure_collection(4),
            )
        )
        assert configured.estimates == plain.estimates
        assert configured.truths == plain.truths

    def test_configure_collection_validates_the_count(self):
        for name in ("DAP-EMF", "Ostrich"):
            with pytest.raises(ValueError, match="collect_workers"):
                make_scheme(name, epsilon=1.0).configure_collection(0)


#: past one default seed block per group, so shards split real block runs
N_ROUND = 100_000


def _dap_round():
    protocol = DAPProtocol(
        DAPConfig(epsilon=1.0, epsilon_min=0.5, estimator="cemf_star")
    )
    values = np.random.default_rng(41).uniform(-0.8, 0.8, N_ROUND)
    return (
        protocol,
        (values, ATTACK, 40_000),
        lambda accumulators: protocol.aggregate_accumulated(accumulators),
    )


def _frequency_round():
    dap = FrequencyDAP(epsilon=1.0, n_categories=8, max_poisoned=3)
    normal = np.random.default_rng(42).integers(0, 8, N_ROUND)
    return dap, (normal, (3,), 25_000), dap.estimate_from_counts


def _sketch_round():
    dap = SketchFrequencyDAP(
        1.0, 64, sketch_rows=2, sketch_width=32, n_heavy_hitters=8, max_poisoned=2
    )
    normal = np.random.default_rng(43).integers(0, 64, N_ROUND)
    return dap, (normal, (1,), 20_000), dap.estimate_from_counts


ROUNDS = {"dap": _dap_round, "frequency": _frequency_round, "sketch": _sketch_round}


def _fingerprint(result):
    """Every float an estimate exposes, for bit-for-bit comparison."""
    if hasattr(result, "frequencies"):
        return (
            list(result.frequencies),
            list(result.poisoned_categories),
            result.gamma_hat,
            result.skipped_reports,
        )
    return (
        result.estimate,
        result.gamma_hat,
        result.poisoned_side,
        list(result.weights),
        result.skipped_reports,
    )


class TestRunIsTheShardedRound:
    @pytest.mark.parametrize("kind", sorted(ROUNDS))
    def test_run_equals_collect_sharded_plus_estimate(self, kind):
        protocol, args, estimate = ROUNDS[kind]()
        reference = _fingerprint(protocol.run(*args, rng=np.random.default_rng(9)))
        for n_shards in (1, 3):
            for n_workers in (1, 2):
                collected = protocol.collect_sharded(
                    *args,
                    rng=np.random.default_rng(9),
                    n_shards=n_shards,
                    n_workers=n_workers,
                )
                result = estimate(collected)
                result.skipped_reports = protocol.contribution_summary(
                    len(args[0]) + args[2]
                )
                assert _fingerprint(result) == reference, (n_shards, n_workers)


class TestBadInputRefusedInTheParent:
    """The exception ``run()`` raised before every round was sharded, with
    no shard task dispatched (so none is retried)."""

    def _assert_refused(self, call, error):
        before = stats.snapshot()
        with pytest.raises(error):
            call()
        assert stats.delta_since(before).get("retries", 0) == 0

    @pytest.mark.parametrize(
        "bad, error",
        [(1.5, MechanismError), (np.inf, MechanismError), (np.nan, ValueError)],
    )
    def test_dap_values(self, bad, error):
        protocol, (values, attack, n_byzantine), _ = _dap_round()
        values = values.copy()
        values[7] = bad
        self._assert_refused(
            lambda: protocol.run(values, attack, n_byzantine, rng=0), error
        )

    @pytest.mark.parametrize(
        "categories_bad, targets, error",
        [
            (8, (3,), MechanismError),
            (-1, (3,), MechanismError),
            (None, (8,), MechanismError),
            (None, (-1,), MechanismError),
        ],
    )
    def test_frequency_inputs(self, categories_bad, targets, error):
        dap, (normal, _, n_byzantine), _ = _frequency_round()
        normal = normal.copy()
        if categories_bad is not None:
            normal[7] = categories_bad
        self._assert_refused(
            lambda: dap.run(normal, targets, n_byzantine, rng=0), error
        )

    @pytest.mark.parametrize(
        "categories_bad, targets",
        [(64, (1,)), (-1, (1,)), (None, (64,)), (None, (-1,))],
    )
    def test_sketch_inputs(self, categories_bad, targets):
        dap, (normal, _, n_byzantine), _ = _sketch_round()
        normal = normal.copy()
        if categories_bad is not None:
            normal[7] = categories_bad
        self._assert_refused(
            lambda: dap.run(normal, targets, n_byzantine, rng=0), MechanismError
        )


@pytest.mark.parametrize("kind", ["frequency", "sketch"])
@pytest.mark.parametrize("targets", [(0, 3), (0,)])
def test_numpy_targets_run_like_a_tuple(kind, targets):
    """Targets may be any sequence: a numpy array gives the tuple's round
    bit for bit (a one-element ``[0]`` array is not "no targets")."""
    dap, (normal, _, n_byzantine), _ = ROUNDS[kind]()
    normal = normal[:5_000]
    as_array = dap.run(normal, np.array(targets), n_byzantine, rng=3)
    as_tuple = dap.run(normal, targets, n_byzantine, rng=3)
    assert _fingerprint(as_array) == _fingerprint(as_tuple)
