"""Leaf streaming of collection blocks changes no bits.

Under the ``fast`` backend and the local protocol a shard worker draws,
bins and sums each seed block in leaves of at most ``LEAF_REPORTS``
reports, cut along numpy's pairwise-sum tree
(:func:`repro.collect.round._collect_block`).  These tests pin that the counts,
the report sum (compared as ``float.hex``) and the report count equal a
one-shot oracle that perturbs the whole block and updates an accumulator
with it — which also catches a numpy whose ``sum`` reduces differently —
and that whole rounds are unchanged at any shard and worker count, under
both trust models.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest

from repro.attacks import BiasedByzantineAttack, PoisonRange
from repro.backends import get_backend, use_backend
from repro.collect import GroupAccumulator
from repro.collect import round as collect_round
from repro.collect.round import LEAF_REPORTS
from repro.core.dap import DAPConfig, DAPProtocol
from repro.ldp import HybridMechanism, PiecewiseMechanism, SquareWaveMechanism
from repro.utils.discretization import BucketGrid

REPORT_COUNTS = (
    1,
    7,
    127,
    128,
    129,
    LEAF_REPORTS - 1,
    LEAF_REPORTS,
    LEAF_REPORTS + 1,
    3 * LEAF_REPORTS + 5,
    2**20 + 3,
)


def _assert_same_stats(streamed: GroupAccumulator, oracle: GroupAccumulator) -> None:
    left, right = streamed.stats(), oracle.stats()
    np.testing.assert_array_equal(left.output_counts, right.output_counts)
    assert left.report_sum.hex() == right.report_sum.hex()
    assert left.n_reports == right.n_reports


def _draw(mechanism, values, repeats, seed):
    """A local-protocol block's report slices, drawn from one seeded generator."""
    return functools.partial(
        collect_round._draw_normal,
        DAPProtocol(DAPConfig(1.0)).pipeline,
        mechanism,
        values,
        repeats,
        seed,
        np.random.default_rng(seed),
    )


@pytest.mark.parametrize("mechanism_cls", [PiecewiseMechanism, SquareWaveMechanism])
@pytest.mark.parametrize("repeats", [1, 3, 16])
@pytest.mark.parametrize("n_reports", REPORT_COUNTS)
def test_streamed_block_matches_the_whole_block(mechanism_cls, repeats, n_reports):
    mechanism = mechanism_cls(0.5)
    low, high = mechanism.input_domain
    n_users = -(-n_reports // repeats)
    values = np.random.default_rng(n_reports).uniform(low, high, n_users)
    grid = BucketGrid(*mechanism.output_domain, 257)
    streamed = GroupAccumulator(0.5, grid)
    oracle = GroupAccumulator(0.5, grid)
    with use_backend("fast"):
        collect_round._collect_block(
            streamed, _draw(mechanism, values, repeats, seed=5), n_reports, LEAF_REPORTS
        )
        # the last user may send only part of its reports, so the oracle
        # truncates the repeated inputs rather than calling the slicing path
        inputs = np.repeat(values, repeats)[:n_reports]
        oracle.update(mechanism.perturb(inputs, np.random.default_rng(5)))
    _assert_same_stats(streamed, oracle)


@pytest.mark.parametrize("repeats", [1, 3, 16])
def test_streamed_block_matches_client_perturb(repeats):
    # a whole number of users, so the oracle is the client kernel itself
    mechanism = PiecewiseMechanism(0.5)
    values = np.random.default_rng(2).uniform(-1, 1, 2 * LEAF_REPORTS // repeats + 3)
    grid = BucketGrid(*mechanism.output_domain, 64)
    streamed = GroupAccumulator(0.5, grid)
    oracle = GroupAccumulator(0.5, grid)
    with use_backend("fast"):
        collect_round._collect_block(
            streamed,
            _draw(mechanism, values, repeats, seed=9),
            values.size * repeats,
            LEAF_REPORTS,
        )
        oracle.update(
            collect_round._client_perturb(
                mechanism, values, repeats, np.random.default_rng(9)
            )
        )
    _assert_same_stats(streamed, oracle)


def _round(
    protocol: str, n_shards: int, n_workers: int, mechanism=PiecewiseMechanism
) -> list:
    config = DAPConfig(1.0, protocol=protocol, mechanism_factory=mechanism)
    values = np.random.default_rng(3).uniform(-1, 1, 40_000)
    attack = BiasedByzantineAttack(PoisonRange.of_c(0.5, 1.0))
    with use_backend("fast"):
        return DAPProtocol(config).collect_sharded(
            values,
            attack,
            8_000,
            rng=11,
            n_shards=n_shards,
            n_workers=n_workers,
            block_size=4_096,
        )


def _fingerprint(accumulators) -> str:
    digest = hashlib.sha256()
    for accumulator in accumulators:
        stats = accumulator.stats()
        digest.update(stats.output_counts.astype(np.int64).tobytes())
        digest.update(stats.report_sum.hex().encode())
        digest.update(str(stats.n_reports).encode())
    return digest.hexdigest()[:16]


#: the rounds of :func:`_round`, as the whole-block collector produced them
#: before blocks were streamed in leaves
PINNED_ROUNDS = {"local": "be63b88eeba08095", "shuffle": "29ca32b881912dce"}


@pytest.mark.parametrize("protocol", ["local", "shuffle"])
def test_rounds_keep_their_pinned_bits(protocol):
    # 4,096-user blocks of the 8- and 16-report groups exceed one leaf, so
    # the local round streams and the shuffle round keeps whole blocks
    assert 4_096 * 16 > LEAF_REPORTS
    assert _fingerprint(_round(protocol, 1, 1)) == PINNED_ROUNDS[protocol]


@pytest.mark.parametrize("n_shards", [1, 3])
@pytest.mark.parametrize("n_workers", [1, 2])
def test_fast_round_is_shard_and_worker_invariant(n_shards, n_workers):
    reference = _round("local", 1, 1)
    sharded = _round("local", n_shards, n_workers)
    for left, right in zip(sharded, reference):
        _assert_same_stats(left, right)


@pytest.mark.parametrize("mechanism", [PiecewiseMechanism, HybridMechanism])
def test_whole_block_leaves_give_the_streamed_round(monkeypatch, mechanism):
    # Hybrid draws its PM/Duchi choice before sampling, so its blocks must
    # stay whole even under the fast backend
    streamed = _round("local", 1, 1, mechanism)
    monkeypatch.setattr(collect_round, "LEAF_REPORTS", 1 << 40)
    whole = _round("local", 1, 1, mechanism)
    for left, right in zip(streamed, whole):
        _assert_same_stats(left, right)


def test_only_the_fast_backend_streams():
    assert not get_backend().streams_leaves
    with use_backend("fast") as fast:
        assert fast.streams_leaves
    with use_backend("numpy") as reference:
        assert not reference.streams_leaves


def test_fold_refuses_a_non_finite_sum_before_counting():
    grid = BucketGrid(-1.0, 1.0, 4)
    accumulator = GroupAccumulator(1.0, grid)
    with pytest.raises(ValueError, match="finite"):
        accumulator.fold(np.array([1, 0, 0, 0]), 1, float("nan"))
    with pytest.raises(ValueError, match="4-bucket"):
        accumulator.fold(np.array([1, 0, 0]), 1, 0.5)
    assert accumulator.n_reports == 0
    assert not accumulator.stats().output_counts.any()
