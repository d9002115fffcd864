"""Property tests for the protocol pipeline (hypothesis).

The shuffle transport must be an execution detail at the statistics layer:
a group's accumulator state is a multiset statistic (exact bucket counts
plus an order-exact compensated report sum), so any permutation of the
group's delivered reports — any shuffle seed — must produce bit-identical
state.  The block-seeded collection design extends the same guarantee to
sharded runs (merges at any shard count are a pure fold), and the windowed
service under ``protocol="shuffle"`` keeps the seed repo's kill/resume
bit-identity.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attacks import BiasedByzantineAttack, NoAttack
from repro.backends import use_backend
from repro.core.dap import DAPConfig, DAPProtocol
from repro.service import (
    ServiceSpec,
    WindowedAggregationService,
    run_service,
    write_checkpoint,
)

COMMON_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

N_NORMAL = 400
N_BYZANTINE = 100


def _protocol(**overrides) -> DAPProtocol:
    config = DAPConfig(
        epsilon=1.0, epsilon_min=0.25, protocol="shuffle", **overrides
    )
    return DAPProtocol(config)


def _states(protocol: DAPProtocol, values, attack, n_byzantine, rng, n_shards=1):
    """JSON round-tripped accumulator snapshots (the checkpoint boundary)."""
    accumulators = protocol.collect_sharded(
        values, attack, n_byzantine=n_byzantine, rng=rng, n_shards=n_shards
    )
    return [
        json.loads(json.dumps(accumulator.state_dict()))
        for accumulator in accumulators
    ]


class TestShuffleSeedInvariance:
    @given(
        data_seed=st.integers(0, 2**20),
        seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
    )
    @settings(max_examples=15, **COMMON_SETTINGS)
    def test_accumulator_state_invariant_to_shuffle_seed(self, data_seed, seeds):
        values = np.random.default_rng([data_seed, 0]).uniform(-1, 1, size=N_NORMAL)
        states = [
            _states(
                _protocol(shuffle_seed=shuffle_seed),
                values,
                BiasedByzantineAttack(),
                N_BYZANTINE,
                np.random.default_rng([data_seed, 1]),
            )
            for shuffle_seed in seeds
        ]
        assert states[0] == states[1]

    @given(data_seed=st.integers(0, 2**20), shuffle_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, **COMMON_SETTINGS)
    def test_shuffle_delivers_a_permutation_of_the_local_stream(
        self, data_seed, shuffle_seed
    ):
        # with no Byzantine users the client stage is identical between trust
        # models, so the shuffled round must deliver exactly the local
        # round's reports, reordered — the same multiset statistics, group by
        # group
        values = np.random.default_rng([data_seed, 0]).uniform(-1, 1, size=N_NORMAL)

        def states(protocol):
            return _states(
                protocol, values, NoAttack(), 0, np.random.default_rng([data_seed, 1])
            )

        local = states(DAPProtocol(DAPConfig(epsilon=1.0, epsilon_min=0.25)))
        assert states(_protocol(shuffle_seed=shuffle_seed)) == local


class TestShardedShuffleMerges:
    @given(data_seed=st.integers(0, 2**20), n_shards=st.sampled_from([2, 5]))
    @settings(max_examples=8, **COMMON_SETTINGS)
    def test_merges_bit_identical_at_any_shard_count(self, data_seed, n_shards):
        values = np.random.default_rng([data_seed, 0]).uniform(-1, 1, size=N_NORMAL)

        def states(shards):
            return _states(
                _protocol(),
                values,
                BiasedByzantineAttack(),
                N_BYZANTINE,
                np.random.default_rng([data_seed, 1]),
                n_shards=shards,
            )

        assert states(n_shards) == states(1)


class TestShuffledServiceResume:
    SPEC = dict(
        name="svc_shuffle_props",
        epsilon=1.0,
        epsilon_min=0.25,
        window_size=400,
        n_windows=4,
        dataset="Uniform",
        attack={"name": "bba", "poison_range": "[C/2,C]"},
        gamma=0.2,
        attack_start=0,
        seed=13,
        detector={"warmup": 2},
        protocol="shuffle",
    )

    def test_kill_resume_bit_identical(self, tmp_path):
        spec = ServiceSpec(**self.SPEC)
        full = run_service(spec)

        checkpoint = spec.default_checkpoint_path(str(tmp_path))
        # simulated SIGKILL: run two windows, checkpoint, abandon the process
        service = WindowedAggregationService(spec, checkpoint_path=checkpoint)
        service._fresh_state()
        with use_backend(spec.backend):
            for window in range(2):
                service._windows.append(service._run_window(window))
                service._next_window = window + 1
        write_checkpoint(checkpoint, service._checkpoint_payload())

        resumed = run_service(spec, checkpoint_path=checkpoint)
        assert resumed.resumed_from == 2
        assert [row.deterministic_view() for row in resumed.windows] == [
            row.deterministic_view() for row in full.windows
        ]
