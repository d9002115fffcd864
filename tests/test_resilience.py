"""Fault-tolerant execution layer: the recovery ladder never changes bits.

Five families of guarantees:

* **ResilientPool** — retries, injected worker kills (real pool
  reincarnation), timeouts, straggler re-dispatch and serial degradation all
  return results bit-identical to an undisturbed run, with every recovery
  action counted in :mod:`repro.resilience.stats`;
* **fault-plan determinism (property)** — Hypothesis-drawn fault plans
  injecting kills/timeouts/raises at arbitrary ``(task, attempt)`` never
  change the collected statistics or estimates, for the mean route
  (emf / emf_star) and the k-RR and sketch frequency routes at 1 / 2 / 5
  shards;
* **checkpoint chain** — truncated, bit-flipped, version-bumped and
  foreign-digest checkpoints are quarantined (renamed aside) and the chain
  rolls back to the newest valid ancestor without raising, including through
  a full service re-run that replays the missing windows bit-identically;
* **pooled chaos** — a sharded collection round and a pooled service
  stream run under a worker kill, a timeout, a raise or two corrupted
  checkpoints: every planned fault fires, the output is bit-identical to the
  clean run, and the faulted run takes at most 5x the clean wall time;
* **store atomicity** — a SIGKILL mid-artifact-write leaves the previous
  artifact intact (temp-file + fsync + rename), so a crashed run resumes.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import os
import signal
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attacks import BiasedByzantineAttack, PAPER_POISON_RANGES
from repro.collect.sharding import SHARD_POOL_LABEL, run_shard_tasks
from repro.core.dap import DAPConfig, DAPProtocol
from repro.core.frequency import FrequencyDAP
from repro.core.sketch_frequency import SketchFrequencyDAP
from repro.engine.store import load_run, save_run
from repro.resilience import (
    FaultPlan,
    ResilientPool,
    RetryPolicy,
    TaskFailedError,
    corrupt_file,
    retry_call,
    use_fault_plan,
    use_retry_policy,
)
from repro.scenario import ScenarioSpec, run_scenario
from repro.service.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointChain,
    QUARANTINE_SUFFIX,
    load_checkpoint,
    payload_checksum,
    write_checkpoint,
)
from repro.service.runtime import run_service
from repro.service.spec import ServiceSpec
from repro.simulation.sweep import SweepRecord
from repro.utils.durable import write_json
from repro.utils.ledger import observe

#: no backoff sleeps and headroom for stacked faults on one task
FAST = RetryPolicy(max_attempts=5, backoff_base=0.0, backoff_cap=0.0)

ATTACK = BiasedByzantineAttack(PAPER_POISON_RANGES["[C/2,C]"])
SHARD_COUNTS = (1, 2, 5)


# module-level workers (picklable by reference for the pool path)
def square(x):
    return x * x


def always_fails(x):
    raise RuntimeError("task is permanently broken")


@pytest.fixture(autouse=True)
def observed():
    """Each test is one run: its own observation and warn-once latch."""
    with observe() as observation:
        yield observation


# ----------------------------------------------------------------------
# ResilientPool
# ----------------------------------------------------------------------
class TestResilientPool:
    def test_serial_and_pool_agree_in_task_order(self):
        tasks = list(range(7))
        expected = [x * x for x in tasks]
        assert ResilientPool(1, "t").run(square, tasks) == expected
        assert ResilientPool(3, "t").run(square, tasks) == expected

    def test_empty_tasks(self):
        assert ResilientPool(4, "t").run(square, []) == []

    def test_injected_kill_reincarnates_pool(self, observed):
        plan = FaultPlan.from_mapping(
            {"faults": [{"kind": "kill", "scope": "t", "task": 0, "attempt": 0}]}
        )
        with use_fault_plan(plan) as injector, use_retry_policy(FAST):
            out = ResilientPool(2, "t").run(square, [1, 2, 3, 4])
        assert out == [1, 4, 9, 16]
        assert injector.fired == 1
        snap = observed.book("events")
        assert snap["worker_deaths"] >= 1
        assert snap["pool_restarts"] >= 1

    def test_injected_raise_and_timeout_retry(self, observed):
        plan = FaultPlan.from_mapping(
            {
                "faults": [
                    {"kind": "raise", "scope": "t", "task": 1, "attempt": 0},
                    {"kind": "timeout", "scope": "t", "task": 2, "attempt": 0},
                ]
            }
        )
        with use_fault_plan(plan) as injector, use_retry_policy(FAST):
            out = ResilientPool(1, "t").run(square, [1, 2, 3, 4])
        assert out == [1, 4, 9, 16]
        assert injector.fired == 2
        snap = observed.book("events")
        assert snap["retries"] >= 1
        assert snap["timeouts"] == 1

    def test_faults_only_match_their_scope(self):
        plan = FaultPlan.from_mapping(
            {"faults": [{"kind": "raise", "scope": "other", "task": 0, "attempt": 0}]}
        )
        with use_fault_plan(plan) as injector, use_retry_policy(FAST):
            assert ResilientPool(1, "t").run(square, [3]) == [9]
        assert injector.fired == 0

    def test_permanent_failure_raises_after_max_attempts(self, observed):
        with use_retry_policy(RetryPolicy(max_attempts=2, backoff_base=0.0)):
            with pytest.raises(TaskFailedError, match="after 2 attempts"):
                ResilientPool(1, "t").run(always_fails, [1])
        assert observed.book("events")["retries"] == 1

    def test_watchdog_redispatches_straggler(self, observed):
        # a real straggler needs a genuinely slow worker; keep it tiny
        policy = RetryPolicy(task_timeout=0.25, backoff_base=0.0, max_attempts=6)
        with use_retry_policy(policy):
            out = ResilientPool(2, "t").run(_sleepy, [99, 1, 2])
        assert out == [99, 1, 2]
        assert observed.book("events")["timeouts"] >= 1

    def test_degradation_warns_once_with_unified_shape(self, observed):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = ResilientPool(2, "t").run(
                square, [1, 2, 3], pickle_probe=lambda: None
            )
            second = ResilientPool(2, "t").run(
                square, [1, 2, 3], pickle_probe=lambda: None
            )
        assert first == second == [1, 4, 9]
        messages = [str(w.message) for w in caught]
        assert len(messages) == 1
        assert "resilient pool [t] degrading to serial execution" in messages[0]
        assert "not picklable" in messages[0]
        assert observed.book("events")["serial_degradations"] == 2

        # a new run re-arms the latch
        with observe(), pytest.warns(RuntimeWarning, match="not picklable"):
            ResilientPool(2, "t").run(square, [1, 2], pickle_probe=lambda: None)

    def test_shard_harness_uses_the_same_message_shape(self):
        with pytest.warns(
            RuntimeWarning,
            match=r"resilient pool \[collect\.shard\] degrading to serial",
        ):
            out = run_shard_tasks(
                square, [1, 2, 3], n_workers=2, pickle_probe=lambda: None
            )
        assert out == [1, 4, 9]

    def test_retry_call_retries_transient_oserror(self, observed):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient")
            return "done"

        with use_retry_policy(FAST):
            assert retry_call(flaky, label="t") == "done"
        assert calls["n"] == 2
        assert observed.book("events")["retries"] == 1

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="task_timeout"):
            RetryPolicy(task_timeout=-1.0)
        with pytest.raises(ValueError, match="n_workers"):
            ResilientPool(0, "t")


def _sleepy(x):
    if x == 99:
        time.sleep(0.8)
    return x


# ----------------------------------------------------------------------
# FaultPlan schema
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_document_round_trips(self):
        plan = FaultPlan.from_mapping(
            {
                "name": "p",
                "faults": [
                    {"kind": "kill", "scope": "s", "task": 1, "attempt": 2},
                    {"kind": "checkpoint", "window": 3, "mode": "bitflip"},
                    {"kind": "artifact-write", "count": 2},
                ],
            }
        )
        assert FaultPlan.from_mapping(plan.document()) == plan

    @pytest.mark.parametrize(
        "entry, match",
        [
            ({"kind": "explode"}, "unknown kind"),
            ({"kind": "kill", "task": 0}, "needs a 'scope'"),
            ({"kind": "kill", "scope": "s", "window": 1}, "unknown keys"),
            ({"kind": "checkpoint", "mode": "nuke"}, "unknown corruption mode"),
            ({"kind": "kill", "scope": "s", "task": -1}, "must be >= 0"),
            ({"kind": "artifact-write", "count": 0}, "count must be >= 1"),
        ],
    )
    def test_invalid_entries_rejected(self, entry, match):
        with pytest.raises(ValueError, match=match):
            FaultPlan.from_mapping({"faults": [entry]})

    def test_each_fault_fires_at_most_once(self):
        plan = FaultPlan.from_mapping(
            {"faults": [{"kind": "raise", "scope": "s", "task": 0, "attempt": 0}]}
        )
        injector = plan.injector()
        assert injector.pool_fault("s", 0, 0) == "raise"
        assert injector.pool_fault("s", 0, 0) is None

    def test_corrupt_file_modes(self, tmp_path):
        path = str(tmp_path / "f.bin")
        original = b"0123456789abcdef"
        for mode in ("truncate", "bitflip"):
            with open(path, "wb") as handle:
                handle.write(original)
            corrupt_file(path, mode)
            with open(path, "rb") as handle:
                damaged = handle.read()
            assert damaged != original
            if mode == "truncate":
                assert damaged == original[: len(original) // 2]
            else:
                assert len(damaged) == len(original)


# ----------------------------------------------------------------------
# property: fault plans never change the records
# ----------------------------------------------------------------------
_VALUES = np.random.default_rng(42).uniform(-1.0, 1.0, size=600)
_CATEGORIES = np.random.default_rng(43).integers(0, 8, size=600)
_N_BYZANTINE = 150
_BASELINES: dict = {}


def _mean_route(estimator, n_shards, n_workers=None):
    protocol = DAPProtocol(DAPConfig(epsilon=1.0, estimator=estimator))
    accumulators = protocol.collect_sharded(
        _VALUES,
        ATTACK,
        _N_BYZANTINE,
        rng=np.random.default_rng(7),
        n_shards=n_shards,
        n_workers=n_workers,
        block_size=64,
    )
    result = protocol.aggregate_stats([acc.stats() for acc in accumulators])
    states = json.dumps([acc.state_dict() for acc in accumulators], sort_keys=True)
    return states, repr(result.estimate), repr(result.gamma_hat)


def _krr_route(n_shards, n_workers=None):
    dap = FrequencyDAP(epsilon=1.0, n_categories=8, estimator="emf_star")
    accumulator = dap.collect_sharded(
        _CATEGORIES,
        poisoned_categories=(0,),
        n_byzantine=_N_BYZANTINE,
        rng=np.random.default_rng(9),
        n_shards=n_shards,
        n_workers=n_workers,
        block_size=64,
    )
    return json.dumps(accumulator.state_dict(), sort_keys=True)


def _sketch_route(n_shards, n_workers=None):
    dap = SketchFrequencyDAP(1.0, 64, sketch_rows=2, sketch_width=32)
    accumulator = dap.collect_sharded(
        _CATEGORIES,
        poisoned_categories=(0,),
        n_byzantine=_N_BYZANTINE,
        rng=np.random.default_rng(9),
        n_shards=n_shards,
        n_workers=n_workers,
        block_size=64,
    )
    return json.dumps(accumulator.state_dict(), sort_keys=True)


def _baseline(key, compute):
    if key not in _BASELINES:
        _BASELINES[key] = compute()
    return _BASELINES[key]


fault_entries = st.lists(
    st.builds(
        lambda kind, task, attempt: {
            "kind": kind,
            "scope": SHARD_POOL_LABEL,
            "task": task,
            "attempt": attempt,
        },
        st.sampled_from(["kill", "raise", "timeout"]),
        st.integers(0, 5),
        st.integers(0, 2),
    ),
    min_size=1,
    max_size=4,
)


class TestFaultPlansNeverChangeRecords:
    @given(entries=fault_entries)
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_mean_route_bit_identical_under_arbitrary_faults(self, entries):
        plan = FaultPlan.from_mapping({"faults": entries})
        for estimator in ("emf", "emf_star"):
            for n_shards in SHARD_COUNTS:
                clean = _baseline(
                    ("mean", estimator, n_shards),
                    lambda e=estimator, s=n_shards: _mean_route(e, s),
                )
                with use_fault_plan(plan), use_retry_policy(FAST):
                    faulted = _mean_route(estimator, n_shards)
                assert faulted == clean

    @given(entries=fault_entries)
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_frequency_routes_bit_identical_under_arbitrary_faults(self, entries):
        plan = FaultPlan.from_mapping({"faults": entries})
        for name, route in (("krr", _krr_route), ("sketch", _sketch_route)):
            for n_shards in SHARD_COUNTS:
                clean = _baseline(
                    (name, n_shards), lambda r=route, s=n_shards: r(s)
                )
                with use_fault_plan(plan), use_retry_policy(FAST):
                    assert route(n_shards) == clean

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_real_worker_kill_bit_identical_with_pool(self, n_shards):
        """Same invariant through an actual process pool and a real worker
        death (``os._exit`` in the child), not just the serial fallback."""
        plan = FaultPlan.from_mapping(
            {
                "faults": [
                    {
                        "kind": "kill",
                        "scope": SHARD_POOL_LABEL,
                        "task": min(1, n_shards - 1),
                        "attempt": 0,
                    },
                    {
                        "kind": "timeout",
                        "scope": SHARD_POOL_LABEL,
                        "task": 0,
                        "attempt": 0,
                    },
                ]
            }
        )
        clean = _baseline(
            ("mean", "emf_star", n_shards),
            lambda: _mean_route("emf_star", n_shards),
        )
        with use_fault_plan(plan) as injector, use_retry_policy(FAST):
            faulted = _mean_route("emf_star", n_shards, n_workers=2)
        assert faulted == clean
        assert injector.fired >= 1


# ----------------------------------------------------------------------
# checkpoint chain: quarantine + rollback
# ----------------------------------------------------------------------
def make_payload(next_window, digest="d1"):
    return {
        "version": CHECKPOINT_VERSION,
        "digest": digest,
        "next_window": next_window,
        "cumulative": [],
        "windows": [],
        "detector": {},
    }


class TestCheckpointChain:
    def chain(self, tmp_path, retain=3):
        return CheckpointChain(str(tmp_path / "svc.json"), retain=retain)

    def test_rotation_retains_the_newest_n(self, tmp_path):
        chain = self.chain(tmp_path, retain=3)
        for window in range(1, 6):
            chain.write(make_payload(window))
        assert [os.path.basename(p) for p in chain.existing()] == [
            "svc.json",
            "svc.json.1",
            "svc.json.2",
        ]
        ages = [
            load_checkpoint(path)["next_window"] for path in chain.existing()
        ]
        assert ages == [5, 4, 3]
        payload, quarantined = chain.load_latest("d1")
        assert payload["next_window"] == 5
        assert quarantined == []

    def test_empty_chain_loads_none(self, tmp_path):
        payload, quarantined = self.chain(tmp_path).load_latest("d1")
        assert payload is None and quarantined == []

    @pytest.mark.parametrize("mode", ["truncate", "bitflip"])
    def test_corrupt_head_quarantined_and_rolled_back(self, tmp_path, mode, observed):
        chain = self.chain(tmp_path)
        chain.write(make_payload(1))
        chain.write(make_payload(2))
        corrupt_file(chain.path, mode)
        with pytest.warns(RuntimeWarning, match="quarantined invalid checkpoint"):
            payload, quarantined = chain.load_latest("d1")
        assert payload["next_window"] == 1
        assert len(quarantined) == 1
        assert quarantined[0].endswith(QUARANTINE_SUFFIX)
        assert os.path.exists(quarantined[0])
        assert not os.path.exists(chain.path)
        assert observed.book("events")["checkpoint_quarantined"] == 1

    def test_version_bumped_head_quarantined(self, tmp_path):
        chain = self.chain(tmp_path)
        chain.write(make_payload(1))
        bumped = make_payload(2)
        bumped["version"] = CHECKPOINT_VERSION + 1
        chain.write(bumped)
        with pytest.warns(RuntimeWarning, match="quarantined invalid checkpoint"):
            payload, quarantined = chain.load_latest("d1")
        assert payload["next_window"] == 1
        assert len(quarantined) == 1

    def test_foreign_digest_head_quarantined_when_ancestor_valid(self, tmp_path):
        chain = self.chain(tmp_path)
        chain.write(make_payload(1, digest="d1"))
        chain.write(make_payload(2, digest="OTHER"))
        with pytest.warns(RuntimeWarning, match="quarantined invalid checkpoint"):
            payload, quarantined = chain.load_latest("d1")
        assert payload["next_window"] == 1
        assert len(quarantined) == 1

    def test_foreign_digest_without_ancestor_still_raises(self, tmp_path):
        """An identity mismatch with nothing to roll back to is a
        configuration error, not a fault — silently starting fresh would
        hide that the caller pointed at another service's state."""
        chain = self.chain(tmp_path)
        chain.write(make_payload(1, digest="OTHER"))
        with pytest.raises(ValueError, match="different service configuration"):
            chain.load_latest("d1")
        assert os.path.exists(chain.path)  # not quarantined

    def test_whole_chain_corrupt_falls_back_to_fresh(self, tmp_path):
        chain = self.chain(tmp_path)
        chain.write(make_payload(1))
        chain.write(make_payload(2))
        for path in chain.existing():
            corrupt_file(path, "truncate")
        with pytest.warns(RuntimeWarning, match="quarantined invalid checkpoint"):
            payload, quarantined = chain.load_latest("d1")
        assert payload is None
        assert len(quarantined) == 2

    def test_checksum_catches_silent_mutation(self, tmp_path):
        """A mutation that keeps the JSON parseable (the failure mode the
        structural checks miss) must still be rejected at load time."""
        path = str(tmp_path / "c.json")
        write_checkpoint(path, make_payload(3))
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["next_window"] = 7  # stale checksum now lies about this
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(ValueError, match="integrity checksum"):
            load_checkpoint(path)

    def test_missing_checksum_quarantined_and_rolled_back(self, tmp_path, observed):
        """A head whose ``checksum`` key is gone is invalid, not a legacy
        file: the chain quarantines it and resumes from the ancestor."""
        chain = self.chain(tmp_path)
        chain.write(make_payload(1))
        chain.write(make_payload(2))
        with open(chain.path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        del payload["checksum"]
        with open(chain.path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(ValueError, match="no integrity checksum"):
            load_checkpoint(chain.path)
        with pytest.warns(RuntimeWarning, match="quarantined invalid checkpoint"):
            loaded, quarantined = chain.load_latest("d1")
        assert loaded["next_window"] == 1
        assert len(quarantined) == 1 and os.path.exists(quarantined[0])
        assert observed.book("events")["checkpoint_quarantined"] == 1

    def test_file_body_is_the_checksummed_canonical_text(self, tmp_path):
        """One serialisation: the body after the leading ``checksum`` entry
        is the canonical JSON the checksum covers."""
        path = str(tmp_path / "c.json")
        payload = make_payload(3)
        payload["windows"] = [{"window": 0, "estimate": 0.1, "flagged": False}]
        write_checkpoint(path, payload)
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        head = '{"checksum":"' + payload_checksum(payload) + '",'
        assert text.startswith(head)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert "{" + text[len(head):] == canonical
        assert load_checkpoint(path) == payload


SERVICE = dict(
    name="resilience_svc",
    epsilon=1.0,
    epsilon_min=0.25,
    window_size=400,
    n_windows=4,
    dataset="Uniform",
    attack={"name": "bba", "poison_range": "[C/2,C]"},
    gamma=0.2,
    attack_start=0,
    seed=17,
    detector={"warmup": 2},
)


class TestServiceRecovery:
    def test_corrupt_head_rolls_back_and_replays_bit_identically(self, tmp_path):
        spec = ServiceSpec(**SERVICE)
        checkpoint = spec.default_checkpoint_path(str(tmp_path))
        clean = run_service(spec, checkpoint_path=checkpoint)
        corrupt_file(checkpoint, "bitflip")
        with pytest.warns(RuntimeWarning, match="quarantined invalid checkpoint"):
            recovered = run_service(spec, checkpoint_path=checkpoint)
        assert [r.deterministic_view() for r in recovered.windows] == [
            r.deterministic_view() for r in clean.windows
        ]
        # rolled back one window (retained ancestor was written at window 3)
        assert recovered.resumed_from == spec.n_windows - 1
        assert recovered.resilience.get("checkpoint_quarantined") == 1

    def test_injected_checkpoint_corruption_is_output_invisible(self, tmp_path):
        spec = ServiceSpec(**SERVICE)
        clean = run_service(
            spec, checkpoint_path=spec.default_checkpoint_path(str(tmp_path / "a"))
        )
        plan = FaultPlan.from_mapping(
            {"faults": [{"kind": "checkpoint", "window": 1, "mode": "truncate"}]}
        )
        with use_fault_plan(plan) as injector:
            faulted = run_service(
                spec,
                checkpoint_path=spec.default_checkpoint_path(str(tmp_path / "b")),
            )
        assert injector.fired == 1
        assert [r.deterministic_view() for r in faulted.windows] == [
            r.deterministic_view() for r in clean.windows
        ]
        assert faulted.resilience.get("injected_faults") == 1


# ----------------------------------------------------------------------
# pooled chaos on both surfaces: invisible in the output, cheap in time
# ----------------------------------------------------------------------
#: faulted wall time / clean wall time.  Retried shards re-execute, but the
#: recovery machinery itself must stay cheap; tiny workloads make the ratio
#: noisy, hence the loose bound
OVERHEAD_BOUND = 5.0


def _pooled_service_stream(directory):
    spec = ServiceSpec(
        **{
            **SERVICE,
            "window_size": 2_000,
            "n_windows": 5,
            "gamma": 0.25,
            "collect_shards": 3,
            "collect_workers": 2,
        }
    )
    result = run_service(
        spec, checkpoint_path=spec.default_checkpoint_path(str(directory))
    )
    return [row.deterministic_view() for row in result.windows]


def _shard_fault(kind, task):
    return {"kind": kind, "scope": SHARD_POOL_LABEL, "task": task, "attempt": 0}


CHAOS = {
    "collect": (
        lambda directory: _mean_route("emf_star", 4, n_workers=2),
        [_shard_fault("kill", 1), _shard_fault("timeout", 0), _shard_fault("raise", 2)],
    ),
    "service": (
        _pooled_service_stream,
        [
            _shard_fault("kill", 1),
            _shard_fault("timeout", 0),
            {"kind": "checkpoint", "window": 1, "mode": "bitflip"},
            {"kind": "checkpoint", "window": 3, "mode": "truncate"},
        ],
    ),
}


class TestPooledChaos:
    @pytest.mark.parametrize("surface", sorted(CHAOS))
    def test_faults_fire_change_nothing_and_cost_little(self, surface, tmp_path):
        run, faults = CHAOS[surface]
        start = time.perf_counter()
        clean = run(tmp_path / "clean")
        clean_s = time.perf_counter() - start
        plan = FaultPlan.from_mapping({"faults": faults})
        with use_fault_plan(plan) as injector, use_retry_policy(FAST):
            start = time.perf_counter()
            faulted = run(tmp_path / "faulted")
            faulted_s = time.perf_counter() - start
        assert faulted == clean
        assert injector.fired == len(faults)
        assert faulted_s <= OVERHEAD_BOUND * clean_s, (
            f"faulted {faulted_s:.2f}s vs clean {clean_s:.2f}s"
        )


    def test_nested_shard_pool_retries_are_counted_once(self, tmp_path):
        """A shard-pool retry inside an engine worker reaches the artifact
        once: the worker's events come home with its unit, and the fold adds
        them to the run exactly as a serial run counts them."""
        spec = ScenarioSpec(
            name="nested", schemes=("DAP-CEMF*",), epsilons=(0.5, 1.0),
            n_users=2_000, n_trials=2, collect_workers=2,
        )
        # one entry per collection round: however the rounds spread over the
        # engine workers (each forks its own copy of the plan), every round's
        # first shard task raises once
        plan = FaultPlan.from_mapping({"faults": [_shard_fault("raise", 0)] * 8})
        counts = {}
        for n_workers in (1, 2):
            store = tmp_path / f"workers-{n_workers}.json"
            with use_fault_plan(plan), use_retry_policy(FAST):
                with warnings.catch_warnings():
                    # the two knobs compose multiplicatively; that is the point
                    warnings.simplefilter("ignore", RuntimeWarning)
                    run_scenario(spec, n_workers=n_workers, store_path=str(store))
            counts[n_workers] = load_run(store).meta["execution"]["resilience"]
        assert counts[1] == counts[2] == {"injected_faults": 4, "retries": 4}


# ----------------------------------------------------------------------
# store atomicity under SIGKILL
# ----------------------------------------------------------------------
def _units():
    return {
        (0, 0): [
            SweepRecord(
                point={"epsilon": 1.0}, scheme="S", mse=0.5, bias=0.1, n_trials=2
            )
        ]
    }


class _DyingHandle:
    """A temp-file handle that writes half its text, then SIGKILLs."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def write(self, text):
        self._handle.write(text[: len(text) // 2])
        self._handle.flush()
        os.kill(os.getpid(), signal.SIGKILL)


def _die_mid_write(path):
    """Child target: start an artifact write, then SIGKILL mid-write."""
    import repro.engine.store as store_module
    import repro.utils.durable as durable_module

    fdopen = durable_module.os.fdopen
    durable_module.os.fdopen = lambda *args, **kwargs: _DyingHandle(
        fdopen(*args, **kwargs)
    )
    store_module.save_run(path, _units())


class TestStoreAtomicity:
    def test_write_json_writes_the_bytes_json_dump_writes(self, tmp_path):
        path = tmp_path / "run.json"
        payload = {"b": [1.0 / 3.0, 2, None, "é"], "a": {"nested": True}}
        for options in ({}, {"indent": 1}, {"sort_keys": True}):
            write_json(path, payload, **options)
            expected = io.StringIO()
            json.dump(payload, expected, **options)
            assert path.read_text(encoding="utf-8") == expected.getvalue()

    def test_sigkill_mid_write_keeps_previous_artifact(self, tmp_path):
        path = str(tmp_path / "run.json")
        save_run(path, _units(), meta={"fingerprint": {}})
        before = load_run(path)

        context = multiprocessing.get_context("fork")
        child = context.Process(target=_die_mid_write, args=(path,))
        child.start()
        child.join(timeout=30)
        assert child.exitcode == -signal.SIGKILL

        after = load_run(path)  # resume path: artifact must still parse
        assert after.units == before.units
        assert after.meta == before.meta

    def test_injected_artifact_write_fault_is_retried(self, tmp_path, observed):
        path = str(tmp_path / "run.json")
        plan = FaultPlan.from_mapping({"faults": [{"kind": "artifact-write"}]})
        with use_fault_plan(plan) as injector, use_retry_policy(FAST):
            retry_call(
                lambda: save_run(path, _units()),
                label="engine.store",
                event="artifact_write_retries",
            )
        assert injector.fired == 1
        assert observed.book("events")["artifact_write_retries"] == 1
        assert load_run(path).units == _units()  # the retried write landed
