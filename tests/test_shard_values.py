"""Shard tasks read values through handles; pooled rounds share one segment.

:class:`repro.collect.sharding.ShardValues` is the one buffer a round's shard
tasks read.  In-process it is a plain array (the caller's own, for values the
caller already holds); for a process pool it is one shared-memory segment,
unlinked when the round ends however it ends.  The subprocess cases run a
pooled round with 2 workers — a DAP round, whose segment starts unfilled, or
a k-RR round, whose segment holds the caller's categories (clean and killed
only) — clean, with a fault that exhausts the retries,
with a worker killed mid-round, with too little room in ``/dev/shm``, and
degraded to in-process execution where a shard keeps failing — and check that no segment is left behind, that the resource tracker reports
no leak, and that every completed round has the serial round's bits.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import multiprocessing
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.attacks import BiasedByzantineAttack, PAPER_POISON_RANGES
from repro.collect import sharding
from repro.collect.sharding import SHM_DIR, ShardValues
from repro.core.dap import DAPConfig, DAPProtocol
from repro.core.frequency import FrequencyDAP
from repro.utils.ledger import observe

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason=f"no {SHM_DIR} to inspect"
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _segments():
    return {name for name in os.listdir(SHM_DIR) if name.startswith("psm_")}


class TestShardValues:
    def test_in_process_uses_the_callers_array(self):
        values = np.arange(10.0)
        for n_workers, n_tasks in ((None, 4), (1, 4), (2, 1)):
            with ShardValues.holding(values, n_workers, n_tasks) as buffer:
                assert buffer.array is values
                assert buffer.n_workers == n_workers
                np.testing.assert_array_equal(buffer.slice(3, 7).read(), values[3:7])

    def test_pooled_values_live_in_one_segment_until_close(self):
        values = np.arange(1_000, dtype=np.int64)
        before = _segments()
        buffer = ShardValues.holding(values, 2, 2)
        assert buffer.n_workers == 2
        assert _segments() - before == {buffer.name}
        handle = buffer.slice(10, 20)
        assert handle.read().tobytes() == values[10:20].tobytes()
        # a handle pickles to its name, offset and length, never the values
        assert len(pickle.dumps(handle)) < 200
        buffer.close()
        buffer.close()
        assert _segments() == before

    def test_a_spawned_worker_attaches_by_name(self):
        values = np.random.default_rng(0).uniform(size=5_000)
        context = multiprocessing.get_context("spawn")
        with ShardValues.holding(values, 2, 2) as buffer:
            with concurrent.futures.ProcessPoolExecutor(1, mp_context=context) as pool:
                got = pool.submit(buffer.slice(100, 4_000).read).result()
        assert got.tobytes() == values[100:4_000].tobytes()

    def test_a_view_outliving_its_round_is_closed_later(self):
        before = _segments()
        buffer = ShardValues(8, np.float64, 2, 2)
        view = buffer.slice(0, 8).read()
        buffer.close()
        # unlinked at once, mapped until the view goes
        assert _segments() == before
        assert sharding._unclosed
        view[:] = 1.0
        del view
        ShardValues(1, np.float64, None, 1).close()
        assert not sharding._unclosed

    def test_no_room_in_dev_shm_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(sharding, "_shm_free_bytes", lambda: 0)
        before = _segments()
        with observe(), pytest.warns(
            RuntimeWarning, match=r"collect\.shard\] degrading.*MiB free"
        ):
            buffer = ShardValues(1_000, np.float64, 2, 2)
        with buffer:
            assert _segments() == before
            assert buffer.n_workers == 1


# ----------------------------------------------------------------------
# pooled rounds in a subprocess: no segment and no tracker leak, ever
# ----------------------------------------------------------------------
ROUND = """
import hashlib, json, pickle, sys, warnings
import numpy as np
from repro.attacks import BiasedByzantineAttack, PAPER_POISON_RANGES
from repro.collect import sharding
from repro.core.dap import DAPConfig, DAPProtocol
from repro.core.frequency import FrequencyDAP
from repro.resilience import (
    FaultPlan, RetryPolicy, TaskFailedError, use_fault_plan, use_retry_policy,
)


# cannot be pickled, so the round runs in-process, and fails there
class BrokenInProcess(BiasedByzantineAttack):
    def __reduce__(self):
        raise TypeError("not picklable")

    def poison_reports(self, *args, **kwargs):
        raise RuntimeError("poison failed")


case, route = sys.argv[1:3]
attack = (BrokenInProcess if case == "degraded-raise" else BiasedByzantineAttack)(
    PAPER_POISON_RANGES["[C/2,C]"]
)
faults = {
    "clean": [],
    "raise": [
        {"kind": "raise", "scope": "collect.shard", "task": 1, "attempt": attempt}
        for attempt in range(3)
    ],
    "kill": [{"kind": "kill", "scope": "collect.shard", "task": 0, "attempt": 0}],
    "no-room": [],
    "degraded-raise": [],
}[case]
if case == "no-room":
    sharding._shm_free_bytes = lambda: 0
protocol = DAPProtocol(DAPConfig(epsilon=1.0, epsilon_min=0.25))
values = np.random.default_rng(5).uniform(-1.0, 1.0, 30_000)
if route == "krr":
    # eight categories; the second argument of collect_sharded is the targets
    protocol, values, attack = FrequencyDAP(1.0, 8), ((values + 1) * 4).astype(int), (3,)
policy = RetryPolicy(max_attempts=3, backoff_base=0.0, backoff_cap=0.0)
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    with use_retry_policy(policy), use_fault_plan(FaultPlan.from_mapping({"faults": faults})):
        try:
            accumulators = protocol.collect_sharded(
                values,
                attack,
                6_000,
                rng=11,
                n_shards=3,
                n_workers=2,
                block_size=4_096,
            )
        except TaskFailedError:
            digest = "TaskFailedError"
        else:
            if route == "krr":
                accumulators = [accumulators]
            states = [accumulator.state_dict() for accumulator in accumulators]
            digest = hashlib.sha256(pickle.dumps(states)).hexdigest()
print(json.dumps({"digest": digest, "warnings": [str(w.message) for w in caught]}))
"""


def _serial_digest(route="dap"):
    if route == "krr":
        categories = (np.random.default_rng(5).uniform(-1.0, 1.0, 30_000) + 1) * 4
        accumulator = FrequencyDAP(1.0, 8).collect_sharded(
            categories.astype(int), (3,), 6_000, rng=11, n_shards=3, block_size=4_096
        )
        return hashlib.sha256(pickle.dumps([accumulator.state_dict()])).hexdigest()
    accumulators = DAPProtocol(DAPConfig(epsilon=1.0, epsilon_min=0.25)).collect_sharded(
        np.random.default_rng(5).uniform(-1.0, 1.0, 30_000),
        BiasedByzantineAttack(PAPER_POISON_RANGES["[C/2,C]"]),
        6_000,
        rng=11,
        n_shards=3,
        block_size=4_096,
    )
    states = [accumulator.state_dict() for accumulator in accumulators]
    return hashlib.sha256(pickle.dumps(states)).hexdigest()


def _pooled_round(case, route="dap"):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    before = _segments()
    completed = subprocess.run(
        [sys.executable, "-c", ROUND, case, route],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert _segments() == before, "a shared-memory segment was left behind"
    assert "resource_tracker" not in completed.stderr, completed.stderr
    assert "leaked shared_memory" not in completed.stderr, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


# the k-RR round's segment holds the caller's categories
# (ShardValues.holding); the DAP round's starts unfilled
@pytest.mark.parametrize("route", ["dap", "krr"])
@pytest.mark.parametrize("case", ["clean", "kill"])
def test_pooled_round_leaves_nothing_and_keeps_the_bits(case, route):
    outcome = _pooled_round(case, route)
    assert outcome["digest"] == _serial_digest(route)
    assert not any("degrading" in message for message in outcome["warnings"])


@pytest.mark.parametrize("case", ["raise", "degraded-raise"])
def test_exhausted_retries_leave_nothing(case):
    # degraded-raise: the failed in-process shard's traceback still holds a
    # view of the segment while the round unwinds
    assert _pooled_round(case)["digest"] == "TaskFailedError"


def test_no_room_in_dev_shm_runs_serially_to_the_same_bits():
    outcome = _pooled_round("no-room")
    assert outcome["digest"] == _serial_digest()
    (message,) = [m for m in outcome["warnings"] if "degrading" in m]
    assert "resilient pool [collect.shard] degrading to serial execution" in message
    assert f"{SHM_DIR} has 0.0 MiB free" in message
