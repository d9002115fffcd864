"""The benchmark's four workloads and the closed loop that times them.

A workload builds its fixture once (the set-up: dataset, pre-built
populations, protocol objects), then runs *units* in a closed loop: one
caller, and the next unit starts when the previous one returns.  Each unit
generates its inputs from ``SeedSequence([seed, workload id, unit])``
outside the timed region, makes one timed call into the program's public
API, and checks the outputs.  A unit that raises or fails a check counts
as failed.

Sizes are chosen so that a run holds enough units for its medians and
totals to be steady across seeds; ``quick`` shrinks every workload while
keeping every check on.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import statistics
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List

import numpy as np

from repro.attacks.bba import BiasedByzantineAttack
from repro.attacks.distributions import PAPER_POISON_RANGES
from repro.backends import use_backend
from repro.core.dap import DAPConfig, DAPProtocol
from repro.core.sketch_frequency import SketchFrequencyDAP
from repro.datasets.synthetic import uniform_dataset
from repro.resilience import stats as resilience_stats
from repro.service import ServiceSpec, run_service
from repro.simulation.population import build_population
from repro.utils import profiling
from repro.utils.transform_cache import transform_cache_stats

EPSILON = 1.0
GAMMA = 0.25
#: dataset records are sampled with replacement, so the pool stays small
DATASET_SAMPLES = 100_000
POISON_RANGE = "[C/2,C]"


def fixture_rng(seed: int, ident: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, ident]))


def unit_rng(seed: int, ident: int, unit: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, ident, unit]))


@dataclass
class Outcome:
    """What one unit did: users served, check failures, deterministic outputs."""

    users: int
    failures: List[str]
    record: Dict[str, Any]
    #: per-window latencies when a unit serves several requests; ``None``
    #: means the unit's own call time is its latency
    latencies: List[float] | None = None


class Workload:
    """Base class: ``inputs`` (untimed), ``call`` (timed), ``check`` (untimed)."""

    name = ""
    ident = 0
    backend = "fast"
    quick_units = 1

    def inputs(self, index: int) -> Any:
        raise NotImplementedError

    def call(self, inputs: Any) -> Any:
        raise NotImplementedError

    def check(self, inputs: Any, output: Any) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the fixture holds outside memory."""


class MeanRound(Workload):
    """Full DAP-CEMF* rounds: collect, probe EM, EMF*/CEMF*, aggregation."""

    name = "mean-round"
    ident = 0
    quick_units = 2

    def __init__(self, seed: int, quick: bool, workdir: str) -> None:
        self.seed = seed
        self.n_users = 100_000 if quick else 200_000
        self.dataset = uniform_dataset(
            n_samples=DATASET_SAMPLES, rng=fixture_rng(seed, self.ident)
        )
        self.attack = BiasedByzantineAttack(PAPER_POISON_RANGES[POISON_RANGE])
        self.protocol = DAPProtocol(DAPConfig(epsilon=EPSILON, estimator="cemf_star"))

    def inputs(self, index: int):
        rng = unit_rng(self.seed, self.ident, index)
        return index, build_population(self.dataset, self.n_users, GAMMA, rng=rng), rng

    def call(self, inputs):
        _, population, rng = inputs
        return self.protocol.run_sharded(
            population.normal_values,
            self.attack,
            population.n_byzantine,
            rng=rng,
            n_shards=1,
            n_workers=1,
        )

    def check(self, inputs, result) -> Outcome:
        index, population, _ = inputs
        failures = []
        if result.poisoned_side != "right":
            failures.append(f"round {index}: probed side {result.poisoned_side!r}, not right")
        if abs(result.gamma_hat - GAMMA) > 0.05:
            failures.append(f"round {index}: gamma_hat {result.gamma_hat:.4f} off by > 0.05")
        if not math.isfinite(result.estimate):
            failures.append(f"round {index}: estimate {result.estimate!r}")
        probe = result.features.probe
        return Outcome(
            users=self.n_users,
            failures=failures,
            record={
                "estimate": result.estimate,
                "abs_error": abs(result.estimate - population.true_mean),
                "gamma_hat": result.gamma_hat,
                "side": result.poisoned_side,
                "probe_iterations": probe.emf_left.n_iterations + probe.emf_right.n_iterations,
            },
        )


class MeanIngest(Workload):
    """Sharded collection alone (client -> transport -> accumulators), pooled."""

    name = "mean-ingest"
    ident = 1
    quick_units = 2

    def __init__(self, seed: int, quick: bool, workdir: str) -> None:
        self.seed = seed
        n_users = 1_000_000 if quick else 10_000_000
        rng = fixture_rng(seed, self.ident)
        dataset = uniform_dataset(n_samples=DATASET_SAMPLES, rng=rng)
        self.population = build_population(dataset, n_users, GAMMA, rng=rng)
        self.attack = BiasedByzantineAttack(PAPER_POISON_RANGES[POISON_RANGE])
        config = DAPConfig(epsilon=EPSILON, estimator="cemf_star")
        self.protocol = DAPProtocol(config)
        self.n_users = n_users
        self.workers = min(2, len(os.sched_getaffinity(0)))
        # every user in the eps_t group reports eps / eps_t times (Section V)
        self.expected_reports = sum(
            size * min(round(config.epsilon / eps_t), config.max_reports_per_user)
            for size, eps_t in zip(self.protocol.group_sizes(n_users), config.budget_ladder)
        )

    def inputs(self, index: int):
        return index, unit_rng(self.seed, self.ident, index)

    def call(self, inputs):
        _, rng = inputs
        return self.protocol.collect_sharded(
            self.population.normal_values,
            self.attack,
            self.population.n_byzantine,
            rng=rng,
            n_shards=2,
            n_workers=self.workers,
        )

    def check(self, inputs, accumulators) -> Outcome:
        index, _ = inputs
        failures = []
        n_reports = sum(acc.n_reports for acc in accumulators)
        if n_reports != self.expected_reports:
            failures.append(f"call {index}: {n_reports} reports, not {self.expected_reports}")
        digest = hashlib.sha256()
        for acc in accumulators:
            counts = acc.stats().output_counts
            digest.update(np.ascontiguousarray(counts).tobytes())
            if int(counts.sum()) != acc.n_reports:
                failures.append(
                    f"call {index}: histogram holds {int(counts.sum())} of "
                    f"{acc.n_reports} reports (epsilon={acc.epsilon:g})"
                )
        return Outcome(
            users=self.n_users,
            failures=failures,
            record={"n_reports": n_reports, "counts_sha256": digest.hexdigest()[:16]},
        )


class ServiceStream(Workload):
    """Windowed service streams: warm probes, per-window checkpoints, CUSUM."""

    name = "service-stream"
    ident = 2

    def __init__(self, seed: int, quick: bool, workdir: str) -> None:
        self.seed = seed
        # the attack starts after the detector's 5-window calibration prefix
        n_windows, window_size, self.attack_start = (8, 2_000, 5) if quick else (40, 5_000, 20)
        #: the detector must flag within three windows of the onset
        self.flag_by = min(self.attack_start + 3, n_windows - 1)
        self.template = ServiceSpec(
            name="bench-service-stream",
            epsilon=EPSILON,
            window_size=window_size,
            n_windows=n_windows,
            dataset="Uniform",
            attack={"name": "bba", "poison_range": POISON_RANGE},
            gamma=GAMMA,
            attack_start=self.attack_start,
            warm_probe=True,
            backend=self.backend,
            checkpoint_every=1,
        )
        self.workdir = tempfile.mkdtemp(prefix="service-", dir=workdir)

    def inputs(self, index: int):
        stream_seed = int(
            np.random.SeedSequence([self.seed, self.ident, index]).generate_state(1)[0]
        )
        directory = os.path.join(self.workdir, f"stream-{index}")
        os.makedirs(directory)
        return index, replace(self.template, seed=stream_seed), directory

    def call(self, inputs):
        _, spec, directory = inputs
        ticks = [time.perf_counter()]
        result = run_service(
            spec,
            checkpoint_path=os.path.join(directory, "checkpoint.json"),
            resume=False,
            progress=lambda row: ticks.append(time.perf_counter()),
        )
        return result, ticks

    def check(self, inputs, output) -> Outcome:
        index, spec, directory = inputs
        result, ticks = output
        shutil.rmtree(directory)
        failures = []
        if len(result.windows) != spec.n_windows:
            failures.append(f"stream {index}: {len(result.windows)}/{spec.n_windows} windows")
        flagged = result.flagged_window
        if flagged is None or not self.attack_start <= flagged <= self.flag_by:
            failures.append(
                f"stream {index}: flagged at window {flagged}, attack starts at "
                f"{self.attack_start} (flag due by {self.flag_by})"
            )
        return Outcome(
            users=spec.n_windows * spec.window_size,
            failures=failures,
            record={
                "flagged_window": flagged,
                "estimate": result.estimate,
                "gamma_hat": result.windows[-1].gamma_hat,
                "probe_iterations": sum(row.probe_iterations for row in result.windows),
            },
            latencies=[after - before for before, after in zip(ticks, ticks[1:])],
        )

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


@dataclass(frozen=True)
class SketchSizes:
    n_categories: int
    n_normal: int
    n_byzantine: int
    sketch_width: int
    n_heavies: int
    n_targets: int
    sketch_rows: int = 4
    n_heavy_hitters: int = 32


class SketchAttack(Workload):
    """Count-sketch frequency rounds at high cardinality under a targeted attack."""

    name = "sketch-attack"
    ident = 3
    epsilon = 4.0
    #: width of the analytic decode-error bound, in standard errors
    error_sigmas = 6.0
    FULL = SketchSizes(1_000_000, 1_000_000, 50_000, 1024, 20, 5)
    QUICK = SketchSizes(50_000, 100_000, 5_000, 1024, 10, 3)

    def __init__(self, seed: int, quick: bool, workdir: str) -> None:
        self.seed = seed
        self.sizes = sizes = self.QUICK if quick else self.FULL
        self.dap = SketchFrequencyDAP(
            epsilon=self.epsilon,
            n_categories=sizes.n_categories,
            sketch_rows=sizes.sketch_rows,
            sketch_width=sizes.sketch_width,
            n_heavy_hitters=sizes.n_heavy_hitters,
        )
        # planted heavies 10, 20, ... at frequencies 0.035 down to 0.015 (above
        # the decode noise's extreme order statistic); cold targets 5, 15, ...
        self.heavies = {
            10 * (i + 1): 0.035 - 0.020 * i / max(1, sizes.n_heavies - 1)
            for i in range(sizes.n_heavies)
        }
        self.targets = [10 * i + 5 for i in range(sizes.n_targets)]
        n_reports = sizes.n_normal
        mechanism = self.dap.mechanism
        self.error_bound = self.error_sigmas * (
            mechanism.frequency_stderr(n_reports)
            + mechanism.collision_stderr(sum(f * f for f in self.heavies.values()))
            + math.sqrt(0.03 * 0.97 / n_reports)
        )

    def inputs(self, index: int):
        rng = unit_rng(self.seed, self.ident, index)
        sizes = self.sizes
        categories = rng.integers(0, sizes.n_categories, sizes.n_normal)
        total = sum(self.heavies.values())
        heavy = rng.random(sizes.n_normal) < total
        ids = np.array(list(self.heavies))
        weights = np.array(list(self.heavies.values())) / total
        categories[heavy] = rng.choice(ids, heavy.sum(), p=weights)
        return index, categories, rng

    def call(self, inputs):
        _, categories, rng = inputs
        accumulator = self.dap.collect_sharded(
            categories,
            self.targets,
            self.sizes.n_byzantine,
            rng=rng,
            n_shards=1,
            n_workers=1,
        )
        return accumulator, self.dap.estimate_from_counts(accumulator)

    def check(self, inputs, output) -> Outcome:
        index = inputs[0]
        accumulator, result = output
        sizes = self.sizes
        failures = []
        flagged = sorted(result.poisoned_categories)
        missed = sorted(set(self.targets) - set(flagged))
        if missed:
            failures.append(f"round {index}: targets {missed} not flagged (flagged {flagged})")
        decoded = dict(zip(map(int, result.heavy_hitters), map(float, result.decoded)))
        honest_share = sizes.n_normal / (sizes.n_normal + sizes.n_byzantine)
        honest = {c: f * honest_share for c, f in self.heavies.items()}
        missing = sorted(c for c in honest if c not in decoded)
        if missing:
            failures.append(f"round {index}: planted heavies {missing} not decoded")
        error = max(
            (abs(decoded[c] - truth) for c, truth in honest.items() if c in decoded),
            default=math.inf,
        )
        if error > self.error_bound:
            failures.append(
                f"round {index}: heavy-hitter error {error:.5f} > bound {self.error_bound:.5f}"
            )
        return Outcome(
            users=sizes.n_normal + sizes.n_byzantine,
            failures=failures,
            record={
                "flagged": flagged,
                "gamma_hat": result.gamma_hat,
                "hh_max_abs_error": error,
                "n_reports": int(accumulator.n_reports),
            },
        )


WORKLOADS = {w.name: w for w in (MeanRound, MeanIngest, ServiceStream, SketchAttack)}


def make_workload(name: str, seed: int, quick: bool, workdir: str) -> Workload:
    return WORKLOADS[name](seed, quick, workdir)


@dataclass
class Measurement:
    """Everything one closed-loop run observed."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    users: int = 0
    timed_s: float = 0.0
    latencies: List[float] = field(default_factory=list)
    records: List[Dict[str, Any]] = field(default_factory=list)
    profile: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def users_per_s(self) -> float:
        return self.users / self.timed_s if self.timed_s else 0.0

    @property
    def latency_p50_s(self) -> float:
        return statistics.median(self.latencies) if self.latencies else 0.0


def measure(workload: Workload, seconds: float, min_units: int, tracer=None) -> Measurement:
    """Run units until ``seconds`` have passed and at least ``min_units`` ran.

    Another unit starts only while the run would end nearer ``seconds`` with
    it than without it, so a run lasts about ``seconds`` whatever a unit costs.
    """
    result = Measurement()
    retries_before = resilience_stats.snapshot().get("retries", 0)
    cache_before = transform_cache_stats()
    profile_before = profiling.snapshot()
    started = time.perf_counter()
    with use_backend(workload.backend):
        while True:
            index = result.attempted
            inputs = workload.inputs(index)
            result.attempted += 1
            scope = tracer.root(workload.name, index) if tracer else nullcontext()
            error = None
            begin = time.perf_counter()
            try:
                with scope:
                    output = workload.call(inputs)
            except Exception:
                error = f"unit {index} raised:\n{traceback.format_exc()}"
            elapsed = time.perf_counter() - begin
            if error is None:
                outcome = workload.check(inputs, output)
            else:
                outcome = Outcome(0, [error], {})
            result.timed_s += elapsed
            result.users += outcome.users
            result.latencies.extend(
                outcome.latencies if outcome.latencies is not None else [elapsed]
            )
            result.records.append(outcome.record)
            if outcome.failures:
                result.failed += 1
                result.failures.extend(outcome.failures)
            spent = time.perf_counter() - started
            if result.attempted >= min_units and spent + elapsed / 2 >= seconds:
                break
    cache = transform_cache_stats()
    result.profile = profiling.delta_since(profile_before)
    result.counters = {
        "retries": resilience_stats.snapshot().get("retries", 0) - retries_before,
        "hits": cache["hits"] - cache_before["hits"],
        "misses": cache["misses"] - cache_before["misses"],
    }
    return result
