"""The windowed aggregation runtime (continuous-service mode).

One :class:`WindowedAggregationService` turns the one-shot DAP round into a
long-running collector:

* **Ingest** — each window, ``window_size`` users arrive; their reports are
  collected through :meth:`repro.core.dap.DAPProtocol.collect_sharded`, i.e.
  the same block-seeded shard plan and (optionally multiprocess) worker pool
  as the batch path, into per-window :class:`~repro.collect.GroupAccumulator`
  objects.
* **Accumulate** — the window accumulators merge into *cumulative* per-group
  accumulators.  All grids are frozen at service start (the paper's
  ``d' = floor(sqrt(N))`` evaluated at the horizon's expected probe-group
  report count), so every window's statistics live on one geometry and the
  cumulative state stays a few kilobytes per group no matter how many
  millions of users stream past.
* **Estimate incrementally** — stages 3-5 re-run per window on the
  cumulative statistics, with the side-probe EMs and every budget group's
  stage-4 EMF / CEMF* (or EMF*) solves warm-started from the previous
  window's converged weights (:class:`~repro.core.dap.WarmState`; a group
  whose probed side flipped cold-starts).  Between consecutive windows the
  cumulative histogram barely moves, so a warm solve stops after a handful
  of iterations instead of a cold solve's hundreds.  The paper's stop rule
  ``tau = 0.01 e^eps`` ends a solve on a flat stretch of the likelihood, so
  a warm and a cold group solve stop at different points of it: the group
  estimates move within that slack (by at most 0.015 over nine of the
  benchmark's 40-window service streams), while the probe, and with it the
  side, ``gamma_hat`` and the detector, is not affected by the group warm
  starts at all.
* **Detect** — the marginal (per-window) Byzantine proportion feeds a CUSUM
  detector (:mod:`repro.service.detector`), flagging a mid-stream attack
  onset within a couple of windows.
* **Checkpoint** — after each window the cumulative accumulators, warm
  state (exact float64 bytes), detector state and window results snapshot
  atomically to one JSON file.  Window ``w`` consumes randomness derived
  from ``(seed, w)`` only, so a killed service resumes *bit-identically*:
  the estimates after a SIGKILL + resume equal an uninterrupted run's,
  float for float.
"""

from __future__ import annotations

import sys
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.backends import use_backend
from repro.collect.accumulators import GroupAccumulator
from repro.core.dap import DAPConfig, DAPProtocol, GroupWarmState, WarmState
from repro.core.transform import default_bucket_counts
from repro.engine.executor import execution_record
from repro.resilience.faults import active_injector, corrupt_file
from repro.scenario import attack_from_spec, dataset_from_spec
from repro.service.checkpoint import (
    CHECKPOINT_VERSION,
    WARM_KEY,
    CheckpointChain,
)
from repro.service.detector import CusumDetector
from repro.service.spec import ServiceSpec
from repro.simulation.population import build_population
from repro.utils import profiling
from repro.utils.ledger import observe

try:  # pragma: no cover - absent only off-POSIX
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]


def _peak_rss_mb() -> Optional[float]:
    """Peak resident set size of this process in MiB (None off-POSIX)."""
    if resource is None:  # pragma: no cover
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class WindowResult:
    """One window's deterministic outputs plus timing diagnostics.

    ``estimate`` through ``flagged`` are pure functions of the spec (the
    kill/resume equivalence check compares exactly these); the ``*_seconds``
    and ``peak_rss_mb`` fields are measurements and differ run to run.
    """

    window: int
    n_users_cum: int
    n_reports_cum: int
    estimate: float
    gamma_hat: float
    poisoned_side: str
    window_gamma: float
    detector_score: float
    flagged: bool
    warm: bool
    probe_iterations: int
    aggregate_iterations: int
    collect_seconds: float = 0.0
    probe_seconds: float = 0.0
    aggregate_seconds: float = 0.0
    window_seconds: float = 0.0
    peak_rss_mb: Optional[float] = None

    #: the fields that must be bit-identical across kill/resume
    DETERMINISTIC_FIELDS = (
        "window",
        "n_users_cum",
        "n_reports_cum",
        "estimate",
        "gamma_hat",
        "poisoned_side",
        "window_gamma",
        "detector_score",
        "flagged",
        "warm",
    )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, row: Dict[str, Any]) -> "WindowResult":
        return cls(**row)

    def deterministic_view(self) -> Dict[str, Any]:
        """The resume-invariant fields (what equivalence checks compare)."""
        return {key: getattr(self, key) for key in self.DETERMINISTIC_FIELDS}


@dataclass
class ServiceResult:
    """Outcome of a (possibly resumed) service run."""

    spec: ServiceSpec
    windows: List[WindowResult]
    resumed_from: int
    checkpoint_path: Optional[str]
    profile: Dict[str, float] = field(default_factory=dict)
    #: the run's execution record (:func:`repro.engine.executor.execution_record`)
    execution: Dict[str, Any] = field(default_factory=dict)

    @property
    def resilience(self) -> Dict[str, int]:
        """Recovery events this run absorbed (retries, quarantines, ...) — a
        diagnostic, never part of the deterministic outputs."""
        return self.execution.get("resilience", {})

    @property
    def estimate(self) -> float:
        """The final window's cumulative estimate."""
        return self.windows[-1].estimate

    @property
    def flagged_window(self) -> Optional[int]:
        """First window the change detector flagged, if any."""
        for row in self.windows:
            if row.flagged:
                return row.window
        return None


class WindowedAggregationService:
    """Run a :class:`~repro.service.spec.ServiceSpec` window by window."""

    def __init__(
        self, spec: ServiceSpec, checkpoint_path: str | None = None
    ) -> None:
        self.spec = spec
        self.checkpoint_path = checkpoint_path

        # deterministic derived components: the dataset pool and the attack
        # are functions of the spec alone (stream seed lane 0)
        dataset_rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
        _, self._dataset = dataset_from_spec(
            spec.dataset, spec.window_size, rng=dataset_rng
        )
        _, self._attack = attack_from_spec(spec.attack)

        # Freeze the grid geometry at the horizon: the probe group (budget
        # eps_0, highest report multiplicity) evaluated with the paper's
        # formulas at its expected total report count.  Every group then
        # accumulates on d_out buckets over its own output domain, windows
        # merge exactly, and the probe transform — hence the warm-start
        # weight vectors — keeps one shape for the whole stream.
        base = DAPConfig(
            epsilon=spec.epsilon,
            epsilon_min=spec.epsilon_min,
            estimator=spec.estimator,  # type: ignore[arg-type]
            protocol=spec.protocol,
        )
        probe_protocol = DAPProtocol(base)
        ladder = base.budget_ladder
        probe_epsilon = ladder[-1]
        probe_size = probe_protocol.group_sizes(spec.window_size)[-1]
        repeats = probe_protocol._reports_per_user(probe_epsilon)
        total_probe_reports = max(1, spec.n_windows * probe_size * repeats)
        d_in, d_out = default_bucket_counts(total_probe_reports, probe_epsilon)
        self.config = replace(base, n_input_buckets=d_in, n_output_buckets=d_out)
        self.protocol = DAPProtocol(self.config)

        # run state (populated by _fresh_state / _restore_state)
        self._cumulative: List[GroupAccumulator] = []
        #: the next window's warm start; stays None when warm_probe is off
        self._warm: WarmState | None = None
        self._detector = CusumDetector(**spec.detector)
        self._windows: List[WindowResult] = []
        #: ``to_dict`` of each finished window, converted once (a row never
        #: changes after its window ends)
        self._window_rows: List[Dict[str, Any]] = []
        self._next_window = 0
        self._prev_probe_gamma = 0.0
        self._prev_probe_reports = 0

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------
    def _fresh_state(self) -> None:
        ladder = self.config.budget_ladder
        self._cumulative = [
            GroupAccumulator(
                epsilon_t,
                self.protocol.group_output_grid(epsilon_t, 1),
                n_expected_reports=None,
            )
            for epsilon_t in ladder
        ]
        self._warm = None
        self._detector = CusumDetector(**self.spec.detector)
        self._windows = []
        self._window_rows = []
        self._next_window = 0
        self._prev_probe_gamma = 0.0
        self._prev_probe_reports = 0

    def _restore_state(self, payload: Dict[str, Any]) -> None:
        ladder = self.config.budget_ladder
        cumulative = [
            GroupAccumulator.from_state(state) for state in payload["cumulative"]
        ]
        if [acc.epsilon for acc in cumulative] != list(ladder):
            raise ValueError(
                "checkpoint cumulative groups do not match the budget ladder; "
                "the checkpoint is corrupt"
            )
        for acc, epsilon_t in zip(cumulative, ladder):
            expected_grid = self.protocol.group_output_grid(epsilon_t, 1)
            if acc.output_grid != expected_grid:
                raise ValueError(
                    f"checkpoint group (epsilon={epsilon_t:g}) was accumulated "
                    f"on a different grid; the checkpoint is corrupt"
                )
        self._cumulative = cumulative
        self._warm = _warm_from_payload(payload.get(WARM_KEY))
        self._detector = CusumDetector.from_state(payload["detector"])
        self._windows = [WindowResult.from_dict(row) for row in payload["windows"]]
        self._window_rows = [row.to_dict() for row in self._windows]
        self._next_window = int(payload["next_window"])
        prev = payload.get("probe_prev") or {}
        self._prev_probe_gamma = float(prev.get("gamma_hat", 0.0))
        self._prev_probe_reports = int(prev.get("n_reports", 0))
        recorded = payload.get("execution") or {}
        current = self.spec.execution_details()
        drifted = {
            key: (recorded.get(key), current[key])
            for key in current
            if key in recorded and recorded[key] != current[key]
        }
        if drifted:
            # sharding and checkpoint cadence never change the bits (shards
            # are block-seeded), but another backend draws the remaining
            # windows from a different, statistically equivalent stream:
            # surface the drift so the resumed stream is not taken for a
            # bit-identical one
            warnings.warn(
                f"resuming with different execution details than the "
                f"checkpointed run: {drifted}",
                RuntimeWarning,
                stacklevel=3,
            )

    def _checkpoint_payload(self) -> Dict[str, Any]:
        self._window_rows.extend(
            row.to_dict() for row in self._windows[len(self._window_rows):]
        )
        return {
            "version": CHECKPOINT_VERSION,
            "digest": self.spec.digest(),
            "name": self.spec.name,
            "next_window": self._next_window,
            "execution": self.spec.execution_details(),
            "cumulative": [acc.state_dict() for acc in self._cumulative],
            WARM_KEY: (
                None if self._warm is None else _warm_to_payload(self._warm)
            ),
            "probe_prev": {
                "gamma_hat": self._prev_probe_gamma,
                "n_reports": self._prev_probe_reports,
            },
            "detector": self._detector.state_dict(),
            "windows": list(self._window_rows),
        }

    # ------------------------------------------------------------------
    # the stream
    # ------------------------------------------------------------------
    def run(
        self,
        resume: bool = True,
        progress: Callable[[WindowResult], None] | None = None,
    ) -> ServiceResult:
        """Process windows until the horizon, checkpointing as configured.

        ``resume=True`` (default) continues from the newest *valid* member of
        the checkpoint chain at ``checkpoint_path`` — corrupt, truncated or
        stale members are quarantined (renamed aside) and the service rolls
        back to their newest valid ancestor, replaying the missing windows
        bit-identically; ``resume=False`` ignores the chain and recomputes
        the stream from window 0 (the chain is rotated forward as usual).
        """
        spec = self.spec
        with observe() as run:
            self._fresh_state()
            resumed_from = 0
            chain = (
                None
                if self.checkpoint_path is None
                else CheckpointChain(
                    self.checkpoint_path, retain=spec.checkpoint_retain
                )
            )
            if resume and chain is not None:
                payload, _quarantined = chain.load_latest(
                    expected_digest=spec.digest()
                )
                if payload is not None:
                    self._restore_state(payload)
                    resumed_from = self._next_window

            with use_backend(spec.backend):
                for window in range(self._next_window, spec.n_windows):
                    row = self._run_window(window)
                    self._windows.append(row)
                    self._next_window = window + 1
                    if chain is not None and (
                        (window + 1) % spec.checkpoint_every == 0
                        or window + 1 == spec.n_windows
                    ):
                        chain.write(self._checkpoint_payload())
                        injector = active_injector()
                        if injector is not None:
                            mode = injector.checkpoint_fault(window)
                            if mode is not None:
                                # damage the freshly written head: the
                                # in-memory run is unaffected, and the next
                                # resume must quarantine it and roll back to
                                # an ancestor
                                corrupt_file(self.checkpoint_path, mode)
                    if progress is not None:
                        progress(row)
        return ServiceResult(
            spec=spec,
            windows=list(self._windows),
            resumed_from=resumed_from,
            checkpoint_path=self.checkpoint_path,
            profile=run.book("stages"),
            execution=execution_record(spec.execution_details(), run),
        )

    def _run_window(self, window: int) -> WindowResult:
        """Ingest one window and re-estimate on the cumulative statistics.

        Randomness contract: everything in window ``w`` draws from one
        generator seeded by ``(seed, 1, w)`` — population sampling, group
        assignment and the shard plan's block seeds — so the window's
        contribution is a pure function of the spec, whichever run (first or
        resumed, serial or pooled) computes it.
        """
        spec = self.spec
        started = time.perf_counter()
        before = profiling.snapshot()

        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1, window]))
        gamma_w = spec.gamma if window >= spec.attack_start else 0.0
        population = build_population(
            self._dataset,
            spec.window_size,
            gamma_w,
            rng=rng,
            input_domain=spec.input_domain,
        )
        window_accumulators = self.protocol.collect_sharded(
            population.normal_values,
            self._attack,
            population.n_byzantine,
            rng=rng,
            n_shards=spec.collect_shards,
            n_workers=spec.collect_workers,
        )
        for cumulative, fresh in zip(self._cumulative, window_accumulators):
            # collect_sharded's merge base reports n_users=0; count the
            # window's users from the shard merges it absorbed
            cumulative.merge(fresh)

        warm_start = self._warm if spec.warm_probe else None
        stats = [acc.stats() for acc in self._cumulative if acc.n_reports > 0]
        result = self.protocol.aggregate_stats(stats, warm_state=warm_start)
        assert result.features is not None
        self._warm = result.warm_state if spec.warm_probe else None

        # marginal Byzantine proportion: poison mass the newest window added
        # to the probe group, as a fraction of the window's probe reports
        probe_stats = min(stats, key=lambda s: s.epsilon)
        probe_reports = probe_stats.n_reports
        new_reports = probe_reports - self._prev_probe_reports
        if new_reports > 0:
            window_gamma = (
                result.gamma_hat * probe_reports
                - self._prev_probe_gamma * self._prev_probe_reports
            ) / new_reports
        else:
            window_gamma = 0.0
        self._prev_probe_gamma = result.gamma_hat
        self._prev_probe_reports = probe_reports
        self._detector.update(window, window_gamma)

        delta = profiling.delta_since(before)
        probe_emf = result.features.probe.selected
        return WindowResult(
            window=window,
            n_users_cum=(window + 1) * spec.window_size,
            n_reports_cum=sum(acc.n_reports for acc in self._cumulative),
            estimate=result.estimate,
            gamma_hat=result.gamma_hat,
            poisoned_side=result.poisoned_side,
            window_gamma=window_gamma,
            detector_score=self._detector.score,
            flagged=self._detector.flagged,
            warm=warm_start is not None,
            probe_iterations=int(
                result.features.probe.emf_left.n_iterations
                + result.features.probe.emf_right.n_iterations
            ),
            aggregate_iterations=result.aggregate_iterations,
            collect_seconds=delta.get("collect", 0.0),
            probe_seconds=delta.get("probe", 0.0),
            aggregate_seconds=delta.get("aggregate", 0.0),
            window_seconds=time.perf_counter() - started,
            peak_rss_mb=_peak_rss_mb(),
        )


def run_service(
    spec: ServiceSpec,
    checkpoint_path: str | None = None,
    resume: bool = True,
    progress: Callable[[WindowResult], None] | None = None,
) -> ServiceResult:
    """Convenience wrapper: build the runtime and run the stream."""
    service = WindowedAggregationService(spec, checkpoint_path=checkpoint_path)
    return service.run(resume=resume, progress=progress)


def format_window(row: WindowResult, n_windows: int) -> str:
    """One human-readable progress line per window (CLI output)."""
    flag = "  [ATTACK FLAGGED]" if row.flagged else ""
    return (
        f"window {row.window + 1}/{n_windows}: estimate={row.estimate:+.4f} "
        f"gamma={row.gamma_hat:.3f} side={row.poisoned_side} "
        f"probe={row.probe_seconds:.3f}s ({row.probe_iterations} EM iters) "
        f"aggregate={row.aggregate_seconds:.3f}s "
        f"({row.aggregate_iterations} EM iters) "
        f"window={row.window_seconds:.2f}s{flag}"
    )


def _warm_to_payload(state: WarmState) -> Dict[str, Any]:
    """The checkpoint's warm section (the checkpoint writes its arrays as
    exact bytes)."""
    return {
        "probe": dict(state.probe),
        "groups": [
            {"epsilon": epsilon, "side": group.side, "weights": dict(group.weights)}
            for epsilon, group in state.groups.items()
        ],
    }


def _warm_from_payload(section: Dict[str, Any] | None) -> WarmState | None:
    """Invert :func:`_warm_to_payload` on a loaded checkpoint's section."""
    if section is None:
        return None
    try:
        return WarmState(
            probe=dict(section["probe"]),
            groups={
                float(row["epsilon"]): GroupWarmState(
                    str(row["side"]), dict(row["weights"])
                )
                for row in section["groups"]
            },
        )
    except (KeyError, TypeError) as error:
        raise ValueError(
            f"checkpoint warm state is malformed ({error!r}); the checkpoint "
            f"is corrupt"
        ) from None


__all__ = [
    "ServiceResult",
    "WindowResult",
    "WindowedAggregationService",
    "format_window",
    "run_service",
]
