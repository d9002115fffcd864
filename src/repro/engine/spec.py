"""Declarative experiment specifications.

An :class:`ExperimentSpec` is a complete, self-contained description of one
paper experiment: the sweep points, the factories producing schemes / attack /
dataset per point, the population scale, and the trial count.  The figure
drivers in :mod:`repro.experiments` are thin builders of these specs; the
executor in :mod:`repro.engine.executor` turns a spec into its records
(:class:`~repro.simulation.sweep.SweepRecord` rows for a scheme sweep),
either serially or fanned out over a process pool.

Two properties make specs parallelisable without changing results:

* **pre-drawn seeds** — the executor draws one seed per (point, trial) from
  the master generator up front, so every work unit depends only on the
  spec and its own row of seeds, and results are bit-identical regardless
  of worker count (or of whether a pool is used at all);
* **picklable factories** — factories are small frozen dataclasses (not
  closures), so a spec can be shipped to worker processes.

A scheme unit runs :func:`~repro.simulation.runner.run_trials`, the one
trial runner, over its row of seeds.

Experiments that are not scheme sweeps (Table I, the probing panels of
Figures 5 and 8, the frequency-estimation panels) subclass the spec and
override :meth:`ExperimentSpec.evaluate_point`; their work units are whole
points instead of (point, scheme) pairs.  That choice is made here alone:
the executor and the store see only :meth:`ExperimentSpec.units` keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Mapping, Sequence, Tuple

import numpy as np

from repro import knobs
from repro.attacks.base import Attack
from repro.backends import BACKENDS, check_backend, use_backend
from repro.datasets.base import NumericalDataset
from repro.protocol.plan import PROTOCOL_NAMES, check_protocol
from repro.simulation.runner import run_trials
from repro.simulation.schemes import Scheme
from repro.simulation.sweep import SweepRecord
from repro.utils.validation import check_integer

#: a sweep point: a flat mapping of swept parameter values
PointSpec = Mapping[str, Any]

#: a work unit: ``(point index, scheme index)`` (scheme index 0 for a spec
#: that evaluates whole points)
Unit = Tuple[int, int]

#: the knobs every spec layer (experiment, scenario, service) carries
_SHARED_KNOBS = {
    "collect_workers": dict(
        role=knobs.EXECUTION,
        check=knobs.integer(1),
        flag="--collect-workers",
        help="fan each collection round out over this many shard workers; "
        "the shard plan's block seeds own the randomness, so records are "
        "bit-identical for any value",
    ),
    "backend": dict(
        role=knobs.EXECUTION_REDRAWS,
        check=lambda value, name: check_backend(value),
        flag="--backend",
        help=f"array-compute backend for the hot kernels, one of "
        f"{', '.join(BACKENDS)}: 'numpy' is the bit-stable reference, 'fast' "
        f"draws statistically equivalent samples; unset keeps the process "
        f"default (numpy)",
    ),
    "protocol": dict(
        role=knobs.IDENTITY_UNLESS_DEFAULT,
        check=lambda value, name: check_protocol(value),
        flag="--protocol",
        help=f"trust model the collection runs under, one of "
        f"{', '.join(PROTOCOL_NAMES)}: 'local' is the classical local model, "
        f"'shuffle' has a shuffler break the sender-to-group linkage and "
        f"records a privacy-amplification ledger; it changes what the "
        f"adversary observes",
    ),
}


def shared_knob(name: str, default: Any = None) -> Any:
    """The field declaring ``collect_workers``, ``backend`` or ``protocol``.

    Each of these knobs is declared once, here, for every spec that carries
    it; only the default differs between specs.
    """
    return knobs.knob(default=default, **_SHARED_KNOBS[name])


@dataclass
class ExperimentSpec:
    """Declarative description of one experiment.

    Attributes
    ----------
    name:
        Identifier used in run artifacts (e.g. ``"fig6"``).
    points:
        The sweep points; each factory receives the point so every aspect of
        the experiment can depend on the swept parameters.
    n_users, n_trials:
        Population size per trial and trials per point.
    gamma:
        Byzantine proportion — a constant or a per-point callable.
    scheme_factory, attack_factory, dataset_factory:
        Point -> schemes / attack / dataset.  Required unless the subclass
        overrides :meth:`evaluate_point`.
    input_domain:
        Mechanism input domain — a constant or a per-point callable.
    collect_workers, backend, protocol:
        The knobs shared with scenarios and services (see
        :func:`shared_knob`; each field's metadata gives its role and help).
        ``collect_workers`` reaches the schemes with a sharded collection
        round (see
        :meth:`repro.simulation.schemes.Scheme.configure_collection`), and
        ``protocol=None`` keeps each scheme's own default, the classical
        ``"local"`` model.
    seed:
        Default master seed used when the executor is not handed an explicit
        generator; it reaches the records only through the seed matrix.
    description:
        Free-form provenance recorded in run artifacts.

    Every field, a subclass's too, is identity (:meth:`fingerprint`) except
    the execution knobs ``collect_workers``, ``backend``, ``seed`` and
    ``description``.
    """

    name: str
    points: Sequence[PointSpec]
    n_users: int
    n_trials: int
    gamma: float | Callable[[PointSpec], float] = 0.25
    scheme_factory: Callable[[PointSpec], Sequence[Scheme]] | None = None
    attack_factory: Callable[[PointSpec], Attack | None] | None = None
    dataset_factory: Callable[[PointSpec], NumericalDataset] | None = None
    input_domain: Tuple[float, float] | Callable[[PointSpec], Tuple[float, float]] = (
        -1.0,
        1.0,
    )
    collect_workers: int | None = shared_knob("collect_workers")
    backend: str | None = shared_knob("backend")
    protocol: str | None = shared_knob("protocol")
    seed: int | None = knobs.knob(knobs.EXECUTION, None, "default master seed", default=None)
    description: str = knobs.knob(knobs.EXECUTION, None, "free-form provenance", default="")

    def __post_init__(self) -> None:
        self.points = tuple(dict(point) for point in self.points)
        if not self.points:
            raise ValueError(f"spec {self.name!r} has no sweep points")
        check_integer(self.n_users, "n_users", minimum=1)
        check_integer(self.n_trials, "n_trials", minimum=1)
        knobs.validate(self)
        if self.collect_workers is not None and _is_point_granular(self):
            raise ValueError(
                f"spec {self.name!r} overrides evaluate_point, which runs "
                f"outside the trial runners; collect_workers is never honoured"
            )
        if not _is_point_granular(self):
            missing = [
                label
                for label, factory in (
                    ("scheme_factory", self.scheme_factory),
                    ("attack_factory", self.attack_factory),
                    ("dataset_factory", self.dataset_factory),
                )
                if factory is None
            ]
            if missing:
                raise ValueError(
                    f"spec {self.name!r} must provide {', '.join(missing)} or "
                    f"override evaluate_point()"
                )

    # ------------------------------------------------------------------
    # per-point accessors
    # ------------------------------------------------------------------
    def point_gamma(self, point: PointSpec) -> float:
        """The Byzantine proportion at one sweep point."""
        return self.gamma(point) if callable(self.gamma) else self.gamma

    def point_domain(self, point: PointSpec) -> Tuple[float, float]:
        """The mechanism input domain at one sweep point."""
        return (
            self.input_domain(point) if callable(self.input_domain) else self.input_domain
        )

    def schemes_for(self, point: PointSpec) -> List[Scheme]:
        """Instantiate the schemes evaluated at one sweep point."""
        if self.scheme_factory is None:
            raise ValueError(f"spec {self.name!r} has no scheme factory")
        schemes = list(self.scheme_factory(point))
        if self.protocol is not None:
            for scheme in schemes:
                scheme.configure_protocol(self.protocol)
        if self.collect_workers is not None:
            for scheme in schemes:
                scheme.configure_collection(self.collect_workers)
        return schemes

    # ------------------------------------------------------------------
    # execution interface (consumed by the executor)
    # ------------------------------------------------------------------
    def units(self) -> List[Unit]:
        """Independent work units, in canonical (serial) order."""
        if _is_point_granular(self):
            return [(index, 0) for index in range(len(self.points))]
        return [
            (point_index, scheme_index)
            for point_index, point in enumerate(self.points)
            for scheme_index in range(len(self.schemes_for(point)))
        ]

    def evaluate_unit(self, unit: Unit, trial_seeds: np.ndarray) -> List[Any]:
        """Evaluate one work unit and return its result records."""
        with use_backend(self.backend):
            return self._evaluate_unit(unit, trial_seeds)

    def _evaluate_unit(self, unit: Unit, trial_seeds: np.ndarray) -> List[Any]:
        point_index, scheme_index = unit
        point = self.points[point_index]
        if _is_point_granular(self):
            return list(self.evaluate_point(point, trial_seeds))
        scheme = self.schemes_for(point)[scheme_index]
        result = run_trials(
            scheme,
            self.dataset_factory(point),
            self.attack_factory(point),
            n_users=self.n_users,
            gamma=self.point_gamma(point),
            trial_seeds=trial_seeds,
            input_domain=self.point_domain(point),
        )
        return [
            SweepRecord(
                point=dict(point),
                scheme=result.scheme,
                mse=result.mse,
                bias=result.bias,
                n_trials=len(trial_seeds),
            )
        ]

    def evaluate_point(self, point: PointSpec, trial_seeds: np.ndarray) -> Sequence[Any]:
        """Hook for non-scheme experiments: evaluate one whole point.

        Subclasses override this to run arbitrary per-point measurements
        (probing rounds, frequency estimation, ...).  All randomness must be
        derived from ``trial_seeds`` so the point stays reproducible and
        placeable on any worker.
        """
        raise NotImplementedError(
            "scheme-based specs are evaluated per (point, scheme) unit"
        )

    # ------------------------------------------------------------------
    # provenance
    # ------------------------------------------------------------------
    def fingerprint(self) -> dict:
        """The spec's part of a run's identity (see ``run_identity``).

        Every identity field in canonical form (:func:`repro.knobs.document`):
        factories as their class and options, datasets down to a digest of
        their values.  A component with no canonical form, such as a lambda,
        documents as :data:`repro.knobs.OPAQUE`, and its run never resumes.
        """
        return knobs.document(self)


def _is_point_granular(spec: ExperimentSpec) -> bool:
    """Whether the spec's work units are whole points (custom ``evaluate_point``)."""
    return type(spec).evaluate_point is not ExperimentSpec.evaluate_point


__all__ = ["ExperimentSpec", "PointSpec", "Unit", "shared_knob"]
