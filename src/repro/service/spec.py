"""Declarative description of a continuous aggregation service.

A :class:`ServiceSpec` is the windowed counterpart of
:class:`repro.scenario.ScenarioSpec`: a versioned, JSON-serialisable document
describing a *stream* of reporting rounds — users arrive in fixed-size
windows, an attack may switch on at a chosen window, and the collector keeps
a running DAP estimate over everything seen so far.

Service files are what ``python -m repro serve`` executes::

    {
      "name": "service_smoke",
      "epsilon": 1.0,
      "window_size": 5000,
      "n_windows": 12,
      "dataset": "Uniform",
      "attack": {"name": "bba", "poison_range": "[C/2,C]"},
      "gamma": 0.25,
      "attack_start": 6,
      "seed": 7
    }

Identity vs execution details follow the scenario doctrine: each field is
one :func:`~repro.knobs.knob` whose metadata gives its role, validator, CLI
flag and help text.  Everything that changes a single output bit is part of
:meth:`ServiceSpec.document` (and so of the digest that guards checkpoints);
knobs that only change *how* the same bits are computed — shard fan-out,
worker counts, checkpoint cadence — are execution details, recorded in the
checkpoint but never compared.

Documents are strict: unknown keys, including those of removed knobs, are
refused rather than ignored.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple

from repro.engine.spec import shared_knob
from repro.knobs import (
    DRAWS,
    EXECUTION,
    IDENTITY,
    Spec,
    boolean,
    constant,
    domain,
    fraction,
    integer,
    knob,
    nonempty_text,
    positive,
    text,
)
from repro.service.checkpoint import DEFAULT_RETAIN

#: default sequential change-detector knobs (see ``repro.service.detector``)
DEFAULT_DETECTOR: Mapping[str, float] = {
    "warmup": 5,
    "threshold": 8.0,
    "drift": 1.0,
    "min_sigma": 0.005,
}


def _detector(value: Any, name: str) -> Dict[str, Any]:
    """Detector overrides, stored merged over :data:`DEFAULT_DETECTOR`."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{name} must be a mapping of detector knobs, got {value!r}")
    unknown = set(value) - set(DEFAULT_DETECTOR)
    if unknown:
        raise ValueError(
            f"unknown detector keys {sorted(unknown)}; known: "
            f"{sorted(DEFAULT_DETECTOR)}"
        )
    return {**DEFAULT_DETECTOR, **value}


@dataclass
class ServiceSpec(Spec):
    """A windowed continuous-aggregation workload.

    Users arrive in ``n_windows`` windows of ``window_size``; an attack may
    switch on at ``attack_start``.  Each field's metadata gives its role,
    validator, CLI flag and help text (:mod:`repro.knobs`).
    """

    kind = "service"

    name: str = knob(
        IDENTITY,
        nonempty_text,
        "service name; keys the checkpoint file and the results artifact",
    )
    description: str = knob(IDENTITY, text, "free-form provenance", default="")
    epsilon: float = knob(IDENTITY, positive, "privacy budget per report", default=1.0)
    epsilon_min: float = knob(
        IDENTITY, positive, "probing budget floor, as in DAPConfig", default=1.0 / 16.0
    )
    estimator: str = knob(
        IDENTITY, text, "DAP estimator, as in DAPConfig", default="cemf_star"
    )
    dataset: Any = knob(
        IDENTITY,
        None,
        "dataset spec (registered name or mapping) the normal users' values "
        "are drawn from, window by window",
        default="Uniform",
    )
    attack: Any = knob(
        IDENTITY, None, "attack spec (registered name or mapping)", default="none"
    )
    gamma: float = knob(
        IDENTITY, fraction, "Byzantine proportion once the attack is live", default=0.0
    )
    attack_start: int = knob(
        IDENTITY,
        integer(0),
        "first window (0-based) with Byzantine users; the attack-free prefix "
        "is what the change detector calibrates on",
        default=0,
    )
    window_size: int = knob(
        IDENTITY,
        integer(2),
        "users arriving per window; fixes the window boundaries",
        default=10_000,
        flag="--window-size",
    )
    n_windows: int = knob(
        IDENTITY,
        integer(1),
        "horizon of the stream; it also freezes the probe-grid geometry "
        "(d' = floor(sqrt(N)) at the horizon's expected probe-group report "
        "count), so every window's statistics merge on one grid",
        default=20,
        flag="--windows",
    )
    seed: int = knob(
        IDENTITY,
        integer(),
        "master seed; window w draws from (seed, w) only, which is what makes "
        "kill/resume bit-identical",
        default=0,
    )
    input_domain: Tuple[float, float] = knob(
        IDENTITY, domain, "mechanism input domain [low, high]", default=(-1.0, 1.0)
    )
    warm_probe: bool = knob(
        IDENTITY,
        boolean,
        "warm-start each window's probe EMs and every budget group's "
        "stage-4 EMF/CEMF* (or EMF*) solves from the previous window's "
        "converged weights, which the checkpoint carries exactly; each solve "
        "stops elsewhere within the tau stop rule's slack, so gamma_hat and "
        "the estimates differ from a cold stream's, and in an attack-free "
        "stretch, where the two sides are a near tie, the probe may pick "
        "the other side and the estimate moves with it; kill/resume is "
        "bit-identical only with the digest pinning it",
        default=True,
    )
    # the probe strategy knob was removed (every window probes the one
    # way); the constant keeps checkpoint digests resumable
    probe_strategy: str = constant("batched")
    draws: int = constant(DRAWS)
    detector: Dict[str, Any] = knob(
        IDENTITY,
        _detector,
        "change-detector overrides, merged over DEFAULT_DETECTOR",
        default_factory=dict,
    )
    protocol: str = shared_knob("protocol", "local")
    backend: str | None = shared_knob("backend")
    collect_shards: int = knob(
        EXECUTION,
        integer(1),
        "shards per window's collection round",
        default=1,
        flag="--collect-shards",
    )
    collect_workers: int | None = shared_knob("collect_workers")
    checkpoint_every: int = knob(
        EXECUTION,
        integer(1),
        "checkpoint after every N completed windows",
        default=1,
        flag="--checkpoint-every",
    )
    checkpoint_retain: int = knob(
        EXECUTION,
        integer(1),
        "last-good checkpoint ancestors kept beside the newest one: how far "
        "back chain recovery can roll a corrupted head",
        default=DEFAULT_RETAIN,
        flag="--checkpoint-retain",
    )

    def default_checkpoint_path(self, directory: str) -> str:
        """The checkpoint file this service uses inside ``directory``."""
        return os.path.join(directory, f"{self.name}.checkpoint.json")


__all__ = ["DEFAULT_DETECTOR", "ServiceSpec"]
