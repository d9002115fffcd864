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

Identity vs execution details follow the scenario doctrine: everything that
changes a single output bit is part of :meth:`ServiceSpec.document` (and so
of the digest that guards checkpoints), while knobs that only change *how*
the same bits are computed — shard fan-out, worker counts, checkpoint
cadence — are execution details.  Two service-specific callouts:

* ``window_size`` and ``n_windows`` are **identity**: they fix the window
  boundaries and the frozen probe-grid geometry, so changing either is a
  different stream, not a different execution of the same stream.
* ``warm_probe`` is **identity**: the service guarantees *bit-identical*
  kill/resume, and warm starts change the iterate-level floating point of
  every window's probe, so the digest must pin it for that guarantee to
  mean anything.

Documents are strict: unknown keys, including those of removed knobs, are
refused rather than ignored.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

from repro.backends import check_backend
from repro.protocol.plan import check_protocol
from repro.service.checkpoint import DEFAULT_RETAIN
from repro.utils.validation import check_fraction, check_integer, check_positive

#: keys accepted in a service JSON document
SERVICE_KEYS = (
    "name",
    "description",
    "epsilon",
    "epsilon_min",
    "estimator",
    "dataset",
    "attack",
    "gamma",
    "attack_start",
    "window_size",
    "n_windows",
    "seed",
    "input_domain",
    "warm_probe",
    "protocol",
    "sketch_rows",
    "sketch_width",
    "detector",
    "backend",
    "collect_shards",
    "collect_workers",
    "checkpoint_every",
    "checkpoint_retain",
)

#: default sequential change-detector knobs (see ``repro.service.detector``)
DEFAULT_DETECTOR: Mapping[str, float] = {
    "warmup": 5,
    "threshold": 8.0,
    "drift": 1.0,
    "min_sigma": 0.005,
}


@dataclass
class ServiceSpec:
    """A windowed continuous-aggregation workload.

    Attributes
    ----------
    name:
        Service name; keys the checkpoint file and the results artifact.
    epsilon, epsilon_min, estimator:
        The DAP knobs, as in :class:`repro.core.dap.DAPConfig`.
    dataset:
        Dataset spec (registered name or mapping) the normal users' values
        are drawn from, window by window.
    attack, gamma, attack_start:
        The attack spec, the Byzantine proportion once the attack is live,
        and the first window index (0-based) at which Byzantine users appear.
        Windows before ``attack_start`` are attack-free — that prefix is what
        the change detector calibrates on.
    window_size:
        Users arriving per window.
    n_windows:
        Horizon of the stream.  Also freezes the probe-grid geometry (the
        paper's ``d' = floor(sqrt(N))`` evaluated at the horizon's expected
        probe-group report count), so cumulative statistics from every window
        merge on one grid.
    seed:
        Master seed; window ``w`` consumes a generator derived from
        ``(seed, w)`` only, which is what makes kill/resume bit-identical.
    warm_probe:
        Warm-start each window's probe EMs from the previous window's
        converged weights (the steady-state fast path).  Identity, because it
        changes iterate-level floating point.
    protocol:
        Trust model the windows collect under (``"local"`` / ``"shuffle"``,
        see :data:`repro.protocol.PROTOCOL_NAMES`).  Identity when not the
        default ``"local"`` — the shuffle model changes what the adversary
        observes — and left out of :meth:`document` otherwise, so digests
        of existing local-model services are unchanged.
    sketch_rows, sketch_width:
        Count-sketch geometry for sketch-backed categorical collection.
        Identity when set (the hash rows and width determine every report
        bit); ``None`` leaves them out of :meth:`document`, so digests of
        existing non-sketch services are unchanged.
    detector:
        Change-detector overrides merged over :data:`DEFAULT_DETECTOR`.
    backend, collect_shards, collect_workers, checkpoint_every:
        Execution details: array backend, collection fan-out and checkpoint
        cadence.  Excluded from the digest.
    checkpoint_retain:
        How many last-good checkpoint ancestors the service keeps alongside
        the newest one (the rollback depth of chain recovery).  An execution
        detail: retention bounds how far back a corrupted head can roll
        back, never what a healthy run computes.
    """

    name: str
    description: str = ""
    epsilon: float = 1.0
    epsilon_min: float = 1.0 / 16.0
    estimator: str = "cemf_star"
    dataset: Any = "Uniform"
    attack: Any = "none"
    gamma: float = 0.0
    attack_start: int = 0
    window_size: int = 10_000
    n_windows: int = 20
    seed: int = 0
    input_domain: Tuple[float, float] = (-1.0, 1.0)
    warm_probe: bool = True
    protocol: str = "local"
    sketch_rows: int | None = None
    sketch_width: int | None = None
    detector: Dict[str, Any] = field(default_factory=dict)
    backend: str | None = None
    collect_shards: int = 1
    collect_workers: int | None = None
    checkpoint_every: int = 1
    checkpoint_retain: int = DEFAULT_RETAIN

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("service spec needs a non-empty 'name'")
        check_positive(self.epsilon, "epsilon")
        check_positive(self.epsilon_min, "epsilon_min")
        check_fraction(self.gamma, "gamma")
        check_integer(self.attack_start, "attack_start", minimum=0)
        check_integer(self.window_size, "window_size", minimum=2)
        check_integer(self.n_windows, "n_windows", minimum=1)
        check_integer(self.seed, "seed")
        check_integer(self.collect_shards, "collect_shards", minimum=1)
        if self.collect_workers is not None:
            check_integer(self.collect_workers, "collect_workers", minimum=1)
        check_integer(self.checkpoint_every, "checkpoint_every", minimum=1)
        check_integer(self.checkpoint_retain, "checkpoint_retain", minimum=1)
        if not isinstance(self.warm_probe, bool):
            raise ValueError(
                f"warm_probe must be a boolean (true or false), got "
                f"{self.warm_probe!r}"
            )
        check_protocol(self.protocol)
        if self.sketch_rows is not None:
            check_integer(self.sketch_rows, "sketch_rows", minimum=1)
        if self.sketch_width is not None:
            check_integer(self.sketch_width, "sketch_width", minimum=2)
        if self.backend is not None:
            check_backend(self.backend)
        if len(self.input_domain) != 2:
            raise ValueError("input_domain must be a [low, high] pair")
        self.input_domain = (float(self.input_domain[0]), float(self.input_domain[1]))
        if self.input_domain[0] >= self.input_domain[1]:
            raise ValueError(
                f"input_domain low must be below high, got {self.input_domain}"
            )
        unknown = set(self.detector) - set(DEFAULT_DETECTOR)
        if unknown:
            raise ValueError(
                f"unknown detector keys {sorted(unknown)}; known: "
                f"{sorted(DEFAULT_DETECTOR)}"
            )

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(cls, payload: Mapping[str, Any]) -> "ServiceSpec":
        """Build a spec from a parsed JSON document (unknown keys rejected)."""
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"service document must be a mapping, got {type(payload).__name__}"
            )
        unknown = set(payload) - set(SERVICE_KEYS)
        if unknown:
            raise ValueError(
                f"unknown service keys {sorted(unknown)}; known keys: "
                f"{', '.join(SERVICE_KEYS)}"
            )
        params = dict(payload)
        if "input_domain" in params:
            params["input_domain"] = tuple(params["input_domain"])
        return cls(**params)

    @classmethod
    def from_file(cls, path: str) -> "ServiceSpec":
        """Load a spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as error:
                raise ValueError(f"{os.fspath(path)}: invalid JSON ({error})") from None
        return cls.from_mapping(payload)

    def detector_config(self) -> Dict[str, float]:
        """The detector knobs with defaults applied."""
        merged = dict(DEFAULT_DETECTOR)
        merged.update(self.detector)
        return merged

    def document(self) -> Dict[str, Any]:
        """The service as a canonical JSON-style document.

        Captures every knob that affects a single output bit — window
        boundaries, grids, seeds, warm starts, detector thresholds.  Execution details (``backend``, ``collect_shards``,
        ``collect_workers``, ``checkpoint_every``) are excluded, exactly as
        the scenario digest excludes its collection knobs: a stream started
        serially must stay resumable from its checkpoint with a shard pool.
        The sketch geometry knobs enter only when set, so digests of
        existing non-sketch services are unchanged.
        """
        document = {
            "name": self.name,
            "description": self.description,
            "epsilon": self.epsilon,
            "epsilon_min": self.epsilon_min,
            "estimator": self.estimator,
            "dataset": self.dataset,
            "attack": self.attack,
            "gamma": self.gamma,
            "attack_start": self.attack_start,
            "window_size": self.window_size,
            "n_windows": self.n_windows,
            "seed": self.seed,
            "input_domain": list(self.input_domain),
            "warm_probe": self.warm_probe,
            # every window probes with the stacked side EM since the strategy
            # knob was removed; the constant keeps checkpoint digests resumable
            "probe_strategy": "batched",
            "detector": self.detector_config(),
        }
        if self.protocol != "local":
            document["protocol"] = self.protocol
        if self.sketch_rows is not None:
            document["sketch_rows"] = self.sketch_rows
        if self.sketch_width is not None:
            document["sketch_width"] = self.sketch_width
        return document

    def digest(self) -> str:
        """Stable hash of :meth:`document`; guards checkpoint compatibility."""
        payload = json.dumps(self.document(), sort_keys=True, default=repr)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def execution_details(self) -> Dict[str, Any]:
        """The non-identity knobs, recorded (not enforced) in checkpoints."""
        return {
            "backend": self.backend,
            "collect_shards": self.collect_shards,
            "collect_workers": self.collect_workers,
            "checkpoint_every": self.checkpoint_every,
            "checkpoint_retain": self.checkpoint_retain,
        }

    def default_checkpoint_path(self, directory: str) -> str:
        """The checkpoint file this service uses inside ``directory``."""
        return os.path.join(directory, f"{self.name}.checkpoint.json")


__all__ = ["DEFAULT_DETECTOR", "SERVICE_KEYS", "ServiceSpec"]
