"""Declarative scenarios: any attack x defense x epsilon x dataset grid.

A :class:`ScenarioSpec` is a versioned, JSON-serialisable description of a
whole workload — population scale, epsilon grid, attacks, schemes and
datasets, all referenced by registered component name
(:mod:`repro.registry`).  It *lowers* to an engine
:class:`~repro.engine.ExperimentSpec`, so every scenario runs through the
same parallel executor, pre-drawn seed matrix and resumable run store as the
paper's figure drivers — and produces the same columnar
:class:`~repro.simulation.sweep.SweepRecord` rows.

Scenario files are what the ``python -m repro`` CLI executes::

    {
      "name": "matrix_quick",
      "population": {"n_users": 2000, "gamma": 0.25},
      "trials": 2,
      "seed": 7,
      "epsilons": [0.5, 1.0, 2.0],
      "datasets": ["Beta(2,5)"],
      "attacks": [{"name": "bba", "poison_range": "[C/2,C]"}, "ima"],
      "schemes": ["DAP-CEMF*", "Trimming", {"defense": "kmeans"}]
    }

Determinism contract: for a fixed ``seed``, :func:`run_scenario` consumes one
master generator — first to sample the datasets (in listed order), then for
the executor's seed matrix — so the records are bit-identical to running the
lowered :class:`~repro.engine.ExperimentSpec` programmatically the same way,
at any worker count.

Documents are strict: an unknown key is refused rather than ignored, so a
document naming a knob this version no longer has fails loudly instead of
running differently from how it reads.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.attacks.base import Attack
from repro.backends import check_backend
from repro.attacks.distributions import (
    BetaPoison,
    GaussianPoison,
    PAPER_POISON_RANGES,
    PointMassPoison,
    PoisonDistribution,
    PoisonRange,
    UniformPoison,
)
from repro.datasets.base import NumericalDataset
from repro.engine import ExperimentSpec, run_experiment
from repro.engine.factories import (
    AttackLookup,
    DatasetLookup,
    PointKey,
    SchemesFromSpecs,
)
from repro.protocol.plan import check_protocol
from repro.registry import ATTACKS, DATASETS
from repro.simulation.sweep import SweepRecord, format_table, records_to_table
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_fraction, check_integer

#: named poison distributions accepted in attack specs
POISON_DISTRIBUTIONS: Mapping[str, type] = {
    "uniform": UniformPoison,
    "gaussian": GaussianPoison,
    "beta": BetaPoison,
    "point-mass": PointMassPoison,
}

#: attack-spec keys holding a poison range (resolved from paper notation)
_RANGE_KEYS = ("poison_range", "true_poison_range")


def _resolve_poison_range(value: Any) -> PoisonRange:
    """Resolve a range given as paper notation, ``[low, high]`` or an object."""
    if isinstance(value, PoisonRange):
        return value
    if isinstance(value, str):
        if value not in PAPER_POISON_RANGES:
            raise KeyError(
                f"unknown poison range {value!r}; known ranges: "
                f"{', '.join(PAPER_POISON_RANGES)} (or give [low, high] numbers)"
            )
        return PAPER_POISON_RANGES[value]
    if isinstance(value, Sequence) and len(value) == 2:
        return PoisonRange.absolute(float(value[0]), float(value[1]))
    raise ValueError(f"cannot interpret poison range {value!r}")


def _resolve_distribution(value: Any) -> PoisonDistribution:
    """Resolve a distribution given by name, ``{"name": ..., **params}`` or object."""
    if isinstance(value, PoisonDistribution):
        return value
    if isinstance(value, str):
        value = {"name": value}
    if not isinstance(value, Mapping):
        raise ValueError(f"cannot interpret poison distribution {value!r}")
    params = dict(value)
    name = params.pop("name", None)
    if not isinstance(name, str) or name.strip().lower() not in POISON_DISTRIBUTIONS:
        raise KeyError(
            f"unknown poison distribution {name!r}; known: "
            f"{', '.join(POISON_DISTRIBUTIONS)}"
        )
    return POISON_DISTRIBUTIONS[name.strip().lower()](**params)


def _normalize_spec(spec: Any, what: str) -> Tuple[str, str | None, Dict[str, Any]]:
    """Shared spec preamble: return ``(name, label, remaining params)``.

    Accepts a bare registered name or a mapping with a required ``name`` and
    optional ``label``; everything else stays in the params dict.
    """
    if isinstance(spec, str):
        spec = {"name": spec}
    elif isinstance(spec, Mapping):
        spec = dict(spec)
    else:
        raise TypeError(f"{what} spec must be a name or a mapping, got {spec!r}")
    name = spec.pop("name", None)
    if name is None:
        raise ValueError(f"{what} spec needs a 'name': {spec!r}")
    return name, spec.pop("label", None), spec


def attack_from_spec(spec: Any) -> Tuple[str, Attack]:
    """Lower an attack spec (registered name or mapping) to ``(label, attack)``.

    Mapping keys: ``name`` (required, a registered attack name), ``label``
    (display override, needed when the same attack appears twice), plus any
    constructor keyword arguments.  ``poison_range`` / ``true_poison_range``
    accept paper notation (e.g. ``"[C/2,C]"``) or a ``[low, high]`` pair, and
    ``distribution`` accepts a name or ``{"name": ..., **params}``.
    """
    name, label, params = _normalize_spec(spec if spec is not None else "none", "attack")
    for key in _RANGE_KEYS:
        if key in params:
            params[key] = _resolve_poison_range(params[key])
    if "distribution" in params:
        params["distribution"] = _resolve_distribution(params["distribution"])
    entry = ATTACKS.entry(name)
    return (label or entry.name, ATTACKS.create(name, **params))


def dataset_from_spec(
    spec: Any, n_samples: int, rng: RngLike = None
) -> Tuple[str, NumericalDataset]:
    """Lower a dataset spec (registered name or mapping) to ``(label, dataset)``.

    Mapping keys: ``name`` (required), ``label``, ``n_samples`` (defaults to
    the scenario population size), plus constructor keyword arguments.
    """
    name, label, params = _normalize_spec(spec, "dataset")
    n_samples = int(params.pop("n_samples", n_samples))
    entry = DATASETS.entry(name)
    dataset = DATASETS.create(name, n_samples=n_samples, rng=rng, **params)
    if not isinstance(dataset, NumericalDataset):
        raise ValueError(
            f"dataset {name!r} is categorical; scenarios sweep numerical "
            f"mean estimation"
        )
    return (label or entry.name, dataset)


def _unique_labels(pairs: Sequence[Tuple[str, Any]], what: str) -> Dict[str, Any]:
    mapping: Dict[str, Any] = {}
    for label, value in pairs:
        if label in mapping:
            raise ValueError(
                f"duplicate {what} label {label!r}; give each {what} spec a "
                f"distinct 'label'"
            )
        mapping[label] = value
    return mapping


#: top-level keys accepted in a scenario document
SCENARIO_KEYS = (
    "name",
    "description",
    "schemes",
    "epsilons",
    "attacks",
    "datasets",
    "gammas",
    "trials",
    "n_trials",
    "seed",
    "epsilon_min",
    "collect_workers",
    "backend",
    "protocol",
    "sketch_rows",
    "sketch_width",
    "population",
)

#: keys accepted under ``population``
POPULATION_KEYS = ("n_users", "gamma", "input_domain")


@dataclass
class ScenarioSpec:
    """A declarative cross-grid workload over registered components.

    The sweep grid is ``datasets x attacks x (gammas) x epsilons``, with every
    scheme evaluated at each point (the scheme axis of the emitted records).

    Attributes
    ----------
    name:
        Scenario identifier, used for run artifacts.
    schemes:
        Scheme specs (names or mappings — see
        :func:`~repro.simulation.schemes.scheme_from_spec`).
    epsilons:
        The privacy-budget grid.
    attacks, datasets:
        Attack / dataset specs (names or mappings).
    gammas:
        Optional Byzantine-proportion grid; when given it becomes a sweep
        axis, otherwise the constant ``gamma`` applies.
    n_users, n_trials, gamma, seed:
        Population scale, trials per point, default Byzantine proportion and
        master seed.
    epsilon_min:
        Probing budget floor forwarded to DAP-style schemes.
    input_domain:
        Mechanism input domain.
    collect_workers:
        Fan every DAP collection round out over this many shard workers, so
        one round uses that many cores.  Records are bit-identical for any
        positive value, so this is a pure execution detail: it is excluded
        from :meth:`document` (and hence the resume digest), exactly like
        the executor's ``n_workers``.
    backend:
        Array-compute backend the run executes under (see
        :data:`repro.backends.BACKENDS`); ``None`` keeps the process default
        (the bit-stable ``"numpy"`` reference).  An execution detail like
        ``collect_workers`` — excluded from :meth:`document` and the resume
        digest, recorded only in ``meta.execution`` — though the fast
        backends draw statistically equivalent (not bit-identical) samples.
    protocol:
        Trust model every scheme runs under (see
        :data:`repro.protocol.PROTOCOL_NAMES`); the default ``"local"`` is
        the classical local model.  An **identity** knob (unlike
        ``backend``): the shuffle model changes what the adversary can
        observe, so when it is not ``"local"`` it enters :meth:`document`
        and the resume digest.  Leaving it at the default keeps digests of
        existing scenarios unchanged.
    sketch_rows, sketch_width:
        Count-sketch geometry for sketch-backed categorical components.
        **Identity** knobs (unlike ``backend``): the sketch's hash rows and
        width determine every report bit, so when set they are part of
        :meth:`document` and the resume digest.  ``None`` (the default)
        leaves them out of the document entirely, keeping digests of
        existing non-sketch scenarios unchanged.
    """

    name: str
    schemes: Sequence[Any]
    epsilons: Sequence[float]
    attacks: Sequence[Any] = ("none",)
    datasets: Sequence[Any] = ("Uniform",)
    gammas: Sequence[float] | None = None
    n_users: int = 20_000
    n_trials: int = 3
    gamma: float = 0.25
    seed: int = 0
    epsilon_min: float = 1.0 / 16.0
    input_domain: Tuple[float, float] = (-1.0, 1.0)
    collect_workers: int | None = None
    backend: str | None = None
    protocol: str = "local"
    sketch_rows: int | None = None
    sketch_width: int | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not str(self.name).strip():
            raise ValueError("scenario needs a non-empty 'name'")
        self.schemes = tuple(self.schemes)
        self.epsilons = tuple(float(epsilon) for epsilon in self.epsilons)
        self.attacks = tuple(self.attacks)
        self.datasets = tuple(self.datasets)
        for label, axis in (
            ("schemes", self.schemes),
            ("epsilons", self.epsilons),
            ("attacks", self.attacks),
            ("datasets", self.datasets),
        ):
            if not axis:
                raise ValueError(f"scenario {self.name!r} has an empty {label!r} axis")
        if any(epsilon <= 0 for epsilon in self.epsilons):
            raise ValueError(f"epsilons must be positive, got {self.epsilons}")
        check_integer(self.n_users, "n_users", minimum=10)
        check_integer(self.n_trials, "n_trials", minimum=1)
        check_fraction(self.gamma, "gamma")
        if self.gammas is not None:
            self.gammas = tuple(
                check_fraction(float(g), "gammas entry") for g in self.gammas
            )
            if not self.gammas:
                raise ValueError(f"scenario {self.name!r} has an empty 'gammas' grid")
        self.input_domain = (float(self.input_domain[0]), float(self.input_domain[1]))
        self.seed = int(self.seed)
        if self.collect_workers is not None:
            self.collect_workers = check_integer(
                self.collect_workers, "collect_workers", minimum=1
            )
        if self.backend is not None:
            check_backend(self.backend)
        check_protocol(self.protocol)
        if self.sketch_rows is not None:
            self.sketch_rows = check_integer(self.sketch_rows, "sketch_rows", minimum=1)
        if self.sketch_width is not None:
            self.sketch_width = check_integer(
                self.sketch_width, "sketch_width", minimum=2
            )

    # ------------------------------------------------------------------
    # construction from documents
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Build a scenario from a parsed JSON document (strict keys)."""
        if not isinstance(payload, Mapping):
            raise TypeError(f"scenario document must be a mapping, got {payload!r}")
        unknown = sorted(set(payload) - set(SCENARIO_KEYS))
        if unknown:
            raise ValueError(
                f"unknown scenario keys {unknown}; allowed: {', '.join(SCENARIO_KEYS)}"
            )
        missing = [key for key in ("name", "schemes", "epsilons") if key not in payload]
        if missing:
            raise ValueError(f"scenario document is missing {missing}")
        if "trials" in payload and "n_trials" in payload:
            raise ValueError("give either 'trials' or 'n_trials', not both")
        population = dict(payload.get("population", {}))
        unknown = sorted(set(population) - set(POPULATION_KEYS))
        if unknown:
            raise ValueError(
                f"unknown population keys {unknown}; allowed: "
                f"{', '.join(POPULATION_KEYS)}"
            )
        kwargs: Dict[str, Any] = {
            "name": payload["name"],
            "schemes": payload["schemes"],
            "epsilons": payload["epsilons"],
        }
        for key in ("description", "attacks", "datasets", "gammas", "seed",
                    "epsilon_min", "collect_workers", "backend", "protocol",
                    "sketch_rows", "sketch_width"):
            if key in payload:
                kwargs[key] = payload[key]
        n_trials = payload.get("trials", payload.get("n_trials"))
        if n_trials is not None:
            kwargs["n_trials"] = n_trials
        for key in ("n_users", "gamma", "input_domain"):
            if key in population:
                kwargs[key] = population[key]
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "ScenarioSpec":
        """Load a scenario from a JSON file."""
        with open(path) as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as error:
                raise ValueError(f"{os.fspath(path)}: invalid JSON ({error})") from None
        return cls.from_dict(payload)

    # ------------------------------------------------------------------
    # lowering
    # ------------------------------------------------------------------
    def document(self) -> Dict[str, Any]:
        """The scenario as a canonical JSON-style document.

        Captures every knob that affects results — including seed,
        epsilon_min and per-component params — so its digest identifies the
        scenario for artifact resume.  Execution details
        (``collect_workers``, ``backend``) are deliberately excluded, like
        the executor's ``n_workers``: completed records are reusable verbatim
        whichever configuration computes the rest, so a run must stay
        resumable with ``--collect-workers`` or ``--backend`` set.

        The sketch geometry knobs are the opposite: they change report bits,
        so when set they enter the document (and digest) — but only when
        set, so non-sketch scenario digests are stable across versions.  The
        ``protocol`` trust model follows the same pattern: it joins the
        document only when it is not the default ``"local"``.
        """
        document = {
            "name": self.name,
            "description": self.description,
            "schemes": list(self.schemes),
            "epsilons": list(self.epsilons),
            "attacks": list(self.attacks),
            "datasets": list(self.datasets),
            "gammas": None if self.gammas is None else list(self.gammas),
            "population": {
                "n_users": self.n_users,
                "gamma": self.gamma,
                "input_domain": list(self.input_domain),
            },
            "n_trials": self.n_trials,
            "seed": self.seed,
            "epsilon_min": self.epsilon_min,
            # every trial runs on the per-trial path since the stacked-trials
            # knob was removed; the constant keeps stored digests resumable
            "batched": False,
        }
        if self.protocol != "local":
            document["protocol"] = self.protocol
        if self.sketch_rows is not None:
            document["sketch_rows"] = self.sketch_rows
        if self.sketch_width is not None:
            document["sketch_width"] = self.sketch_width
        return document

    def digest(self) -> str:
        """Stable hash of :meth:`document` (part of the spec fingerprint)."""
        payload = json.dumps(self.document(), sort_keys=True, default=repr)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_experiment_spec(self, rng: RngLike = None) -> ExperimentSpec:
        """Lower the scenario to an engine :class:`ExperimentSpec`.

        ``rng`` (default: a generator seeded with ``self.seed``) is consumed
        to sample the datasets in listed order; pass the same generator on to
        :func:`~repro.engine.run_experiment` to reproduce
        :func:`run_scenario` exactly.
        """
        rng = ensure_rng(rng if rng is not None else self.seed)
        datasets = _unique_labels(
            [dataset_from_spec(spec, self.n_users, rng) for spec in self.datasets],
            "dataset",
        )
        attacks = _unique_labels(
            [attack_from_spec(spec) for spec in self.attacks], "attack"
        )
        scheme_factory = SchemesFromSpecs(self.schemes, epsilon_min=self.epsilon_min)
        # scheme display names key the resumable artifact (per point), so two
        # schemes resolving to the same name would corrupt resumed runs
        probe_point = {"epsilon": self.epsilons[0]}
        _unique_labels(
            [(scheme.name, scheme) for scheme in scheme_factory(probe_point)],
            "scheme",
        )
        gammas = self.gammas
        points: List[Dict[str, Any]] = [
            {
                "dataset": dataset_label,
                "attack": attack_label,
                **({} if gammas is None else {"gamma": gamma}),
                "epsilon": epsilon,
            }
            for dataset_label in datasets
            for attack_label in attacks
            for gamma in (gammas if gammas is not None else (self.gamma,))
            for epsilon in self.epsilons
        ]
        return ExperimentSpec(
            name=self.name,
            description=self.description or f"scenario {self.name}",
            points=points,
            n_users=self.n_users,
            n_trials=self.n_trials,
            gamma=PointKey("gamma") if gammas is not None else self.gamma,
            scheme_factory=scheme_factory,
            attack_factory=AttackLookup(attacks),
            dataset_factory=DatasetLookup(datasets),
            input_domain=self.input_domain,
            collect_workers=self.collect_workers,
            backend=self.backend,
            protocol=self.protocol if self.protocol != "local" else None,
            seed=self.seed,
            fingerprint_extra={"scenario_digest": self.digest()},
        )


def run_scenario(
    scenario: ScenarioSpec,
    rng: RngLike = None,
    n_workers: int | str | None = None,
    store_path: str | os.PathLike | None = None,
    resume: bool = True,
    progress: "Callable[[int, int], None] | None" = None,
    profile: bool = False,
) -> List[SweepRecord]:
    """Execute a scenario through the parallel executor and run store.

    One master generator (seeded from ``scenario.seed`` unless ``rng`` is
    given) drives dataset sampling and the executor's seed matrix, so records
    are bit-identical at any worker count and to the equivalent programmatic
    ``to_experiment_spec`` + ``run_experiment`` call.

    An ``rng`` override changes the records without changing the scenario
    document, so it is folded into the artifact fingerprint: an integer seed
    is recorded as-is, while an opaque generator (whose stream the document
    cannot identify) gets a one-off token — its artifact is written but can
    never be resumed, and it never matches a seed-identified artifact.
    """
    master = ensure_rng(rng if rng is not None else scenario.seed)
    spec = scenario.to_experiment_spec(rng=master)
    if rng is not None:
        if isinstance(rng, (int, np.integer)):
            token = str(int(rng))
        else:
            token = f"opaque-{os.urandom(8).hex()}"
        spec.fingerprint_extra = {**spec.fingerprint_extra, "rng_override": token}
    return run_experiment(
        spec,
        rng=master,
        n_workers=n_workers,
        store_path=store_path,
        resume=resume,
        progress=progress,
        profile=profile,
    )


def format_scenario_records(records: Sequence[SweepRecord]) -> str:
    """Render records as one epsilon x scheme MSE table per grid panel."""
    panel_keys = sorted(
        {key for record in records for key in record.point if key != "epsilon"}
    )
    panels = sorted(
        {tuple(record.point.get(key) for key in panel_keys) for record in records},
        key=str,
    )
    blocks = []
    for panel in panels:
        panel_records = [
            record
            for record in records
            if tuple(record.point.get(key) for key in panel_keys) == panel
        ]
        title = ", ".join(
            f"{key}={value}" for key, value in zip(panel_keys, panel)
        ) or "all points"
        table = records_to_table(panel_records, row_key="epsilon")
        blocks.append(f"## {title} (MSE per scheme)\n" + format_table(table, "epsilon"))
    return "\n\n".join(blocks)


__all__ = [
    "ScenarioSpec",
    "run_scenario",
    "attack_from_spec",
    "dataset_from_spec",
    "format_scenario_records",
    "POISON_DISTRIBUTIONS",
    "SCENARIO_KEYS",
    "POPULATION_KEYS",
]
