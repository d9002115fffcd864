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

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.attacks.base import Attack
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
from repro.engine.spec import shared_knob
from repro.engine.factories import (
    AttackLookup,
    DatasetLookup,
    PointKey,
    SchemesFromSpecs,
)
from repro.knobs import (
    DRAWS,
    IDENTITY,
    Spec,
    axis,
    constant,
    domain,
    fraction,
    integer,
    knob,
    nonempty_text,
    positive,
    text,
)
from repro.registry import ATTACKS, DATASETS
from repro.simulation.sweep import SweepRecord, format_table, records_to_table
from repro.utils.rng import RngLike, ensure_rng

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


def _epsilon(value: Any, name: str) -> float:
    return float(positive(value, name))


def _gamma(value: Any, name: str) -> float:
    return float(fraction(value, name))


@dataclass
class ScenarioSpec(Spec):
    """A declarative cross-grid workload over registered components.

    The sweep grid is ``datasets x attacks x (gammas) x epsilons``, with every
    scheme evaluated at each point (the scheme axis of the emitted records).
    Each field is one :func:`~repro.knobs.knob`: its metadata gives the
    knob's role (identity or execution detail), validator and help text, and
    :class:`~repro.knobs.Spec` derives the strict document parser
    (:meth:`from_dict`), the identity :meth:`document` and its
    :meth:`digest` from them.  Execution details (``collect_workers``,
    ``backend``) stay out of the document, like the executor's
    ``n_workers``: completed records are reusable verbatim whichever
    configuration computes the rest, so a run stays resumable with
    ``--collect-workers`` or ``--backend`` set.
    """

    kind = "scenario"

    name: str = knob(IDENTITY, nonempty_text, "scenario identifier, used for run artifacts")
    # keyword-only, so it can sit second (its place in the document) ahead
    # of the required fields
    description: str = knob(IDENTITY, text, "free-form provenance", default="", kw_only=True)
    schemes: Sequence[Any] = knob(
        IDENTITY,
        axis(),
        "scheme specs, registered names or mappings (see "
        "repro.simulation.schemes.scheme_from_spec); the scheme axis of the records",
    )
    epsilons: Sequence[float] = knob(IDENTITY, axis(_epsilon), "the privacy-budget grid")
    attacks: Sequence[Any] = knob(
        IDENTITY, axis(), "attack specs, registered names or mappings", default=("none",)
    )
    datasets: Sequence[Any] = knob(
        IDENTITY, axis(), "dataset specs, registered names or mappings", default=("Uniform",)
    )
    gammas: Sequence[float] | None = knob(
        IDENTITY,
        axis(_gamma),
        "Byzantine-proportion grid; when given it becomes a sweep axis, "
        "otherwise the constant population gamma applies",
        default=None,
    )
    n_users: int = knob(
        IDENTITY, integer(10), "users per trial", default=20_000, section="population"
    )
    gamma: float = knob(
        IDENTITY, fraction, "Byzantine proportion", default=0.25, section="population"
    )
    input_domain: Tuple[float, float] = knob(
        IDENTITY,
        domain,
        "mechanism input domain [low, high]",
        default=(-1.0, 1.0),
        section="population",
    )
    n_trials: int = knob(IDENTITY, integer(1), "trials per grid point", default=3, alias="trials")
    seed: int = knob(
        IDENTITY,
        integer(),
        "master seed: sampling the datasets, then the executor's seed matrix",
        default=0,
    )
    epsilon_min: float = knob(
        IDENTITY, positive, "probing budget floor of DAP-style schemes", default=1.0 / 16.0
    )
    # every trial runs on the per-trial path since the stacked-trials knob
    # was removed; the constant keeps stored digests resumable
    batched: bool = constant(False)
    draws: int = constant(DRAWS)
    protocol: str = shared_knob("protocol", "local")
    collect_workers: int | None = shared_knob("collect_workers")
    backend: str | None = shared_knob("backend")

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Build a scenario from a parsed JSON document (strict keys)."""
        return cls.from_mapping(payload)

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
    ``to_experiment_spec`` + ``run_experiment`` call.  That call's run
    identity holds the sampled datasets and the seed matrix, so an ``rng``
    override resumes exactly the artifacts written from a generator in the
    same state.
    """
    master = ensure_rng(rng if rng is not None else scenario.seed)
    return run_experiment(
        scenario.to_experiment_spec(rng=master),
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
]
