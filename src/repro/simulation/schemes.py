"""Estimation schemes: a uniform interface over DAP variants and baselines.

Every scheme exposes ``estimate(population, attack, rng) -> float`` so the
trial runner and the figure drivers can treat DAP-EMF, DAP-EMF*, DAP-CEMF*,
Ostrich, Trimming, the k-means defence, and any other defence interchangeably
— exactly the set of curves the paper plots.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, List, Mapping

import numpy as np

from repro.attacks.base import Attack, NoAttack
from repro.core.baseline_protocol import BaselineProtocol
from repro.core.dap import DAPConfig, DAPProtocol
from repro.protocol.plan import check_protocol
from repro.defenses.base import Defense
from repro.ldp.base import NumericalMechanism
from repro.ldp.piecewise import PiecewiseMechanism
from repro.registry import DEFENSES, MECHANISMS, SCHEMES
from repro.simulation.population import Population
from repro.utils.profiling import stage
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_integer

MechanismFactory = Callable[[float], NumericalMechanism]


class Scheme(abc.ABC):
    """A named mean-estimation scheme evaluated by the harness."""

    name: str = "scheme"

    @abc.abstractmethod
    def estimate(
        self, population: Population, attack: Attack | None, rng: RngLike = None
    ) -> float:
        """Run one collection round and return the mean estimate."""

    def configure_protocol(self, protocol: str) -> "Scheme":
        """Set the collection trust model (identity knob), where it applies.

        The DAP variants override this to lower their collection round to
        the requested :mod:`repro.protocol` trust model (``"local"`` /
        ``"shuffle"``); schemes without a budget ladder (the single-round
        defences, the two-budget baseline with its fixed public split)
        validate the name and ignore it — shuffling cannot blind their
        adversary to a group structure they do not have — so an
        experiment-wide ``protocol`` override can be applied across a mixed
        scheme list.
        """
        check_protocol(protocol)
        return self

    def configure_collection(self, collect_workers: int) -> "Scheme":
        """Set the shard-worker count of each collection round (execution knob).

        The DAP variants override this to fan every round's
        :meth:`~repro.core.dap.DAPProtocol.collect_sharded` out over
        ``collect_workers`` processes — records are identical for any value;
        schemes without a sharded collection round validate the count and
        ignore it, so an experiment-wide override can be applied across a
        mixed scheme list.
        """
        check_integer(collect_workers, "collect_workers", minimum=1)
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class DAPScheme(Scheme):
    """One of the three DAP variants (EMF / EMF* / CEMF*)."""

    def __init__(self, config: DAPConfig, name: str | None = None) -> None:
        self.config = config
        self.protocol = DAPProtocol(config)
        suffix = {"emf": "EMF", "emf_star": "EMF*", "cemf_star": "CEMF*"}[config.estimator]
        self.name = name or f"DAP-{suffix}"
        self.collect_workers = 1

    def configure_protocol(self, protocol: str) -> "DAPScheme":
        """Switch the collection trust model (identity knob).

        Mutates the shared config, so the already-built ``DAPProtocol``
        picks the new plan up lazily on its next collection round.
        """
        self.config.protocol = check_protocol(protocol)
        return self

    def configure_collection(self, collect_workers: int) -> "DAPScheme":
        """Fan each collection round out over ``collect_workers`` shards and
        processes (execution detail: block seeds own the randomness)."""
        self.collect_workers = check_integer(
            collect_workers, "collect_workers", minimum=1
        )
        return self

    def estimate(
        self, population: Population, attack: Attack | None, rng: RngLike = None
    ) -> float:
        result = self.protocol.run(
            population.normal_values,
            attack or NoAttack(),
            population.n_byzantine,
            rng=rng,
            n_shards=self.collect_workers,
            n_workers=self.collect_workers,
        )
        return result.estimate


class SingleRoundScheme(Scheme):
    """A classical defence applied to one full-budget collection round.

    Normal users perturb once with the whole budget; Byzantine users submit
    one poison report each; the wrapped :class:`~repro.defenses.base.Defense`
    turns the mixed reports into an estimate.  This is how the paper runs the
    Ostrich / Trimming / k-means baselines.
    """

    def __init__(
        self,
        defense: Defense,
        epsilon: float,
        mechanism_factory: MechanismFactory = PiecewiseMechanism,
        name: str | None = None,
    ) -> None:
        self.defense = defense
        self.mechanism = mechanism_factory(epsilon)
        self.name = name or defense.name

    def estimate(
        self, population: Population, attack: Attack | None, rng: RngLike = None
    ) -> float:
        rng = ensure_rng(rng)
        attack = attack or NoAttack()
        with stage("collect"):
            with stage("collect.sample"):
                normal_reports = self.mechanism.perturb(population.normal_values, rng)
            with stage("collect.poison"):
                poison_reports = attack.poison_reports(
                    population.n_byzantine, self.mechanism, 0.0, rng
                ).reports
            reports = np.concatenate([normal_reports, poison_reports])
        with stage("defense"):
            return self.defense.estimate_mean(reports, self.mechanism, rng).estimate


class BaselineProtocolScheme(Scheme):
    """The Section IV two-budget baseline protocol as a scheme."""

    def __init__(
        self,
        epsilon: float,
        alpha_fraction: float = 0.1,
        evade_probing: bool = False,
        mechanism_factory: MechanismFactory = PiecewiseMechanism,
        name: str | None = None,
    ) -> None:
        self.protocol = BaselineProtocol(
            epsilon, alpha_fraction=alpha_fraction, mechanism_factory=mechanism_factory
        )
        self.evade_probing = evade_probing
        self.name = name or ("Baseline(evaded)" if evade_probing else "Baseline")

    def estimate(
        self, population: Population, attack: Attack | None, rng: RngLike = None
    ) -> float:
        result = self.protocol.run(
            population.normal_values,
            attack or NoAttack(),
            population.n_byzantine,
            evade_probing=self.evade_probing,
            rng=rng,
        )
        return result.estimate


#: scheme names used throughout the paper's mean-estimation figures
PAPER_SCHEMES = ("DAP-EMF", "DAP-EMF*", "DAP-CEMF*", "Ostrich", "Trimming")


# ----------------------------------------------------------------------
# registry-backed construction
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _DAPBuilder:
    """Registered builder for one DAP variant (picklable, unlike a closure)."""

    estimator: str
    display: str

    def __call__(
        self,
        epsilon: float,
        epsilon_min: float = 1.0 / 16.0,
        mechanism_factory: MechanismFactory = PiecewiseMechanism,
        **kwargs,
    ) -> Scheme:
        config = DAPConfig(
            epsilon=epsilon,
            epsilon_min=epsilon_min,
            estimator=self.estimator,
            mechanism_factory=mechanism_factory,
            **kwargs,
        )
        return DAPScheme(config, name=self.display)


SCHEMES.register("DAP-EMF")(_DAPBuilder("emf", "DAP-EMF"))
SCHEMES.register("DAP-EMF*")(_DAPBuilder("emf_star", "DAP-EMF*"))
SCHEMES.register("DAP-CEMF*")(_DAPBuilder("cemf_star", "DAP-CEMF*"))


@SCHEMES.register("Baseline")
def _build_baseline(
    epsilon: float,
    epsilon_min: float = 1.0 / 16.0,
    mechanism_factory: MechanismFactory = PiecewiseMechanism,
    **kwargs,
) -> Scheme:
    """The Section IV two-budget baseline protocol (``epsilon_min`` unused)."""
    return BaselineProtocolScheme(epsilon, mechanism_factory=mechanism_factory, **kwargs)


def resolve_mechanism(mechanism: str | MechanismFactory) -> MechanismFactory:
    """Resolve a mechanism given by registered name or as a factory/class.

    Only numerical mechanisms can back a mean-estimation scheme; naming a
    categorical frequency oracle (k-RR, OUE, OLH) is rejected explicitly.
    """
    if isinstance(mechanism, str):
        entry = MECHANISMS.entry(mechanism)
        if entry.metadata.get("kind") == "categorical":
            raise ValueError(
                f"mechanism {mechanism!r} is a categorical frequency oracle; "
                f"mean-estimation schemes need a numerical mechanism"
            )
        return entry.factory
    if callable(mechanism):
        return mechanism
    raise TypeError(
        f"mechanism must be a registered name or a factory, got {mechanism!r}"
    )


def _single_round_from_defense(
    name: str,
    params: Mapping[str, Any],
    epsilon: float,
    mechanism_factory: MechanismFactory,
) -> Scheme:
    """Wrap a registered defence as a full-budget single-round scheme."""
    entry = DEFENSES.entry(name)
    return SingleRoundScheme(
        DEFENSES.create(name, **params), epsilon, mechanism_factory, name=entry.name
    )


def make_scheme(
    name: str,
    epsilon: float,
    epsilon_min: float = 1.0 / 16.0,
    mechanism_factory: str | MechanismFactory = PiecewiseMechanism,
    label: str | None = None,
    **kwargs,
) -> Scheme:
    """Instantiate a scheme by its registered (case-insensitive) name.

    Every name in the scheme registry (``DAP-EMF``, ``DAP-EMF*``,
    ``DAP-CEMF*``, ``Baseline``) is accepted, and so is every registered
    defence (``Ostrich``, ``Trimming``, ``K-means``, ``Boxplot``,
    ``IsolationForest``), which is wrapped in a full-budget
    :class:`SingleRoundScheme`.  Extra keyword arguments are forwarded to the
    underlying constructor (e.g. ``sampling_rate`` for ``K-means``);
    ``mechanism_factory`` may be a registered mechanism name or a factory;
    ``label`` overrides the display name (useful when the same scheme appears
    with several parameterisations, e.g. ``K-means(beta=0.3)``).

    Raises
    ------
    KeyError
        If the name is neither a registered scheme nor a registered defence;
        the message lists every available name.
    """
    mechanism_factory = resolve_mechanism(mechanism_factory)
    if name in SCHEMES:
        scheme = SCHEMES.create(
            name,
            epsilon=epsilon,
            epsilon_min=epsilon_min,
            mechanism_factory=mechanism_factory,
            **kwargs,
        )
    elif name in DEFENSES:
        scheme = _single_round_from_defense(name, kwargs, epsilon, mechanism_factory)
    else:
        raise KeyError(
            f"unknown scheme {name!r}; registered schemes: "
            f"{', '.join(SCHEMES.names())}; defenses usable as single-round "
            f"schemes: {', '.join(DEFENSES.names())}"
        )
    if label is not None:
        scheme.name = label
    return scheme


#: keys accepted in a declarative scheme spec mapping
SCHEME_SPEC_KEYS = ("name", "defense", "mechanism", "params", "label")


def scheme_from_spec(
    spec: str | Mapping[str, Any],
    epsilon: float,
    epsilon_min: float = 1.0 / 16.0,
    default_mechanism: str | MechanismFactory = PiecewiseMechanism,
) -> Scheme:
    """Construct a scheme from a declarative ``(mechanism, defense, params)`` spec.

    ``spec`` is either a registered scheme/defence name, or a mapping with the
    keys of :data:`SCHEME_SPEC_KEYS`:

    * ``name`` — a registered scheme or defence name, **or**
    * ``defense`` — a registered defence name, wrapped as a single-round
      scheme (exactly one of ``name`` / ``defense`` must be given);
    * ``mechanism`` — registered numerical mechanism name (default
      ``default_mechanism``);
    * ``params`` — keyword arguments for the scheme / defence constructor;
    * ``label`` — display-name override.

    This is the construction path behind scenario files and the cross-grid
    drivers: components are referenced purely by registered name, and unknown
    names raise ``KeyError`` listing what is available.
    """
    if isinstance(spec, str):
        spec = {"name": spec}
    elif isinstance(spec, Mapping):
        spec = dict(spec)
    else:
        raise TypeError(f"scheme spec must be a name or a mapping, got {spec!r}")
    unknown = sorted(set(spec) - set(SCHEME_SPEC_KEYS))
    if unknown:
        raise ValueError(
            f"unknown scheme-spec keys {unknown}; allowed: {', '.join(SCHEME_SPEC_KEYS)}"
        )
    name = spec.get("name")
    defense = spec.get("defense")
    if (name is None) == (defense is None):
        raise ValueError(
            f"scheme spec must give exactly one of 'name' or 'defense', got {spec!r}"
        )
    mechanism_factory = resolve_mechanism(spec.get("mechanism", default_mechanism))
    params = dict(spec.get("params", {}))
    label = spec.get("label")
    if defense is not None:
        scheme = _single_round_from_defense(defense, params, epsilon, mechanism_factory)
        if label is not None:
            scheme.name = label
        return scheme
    return make_scheme(
        name,
        epsilon=epsilon,
        epsilon_min=epsilon_min,
        mechanism_factory=mechanism_factory,
        label=label,
        **params,
    )


__all__ = [
    "Scheme",
    "DAPScheme",
    "SingleRoundScheme",
    "BaselineProtocolScheme",
    "make_scheme",
    "scheme_from_spec",
    "resolve_mechanism",
    "SCHEME_SPEC_KEYS",
    "PAPER_SCHEMES",
]
