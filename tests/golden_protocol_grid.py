"""Seed grid shared by the golden generator and the local-protocol test.

The committed ``tests/data/golden_local_protocol.json`` was produced by
running :func:`compute_goldens`.  The regression test recomputes the same
grid — once with the defaults and once with ``protocol="local"`` forced
explicitly — and requires bit-identical floats, which pins the collection
semantics for every registered mechanism and scheme.  Re-pin (run this
module) only when a change is meant to move seeded outputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.attacks import BiasedByzantineAttack, GeneralByzantineAttack, NoAttack
from repro.registry import DATASETS
from repro.simulation.population import build_population
from repro.simulation.schemes import make_scheme

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_local_protocol.json"

#: mechanisms with an interval transform matrix (the probing schemes need it)
MEAN_MECHANISMS = ("piecewise", "square-wave")
MEAN_SCHEMES = ("Baseline", "DAP-EMF", "DAP-EMF*", "DAP-CEMF*")
#: every registered numerical mechanism, covered via the defence schemes
ALL_NUMERICAL_MECHANISMS = ("piecewise", "duchi", "hybrid", "laplace", "square-wave")
DEFENSE_SCHEMES = ("Ostrich", "Trimming", "K-means", "Boxplot", "IsolationForest")

_N_USERS = 400
_GAMMA = 0.2
_EPSILON = 1.0
_DATASET = "Beta(2,5)"
_SEED = 20260808


def _attack_for(kind: str):
    if kind == "none":
        return NoAttack()
    if kind == "bba":
        return BiasedByzantineAttack()
    if kind == "gba":
        return GeneralByzantineAttack()
    raise ValueError(kind)


def _make(scheme_name: str, mechanism: str, protocol: str | None):
    scheme = make_scheme(scheme_name, epsilon=_EPSILON, mechanism_factory=mechanism)
    if protocol is not None:
        scheme = scheme.configure_protocol(protocol)
    return scheme


def compute_mean_goldens(protocol: str | None = None) -> dict:
    """Mean-estimation grid: mechanisms x schemes x attacks, plus a
    two-shard DAP round on its own seeds."""
    # the synthetic datasets draw their records at creation time, so the
    # dataset itself must be pinned for the grid to be reproducible
    dataset = DATASETS.create(_DATASET, rng=np.random.default_rng([_SEED, 999]))
    goldens: dict[str, float] = {}
    for mech_index, mechanism_name in enumerate(MEAN_MECHANISMS):
        input_domain = make_scheme(
            "DAP-EMF", epsilon=_EPSILON, mechanism_factory=mechanism_name
        ).config.mechanism_factory(_EPSILON).input_domain
        for scheme_index, scheme_name in enumerate(MEAN_SCHEMES):
            attacks = ("bba",) if scheme_name != "DAP-CEMF*" else ("none", "bba", "gba")
            for attack_kind in attacks:
                scheme = _make(scheme_name, mechanism_name, protocol)
                population = build_population(
                    dataset,
                    _N_USERS,
                    _GAMMA,
                    rng=np.random.default_rng([_SEED, mech_index, scheme_index, 0]),
                    input_domain=input_domain,
                )
                estimate = scheme.estimate(
                    population,
                    _attack_for(attack_kind),
                    rng=np.random.default_rng([_SEED, mech_index, scheme_index, 1]),
                )
                goldens[f"{mechanism_name}/{scheme_name}/{attack_kind}"] = float(estimate)
        # a two-shard round (shard-count invariance is covered elsewhere —
        # here the round is pinned on its own seeds)
        scheme = _make("DAP-CEMF*", mechanism_name, protocol)
        population = build_population(
            dataset,
            _N_USERS,
            _GAMMA,
            rng=np.random.default_rng([_SEED, mech_index, 8, 0]),
            input_domain=input_domain,
        )
        goldens[f"{mechanism_name}/DAP-CEMF*/bba/sharded"] = scheme.protocol.run(
            population.normal_values,
            _attack_for("bba"),
            population.n_byzantine,
            rng=np.random.default_rng([_SEED, mech_index, 8, 1]),
            n_shards=2,
        ).estimate
    for mech_index, mechanism_name in enumerate(ALL_NUMERICAL_MECHANISMS):
        input_domain = make_scheme(
            "Ostrich", epsilon=_EPSILON, mechanism_factory=mechanism_name
        ).mechanism.input_domain
        for scheme_index, scheme_name in enumerate(DEFENSE_SCHEMES):
            scheme = _make(scheme_name, mechanism_name, protocol)
            population = build_population(
                dataset,
                _N_USERS,
                _GAMMA,
                rng=np.random.default_rng([_SEED, 9, mech_index, scheme_index, 0]),
                input_domain=input_domain,
            )
            estimate = scheme.estimate(
                population,
                _attack_for("bba"),
                rng=np.random.default_rng([_SEED, 9, mech_index, scheme_index, 1]),
            )
            goldens[f"{mechanism_name}/{scheme_name}/bba"] = float(estimate)
    return goldens


def compute_frequency_goldens(protocol: str | None = None) -> dict:
    """k-RR frequency grid: every estimator's run(), plus a two-shard round."""
    from repro.core.frequency import FrequencyDAP

    extra = {} if protocol is None else {"protocol": protocol}
    n_categories = 16
    rng = np.random.default_rng([_SEED, 100])
    categories = rng.integers(0, n_categories, size=600)
    goldens: dict[str, list[float]] = {}
    for estimator in ("emf", "emf_star", "cemf_star"):
        dap = FrequencyDAP(
            _EPSILON, n_categories, estimator=estimator, max_poisoned=3, **extra
        )
        result = dap.run(
            categories,
            poisoned_categories=(0, 3),
            n_byzantine=120,
            rng=np.random.default_rng([_SEED, 101]),
        )
        goldens[f"krr/{estimator}"] = [float(v) for v in result.frequencies]
    dap = FrequencyDAP(
        _EPSILON, n_categories, estimator="cemf_star", max_poisoned=3, **extra
    )
    reports = dap.collect_sharded(
        categories,
        poisoned_categories=(0, 3),
        n_byzantine=120,
        rng=np.random.default_rng([_SEED, 101]),
        n_shards=2,
    )
    goldens["krr/cemf_star/sharded"] = [
        float(v) for v in dap.estimate_from_counts(reports).frequencies
    ]
    return goldens


def compute_sketch_goldens(protocol: str | None = None) -> dict:
    """Count-sketch frequency route: heavy-hitter estimates + flags."""
    from repro.core.sketch_frequency import SketchFrequencyDAP

    extra = {} if protocol is None else {"protocol": protocol}
    n_categories = 64
    rng = np.random.default_rng([_SEED, 200])
    categories = rng.integers(0, n_categories, size=800)
    dap = SketchFrequencyDAP(
        _EPSILON,
        n_categories,
        sketch_rows=2,
        sketch_width=32,
        n_heavy_hitters=8,
        max_poisoned=2,
        **extra,
    )
    result = dap.run(
        categories,
        poisoned_categories=(1,),
        n_byzantine=160,
        rng=np.random.default_rng([_SEED, 201]),
    )
    return {
        "count-sketch/heavy_hitters": [int(c) for c in result.heavy_hitters],
        "count-sketch/frequencies": [float(v) for v in result.frequencies],
    }


def compute_goldens(protocol: str | None = None) -> dict:
    return {
        "mean": compute_mean_goldens(protocol),
        "frequency": compute_frequency_goldens(protocol),
        "sketch": compute_sketch_goldens(protocol),
    }


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(compute_goldens(), indent=1, sort_keys=True))
    print(f"wrote {GOLDEN_PATH}")
