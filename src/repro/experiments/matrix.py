"""Cross-grid driver: attack x defense x epsilon x dataset combinations.

The paper evaluates a fixed set of (attack, scheme) pairings — BBA against the
DAP variants and two baselines, IMA only against the k-means comparison, the
evasion attack only against DAP.  This driver sweeps the *full cross product*
of registered attacks and defence-backed schemes over the budget grid and
several datasets, a workload the paper never plotted: e.g. how Boxplot or
IsolationForest hold up under input manipulation, or how the evasion attack
fares against plain Trimming.

It is built entirely on the scenario layer, so the same grid is reachable as
a JSON file through ``python -m repro run`` (see
``examples/scenario_matrix.json``), and emits the usual columnar
:class:`~repro.simulation.sweep.SweepRecord` rows / run artifacts.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.experiments.defaults import ExperimentScale, QUICK_SCALE
from repro.scenario import ScenarioSpec, format_scenario_records, run_scenario
from repro.simulation.sweep import SweepRecord
from repro.utils.rng import RngLike

#: the attack axis: every threat model in the registry, paper parameterisations
MATRIX_ATTACKS = (
    {"name": "bba", "poison_range": "[C/2,C]", "label": "BBA[C/2,C]"},
    {"name": "gba", "right_fraction": 0.8, "label": "GBA(0.8R)"},
    {"name": "ima", "label": "IMA"},
    {"name": "evasion", "evasive_fraction": 0.2, "label": "Evasion(0.2)"},
)

#: the defence axis: DAP's best variant plus every registered baseline defence
MATRIX_SCHEMES = (
    "DAP-CEMF*",
    "Ostrich",
    "Trimming",
    "K-means",
    "Boxplot",
    "IsolationForest",
)

MATRIX_DATASETS = ("Taxi", "Beta(2,5)")
MATRIX_EPSILONS = (0.5, 1.0, 2.0)


def build_matrix_scenario(
    scale: ExperimentScale = QUICK_SCALE,
    datasets: Sequence[Any] = MATRIX_DATASETS,
    attacks: Sequence[Any] = MATRIX_ATTACKS,
    schemes: Sequence[Any] = MATRIX_SCHEMES,
    epsilons: Sequence[float] = MATRIX_EPSILONS,
    epsilon_min: float = 1.0 / 16.0,
    seed: int = 0,
) -> ScenarioSpec:
    """Declare the cross-grid as a :class:`~repro.scenario.ScenarioSpec`."""
    return ScenarioSpec(
        name="matrix",
        description=(
            "cross grid: every attack x every defense-backed scheme x epsilon "
            "x dataset (combinations beyond the paper's figures)"
        ),
        schemes=schemes,
        epsilons=epsilons,
        attacks=attacks,
        datasets=datasets,
        n_users=scale.n_users,
        n_trials=scale.n_trials,
        gamma=scale.gamma,
        seed=seed,
        epsilon_min=epsilon_min,
    )


def run_matrix(
    scale: ExperimentScale = QUICK_SCALE,
    datasets: Sequence[Any] = MATRIX_DATASETS,
    attacks: Sequence[Any] = MATRIX_ATTACKS,
    schemes: Sequence[Any] = MATRIX_SCHEMES,
    epsilons: Sequence[float] = MATRIX_EPSILONS,
    epsilon_min: float = 1.0 / 16.0,
    seed: int = 0,
    rng: RngLike = None,
    n_workers: int | str | None = None,
    store_path=None,
) -> List[SweepRecord]:
    """Run the attack x defense cross-grid through the parallel executor.

    ``rng`` overrides the scenario seed (mirroring the figure drivers);
    records are bit-identical at any ``n_workers``.
    """
    scenario = build_matrix_scenario(
        scale,
        datasets=datasets,
        attacks=attacks,
        schemes=schemes,
        epsilons=epsilons,
        epsilon_min=epsilon_min,
        seed=seed,
    )
    return run_scenario(
        scenario, rng=rng, n_workers=n_workers, store_path=store_path
    )


def format_matrix(records: Sequence[SweepRecord]) -> str:
    """Render one epsilon x scheme MSE table per (dataset, attack) panel."""
    return format_scenario_records(records)


__all__ = [
    "MATRIX_ATTACKS",
    "MATRIX_SCHEMES",
    "MATRIX_DATASETS",
    "MATRIX_EPSILONS",
    "build_matrix_scenario",
    "run_matrix",
    "format_matrix",
]
