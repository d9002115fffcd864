"""Figure 7 — robustness to the Byzantine proportion and poison distribution.

Panels (a)(b): MSE on Taxi at epsilon = 1 as the Byzantine proportion grows
through {5, 10, 30, 40}%, for poison ranges [O, C/2] and [C/2, C].

Panels (c)(d): MSE on Taxi at epsilon = 1, gamma = 0.25, as the poison-value
distribution changes through Uniform, Gaussian, Beta(1,6) and Beta(6,1) over
the same two ranges.

Expected shape: the DAP variants stay orders of magnitude below Ostrich and
Trimming across the whole sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence

from repro.attacks import (
    BetaPoison,
    BiasedByzantineAttack,
    GaussianPoison,
    PAPER_POISON_RANGES,
    UniformPoison,
)
from repro.datasets import load_dataset
from repro.engine import (
    ExperimentSpec,
    FixedDataset,
    FixedEpsilonSchemes,
    PointKey,
    run_experiment,
)
from repro.experiments.defaults import ExperimentScale, QUICK_SCALE
from repro.experiments.fig6 import FIG6_SCHEMES
from repro.simulation.sweep import SweepRecord, format_table, records_to_table
from repro.utils.rng import RngLike, ensure_rng

#: the proportions of panels (a)(b)
FIG7_GAMMAS = (0.05, 0.10, 0.30, 0.40)

#: the distributions of panels (c)(d)
FIG7_DISTRIBUTIONS = ("Uniform", "Gaussian", "Beta(1,6)", "Beta(6,1)")


def _poison_distribution(name: str):
    if name == "Uniform":
        return UniformPoison()
    if name == "Gaussian":
        return GaussianPoison()
    if name == "Beta(1,6)":
        return BetaPoison(1, 6)
    if name == "Beta(6,1)":
        return BetaPoison(6, 1)
    raise KeyError(f"unknown poison distribution {name!r}")


@dataclass(frozen=True)
class Fig7Attack:
    """BBA on the point's poison range with the point's poison distribution."""

    def __call__(self, point: Mapping) -> BiasedByzantineAttack:
        return BiasedByzantineAttack(
            PAPER_POISON_RANGES[point["poison_range"]],
            distribution=_poison_distribution(point["distribution"]),
        )


def build_fig7_spec(
    scale: ExperimentScale = QUICK_SCALE,
    epsilon: float = 1.0,
    dataset_name: str = "Taxi",
    poison_ranges: Sequence[str] = ("[O,C/2]", "[C/2,C]"),
    gammas: Sequence[float] = FIG7_GAMMAS,
    distributions: Sequence[str] = FIG7_DISTRIBUTIONS,
    schemes: Sequence[str] = FIG6_SCHEMES,
    rng: RngLike = None,
) -> ExperimentSpec:
    """Build the Figure 7 spec (both the gamma and distribution axes)."""
    rng = ensure_rng(rng)
    dataset = load_dataset(dataset_name, n_samples=scale.n_users, rng=rng)

    points: List[dict] = []
    for poison_range in poison_ranges:
        for gamma in gammas:
            points.append(
                {
                    "panel": "gamma",
                    "poison_range": poison_range,
                    "gamma": gamma,
                    "distribution": "Uniform",
                }
            )
        for distribution in distributions:
            points.append(
                {
                    "panel": "distribution",
                    "poison_range": poison_range,
                    "gamma": scale.gamma,
                    "distribution": distribution,
                }
            )

    return ExperimentSpec(
        name="fig7",
        description="Figure 7: robustness to gamma and poison distribution",
        points=points,
        n_users=scale.n_users,
        n_trials=scale.n_trials,
        gamma=PointKey("gamma"),
        scheme_factory=FixedEpsilonSchemes(tuple(schemes), epsilon=epsilon),
        attack_factory=Fig7Attack(),
        dataset_factory=FixedDataset(dataset),
    )


def run_fig7(
    scale: ExperimentScale = QUICK_SCALE,
    epsilon: float = 1.0,
    dataset_name: str = "Taxi",
    poison_ranges: Sequence[str] = ("[O,C/2]", "[C/2,C]"),
    gammas: Sequence[float] = FIG7_GAMMAS,
    distributions: Sequence[str] = FIG7_DISTRIBUTIONS,
    schemes: Sequence[str] = FIG6_SCHEMES,
    rng: RngLike = None,
    n_workers: int | str | None = None,
    store_path=None,
) -> List[SweepRecord]:
    """Regenerate the Figure 7 sweeps (both the gamma and distribution axes)."""
    rng = ensure_rng(rng)
    spec = build_fig7_spec(
        scale,
        epsilon=epsilon,
        dataset_name=dataset_name,
        poison_ranges=poison_ranges,
        gammas=gammas,
        distributions=distributions,
        schemes=schemes,
        rng=rng,
    )
    return run_experiment(spec, rng=rng, n_workers=n_workers, store_path=store_path)


def format_fig7(records: Sequence[SweepRecord]) -> str:
    """Render the gamma-sweep and distribution-sweep tables per poison range."""
    blocks = []
    ranges = sorted({r.point["poison_range"] for r in records})
    for poison_range in ranges:
        gamma_records = [
            r
            for r in records
            if r.point["panel"] == "gamma" and r.point["poison_range"] == poison_range
        ]
        if gamma_records:
            table = records_to_table(gamma_records, row_key="gamma")
            blocks.append(
                f"## Taxi, Poi {poison_range}: MSE vs Byzantine proportion\n"
                + format_table(table, row_label="gamma")
            )
        dist_records = [
            r
            for r in records
            if r.point["panel"] == "distribution"
            and r.point["poison_range"] == poison_range
        ]
        if dist_records:
            table = records_to_table(dist_records, row_key="distribution")
            blocks.append(
                f"## Taxi, Poi {poison_range}: MSE vs poison distribution\n"
                + format_table(table, row_label="distribution")
            )
    return "\n\n".join(blocks)


__all__ = [
    "build_fig7_spec",
    "run_fig7",
    "format_fig7",
    "FIG7_GAMMAS",
    "FIG7_DISTRIBUTIONS",
]
