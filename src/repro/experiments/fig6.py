"""Figure 6 — MSE of mean estimation across datasets, poison ranges and budgets.

The paper's headline result: for every dataset (Beta(2,5), Beta(5,2), Taxi,
Retirement), every poison range ([3C/4,C], [C/2,C], [O,C/2], [O,C]) and every
budget in {1/4, 1/2, 1, 3/2, 2}, the three DAP variants achieve a far smaller
MSE than Ostrich and Trimming, with DAP-CEMF* usually the best.

The driver is a thin definition of an :class:`~repro.engine.ExperimentSpec`
over the (dataset x range x epsilon) grid; pass ``n_workers`` to fan the grid
out over a process pool (identical results at any worker count).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.datasets import load_dataset
from repro.engine import (
    DatasetLookup,
    ExperimentSpec,
    PoisonRangeAttack,
    SchemesByName,
    run_experiment,
)
from repro.experiments.defaults import ExperimentScale, QUICK_SCALE, PAPER_EPSILONS
from repro.simulation.sweep import SweepRecord, format_table, records_to_table
from repro.utils.rng import RngLike, ensure_rng

#: the full grid of Figure 6
FIG6_DATASETS = ("Beta(2,5)", "Beta(5,2)", "Taxi", "Retirement")
FIG6_RANGES = ("[3C/4,C]", "[C/2,C]", "[O,C/2]", "[O,C]")
FIG6_SCHEMES = ("DAP-EMF", "DAP-EMF*", "DAP-CEMF*", "Ostrich", "Trimming")


def build_fig6_spec(
    scale: ExperimentScale = QUICK_SCALE,
    datasets: Sequence[str] = ("Taxi",),
    poison_ranges: Sequence[str] = ("[3C/4,C]",),
    epsilons: Sequence[float] = PAPER_EPSILONS,
    schemes: Sequence[str] = FIG6_SCHEMES,
    epsilon_min: float = 1.0 / 16.0,
    rng: RngLike = None,
) -> ExperimentSpec:
    """Build the Figure 6 spec (datasets are sampled here, from ``rng``)."""
    rng = ensure_rng(rng)
    dataset_cache = {
        name: load_dataset(name, n_samples=scale.n_users, rng=rng) for name in datasets
    }
    points = [
        {"dataset": d, "poison_range": p, "epsilon": e}
        for d in datasets
        for p in poison_ranges
        for e in epsilons
    ]
    return ExperimentSpec(
        name="fig6",
        description="Figure 6: mean-estimation MSE, DAP variants vs baselines",
        points=points,
        n_users=scale.n_users,
        n_trials=scale.n_trials,
        gamma=scale.gamma,
        scheme_factory=SchemesByName(tuple(schemes), epsilon_min=epsilon_min),
        attack_factory=PoisonRangeAttack(),
        dataset_factory=DatasetLookup(dataset_cache),
    )


def run_fig6(
    scale: ExperimentScale = QUICK_SCALE,
    datasets: Sequence[str] = ("Taxi",),
    poison_ranges: Sequence[str] = ("[3C/4,C]",),
    epsilons: Sequence[float] = PAPER_EPSILONS,
    schemes: Sequence[str] = FIG6_SCHEMES,
    epsilon_min: float = 1.0 / 16.0,
    rng: RngLike = None,
    n_workers: int | str | None = None,
    store_path=None,
) -> List[SweepRecord]:
    """Regenerate (a configurable slice of) the Figure 6 grid.

    Defaults run one dataset and one poison range across every budget and
    scheme — one panel of the figure.  Pass ``datasets=FIG6_DATASETS`` and
    ``poison_ranges=FIG6_RANGES`` for the complete 16-panel grid.  The records
    depend only on ``rng`` (datasets, then the seed matrix), never on ``n_workers``.
    """
    rng = ensure_rng(rng)
    spec = build_fig6_spec(
        scale,
        datasets=datasets,
        poison_ranges=poison_ranges,
        epsilons=epsilons,
        schemes=schemes,
        epsilon_min=epsilon_min,
        rng=rng,
    )
    return run_experiment(spec, rng=rng, n_workers=n_workers, store_path=store_path)


def format_fig6(records: Sequence[SweepRecord]) -> str:
    """Render one MSE table per (dataset, poison range) panel."""
    panels = sorted({(r.point["dataset"], r.point["poison_range"]) for r in records})
    blocks = []
    for dataset, poison_range in panels:
        panel_records = [
            r
            for r in records
            if r.point["dataset"] == dataset and r.point["poison_range"] == poison_range
        ]
        table = records_to_table(panel_records, row_key="epsilon")
        blocks.append(
            f"## {dataset}, Poi {poison_range} (MSE per scheme)\n"
            + format_table(table, row_label="epsilon")
        )
    return "\n\n".join(blocks)


__all__ = [
    "build_fig6_spec",
    "run_fig6",
    "format_fig6",
    "FIG6_DATASETS",
    "FIG6_RANGES",
    "FIG6_SCHEMES",
]
