"""Figure 10 — robustness to evasive poison values.

Attackers aware of DAP devote a fraction ``a`` of their poison reports to the
opposite (non-poisoned) side at ``-C/2`` in an attempt to flip the side
probing, keeping the remaining ``1 - a`` fraction uniform on ``[C/2, C]``
(epsilon = 1/2, gamma = 0.25).  The paper's analysis (Equations 18-20) and
Figure 10 show three regimes as ``a`` grows:

* small ``a``: DAP ignores the evasive values and the MSE stays low;
* intermediate ``a`` (~20-30 %): the side decision starts flipping and the MSE
  spikes;
* large ``a``: the attack has sacrificed so much of its own mass that the MSE
  falls again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence

from repro.attacks import EvasionAttack, PoisonRange
from repro.datasets import load_dataset
from repro.engine import DatasetLookup, ExperimentSpec, FixedEpsilonSchemes, run_experiment
from repro.experiments.defaults import ExperimentScale, QUICK_SCALE
from repro.simulation.sweep import SweepRecord, format_table, records_to_table
from repro.utils.rng import RngLike, ensure_rng

#: the evasive fractions swept in the figure
FIG10_FRACTIONS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


@dataclass(frozen=True)
class Fig10Attack:
    """Evasion attack with the point's evasive fraction ``a``."""

    def __call__(self, point: Mapping) -> EvasionAttack:
        return EvasionAttack(
            evasive_fraction=point["evasive_fraction"],
            true_poison_range=PoisonRange.of_c(0.5, 1.0),
            evasive_position=0.5,
        )


def build_fig10_spec(
    scale: ExperimentScale = QUICK_SCALE,
    datasets: Sequence[str] = ("Taxi",),
    evasive_fractions: Sequence[float] = FIG10_FRACTIONS,
    epsilon: float = 0.5,
    schemes: Sequence[str] = ("DAP-EMF", "DAP-EMF*", "DAP-CEMF*"),
    rng: RngLike = None,
) -> ExperimentSpec:
    """Build the Figure 10 evasion-sweep spec."""
    rng = ensure_rng(rng)
    dataset_cache = {
        name: load_dataset(name, n_samples=scale.n_users, rng=rng) for name in datasets
    }
    points = [
        {"dataset": name, "evasive_fraction": a}
        for name in datasets
        for a in evasive_fractions
    ]
    return ExperimentSpec(
        name="fig10",
        description="Figure 10: MSE vs evasive poison fraction",
        points=points,
        n_users=scale.n_users,
        n_trials=scale.n_trials,
        gamma=scale.gamma,
        scheme_factory=FixedEpsilonSchemes(tuple(schemes), epsilon=epsilon),
        attack_factory=Fig10Attack(),
        dataset_factory=DatasetLookup(dataset_cache),
    )


def run_fig10(
    scale: ExperimentScale = QUICK_SCALE,
    datasets: Sequence[str] = ("Taxi",),
    evasive_fractions: Sequence[float] = FIG10_FRACTIONS,
    epsilon: float = 0.5,
    schemes: Sequence[str] = ("DAP-EMF", "DAP-EMF*", "DAP-CEMF*"),
    rng: RngLike = None,
    n_workers: int | str | None = None,
    store_path=None,
) -> List[SweepRecord]:
    """Regenerate the Figure 10 evasion sweep."""
    rng = ensure_rng(rng)
    spec = build_fig10_spec(
        scale,
        datasets=datasets,
        evasive_fractions=evasive_fractions,
        epsilon=epsilon,
        schemes=schemes,
        rng=rng,
    )
    return run_experiment(spec, rng=rng, n_workers=n_workers, store_path=store_path)


def format_fig10(records: Sequence[SweepRecord]) -> str:
    """Render one MSE-vs-a table per dataset."""
    blocks = []
    for dataset in sorted({r.point["dataset"] for r in records}):
        dataset_records = [r for r in records if r.point["dataset"] == dataset]
        table = records_to_table(dataset_records, row_key="evasive_fraction")
        blocks.append(
            f"## {dataset}, epsilon=1/2, gamma=0.25: MSE vs evasive fraction a\n"
            + format_table(table, row_label="a")
        )
    return "\n\n".join(blocks)


__all__ = ["build_fig10_spec", "run_fig10", "format_fig10", "FIG10_FRACTIONS"]
