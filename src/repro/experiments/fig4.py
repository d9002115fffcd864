"""Figure 4 — normalised frequency histograms and true means of the datasets.

The paper plots the normalised histogram of each evaluation dataset and quotes
its true mean ``O`` (Beta(2,5): -0.3994, Beta(5,2): 0.4136, Taxi: 0.1190,
Retirement: -0.6240).  This driver regenerates the histogram and mean for each
dataset so the report can state how closely the offline substitutes match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.datasets import load_dataset
from repro.datasets.base import NumericalDataset
from repro.engine import ExperimentSpec, run_experiment
from repro.experiments.defaults import ExperimentScale, QUICK_SCALE
from repro.utils.rng import RngLike, ensure_rng

#: the paper's reported normalised means, for side-by-side comparison
PAPER_MEANS = {
    "Beta(2,5)": -0.3994,
    "Beta(5,2)": 0.4136,
    "Taxi": 0.1190,
    "Retirement": -0.6240,
}


@dataclass
class Fig4Record:
    """Summary of one dataset's normalised distribution."""

    dataset: str
    n_samples: int
    mean: float
    paper_mean: float
    variance: float
    histogram: np.ndarray


@dataclass
class Fig4Spec(ExperimentSpec):
    """Point-granular spec: one summary per (pre-loaded) dataset."""

    datasets: Dict[str, NumericalDataset] = field(default_factory=dict)
    n_buckets: int = 40

    def evaluate_point(self, point: Mapping, trial_seeds) -> Sequence[Fig4Record]:
        name = point["dataset"]
        dataset = self.datasets[name]
        histogram, _grid = dataset.histogram(self.n_buckets)
        return [
            Fig4Record(
                dataset=name,
                n_samples=dataset.n,
                mean=dataset.true_mean,
                paper_mean=PAPER_MEANS.get(name, float("nan")),
                variance=dataset.true_variance,
                histogram=histogram,
            )
        ]


def run_fig4(
    scale: ExperimentScale = QUICK_SCALE,
    datasets: Sequence[str] = tuple(PAPER_MEANS),
    n_buckets: int = 40,
    rng: RngLike = None,
    n_workers: int | str | None = None,
    store_path=None,
) -> List[Fig4Record]:
    """Regenerate the Figure 4 dataset summaries."""
    rng = ensure_rng(rng)
    loaded = {
        name: load_dataset(name, n_samples=scale.n_users, rng=rng) for name in datasets
    }
    spec = Fig4Spec(
        name="fig4",
        description="Figure 4: dataset histograms and true means",
        points=[{"dataset": name} for name in datasets],
        n_users=scale.n_users,
        n_trials=1,
        datasets=loaded,
        n_buckets=n_buckets,
    )
    return run_experiment(spec, rng=rng, n_workers=n_workers, store_path=store_path)


def format_fig4(records: Sequence[Fig4Record]) -> str:
    """Render dataset means (ours vs the paper's) plus a coarse histogram."""
    lines = [
        "dataset       n          mean       paper-mean  variance",
    ]
    for record in records:
        lines.append(
            f"{record.dataset:<13} {record.n_samples:<10} {record.mean:>9.4f}  "
            f"{record.paper_mean:>9.4f}  {record.variance:>9.4f}"
        )
    return "\n".join(lines)


__all__ = ["Fig4Record", "Fig4Spec", "run_fig4", "format_fig4", "PAPER_MEANS"]
