"""Figure 5 — accuracy of the Byzantine-proportion estimate ``gamma_hat``.

Four panels:

* (a) ``|gamma_hat - gamma|`` vs epsilon for gamma = 0.1, four poison ranges;
* (b) the same for gamma = 0.4;
* (c) the false-positive rate: ``gamma_hat`` when there is no attack at all;
* (d) ``gamma_hat`` under an input-manipulation attack (gamma = 0.25), which
  EMF is *not* expected to detect (the reports are honestly perturbed) — the
  paper uses this as motivation for combining EMF with the k-means defence.

The qualitative claims to verify: the estimate improves monotonically as
epsilon shrinks (Theorem 3), false positives stay small (a few percent) at the
smallest budgets, and IMA keeps ``gamma_hat`` near the false-positive level.

Each (panel, range, gamma, epsilon) cell is one point of a point-granular
:class:`~repro.engine.ExperimentSpec`, so the whole figure fans out over the
process pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.attacks import (
    BiasedByzantineAttack,
    InputManipulationAttack,
    NoAttack,
    PAPER_POISON_RANGES,
)
from repro.core.features import estimate_byzantine_features
from repro.datasets import load_dataset
from repro.engine import ExperimentSpec, run_experiment
from repro.experiments.defaults import ExperimentScale, QUICK_SCALE, PROBING_EPSILONS
from repro.ldp import PiecewiseMechanism
from repro.utils.rng import RngLike, ensure_rng

#: the poison ranges compared in panels (a) and (b)
FIG5_RANGES = ("[3C/4,C]", "[C/2,C]", "[O,C/2]", "[O,C]")


@dataclass
class Fig5Record:
    """One measurement of ``gamma_hat`` for one panel configuration."""

    panel: str
    dataset: str
    epsilon: float
    gamma: float
    poison_range: str
    gamma_hat: float

    @property
    def gamma_error(self) -> float:
        """``|gamma_hat - gamma|`` — the quantity plotted in panels (a)(b)."""
        return abs(self.gamma_hat - self.gamma)


def _probe_gamma(dataset_values, attack, gamma, epsilon, rng) -> float:
    """One collection round + EMF probing, returning ``gamma_hat``."""
    mechanism = PiecewiseMechanism(epsilon)
    n_users = dataset_values.size
    n_byzantine = int(round(n_users * gamma / (1.0 - gamma))) if gamma < 1.0 else 0
    normal_reports = mechanism.perturb(dataset_values, rng)
    poison_reports = attack.poison_reports(n_byzantine, mechanism, 0.0, rng).reports
    reports = np.concatenate([normal_reports, poison_reports])
    features = estimate_byzantine_features(
        mechanism, reports, reference_mean=0.0, epsilon=epsilon
    )
    return features.gamma_hat


def _point_attack(point: Mapping):
    if point["panel"] == "c":
        return NoAttack()
    if point["panel"] == "d":
        return InputManipulationAttack(1.0)
    return BiasedByzantineAttack(PAPER_POISON_RANGES[point["poison_range"]])


@dataclass
class Fig5Spec(ExperimentSpec):
    """Point-granular spec: one probing round per figure cell."""

    values_by_dataset: Dict[str, np.ndarray] = field(default_factory=dict)

    def evaluate_point(self, point: Mapping, trial_seeds) -> Sequence[Fig5Record]:
        rng = np.random.default_rng(int(trial_seeds[0]))
        gamma_hat = _probe_gamma(
            self.values_by_dataset[point["dataset"]],
            _point_attack(point),
            point["gamma"],
            point["epsilon"],
            rng,
        )
        return [
            Fig5Record(
                panel=point["panel"],
                dataset=point["dataset"],
                epsilon=point["epsilon"],
                gamma=point["gamma"],
                poison_range=point["poison_range"],
                gamma_hat=gamma_hat,
            )
        ]


def run_fig5(
    scale: ExperimentScale = QUICK_SCALE,
    epsilons: Sequence[float] = PROBING_EPSILONS,
    datasets: Sequence[str] = ("Taxi",),
    gammas: Sequence[float] = (0.1, 0.4),
    poison_ranges: Sequence[str] = ("[C/2,C]", "[O,C]"),
    include_false_positive_panel: bool = True,
    include_ima_panel: bool = True,
    rng: RngLike = None,
    n_workers: int | str | None = None,
    store_path=None,
) -> List[Fig5Record]:
    """Regenerate the Figure 5 measurements.

    The default arguments cover a representative subset of the paper's full
    grid (every panel, two poison ranges, the Taxi dataset); pass the full
    lists to sweep everything.
    """
    rng = ensure_rng(rng)
    values_by_dataset = {
        name: load_dataset(name, n_samples=scale.n_users, rng=rng).values
        for name in datasets
    }
    points: List[dict] = []
    for dataset_name in datasets:
        # panels (a)(b): biased attacks at gamma = 0.1 / 0.4
        for gamma, panel in zip(gammas, ("a", "b")):
            for range_name in poison_ranges:
                for epsilon in epsilons:
                    points.append(
                        {
                            "panel": panel,
                            "dataset": dataset_name,
                            "epsilon": epsilon,
                            "gamma": gamma,
                            "poison_range": range_name,
                        }
                    )
        # panel (c): no attack -> gamma_hat is the false-positive rate
        if include_false_positive_panel:
            for epsilon in epsilons:
                points.append(
                    {
                        "panel": "c",
                        "dataset": dataset_name,
                        "epsilon": epsilon,
                        "gamma": 0.0,
                        "poison_range": "none",
                    }
                )
        # panel (d): input-manipulation attack at gamma = 0.25
        if include_ima_panel:
            for epsilon in epsilons:
                points.append(
                    {
                        "panel": "d",
                        "dataset": dataset_name,
                        "epsilon": epsilon,
                        "gamma": 0.25,
                        "poison_range": "IMA",
                    }
                )
    spec = Fig5Spec(
        name="fig5",
        description="Figure 5: gamma_hat accuracy per panel",
        points=points,
        n_users=scale.n_users,
        n_trials=1,
        values_by_dataset=values_by_dataset,
    )
    return run_experiment(spec, rng=rng, n_workers=n_workers, store_path=store_path)


def format_fig5(records: Sequence[Fig5Record]) -> str:
    """Render the per-panel series the paper plots."""
    lines = ["panel dataset      range       gamma   " + "".join(
        f"eps={e:<8g}" for e in sorted({r.epsilon for r in records}, reverse=True)
    )]
    epsilons = sorted({r.epsilon for r in records}, reverse=True)
    keys = sorted({(r.panel, r.dataset, r.poison_range, r.gamma) for r in records})
    for panel, dataset, range_name, gamma in keys:
        series = {
            r.epsilon: r for r in records
            if (r.panel, r.dataset, r.poison_range, r.gamma) == (panel, dataset, range_name, gamma)
        }
        cells = []
        for epsilon in epsilons:
            record = series.get(epsilon)
            if record is None:
                cells.append("-".ljust(12))
            elif panel in ("a", "b"):
                cells.append(f"{record.gamma_error:.4f}".ljust(12))
            else:
                cells.append(f"{record.gamma_hat:.4f}".ljust(12))
        lines.append(
            f"({panel})   {dataset:<12} {range_name:<11} {gamma:<7g} " + "".join(cells)
        )
    return "\n".join(lines)


__all__ = ["Fig5Record", "Fig5Spec", "run_fig5", "format_fig5", "FIG5_RANGES"]
