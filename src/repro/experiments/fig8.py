"""Figure 8 — generalisation to the Square Wave mechanism.

Four panels, all on the Beta datasets rescaled to SW's ``[0, 1]`` input domain
(the paper quotes the raw means 0.3003 and 0.7068):

* (a) distribution-estimation accuracy (Wasserstein distance between the
  reconstructed and the true input distribution) for EMF / EMF* / CEMF*
  against Ostrich (plain EMS that ignores the poison values);
* (b) ``|gamma_hat - gamma|`` vs epsilon under SW;
* (c)(d) MSE of mean estimation under SW for the DAP variants vs Ostrich and
  Trimming, with poison values on ``[1 + b/2, 1 + b]``.

Expected shape: the EMF family beats Ostrich on distribution estimation, the
gamma estimate sharpens as epsilon shrinks, and the SW-DAP variants win the
mean-estimation comparison for most budgets.

All three panel groups are :class:`~repro.engine.ExperimentSpec` definitions:
the MSE panels as a scheme sweep, the probe panels (a)(b) as point-granular
specs whose randomness derives entirely from the pre-drawn point seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.attacks import BiasedByzantineAttack, PoisonRange
from repro.core import (
    DAPConfig,
    build_transform_matrix,
    default_bucket_counts,
    estimate_byzantine_features,
    run_cemf_star,
    run_emf,
    run_emf_star,
)
from repro.datasets import load_dataset
from repro.engine import DatasetLookup, ExperimentSpec, FixedAttack, run_experiment
from repro.estimators import wasserstein_distance_histograms
from repro.experiments.defaults import ExperimentScale, QUICK_SCALE, PAPER_EPSILONS
from repro.ldp import SquareWaveMechanism
from repro.simulation.schemes import DAPScheme, Scheme, make_scheme
from repro.simulation.sweep import SweepRecord, format_table, records_to_table
from repro.utils.rng import RngLike, ensure_rng

#: the paper's SW poison range [1 + b/2, 1 + b] expressed symbolically
#: (output-domain bound C = 1 + b, so 1 + b/2 = 0.5 + 0.5 * C)
SW_POISON_RANGE = PoisonRange.affine(0.5, 0.5, 1.0, 0.0)


@dataclass
class Fig8ProbeRecord:
    """Panel (a)/(b) measurement: distribution error and gamma error."""

    panel: str
    dataset: str
    epsilon: float
    scheme: str
    value: float


def _sw_values(dataset) -> np.ndarray:
    """Rescale a normalised dataset from [-1, 1] into SW's [0, 1] domain."""
    return (dataset.values + 1.0) / 2.0


def _sw_poisoned_reports(
    values: np.ndarray, epsilon: float, gamma: float, rng: np.random.Generator
) -> tuple[SquareWaveMechanism, np.ndarray]:
    """One SW collection round with right-side poison at proportion gamma."""
    mechanism = SquareWaveMechanism(epsilon)
    attack = BiasedByzantineAttack(SW_POISON_RANGE, side="right")
    n_byzantine = int(round(values.size * gamma / (1 - gamma)))
    reports = np.concatenate(
        [
            mechanism.perturb(values, rng),
            attack.poison_reports(n_byzantine, mechanism, 0.5, rng).reports,
        ]
    )
    return mechanism, reports


@dataclass
class Fig8DistributionSpec(ExperimentSpec):
    """Panel (a): Wasserstein distance of the reconstructed distribution."""

    values: np.ndarray = field(default_factory=lambda: np.empty(0))
    dataset_name: str = ""

    def evaluate_point(self, point: Mapping, trial_seeds) -> Sequence[Fig8ProbeRecord]:
        rng = np.random.default_rng(int(trial_seeds[0]))
        epsilon = float(point["epsilon"])
        mechanism, reports = _sw_poisoned_reports(
            self.values, epsilon, self.point_gamma(point), rng
        )
        d_in, d_out = default_bucket_counts(reports.size, epsilon)
        transform = build_transform_matrix(
            mechanism, d_in, d_out, side="right", use_cache=True
        )
        counts = transform.output_counts(reports)
        emf = run_emf(transform, counts=counts, epsilon=epsilon)
        emf_star = run_emf_star(
            transform, gamma_hat=emf.gamma_hat, counts=counts, epsilon=epsilon
        )
        cemf_star = run_cemf_star(
            transform, emf_result=emf, counts=counts, epsilon=epsilon
        )
        # ground-truth histogram on the same input grid
        truth_grid = transform.input_grid
        truth = truth_grid.frequencies(self.values)
        # Ostrich: plain EMS on all reports (poison included)
        ostrich_hist, ostrich_grid = mechanism.reconstruct_distribution(
            reports, n_input_buckets=truth_grid.n_buckets
        )
        schemes = {
            "EMF": emf.normalized_normal_histogram(),
            "EMF*": emf_star.normalized_normal_histogram(),
            "CEMF*": cemf_star.normalized_normal_histogram(),
            "Ostrich": ostrich_hist,
        }
        records = []
        for name, histogram in schemes.items():
            grid = truth_grid if name != "Ostrich" else ostrich_grid
            records.append(
                Fig8ProbeRecord(
                    panel="a",
                    dataset=self.dataset_name,
                    epsilon=epsilon,
                    scheme=name,
                    value=wasserstein_distance_histograms(histogram, truth, grid),
                )
            )
        return records


@dataclass
class Fig8GammaSpec(ExperimentSpec):
    """Panel (b): ``|gamma_hat - gamma|`` under SW."""

    values_by_dataset: Dict[str, np.ndarray] = field(default_factory=dict)

    def evaluate_point(self, point: Mapping, trial_seeds) -> Sequence[Fig8ProbeRecord]:
        rng = np.random.default_rng(int(trial_seeds[0]))
        epsilon = float(point["epsilon"])
        gamma = self.point_gamma(point)
        values = self.values_by_dataset[point["dataset"]]
        mechanism, reports = _sw_poisoned_reports(values, epsilon, gamma, rng)
        features = estimate_byzantine_features(mechanism, reports, epsilon=epsilon)
        return [
            Fig8ProbeRecord(
                panel="b",
                dataset=point["dataset"],
                epsilon=epsilon,
                scheme="EMF",
                value=abs(features.gamma_hat - gamma),
            )
        ]


def run_fig8_distribution(
    scale: ExperimentScale = QUICK_SCALE,
    dataset_name: str = "Beta(2,5)",
    epsilons: Sequence[float] = (0.25, 0.5, 1.0, 2.0),
    gamma: float = 0.25,
    rng: RngLike = None,
    n_workers: int | str | None = None,
    store_path=None,
) -> List[Fig8ProbeRecord]:
    """Panel (a): Wasserstein distance of the reconstructed distribution."""
    rng = ensure_rng(rng)
    dataset = load_dataset(dataset_name, n_samples=scale.n_users, rng=rng)
    spec = Fig8DistributionSpec(
        name="fig8a",
        description="Figure 8(a): Wasserstein distance under SW",
        points=[{"epsilon": epsilon} for epsilon in epsilons],
        n_users=scale.n_users,
        n_trials=1,
        gamma=gamma,
        values=_sw_values(dataset),
        dataset_name=dataset_name,
    )
    return run_experiment(spec, rng=rng, n_workers=n_workers, store_path=store_path)


def run_fig8_gamma(
    scale: ExperimentScale = QUICK_SCALE,
    dataset_names: Sequence[str] = ("Beta(2,5)", "Beta(5,2)"),
    epsilons: Sequence[float] = (0.0625, 0.125, 0.25, 0.5, 1.0, 2.0),
    gamma: float = 0.25,
    rng: RngLike = None,
    n_workers: int | str | None = None,
    store_path=None,
) -> List[Fig8ProbeRecord]:
    """Panel (b): ``|gamma_hat - gamma|`` under SW."""
    rng = ensure_rng(rng)
    values_by_dataset = {
        name: _sw_values(load_dataset(name, n_samples=scale.n_users, rng=rng))
        for name in dataset_names
    }
    spec = Fig8GammaSpec(
        name="fig8b",
        description="Figure 8(b): |gamma_hat - gamma| under SW",
        points=[
            {"dataset": name, "epsilon": epsilon}
            for name in dataset_names
            for epsilon in epsilons
        ],
        n_users=scale.n_users,
        n_trials=1,
        gamma=gamma,
        values_by_dataset=values_by_dataset,
    )
    return run_experiment(spec, rng=rng, n_workers=n_workers, store_path=store_path)


@dataclass(frozen=True)
class SWSchemes:
    """SW-DAP variants plus the SW Ostrich / Trimming baselines."""

    epsilon_min: float = 1.0 / 4.0

    def __call__(self, point: Mapping) -> Sequence[Scheme]:
        epsilon = float(point["epsilon"])
        schemes: List[Scheme] = []
        for estimator, label in (
            ("emf", "SW-EMF"),
            ("emf_star", "SW-EMF*"),
            ("cemf_star", "SW-CEMF*"),
        ):
            config = DAPConfig(
                epsilon=epsilon,
                epsilon_min=self.epsilon_min,
                estimator=estimator,
                mechanism_factory=SquareWaveMechanism,
                intra_group_mean="distribution",
            )
            schemes.append(DAPScheme(config, name=label))
        schemes.append(
            make_scheme("Ostrich", epsilon, mechanism_factory=SquareWaveMechanism)
        )
        schemes.append(
            make_scheme("Trimming", epsilon, mechanism_factory=SquareWaveMechanism)
        )
        return schemes


def build_fig8_mse_spec(
    scale: ExperimentScale = QUICK_SCALE,
    dataset_names: Sequence[str] = ("Beta(2,5)", "Beta(5,2)"),
    epsilons: Sequence[float] = PAPER_EPSILONS,
    epsilon_min: float = 1.0 / 4.0,
    rng: RngLike = None,
) -> ExperimentSpec:
    """Build the panels (c)(d) spec: mean-estimation MSE under SW."""
    rng = ensure_rng(rng)
    dataset_cache = {
        name: load_dataset(name, n_samples=scale.n_users, rng=rng)
        for name in dataset_names
    }
    points = [
        {"dataset": name, "epsilon": epsilon}
        for name in dataset_names
        for epsilon in epsilons
    ]
    return ExperimentSpec(
        name="fig8cd",
        description="Figure 8(c)(d): mean-estimation MSE under SW",
        points=points,
        n_users=scale.n_users,
        n_trials=scale.n_trials,
        gamma=scale.gamma,
        scheme_factory=SWSchemes(epsilon_min=epsilon_min),
        attack_factory=FixedAttack(BiasedByzantineAttack(SW_POISON_RANGE, side="right")),
        dataset_factory=DatasetLookup(dataset_cache),
        input_domain=(0.0, 1.0),
    )


def run_fig8_mse(
    scale: ExperimentScale = QUICK_SCALE,
    dataset_names: Sequence[str] = ("Beta(2,5)", "Beta(5,2)"),
    epsilons: Sequence[float] = PAPER_EPSILONS,
    epsilon_min: float = 1.0 / 4.0,
    rng: RngLike = None,
    n_workers: int | str | None = None,
    store_path=None,
) -> List[SweepRecord]:
    """Panels (c)(d): mean-estimation MSE under SW."""
    rng = ensure_rng(rng)
    spec = build_fig8_mse_spec(
        scale,
        dataset_names=dataset_names,
        epsilons=epsilons,
        epsilon_min=epsilon_min,
        rng=rng,
    )
    return run_experiment(spec, rng=rng, n_workers=n_workers, store_path=store_path)


def run_fig8(
    scale: ExperimentScale = QUICK_SCALE,
    rng: RngLike = None,
    n_workers: int | str | None = None,
) -> dict:
    """Run all Figure 8 panels and return them keyed by panel."""
    rng = ensure_rng(rng)
    return {
        "a": run_fig8_distribution(scale, rng=rng, n_workers=n_workers),
        "b": run_fig8_gamma(scale, rng=rng, n_workers=n_workers),
        "cd": run_fig8_mse(scale, rng=rng, n_workers=n_workers),
    }


def format_fig8(results: dict) -> str:
    """Render the three panel groups."""
    blocks = []
    if results.get("a"):
        lines = ["## (a) Wasserstein distance, Beta(2,5) under SW", "epsilon  scheme    distance"]
        for record in results["a"]:
            lines.append(f"{record.epsilon:<8g} {record.scheme:<9} {record.value:.4f}")
        blocks.append("\n".join(lines))
    if results.get("b"):
        lines = ["## (b) |gamma_hat - gamma| under SW", "dataset     epsilon   error"]
        for record in results["b"]:
            lines.append(f"{record.dataset:<11} {record.epsilon:<8g} {record.value:.4f}")
        blocks.append("\n".join(lines))
    if results.get("cd"):
        for dataset in sorted({r.point["dataset"] for r in results["cd"]}):
            panel_records = [r for r in results["cd"] if r.point["dataset"] == dataset]
            table = records_to_table(panel_records, row_key="epsilon")
            blocks.append(
                f"## (c/d) {dataset} under SW (MSE per scheme)\n"
                + format_table(table, row_label="epsilon")
            )
    return "\n\n".join(blocks)


__all__ = [
    "SW_POISON_RANGE",
    "Fig8ProbeRecord",
    "Fig8DistributionSpec",
    "Fig8GammaSpec",
    "SWSchemes",
    "build_fig8_mse_spec",
    "run_fig8",
    "run_fig8_distribution",
    "run_fig8_gamma",
    "run_fig8_mse",
    "format_fig8",
]
