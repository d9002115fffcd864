"""Figure 9 (a)(b) — comparison against the k-means-based defence.

Panel (a): under a Biased Byzantine Attack on Taxi (Poi [C/2, C], gamma =
0.25), the DAP variants are compared against the k-means defence of Li et al.
for several sampling rates beta; the paper reports k-means MSE in the 1e-7 to
1e-5 range versus ~1e-10 for DAP-EMF*/CEMF*.

Panel (b): under an *input manipulation attack* (Byzantine users honestly
perturb a chosen input g in {-1, 0, 1}), EMF alone cannot help (the reports
are legitimate perturbations), but combining the EMF machinery with the
k-means defence ("EMF-based") improves the k-means estimate by ~30 %.  The
"EMF-based" scheme here follows the paper's sketch: each sampled subset's mean
is computed from an EM reconstruction of the input distribution (gamma pinned
to zero, i.e. no poison columns) instead of the raw report average, and the
2-means majority vote proceeds as usual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence

import numpy as np

from repro.attacks import BiasedByzantineAttack, InputManipulationAttack, PAPER_POISON_RANGES
from repro.attacks.base import Attack
from repro.core.transform import cached_transform_matrix
from repro.datasets import load_dataset
from repro.defenses.kmeans import kmeans_1d
from repro.engine import ExperimentSpec, FixedDataset, PoisonRangeAttack, run_experiment
from repro.experiments.defaults import ExperimentScale, QUICK_SCALE, PAPER_EPSILONS
from repro.ldp.ems import em_reconstruct
from repro.ldp.piecewise import PiecewiseMechanism
from repro.simulation.population import Population
from repro.simulation.schemes import Scheme, make_scheme
from repro.simulation.sweep import SweepRecord, format_table, records_to_table
from repro.utils.histogram import histogram_mean, normalize_histogram
from repro.utils.rng import RngLike, ensure_rng

#: sampling rates of the k-means defence compared in the figure
FIG9_SAMPLING_RATES = (0.1, 0.3, 0.5, 0.7, 0.9)


class EMFKMeansScheme(Scheme):
    """The paper's "EMF-based" integration of EMF with the k-means defence.

    The subset sampling and the 2-means majority vote follow the k-means
    defence unchanged (IMA reports are honest perturbations, so per-subset
    means are already unbiased).  The EMF machinery comes in afterwards: the
    reports of the majority (clean-looking) subsets are pooled and the input
    distribution is reconstructed by EM with the poison mass pinned to zero
    (``gamma_hat = 0``), and the final estimate is the mean of that bounded
    reconstruction.  Constraining the reconstruction to the legal input domain
    is what buys the accuracy gain over averaging raw reports.
    """

    def __init__(
        self,
        epsilon: float,
        sampling_rate: float = 0.1,
        n_subsets: int = 100,
        n_input_buckets: int = 32,
        n_output_buckets: int = 64,
        name: str | None = None,
    ) -> None:
        self.mechanism = PiecewiseMechanism(epsilon)
        self.sampling_rate = sampling_rate
        self.n_subsets = n_subsets
        self.n_input_buckets = n_input_buckets
        self.n_output_buckets = n_output_buckets
        self.name = name or f"EMF-based(beta={sampling_rate:g})"
        self._transform = cached_transform_matrix(
            self.mechanism, n_input_buckets, n_output_buckets, side="right"
        )

    def _reconstructed_mean(self, reports: np.ndarray) -> float:
        counts = self._transform.output_grid.counts(reports)
        # plain EM reconstruction over the normal block only (gamma = 0)
        result = em_reconstruct(
            self._transform.normal_block, counts, tol=1e-6, max_iter=2_000
        )
        histogram = normalize_histogram(result.weights)
        return histogram_mean(histogram, self._transform.input_grid.centers)

    def estimate(
        self, population: Population, attack: Attack | None, rng: RngLike = None
    ) -> float:
        rng = ensure_rng(rng)
        normal_reports = self.mechanism.perturb(population.normal_values, rng)
        poison_reports = (
            attack.poison_reports(population.n_byzantine, self.mechanism, 0.0, rng).reports
            if attack is not None
            else np.empty(0)
        )
        reports = np.concatenate([normal_reports, poison_reports])
        n = reports.size
        subset_size = max(1, int(round(n * self.sampling_rate)))
        subset_means = np.empty(self.n_subsets)
        subset_indices = []
        for i in range(self.n_subsets):
            idx = rng.integers(0, n, size=subset_size)
            subset_indices.append(idx)
            subset_means[i] = reports[idx].mean()
        labels, _centers = kmeans_1d(subset_means, n_clusters=2, rng=rng)
        counts = np.bincount(labels, minlength=2)
        majority = int(np.argmax(counts))
        kept = np.unique(
            np.concatenate([subset_indices[i] for i in range(self.n_subsets) if labels[i] == majority])
        )
        low, high = self.mechanism.input_domain
        return float(np.clip(self._reconstructed_mean(reports[kept]), low, high))


@dataclass(frozen=True)
class Fig9BBASchemes:
    """Panel (a): DAP variants vs k-means at several sampling rates."""

    sampling_rates: tuple
    epsilon_min: float = 1.0 / 16.0

    def __call__(self, point: Mapping) -> Sequence[Scheme]:
        epsilon = float(point["epsilon"])
        schemes = [
            make_scheme("DAP-EMF", epsilon, epsilon_min=self.epsilon_min),
            make_scheme("DAP-EMF*", epsilon, epsilon_min=self.epsilon_min),
            make_scheme("DAP-CEMF*", epsilon, epsilon_min=self.epsilon_min),
        ]
        for rate in self.sampling_rates:
            schemes.append(
                make_scheme(
                    "K-means",
                    epsilon,
                    sampling_rate=rate,
                    n_subsets=100,
                    label=f"K-means(beta={rate:g})",
                )
            )
        return schemes


@dataclass(frozen=True)
class Fig9IMASchemes:
    """Panel (b): EMF-based vs plain k-means at the point's sampling rate."""

    def __call__(self, point: Mapping) -> Sequence[Scheme]:
        rate = float(point["sampling_rate"])
        epsilon = float(point["epsilon"])
        return [
            EMFKMeansScheme(epsilon, sampling_rate=rate),
            make_scheme(
                "K-means",
                epsilon,
                sampling_rate=rate,
                n_subsets=100,
                label=f"K-means(beta={rate:g})",
            ),
        ]


@dataclass(frozen=True)
class Fig9IMAAttack:
    """Input manipulation towards the point's chosen input ``g``."""

    def __call__(self, point: Mapping) -> Attack:
        return InputManipulationAttack(point["g"])


def run_fig9_defense_comparison(
    scale: ExperimentScale = QUICK_SCALE,
    epsilons: Sequence[float] = PAPER_EPSILONS,
    sampling_rates: Sequence[float] = (0.1, 0.5, 0.9),
    poison_range: str = "[C/2,C]",
    dataset_name: str = "Taxi",
    include_ima_panel: bool = True,
    ima_inputs: Sequence[float] = (-1.0, 0.0, 1.0),
    ima_epsilon: float = 1.0,
    rng: RngLike = None,
    n_workers: int | str | None = None,
    store_paths: Mapping[str, str] | None = None,
) -> List[SweepRecord]:
    """Regenerate Figure 9 (a) and optionally (b).

    The two panels are two experiment specs, and one run artifact holds one
    spec, so ``store_paths`` maps a panel (``"a"``, ``"b"``) to its own
    artifact; a panel it does not name is not stored.
    """
    rng = ensure_rng(rng)
    store_paths = store_paths or {}
    dataset = load_dataset(dataset_name, n_samples=scale.n_users, rng=rng)

    # ---- panel (a): BBA, DAP vs k-means over epsilon -------------------------
    spec_a = ExperimentSpec(
        name="fig9a",
        description="Figure 9(a): DAP vs k-means defence under BBA",
        points=[
            {"panel": "a", "epsilon": epsilon, "poison_range": poison_range}
            for epsilon in epsilons
        ],
        n_users=scale.n_users,
        n_trials=scale.n_trials,
        gamma=scale.gamma,
        scheme_factory=Fig9BBASchemes(tuple(sampling_rates)),
        attack_factory=PoisonRangeAttack(),
        dataset_factory=FixedDataset(dataset),
    )
    records = run_experiment(
        spec_a, rng=rng, n_workers=n_workers, store_path=store_paths.get("a")
    )

    # ---- panel (b): IMA, EMF-based vs plain k-means over beta ----------------
    if include_ima_panel:
        spec_b = ExperimentSpec(
            name="fig9b",
            description="Figure 9(b): EMF-based vs k-means under IMA",
            points=[
                {"panel": "b", "sampling_rate": rate, "g": g, "epsilon": ima_epsilon}
                for rate in sampling_rates
                for g in ima_inputs
            ],
            n_users=scale.n_users,
            n_trials=scale.n_trials,
            gamma=scale.gamma,
            scheme_factory=Fig9IMASchemes(),
            attack_factory=Fig9IMAAttack(),
            dataset_factory=FixedDataset(dataset),
        )
        records += run_experiment(
            spec_b, rng=rng, n_workers=n_workers, store_path=store_paths.get("b")
        )
    return records


def format_fig9_defense_comparison(records: Sequence[SweepRecord]) -> str:
    """Render the (a) epsilon sweep and the (b) sampling-rate sweep."""
    blocks = []
    panel_a = [r for r in records if r.point.get("panel") == "a"]
    if panel_a:
        table = records_to_table(panel_a, row_key="epsilon")
        blocks.append(
            "## (a) Taxi, Poi[C/2,C], BBA: DAP vs k-means defence (MSE)\n"
            + format_table(table, row_label="epsilon")
        )
    panel_b = [r for r in records if r.point.get("panel") == "b"]
    if panel_b:
        for g in sorted({r.point["g"] for r in panel_b}):
            g_records = [r for r in panel_b if r.point["g"] == g]
            table = records_to_table(g_records, row_key="sampling_rate")
            blocks.append(
                f"## (b) Taxi, IMA g={g:g}: EMF-based vs k-means (MSE)\n"
                + format_table(table, row_label="beta")
            )
    return "\n\n".join(blocks)


__all__ = [
    "EMFKMeansScheme",
    "Fig9BBASchemes",
    "Fig9IMASchemes",
    "run_fig9_defense_comparison",
    "format_fig9_defense_comparison",
    "FIG9_SAMPLING_RATES",
]
