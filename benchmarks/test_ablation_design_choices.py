"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not a paper figure — these quantify how much each design ingredient of DAP
contributes:

* the EMF -> EMF* -> CEMF* ladder (the paper's own ablation, Figure 6);
* the number of groups (choice of epsilon_0);
* the minimum-variance aggregation weights of Theorem 6 vs equal weights;
* the CEMF* suppression threshold.
"""

import numpy as np

from repro.attacks import BiasedByzantineAttack, PAPER_POISON_RANGES
from repro.core.aggregation import aggregate_means
from repro.core.dap import DAPConfig, DAPProtocol
from repro.datasets import taxi_dataset
from repro.estimators import mean_squared_error

ATTACK = BiasedByzantineAttack(PAPER_POISON_RANGES["[C/2,C]"])
N_NORMAL = 9_000
N_BYZ = 3_000
EPSILON = 1.0


def _dataset():
    return taxi_dataset(n_samples=N_NORMAL, rng=5)


def _run(config, dataset, seeds=(1, 2)):
    estimates = []
    for seed in seeds:
        result = DAPProtocol(config).run(dataset.values, ATTACK, N_BYZ, rng=seed)
        estimates.append(result.estimate)
    return mean_squared_error(estimates, dataset.true_mean)


def test_ablation_estimator_ladder(benchmark):
    """EMF* / CEMF* should not be worse than plain EMF (usually much better)."""
    dataset = _dataset()

    def run_all():
        return {
            estimator: _run(
                DAPConfig(epsilon=EPSILON, epsilon_min=1 / 16, estimator=estimator),
                dataset,
            )
            for estimator in ("emf", "emf_star", "cemf_star")
        }

    mse = benchmark(run_all)
    print("\nestimator ablation (MSE):", {k: f"{v:.2e}" for k, v in mse.items()})
    assert min(mse["emf_star"], mse["cemf_star"]) <= mse["emf"] * 1.5


def test_ablation_group_count(benchmark):
    """More groups (smaller epsilon_0) should not catastrophically hurt accuracy.

    The extra groups probe gamma more accurately while the weighting keeps the
    noisy small-budget groups from dominating.
    """
    dataset = _dataset()

    def run_all():
        return {
            epsilon_min: _run(
                DAPConfig(epsilon=EPSILON, epsilon_min=epsilon_min, estimator="emf_star"),
                dataset,
            )
            for epsilon_min in (1.0, 1 / 4, 1 / 16)
        }

    mse = benchmark(run_all)
    print("\ngroup-count ablation (MSE):", {k: f"{v:.2e}" for k, v in mse.items()})
    # multi-group DAP (the paper's design) beats the single-group degenerate
    # case, which cannot probe gamma at a small budget
    assert min(mse[1 / 4], mse[1 / 16]) < mse[1.0] * 2


def test_ablation_aggregation_weights(benchmark):
    """Theorem 6 weights vs equal weights over the same group estimates."""
    dataset = _dataset()
    config = DAPConfig(epsilon=EPSILON, epsilon_min=1 / 16, estimator="emf_star")

    def run_both():
        optimal, equal = [], []
        for seed in (3, 4):
            result = DAPProtocol(config).run(dataset.values, ATTACK, N_BYZ, rng=seed)
            optimal.append(result.estimate)
            means = [g.mean for g in result.group_estimates]
            equal.append(aggregate_means(means, np.ones(len(means))))
        return (
            mean_squared_error(optimal, dataset.true_mean),
            mean_squared_error(equal, dataset.true_mean),
        )

    optimal_mse, equal_mse = benchmark(run_both)
    print(f"\nweights ablation: optimal={optimal_mse:.2e} equal={equal_mse:.2e}")
    assert optimal_mse < equal_mse


def test_ablation_suppression_threshold(benchmark):
    """CEMF* suppression factor: the default 0.5 should be competitive."""
    dataset = _dataset()

    def run_all():
        return {
            factor: _run(
                DAPConfig(
                    epsilon=EPSILON,
                    epsilon_min=1 / 16,
                    estimator="cemf_star",
                    suppression_factor=factor,
                ),
                dataset,
                seeds=(7,),
            )
            for factor in (0.1, 0.5, 1.0)
        }

    mse = benchmark(run_all)
    print("\nsuppression-threshold ablation (MSE):", {k: f"{v:.2e}" for k, v in mse.items()})
    # the threshold is not a cliff: every setting keeps the estimate usable
    # (single-trial MSEs fluctuate too much to rank the factors reliably here)
    assert all(value < 0.05 for value in mse.values())
