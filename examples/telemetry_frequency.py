"""Scenario: poisoned categorical telemetry (frequency estimation with k-RR).

A health agency collects a categorical attribute (age group of a reported
case) under LDP with k-RR, mirroring the paper's COVID-19 experiment
(Figure 9 c/d).  A botnet injects reports for a few chosen age groups to
distort the published histogram.  The script compares the undefended k-RR
estimator with the frequency-estimation extension of DAP, which probes the
poisoned categories and removes their collective contribution.

Run with::

    python examples/telemetry_frequency.py
"""

from __future__ import annotations

import numpy as np

from repro.core.frequency import FrequencyDAP, ostrich_frequencies
from repro.datasets import covid_dataset
from repro.datasets.covid import AGE_GROUP_LABELS
from repro.estimators import frequency_mse
from repro.ldp import KRandomizedResponse


def main() -> None:
    rng = np.random.default_rng(11)
    epsilon = 1.0
    n_normal, n_byzantine = 40_000, 10_000
    poisoned_groups = (2, 3)  # the attackers inflate two rare age groups

    dataset = covid_dataset(n_samples=n_normal, rng=rng)
    truth = dataset.true_frequencies

    # one collection round — dap.run() is exactly these first two steps —
    # scored by both the defended and the undefended estimator
    dap = FrequencyDAP(epsilon, dataset.n_categories)
    counts = dap.collect_sharded(
        dataset.categories, poisoned_groups, n_byzantine, rng=rng
    )
    defended = dap.estimate_from_counts(counts)

    mechanism = KRandomizedResponse(epsilon, dataset.n_categories)
    reports = np.repeat(np.arange(dataset.n_categories), counts.counts)
    undefended = ostrich_frequencies(mechanism, reports)

    print(f"{'age group':<16} {'true':>8} {'ostrich':>8} {'DAP':>8}")
    for index, label in enumerate(AGE_GROUP_LABELS):
        marker = " <- poisoned" if index in poisoned_groups else ""
        print(
            f"{label:<16} {truth[index]:8.4f} {undefended[index]:8.4f} "
            f"{defended.frequencies[index]:8.4f}{marker}"
        )

    print(
        f"\nprobed poisoned categories: {defended.poisoned_categories} "
        f"(gamma_hat={defended.gamma_hat:.3f})"
    )
    print(f"frequency MSE, Ostrich: {frequency_mse(undefended, truth):.2e}")
    print(f"frequency MSE, DAP    : {frequency_mse(defended.frequencies, truth):.2e}")


if __name__ == "__main__":
    main()
