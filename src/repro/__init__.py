"""repro — reproduction of "Differential Aggregation against General Colluding
Attackers" (ICDE 2023).

The package implements collusion-robust mean and frequency estimation under
Local Differential Privacy:

* :mod:`repro.ldp` — LDP perturbation mechanisms (Piecewise, Square Wave,
  Duchi, Hybrid, Laplace, k-RR, OUE, OLH) and budget accounting;
* :mod:`repro.attacks` — the General / Biased Byzantine threat models, input
  manipulation and evasion attacks;
* :mod:`repro.defenses` — the baselines DAP is compared against (Ostrich,
  Trimming, k-means defence, boxplot, isolation forest);
* :mod:`repro.core` — the paper's contribution: the EMF family of
  reconstruction filters, Byzantine feature probing and the multi-group
  Differential Aggregation Protocol;
* :mod:`repro.collect` — mergeable sufficient-statistics accumulators and
  the block-seeded shard plans behind every protocol's ``collect_sharded``,
  the one collection path (a worker holds one leaf of at most 2^15 reports
  under the fast backend and the local protocol, else one seed block);
* :mod:`repro.datasets` — the evaluation datasets (synthetic Beta draws and
  offline substitutes for Taxi, Retirement and COVID-19);
* :mod:`repro.simulation` / :mod:`repro.experiments` — the experiment harness
  regenerating every table and figure of the paper;
* :mod:`repro.registry` / :mod:`repro.scenario` — named-component registries
  and the declarative scenario layer behind the ``python -m repro`` CLI,
  which runs any attack x defense x epsilon x dataset grid through the
  parallel engine.

Quickstart::

    import numpy as np
    from repro import DAPConfig, DAPProtocol
    from repro.attacks import BiasedByzantineAttack, PAPER_POISON_RANGES
    from repro.datasets import taxi_dataset

    data = taxi_dataset(n_samples=20_000, rng=0)
    attack = BiasedByzantineAttack(PAPER_POISON_RANGES["[C/2,C]"])
    protocol = DAPProtocol(DAPConfig(epsilon=1.0))
    result = protocol.run(data.values, attack, n_byzantine=5_000, rng=1)
    print(result.estimate, data.true_mean)
"""

from repro.core import (
    BaselineProtocol,
    DAPConfig,
    DAPProtocol,
    DAPResult,
    FrequencyDAP,
    run_emf,
    run_emf_star,
    run_cemf_star,
    estimate_byzantine_features,
)
from repro.collect import GroupAccumulator, GroupStats
from repro.ldp import PiecewiseMechanism, SquareWaveMechanism, KRandomizedResponse
from repro.scenario import ScenarioSpec, run_scenario

__version__ = "1.3.0"

__all__ = [
    "BaselineProtocol",
    "DAPConfig",
    "DAPProtocol",
    "DAPResult",
    "FrequencyDAP",
    "run_emf",
    "run_emf_star",
    "run_cemf_star",
    "estimate_byzantine_features",
    "GroupAccumulator",
    "GroupStats",
    "PiecewiseMechanism",
    "SquareWaveMechanism",
    "KRandomizedResponse",
    "ScenarioSpec",
    "run_scenario",
    "__version__",
]
