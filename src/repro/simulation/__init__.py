"""Experiment harness: user populations, estimation schemes, trials and sweeps.

The harness glues the substrates together so each paper figure reduces to a
handful of calls:

* :mod:`repro.simulation.population` — build (normal, Byzantine) user splits
  from a dataset and an attack proportion;
* :mod:`repro.simulation.schemes` — a uniform ``Scheme`` interface wrapping
  the three DAP variants and every baseline defence;
* :mod:`repro.simulation.runner` — run repeated trials and compute MSE;
* :mod:`repro.simulation.sweep` — the tidy per-(point, scheme) result
  records and their tables.
"""

from repro.simulation.population import (
    Population,
    build_population,
    population_counts,
)
from repro.simulation.schemes import (
    Scheme,
    DAPScheme,
    SingleRoundScheme,
    BaselineProtocolScheme,
    make_scheme,
    scheme_from_spec,
    resolve_mechanism,
    PAPER_SCHEMES,
)
from repro.simulation.runner import TrialResult, run_trials
from repro.simulation.sweep import SweepRecord, records_to_table

__all__ = [
    "Population",
    "build_population",
    "population_counts",
    "Scheme",
    "DAPScheme",
    "SingleRoundScheme",
    "BaselineProtocolScheme",
    "make_scheme",
    "scheme_from_spec",
    "resolve_mechanism",
    "PAPER_SCHEMES",
    "TrialResult",
    "run_trials",
    "SweepRecord",
    "records_to_table",
]
