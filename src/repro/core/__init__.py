"""The paper's primary contribution: EMF probing and the DAP protocol.

Layered bottom-up:

* :mod:`repro.core.transform` — the transform matrix ``M`` of Figure 2, built
  from any numerical mechanism's analytic transition probabilities.
* :mod:`repro.core.emf` — the Expectation-Maximization Filter (Algorithm 2).
* :mod:`repro.core.emf_star` / :mod:`repro.core.cemf_star` — the EMF* and
  CEMF* post-processing schemes (Algorithm 4, Theorems 4-5).
* :mod:`repro.core.probing` — poisoned-side probing (Algorithm 3).
* :mod:`repro.core.features` — Byzantine feature estimation (population share,
  side, poison histogram and poison mean).
* :mod:`repro.core.initialization` — the pessimistic mean ``O'`` (Theorem 2).
* :mod:`repro.core.mean_estimation` — poison-corrected mean estimation
  (Equations 12-13).
* :mod:`repro.core.baseline_protocol` — the two-budget baseline protocol
  (Section IV).
* :mod:`repro.core.aggregation` — optimal inter-group aggregation
  (Algorithm 5, Theorem 6).
* :mod:`repro.core.dap` — the full multi-group Differential Aggregation
  Protocol (Section V).
* :mod:`repro.core.frequency` — the categorical / frequency-estimation
  extension (Section V-D).
* :mod:`repro.core.sketch_frequency` — the count-sketch high-cardinality
  frequency route (heavy-hitter probing over 10^5–10^6-category domains).
"""

from repro.core.transform import TransformMatrix, build_transform_matrix, default_bucket_counts
from repro.core.emf import EMFResult, run_emf
from repro.core.emf_star import run_emf_star
from repro.core.cemf_star import run_cemf_star, suppression_mask
from repro.core.probing import SideProbeResult, probe_poisoned_side
from repro.core.features import ByzantineFeatures, estimate_byzantine_features
from repro.core.initialization import pessimistic_mean
from repro.core.mean_estimation import (
    corrected_mean,
    corrected_mean_from_stats,
    plain_mean,
)
from repro.core.baseline_protocol import BaselineProtocol, BaselineResult
from repro.core.aggregation import aggregation_weights, aggregate_means, worst_case_group_variance
from repro.core.dap import DAPProtocol, DAPConfig, DAPResult, GroupEstimate
from repro.core.frequency import FrequencyDAP, FrequencyDAPResult
from repro.core.sketch_frequency import SketchFrequencyDAP, SketchFrequencyDAPResult

__all__ = [
    "TransformMatrix",
    "build_transform_matrix",
    "default_bucket_counts",
    "EMFResult",
    "run_emf",
    "run_emf_star",
    "run_cemf_star",
    "suppression_mask",
    "SideProbeResult",
    "probe_poisoned_side",
    "ByzantineFeatures",
    "estimate_byzantine_features",
    "pessimistic_mean",
    "corrected_mean",
    "corrected_mean_from_stats",
    "plain_mean",
    "BaselineProtocol",
    "BaselineResult",
    "aggregation_weights",
    "aggregate_means",
    "worst_case_group_variance",
    "DAPProtocol",
    "DAPConfig",
    "DAPResult",
    "GroupEstimate",
    "FrequencyDAP",
    "FrequencyDAPResult",
    "SketchFrequencyDAP",
    "SketchFrequencyDAPResult",
]
