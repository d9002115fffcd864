"""Continuous-service runtime: windowed streaming aggregation.

The batch pipeline answers "what is the mean of this population, once?".
This package answers the production question: users keep arriving, the
collector keeps a running estimate, an attack may switch on mid-stream, and
the process must survive being killed.  See :mod:`repro.service.runtime`
for the full design notes.
"""

from repro.service.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointChain,
    QUARANTINE_SUFFIX,
    load_checkpoint,
    payload_checksum,
    write_checkpoint,
)
from repro.service.detector import CusumDetector
from repro.service.runtime import (
    ServiceResult,
    WindowResult,
    WindowedAggregationService,
    format_window,
    run_service,
)
from repro.service.spec import DEFAULT_DETECTOR, ServiceSpec

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointChain",
    "QUARANTINE_SUFFIX",
    "payload_checksum",
    "CusumDetector",
    "DEFAULT_DETECTOR",
    "ServiceResult",
    "ServiceSpec",
    "WindowResult",
    "WindowedAggregationService",
    "format_window",
    "load_checkpoint",
    "run_service",
    "write_checkpoint",
]
