"""Raw per-group DAP reports for tests, drawn with the client-stage helpers.

A collection round never materialises its reports, so tests that need raw
report arrays (chunk invariance, output-domain checks) draw them directly
from the same client-stage kernels the shard workers run:
:func:`repro.collect.round._client_perturb` and :func:`repro.core.dap._client_poison`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from repro.collect.round import _client_perturb
from repro.core.dap import DAPProtocol, _client_poison


@dataclass
class GroupReports:
    """One budget group's raw reports (normal first, then poison)."""

    epsilon: float
    reports: np.ndarray
    n_users: int

    @property
    def n_reports(self) -> int:
        return int(self.reports.size)


def chunk_array(values: np.ndarray, size: int) -> Iterator[np.ndarray]:
    """Yield consecutive views of ``values`` of at most ``size`` entries."""
    values = np.asarray(values)
    for start in range(0, values.shape[0], size):
        yield values[start : start + size]


def group_reports(
    protocol: DAPProtocol,
    normal_values: np.ndarray,
    attack,
    n_byzantine: int,
    rng: np.random.Generator,
) -> List[GroupReports]:
    """Split users over the ladder and draw every group's reports.

    Normal and Byzantine users are each spread over the groups in contiguous
    nearly-equal runs; each group then perturbs and poisons exactly as a
    shard worker does, against the protocol's adversary view.
    """
    ladder = protocol.config.budget_ladder
    values = np.array_split(np.asarray(normal_values, dtype=float), len(ladder))
    byzantine = [part.size for part in np.array_split(np.arange(n_byzantine), len(ladder))]
    groups = []
    for epsilon, group_values, n_byz in zip(ladder, values, byzantine):
        repeats = protocol._reports_per_user(epsilon)
        view = protocol.adversary_mechanism(epsilon)
        pieces = [
            _client_perturb(protocol.mechanism_for(epsilon), group_values, repeats, rng),
            _client_poison(
                attack, view, n_byz * repeats, protocol._reference_mean(view), rng
            ),
        ]
        groups.append(
            GroupReports(epsilon, np.concatenate(pieces), group_values.size + n_byz)
        )
    return groups


def accumulate(protocol: DAPProtocol, groups: List[GroupReports], size: int):
    """Fold each group's reports into its accumulator ``size`` at a time."""
    accumulators = []
    for group in groups:
        accumulator = protocol.group_accumulator(
            group.epsilon, group.n_reports, n_users=group.n_users
        )
        accumulator.update_stream(chunk_array(group.reports, size))
        accumulators.append(accumulator)
    return accumulators
