"""The client → transport → server pipeline the collection paths lower to.

Every collection round in the repo — ``DAPProtocol``, ``FrequencyDAP``,
``SketchFrequencyDAP`` (all block-seeded and sharded), and the windowed
service runtime on top of them — is the same three-stage pipeline run over
different batch shapes:

1. **client** — each user perturbs through their group's mechanism;
   compromised users hand their slots to the attack; a contribution cap
   drops reports beyond the per-user limit *before* perturbation, counted
   into a deterministic ``skipped`` tally.
2. **transport** — identity pass-through (local) or the seeded
   :class:`~repro.protocol.transport.Shuffler` (shuffle), applied per
   delivery lane so it composes with shard blocks.
3. **server** — accumulator folding plus the estimation stages; under the
   shuffle protocol the server also writes the amplification ledger.

:class:`ProtocolPipeline` is a stateless bundle of those stage helpers,
instantiated from a :class:`~repro.protocol.plan.ProtocolPlan`.  It is
deliberately cheap to construct (the shard workers build one per task) and
holds no RNG state of its own — the shuffler derives per-lane seeds from a
dedicated namespace, so the main RNG contract of every path is preserved
bit-for-bit.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.ldp.base import NumericalMechanism

from repro.protocol.amplification import (
    DEFAULT_DELTA,
    amplification_ledger,
    ledger_summary,
)
from repro.protocol.client import adversary_view
from repro.protocol.plan import ProtocolPlan
from repro.protocol.transport import make_transport


class ProtocolPipeline:
    """Stage helpers for one collection round under a protocol plan."""

    def __init__(self, plan: ProtocolPlan) -> None:
        self.plan = plan
        self.transport = make_transport(plan.is_shuffle, plan.shuffle_seed)

    # ------------------------------------------------------------------
    # client stage
    # ------------------------------------------------------------------
    def client_repeats(self, repeats: int) -> int:
        """Reports each user actually sends (contribution cap applied)."""
        return self.plan.effective_repeats(repeats)

    def adversary_view(
        self,
        mechanism: NumericalMechanism,
        ladder_mechanisms: Mapping[float, NumericalMechanism] | None = None,
    ) -> NumericalMechanism:
        """The mechanism view the attack stage receives for one group."""
        return adversary_view(mechanism, self.plan, ladder_mechanisms)

    def skipped_reports(
        self, group_sizes: Sequence[int], uncapped_repeats: Sequence[int]
    ) -> int:
        """Deterministic tally of reports dropped by the contribution cap.

        Group head-counts are deterministic given the population size (the
        nearly-equal split), so the tally needs no cross-process state:
        ``sum(size_t * (uncapped_t - capped_t))``.
        """
        return int(
            sum(
                size * (int(repeats) - self.client_repeats(repeats))
                for size, repeats in zip(group_sizes, uncapped_repeats)
            )
        )

    # ------------------------------------------------------------------
    # transport stage
    # ------------------------------------------------------------------
    def deliver(self, reports: np.ndarray, lane: tuple[int, ...]) -> np.ndarray:
        """Run one delivery lane through the transport."""
        return self.transport.deliver(reports, lane)

    # ------------------------------------------------------------------
    # server stage
    # ------------------------------------------------------------------
    def ledger(
        self,
        group_budgets: Sequence[float],
        group_report_counts: Sequence[int],
        delta: float = DEFAULT_DELTA,
    ) -> list[dict] | None:
        """Amplification ledger (shuffle only; ``None`` under local)."""
        if not self.plan.is_shuffle:
            return None
        return amplification_ledger(group_budgets, group_report_counts, delta)

    @staticmethod
    def ledger_summary(ledger: Sequence[Mapping[str, float]] | None) -> dict | None:
        return None if ledger is None else ledger_summary(ledger)


__all__ = ["ProtocolPipeline"]
