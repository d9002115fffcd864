"""Attack interface.

An attack models what the ``m`` colluding Byzantine users submit to the data
collector.  Because the General Byzantine Attack lets attackers choose *any*
value in the mechanism's output domain, an attack only needs the mechanism
(for its output domain and, for input-manipulation attacks, its perturbation
routine), the collector's reference mean ``O`` (which the attackers are
assumed to know or approximate), and the number of Byzantine users.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.ldp.base import NumericalMechanism
from repro.registry import ATTACKS
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_integer


@dataclass(frozen=True)
class AttackReport:
    """The poison reports produced by one attack invocation.

    Attributes
    ----------
    reports:
        Poison values submitted to the collector, all inside the mechanism's
        output domain.
    poisoned_side:
        ``"right"``, ``"left"`` or ``"both"`` — which side of the reference
        mean the attack targets (used by experiments for bookkeeping only; the
        collector never sees it).
    """

    reports: np.ndarray
    poisoned_side: str = "right"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "reports", np.asarray(self.reports, dtype=float).ravel()
        )
        if self.poisoned_side not in ("left", "right", "both"):
            raise ValueError(
                f"poisoned_side must be 'left', 'right' or 'both', got {self.poisoned_side!r}"
            )

    @property
    def n(self) -> int:
        """Number of poison reports."""
        return int(self.reports.size)


class Attack(abc.ABC):
    """Base class for Byzantine attack strategies."""

    @abc.abstractmethod
    def poison_reports(
        self,
        n_byzantine: int,
        mechanism: NumericalMechanism,
        reference_mean: float = 0.0,
        rng: RngLike = None,
    ) -> AttackReport:
        """Produce the reports the ``n_byzantine`` colluding users submit.

        Parameters
        ----------
        n_byzantine:
            Number of Byzantine users (each submits one report per collection
            round).
        mechanism:
            The LDP mechanism in use — defines the output domain the poison
            values must live in (Definition 2).
        reference_mean:
            The attackers' knowledge of the true mean ``O`` (or the pessimistic
            ``O'``); attacks that bias one side are defined relative to it.
        rng:
            Randomness source.
        """

    def n_poison_reports(self, n_byzantine: int) -> int:
        """How many poison reports ``n_byzantine`` Byzantine users submit.

        One per user for every real attack (the default); degenerate attacks
        that stay silent (:class:`NoAttack`) override this, so the sharded
        collector can size its accumulators — whose expected report counts
        double as consistency checks — without materialising the poison
        first.  Must be additive in ``n_byzantine`` (the collector sums
        per-shard expectations into the group total).
        """
        return self._check_population(n_byzantine)

    def _check_population(self, n_byzantine: int) -> int:
        return check_integer(n_byzantine, "n_byzantine", minimum=0)

    def _clip_to_domain(
        self, reports: np.ndarray, mechanism: NumericalMechanism
    ) -> np.ndarray:
        low, high = mechanism.output_domain
        return np.clip(np.asarray(reports, dtype=float), low, high)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


@ATTACKS.register("none", aliases=("no-attack", "noattack"))
class NoAttack(Attack):
    """Degenerate attack producing zero poison reports.

    Useful as the γ = 0 control in the false-positive experiments
    (Figure 5c) and as a neutral default in the simulation harness.
    """

    def poison_reports(
        self,
        n_byzantine: int,
        mechanism: NumericalMechanism,
        reference_mean: float = 0.0,
        rng: RngLike = None,
    ) -> AttackReport:
        self._check_population(n_byzantine)
        ensure_rng(rng)  # keep RNG consumption consistent across attack types
        return AttackReport(reports=np.empty(0), poisoned_side="right")

    def n_poison_reports(self, n_byzantine: int) -> int:
        """No attack, no reports — whatever the Byzantine head-count."""
        self._check_population(n_byzantine)
        return 0


__all__ = ["Attack", "AttackReport", "NoAttack"]
