"""The protocol contract: which trust model a collection round runs under.

A :class:`ProtocolPlan` is the one object every collection round asks about
its trust model.  It fixes three things:

* ``protocol`` — the trust model, an **identity** knob (it changes the
  distribution of what the server receives):

  - ``"local"`` — the classical local model.  Every report arrives tagged
    with its budget group, delivery passes reports through untouched, and
    the adversary sees the full per-group mechanism family.
  - ``"shuffle"`` — a shuffler sits between clients and server.  Reports
    lose sender→group linkage in transit (a seeded uniform permutation per
    delivery lane), the adversary can no longer aim poison at a specific
    budget group and must stay inside the *intersection* of all group
    output domains, and the server records a privacy-amplification ledger
    mapping each group's local epsilon to a central epsilon
    (:mod:`repro.protocol.amplification`).

* ``contribution_cap`` — the client gate: an upper bound on reports per
  user.  Reports beyond the cap are dropped deterministically before
  perturbation and counted into a ``skipped`` tally.  ``None`` disables
  the gate (the historical behaviour).

* ``shuffle_seed`` — an **execution detail**: it reseeds the shuffler's
  permutation lanes, which provably cannot change any accumulator
  statistic (the sufficient statistics are permutation-invariant), so it
  never enters scenario documents or fingerprints.

The plan applies those rules in the four places a round needs them:
:meth:`~ProtocolPlan.effective_repeats` and
:meth:`~ProtocolPlan.skipped_reports` (the cap), :meth:`~ProtocolPlan.deliver`
(the transport), :meth:`~ProtocolPlan.adversary_view` (what an attack may
aim at) and :meth:`~ProtocolPlan.ledger` (the amplification ledger).

Each shuffled lane draws its permutation from a dedicated
:class:`numpy.random.SeedSequence` namespace, **never** from the round's
main RNG stream, so shuffling consumes no main-stream draws and merges stay
bit-identical at any shard or worker count.  The permutation cannot change
an estimate; it is the physical mixing the amplification ledger is
conditioned on.

Under the shuffle model poison aimed at one group's extreme domain would
land detectably outside other groups' domains once mixed, so a group-blind
adversary constrains poison to the **narrowest** domain on the budget
ladder (the largest epsilon perturbs least, e.g. the Piecewise Mechanism's
``C = (e^{eps/2}+1)/(e^{eps/2}-1)`` shrinks as epsilon grows).  Honest
clients are untouched, so a round with ``NoAttack`` is bit-identical
between the two protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.ldp.base import DomainRestrictedMechanism, NumericalMechanism
from repro.protocol.amplification import DEFAULT_DELTA, amplification_ledger

#: the trust models a collection round can run under (identity axis)
PROTOCOL_NAMES = ("local", "shuffle")

#: SeedSequence namespace separating shuffler lanes from every other stream
SHUFFLER_NAMESPACE = 0x5DAF5_0FF


def check_protocol(name: str) -> str:
    """Validate a protocol name, returning it unchanged.

    Raises
    ------
    KeyError
        If the name is not a registered protocol; the message lists every
        available name (mirrors :meth:`repro.registry.Registry.entry`).
    """
    if name not in PROTOCOL_NAMES:
        raise KeyError(
            f"unknown protocol {name!r}; available protocols: "
            f"{', '.join(PROTOCOL_NAMES)}"
        )
    return name


def check_contribution_cap(cap: int | None) -> int | None:
    """Validate a contribution cap (``None`` or a non-negative integer)."""
    if cap is None:
        return None
    cap = int(cap)
    if cap < 0:
        raise ValueError(f"contribution_cap must be >= 0, got {cap}")
    return cap


def intersection_output_domain(
    mechanisms: Sequence[NumericalMechanism],
) -> tuple[float, float]:
    """The intersection of every mechanism's output domain.

    For the paper's mechanism families the domains are nested (all centred,
    width monotone in epsilon), so the intersection is simply the narrowest
    one; taking max-of-lows / min-of-highs keeps this correct for
    non-nested families too.
    """
    if not mechanisms:
        raise ValueError("need at least one mechanism to intersect domains")
    lows, highs = zip(*(m.output_domain for m in mechanisms))
    low, high = max(lows), min(highs)
    if low > high:
        raise ValueError(
            f"output domains have empty intersection: [{low:.4g}, {high:.4g}]"
        )
    return (float(low), float(high))


@dataclass(frozen=True)
class ProtocolPlan:
    """The immutable contract one collection round is lowered to."""

    protocol: str = "local"
    contribution_cap: int | None = None
    shuffle_seed: int = 0

    def __post_init__(self) -> None:
        check_protocol(self.protocol)
        check_contribution_cap(self.contribution_cap)

    @property
    def is_shuffle(self) -> bool:
        return self.protocol == "shuffle"

    # ------------------------------------------------------------------
    # client: the contribution cap
    # ------------------------------------------------------------------
    def effective_repeats(self, repeats: int) -> int:
        """Apply the client-side contribution cap to a per-user repeat count."""
        if self.contribution_cap is None:
            return int(repeats)
        return min(int(repeats), self.contribution_cap)

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
                size * (int(repeats) - self.effective_repeats(repeats))
                for size, repeats in zip(group_sizes, uncapped_repeats)
            )
        )

    # ------------------------------------------------------------------
    # client: what the adversary may aim at
    # ------------------------------------------------------------------
    def adversary_view(
        self,
        mechanism: NumericalMechanism,
        ladder_mechanisms: Mapping[float, NumericalMechanism] | None = None,
    ) -> NumericalMechanism:
        """The mechanism an attack is allowed to see for one budget group.

        Local protocol: the group's own mechanism.  Shuffle protocol: a
        :class:`~repro.ldp.base.DomainRestrictedMechanism` over the full
        ladder's output-domain intersection, since the adversary cannot
        tell groups apart in transit.
        """
        if not self.is_shuffle or ladder_mechanisms is None:
            return mechanism
        domain = intersection_output_domain(tuple(ladder_mechanisms.values()))
        if domain == tuple(mechanism.output_domain):
            return mechanism
        return DomainRestrictedMechanism(mechanism, domain)

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def deliver(self, reports: np.ndarray, lane: tuple[int, ...]) -> np.ndarray:
        """Carry one delivery lane of reports to the server.

        Local protocol, and lanes of at most one row: ``reports`` itself.
        Shuffle protocol: its rows in a uniform random order, drawn from
        ``SeedSequence([SHUFFLER_NAMESPACE, shuffle_seed, *lane])``.
        """
        if not self.is_shuffle:
            return reports
        n = int(np.asarray(reports).shape[0])
        if n <= 1:
            return reports
        rng = np.random.default_rng(
            np.random.SeedSequence([SHUFFLER_NAMESPACE, int(self.shuffle_seed), *lane])
        )
        return reports[rng.permutation(n)]

    # ------------------------------------------------------------------
    # server
    # ------------------------------------------------------------------
    def ledger(
        self,
        budgets: Sequence[float],
        counts: Sequence[int],
        delta: float = DEFAULT_DELTA,
    ) -> list[dict] | None:
        """Amplification ledger of the groups' budgets and report counts
        (shuffle only; ``None`` under local)."""
        if not self.is_shuffle:
            return None
        return amplification_ledger(budgets, counts, delta)


__all__ = [
    "PROTOCOL_NAMES",
    "ProtocolPlan",
    "SHUFFLER_NAMESPACE",
    "check_contribution_cap",
    "check_protocol",
    "intersection_output_domain",
]
