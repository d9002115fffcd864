"""Transport stage: identity pass-through (local) or a seeded shuffler.

The shuffler applies a uniform random permutation to each delivery lane (a
batch of reports travelling together: one group×block of a sharded
collection round).  Its RNG is derived from a dedicated
:class:`numpy.random.SeedSequence` namespace, **never** from the round's
main RNG stream, so enabling the shuffler does not consume main-stream
draws — the sharded path's block-seed contract is untouched and merges
stay bit-identical at any shard/worker count.

Because every accumulator folds reports into permutation-invariant
sufficient statistics (exact compensated sums, histogram counts, sketch
counters), the permutation itself cannot change any estimate; what changes
under the shuffle model is what the *adversary* can see (see
:mod:`repro.protocol.client`).  The permutation is still applied — it is
the physical mixing the amplification ledger is conditioned on, and the
property tests assert the statistics are invariant to ``shuffle_seed``.
"""

from __future__ import annotations

import numpy as np

#: SeedSequence namespace separating shuffler lanes from every other stream
SHUFFLER_NAMESPACE = 0x5DAF5_0FF

class IdentityTransport:
    """The local model's transport: reports pass through untouched."""

    is_shuffler = False

    def deliver(self, reports: np.ndarray, lane: tuple[int, ...]) -> np.ndarray:
        return reports


class Shuffler:
    """Seeded uniform permutation per delivery lane.

    Parameters
    ----------
    shuffle_seed:
        Execution-detail reseed of the permutation lanes (default 0).
    """

    is_shuffler = True

    def __init__(self, shuffle_seed: int = 0) -> None:
        self.shuffle_seed = int(shuffle_seed)

    def lane_rng(self, lane: tuple[int, ...]) -> np.random.Generator:
        """The dedicated RNG for one delivery lane."""
        return np.random.default_rng(
            np.random.SeedSequence([SHUFFLER_NAMESPACE, self.shuffle_seed, *lane])
        )

    def deliver(self, reports: np.ndarray, lane: tuple[int, ...]) -> np.ndarray:
        """Break sender ordering within a lane with a uniform permutation."""
        n = int(np.asarray(reports).shape[0])
        if n <= 1:
            return reports
        return reports[self.lane_rng(lane).permutation(n)]


def make_transport(is_shuffle: bool, shuffle_seed: int = 0):
    return Shuffler(shuffle_seed) if is_shuffle else IdentityTransport()


__all__ = ["IdentityTransport", "SHUFFLER_NAMESPACE", "Shuffler", "make_transport"]
