"""Privacy-amplification accounting for the shuffle model.

Maps each budget group's *local* epsilon to the *central* epsilon its
shuffled batch satisfies, using the Feldman–McMillan–Talwar style closed
form: shuffling ``n`` reports that are each ``eps_l``-LDP yields an
``(eps_c, delta)``-centrally-DP batch with

    eps_c = log(1 + (e^{eps_l} - 1) * (4 * sqrt(2 * log(4/delta) / ((e^{eps_l} + 1) * n)) + 4 / n))

The theorem ("Hiding Among the Clones", FOCS 2021) states this bound only
for ``eps_l <= log(n / (16 * log(2/delta)))``.  Outside that range, and
wherever the closed form does not improve on ``eps_l``, the local epsilon is
the bound that holds and is reported unchanged; each ledger row names the
bound it reports (``"closed-form"`` or ``"local"``).  The per-group ledger
rows are recorded in :class:`repro.core.dap.DAPResult` and a
population-level summary lands in ``meta.execution`` next to the other
runtime details.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

#: default amplification failure probability
DEFAULT_DELTA = 1e-6


def amplified_epsilon(epsilon_local: float, n: int, delta: float = DEFAULT_DELTA) -> float:
    """Central epsilon for ``n`` shuffled ``epsilon_local``-LDP reports."""
    epsilon_local = float(epsilon_local)
    n = int(n)
    if epsilon_local < 0:
        raise ValueError(f"epsilon_local must be >= 0, got {epsilon_local}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if n <= 0 or epsilon_local > math.log(n / (16.0 * math.log(2.0 / delta))):
        return epsilon_local
    spread = 4.0 * math.sqrt(
        2.0 * math.log(4.0 / delta) / ((math.exp(epsilon_local) + 1.0) * n)
    ) + 4.0 / n
    bound = math.log1p(math.expm1(epsilon_local) * spread)
    return min(epsilon_local, bound)


def amplification_ledger(
    group_budgets: Sequence[float],
    group_counts: Sequence[int],
    delta: float = DEFAULT_DELTA,
) -> list[dict]:
    """One ledger row per budget group: local → central epsilon.

    ``group_counts`` are *report* counts (after per-user repeats and the
    contribution cap), since each shuffled batch is a batch of reports.
    """
    if len(group_budgets) != len(group_counts):
        raise ValueError(
            f"ledger needs one count per budget, got {len(group_budgets)} "
            f"budgets and {len(group_counts)} counts"
        )
    ledger = []
    for epsilon_local, n_reports in zip(group_budgets, group_counts):
        epsilon_local = float(epsilon_local)
        n_reports = int(n_reports)
        epsilon_central = amplified_epsilon(epsilon_local, n_reports, delta)
        ledger.append(
            {
                "epsilon_local": epsilon_local,
                "n_reports": n_reports,
                "delta": float(delta),
                "epsilon_central": epsilon_central,
                "bound": "closed-form" if epsilon_central < epsilon_local else "local",
                "amplification_factor": (
                    epsilon_local / epsilon_central if epsilon_central > 0 else 1.0
                ),
            }
        )
    return ledger


def ledger_summary(ledger: Sequence[Mapping[str, float]]) -> dict:
    """Population-level roll-up of a ledger for ``meta.execution``."""
    if not ledger:
        return {"n_groups": 0}
    return {
        "n_groups": len(ledger),
        "delta": float(ledger[0]["delta"]),
        "epsilon_local_max": max(float(row["epsilon_local"]) for row in ledger),
        "epsilon_central_max": max(float(row["epsilon_central"]) for row in ledger),
        "amplification_factor_min": min(
            float(row["amplification_factor"]) for row in ledger
        ),
        "amplification_factor_max": max(
            float(row["amplification_factor"]) for row in ledger
        ),
    }


__all__ = [
    "DEFAULT_DELTA",
    "amplification_ledger",
    "amplified_epsilon",
    "ledger_summary",
]
