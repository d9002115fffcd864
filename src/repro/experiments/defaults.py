"""Shared experiment scale settings.

The paper runs every experiment on populations of roughly one million users.
That is supported here but unnecessary for verifying the *shape* of the
results, so two presets are provided:

* :data:`QUICK_SCALE` — the default for the benchmark suite and CI: tens of
  thousands of users and a couple of trials per point; every qualitative
  conclusion of the paper already holds at this scale.
* :data:`PAPER_SCALE` — the paper's setting for users who want to reproduce
  the absolute numbers more closely.  One Fig. 6 point at 10^6 users (Taxi,
  ``[3C/4,C]``, epsilon 1, all five schemes, one trial) takes about 5.5 s
  serial on 2 cores with OpenBLAS, so a point at its ten trials takes about
  a minute and the full 16-panel Fig. 6 grid about 75 minutes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_fraction, check_integer


@dataclass(frozen=True)
class ExperimentScale:
    """Scale knobs shared by every experiment driver.

    Attributes
    ----------
    n_users:
        Total user population per trial.
    n_trials:
        Independent trials per sweep point (MSE is averaged over these).
    gamma:
        Default Byzantine proportion (0.25 in the paper unless swept).
    """

    n_users: int = 20_000
    n_trials: int = 3
    gamma: float = 0.25

    def __post_init__(self) -> None:
        check_integer(self.n_users, "n_users", minimum=10)
        check_integer(self.n_trials, "n_trials", minimum=1)
        check_fraction(self.gamma, "gamma")


#: fast preset used by the benchmark harness
QUICK_SCALE = ExperimentScale(n_users=20_000, n_trials=3, gamma=0.25)

#: the paper's setting (one million users); slow but faithful
PAPER_SCALE = ExperimentScale(n_users=1_000_000, n_trials=10, gamma=0.25)

#: the privacy budgets swept in Figures 6, 8 and 9
PAPER_EPSILONS = (0.25, 0.5, 1.0, 1.5, 2.0)

#: the smaller budgets swept in Figure 5 / Table I (probing accuracy)
PROBING_EPSILONS = (2.0, 1.0, 0.5, 0.25, 0.125, 0.0625)


__all__ = [
    "ExperimentScale",
    "QUICK_SCALE",
    "PAPER_SCALE",
    "PAPER_EPSILONS",
    "PROBING_EPSILONS",
]
