"""The baseline two-budget protocol (Section IV).

Every user splits her budget into ``epsilon_alpha + epsilon_beta = epsilon``
(with ``epsilon_alpha << epsilon_beta``) and perturbs her value twice.  The
collector probes the Byzantine features on the noisy-but-cheap ``alpha``
reports (where Theorem 3 makes EMF most accurate) and then estimates the mean
from the ``beta`` reports after removing the attackers' collective
contribution (Equation 12).

The protocol's known flaw — attackers can behave honestly on the ``alpha``
round and poison only the ``beta`` round because the two budgets are fixed and
public — is modelled by the ``evade_probing`` flag of :meth:`BaselineProtocol.run`;
the DAP protocol (Section V) exists precisely to close that hole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.attacks.base import Attack, NoAttack
from repro.core.features import ByzantineFeatures, estimate_byzantine_features
from repro.core.mean_estimation import corrected_mean
from repro.ldp.base import NumericalMechanism
from repro.ldp.piecewise import PiecewiseMechanism
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_fraction, check_positive

MechanismFactory = Callable[[float], NumericalMechanism]


@dataclass
class BaselineResult:
    """Outcome of one baseline-protocol run.

    Attributes
    ----------
    estimate:
        The corrected mean estimate of the normal users.
    features:
        Byzantine features probed from the alpha reports.
    alpha_reports, beta_reports:
        The two collected report sets (useful for diagnostics and tests).
    """

    estimate: float
    features: ByzantineFeatures
    alpha_reports: np.ndarray
    beta_reports: np.ndarray


class BaselineProtocol:
    """Two-budget probing + estimation protocol (Section IV).

    Parameters
    ----------
    epsilon:
        Total per-user privacy budget.
    alpha_fraction:
        Fraction of the budget spent on the probing round
        (``epsilon_alpha = alpha_fraction * epsilon``); the paper requires
        ``epsilon_alpha << epsilon_beta`` so the default is 0.1.
    mechanism_factory:
        Callable mapping a budget to a numerical mechanism (PM by default).
    """

    def __init__(
        self,
        epsilon: float,
        alpha_fraction: float = 0.1,
        mechanism_factory: MechanismFactory = PiecewiseMechanism,
    ) -> None:
        self.epsilon = check_positive(epsilon, "epsilon")
        self.alpha_fraction = check_fraction(alpha_fraction, "alpha_fraction", inclusive=False)
        self.mechanism_factory = mechanism_factory
        self.epsilon_alpha = self.alpha_fraction * self.epsilon
        self.epsilon_beta = self.epsilon - self.epsilon_alpha
        self.mechanism_alpha = mechanism_factory(self.epsilon_alpha)
        self.mechanism_beta = mechanism_factory(self.epsilon_beta)

    def run(
        self,
        normal_values: np.ndarray,
        attack: Attack | None = None,
        n_byzantine: int = 0,
        reference_mean: float | None = None,
        evade_probing: bool = False,
        rng: RngLike = None,
    ) -> BaselineResult:
        """Simulate one collection round and return the defended estimate.

        Parameters
        ----------
        normal_values:
            Normal users' original values (in the mechanism's input domain).
        attack:
            Attack strategy of the Byzantine users (defaults to no attack).
        n_byzantine:
            Number of Byzantine users.
        reference_mean:
            The collector's ``O'`` (defaults to the output-domain centre).
        evade_probing:
            When True, Byzantine users behave like normal users (reporting the
            input-domain poisoned extreme honestly perturbed) on the alpha
            round and only poison the beta round — the attack that motivates
            DAP.
        rng:
            Randomness source.
        """
        rng = ensure_rng(rng)
        attack = attack or NoAttack()
        normal_values = np.asarray(normal_values, dtype=float)

        # --- users perturb twice -------------------------------------------------
        alpha_normal = self.mechanism_alpha.perturb(normal_values, rng)
        beta_normal = self.mechanism_beta.perturb(normal_values, rng)

        if evade_probing:
            # attackers mimic an honest user holding the extreme input value
            # during the probing round
            disguised_inputs = np.full(n_byzantine, self.mechanism_alpha.input_domain[1])
            alpha_poison = (
                self.mechanism_alpha.perturb(disguised_inputs, rng)
                if n_byzantine
                else np.empty(0)
            )
        else:
            alpha_poison = attack.poison_reports(
                n_byzantine, self.mechanism_alpha, reference_mean or 0.0, rng
            ).reports
        beta_poison = attack.poison_reports(
            n_byzantine, self.mechanism_beta, reference_mean or 0.0, rng
        ).reports

        alpha_reports = np.concatenate([alpha_normal, alpha_poison])
        beta_reports = np.concatenate([beta_normal, beta_poison])

        # --- collector: probe on alpha, estimate on beta -------------------------
        features = estimate_byzantine_features(
            self.mechanism_alpha,
            alpha_reports,
            reference_mean=reference_mean,
            epsilon=self.epsilon_alpha,
        )
        estimate = corrected_mean(
            beta_reports,
            gamma_hat=features.gamma_hat,
            poison_mean=self._rescale_poison_mean(features),
            input_domain=self.mechanism_beta.input_domain,
        )
        return BaselineResult(
            estimate=estimate,
            features=features,
            alpha_reports=alpha_reports,
            beta_reports=beta_reports,
        )

    def _rescale_poison_mean(self, features: ByzantineFeatures) -> float:
        """Map the probed poison mean from the alpha domain to the beta domain.

        The paper assumes the two rounds form a unified attack with the same
        deviation, i.e. ``M_alpha = M_beta``.  When the attacker scales poison
        values to each round's output domain (the strongest strategy), the
        natural invariant is the *relative* position inside the poisoned half
        of the domain, so the probed mean is rescaled proportionally from
        ``[O', C_alpha]`` onto ``[O', C_beta]`` (mirrored for left-side
        attacks) and finally clipped into the beta domain.
        """
        reference = features.emf.transform.reference_mean
        if features.side == "right":
            alpha_bound = self.mechanism_alpha.output_domain[1]
            beta_bound = self.mechanism_beta.output_domain[1]
        else:
            alpha_bound = self.mechanism_alpha.output_domain[0]
            beta_bound = self.mechanism_beta.output_domain[0]
        alpha_reach = alpha_bound - reference
        if abs(alpha_reach) < 1e-12:
            rescaled = features.poison_mean
        else:
            relative = (features.poison_mean - reference) / alpha_reach
            rescaled = reference + relative * (beta_bound - reference)
        low, high = self.mechanism_beta.output_domain
        return float(np.clip(rescaled, low, high))


__all__ = ["BaselineProtocol", "BaselineResult"]
