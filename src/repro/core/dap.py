"""Differential Aggregation Protocol — DAP (Section V, Figure 3).

The five stages of the protocol:

1. **Grouping** — users are randomly assigned to ``h = ceil(log2(eps/eps0)) + 1``
   equal-sized groups whose budgets form the ladder ``{eps, eps/2, ..., eps0}``.
   Users in a small-budget group report multiple times (``eps / eps_t`` reports)
   so every user spends exactly ``eps`` in total.
2. **Perturbation** — each user perturbs with her group's budget; Byzantine
   users instead submit poison values inside that group's output domain.
3. **Probing** — the collector runs EMF per group; the poisoned side and the
   Byzantine proportion are taken from the smallest-budget group, where
   Theorem 3 makes them most accurate.
4. **Intra-group estimation** — each group's mean is corrected for the
   reconstructed poison mass (Equation 13), optionally after the EMF* or
   CEMF* post-processing.
5. **Inter-group aggregation** — the group means are combined with the
   minimum-variance weights of Theorem 6.

``DAPProtocol.run`` simulates the client side and the collector side end to
end; ``DAPProtocol.aggregate_stats`` is the collector-only entry point.

The collector only ever needs *sufficient statistics* of the report stream —
the output-grid histogram (probing + the EMF family) and the report sum and
count (corrected mean) — so a round never holds more than one block's
reports: ``collect_sharded`` assigns users to groups and runs the one
collection round of :mod:`repro.collect.round`, which cuts each group into
fixed-size blocks with one pre-drawn seed each, perturbs every block into
per-group :class:`~repro.collect.GroupAccumulator` objects (optionally over
a process pool) and merges them; ``aggregate_stats`` runs stages 3-5 on the
merged statistics.  ``run`` is that round with one shard, and its result is
the same at any shard or worker count.

The trust model is one :class:`~repro.protocol.plan.ProtocolPlan`
(:attr:`DAPProtocol.plan`): it caps each user's reports, hands compromised
slots to the attack (under the shuffle protocol, against the group-blind
domain-intersection view), delivers every block (as is under
``protocol="local"``, in a seeded shuffle under ``protocol="shuffle"``) and,
under shuffle, writes the privacy-amplification ledger into
:class:`DAPResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Literal, Mapping, Sequence, Tuple

import numpy as np

from repro.attacks.base import Attack, NoAttack
from repro.collect.accumulators import GroupAccumulator, GroupStats
from repro.collect.round import collect_shard, collection_round
from repro.collect.sharding import DEFAULT_SHARD_BLOCK, run_shard_tasks
from repro.core.aggregation import aggregate_means, aggregation_weights
from repro.core.cemf_star import DEFAULT_SUPPRESSION_FACTOR, run_cemf_star
from repro.core.emf import EMFResult, run_emf, warm_start_weights
from repro.core.emf_star import run_emf_star
from repro.core.features import ByzantineFeatures, estimate_byzantine_features
from repro.core.frequency import EstimatorName, check_estimator
from repro.core.mean_estimation import corrected_mean_from_stats
from repro.core.transform import cached_transform_matrix, default_bucket_counts
from repro.ldp.base import NumericalMechanism
from repro.ldp.budget import dap_budget_ladder
from repro.ldp.piecewise import PiecewiseMechanism
from repro.protocol.plan import (
    ProtocolPlan,
    check_contribution_cap,
    check_protocol,
    intersection_output_domain,
)
from repro.utils.discretization import BucketGrid
from repro.utils.profiling import profiled_stage, stage
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_integer, check_positive

MechanismFactory = Callable[[float], NumericalMechanism]


@dataclass
class DAPConfig:
    """Configuration of the DAP protocol.

    Attributes
    ----------
    epsilon:
        Total per-user privacy budget.
    epsilon_min:
        Minimum acceptable group budget ``eps_0`` (1/16 in the paper).
    estimator:
        Which reconstruction drives the intra-group correction: ``"emf"``,
        ``"emf_star"`` or ``"cemf_star"`` — the three DAP variants of Figure 6.
    mechanism_factory:
        Budget -> mechanism constructor (PM by default; pass
        ``SquareWaveMechanism`` for the Figure 8 variant).
    reference_mean:
        The collector's ``O'`` (``None`` = output-domain centre, the paper's
        simplification).
    n_input_buckets / n_output_buckets:
        Grid resolutions; ``None`` uses the paper defaults per group.
    suppression_factor:
        CEMF* bucket-suppression threshold factor.
    intra_group_mean:
        ``"corrected_sum"`` (Equation 13 — subtract the reconstructed poison
        contribution from the report sum; correct for unbiased mechanisms such
        as PM) or ``"distribution"`` (take the mean of the reconstructed
        normal-user histogram — the route used with Square Wave, whose raw
        reports are biased).
    max_reports_per_user:
        Safety cap on the per-user report multiplicity for tiny ``eps_0``.
    protocol:
        Trust model of the round (identity knob): ``"local"`` (default;
        bit-identical to the historical behaviour) or ``"shuffle"`` (seeded
        shuffler transport, group-blind adversary, amplification ledger) —
        see :mod:`repro.protocol`.
    contribution_cap:
        Client-gate upper bound on reports per user (``None`` = no cap).
        Reports beyond the cap are dropped deterministically before
        perturbation and tallied into ``DAPResult.skipped_reports``.
    shuffle_seed:
        Execution-detail reseed of the shuffler's permutation lanes; cannot
        change any accumulator statistic (property-tested), so it never
        enters documents or fingerprints.
    """

    epsilon: float
    epsilon_min: float = 1.0 / 16.0
    estimator: EstimatorName = "cemf_star"
    mechanism_factory: MechanismFactory = PiecewiseMechanism
    reference_mean: float | None = None
    n_input_buckets: int | None = None
    n_output_buckets: int | None = None
    suppression_factor: float = DEFAULT_SUPPRESSION_FACTOR
    intra_group_mean: Literal["corrected_sum", "distribution"] = "corrected_sum"
    max_reports_per_user: int = 64
    protocol: str = "local"
    contribution_cap: int | None = None
    shuffle_seed: int = 0

    def __post_init__(self) -> None:
        check_positive(self.epsilon, "epsilon")
        check_positive(self.epsilon_min, "epsilon_min")
        if self.epsilon_min > self.epsilon:
            raise ValueError(
                f"epsilon_min ({self.epsilon_min:g}) must not exceed epsilon "
                f"({self.epsilon:g})"
            )
        check_estimator(self.estimator)
        if self.intra_group_mean not in ("corrected_sum", "distribution"):
            raise ValueError(
                "intra_group_mean must be 'corrected_sum' or 'distribution', got "
                f"{self.intra_group_mean!r}"
            )
        check_integer(self.max_reports_per_user, "max_reports_per_user", minimum=1)
        check_protocol(self.protocol)
        check_contribution_cap(self.contribution_cap)

    @property
    def budget_ladder(self) -> List[float]:
        """Group budgets ``{eps, eps/2, ..., eps_0}``."""
        return dap_budget_ladder(self.epsilon, self.epsilon_min)

    @property
    def n_groups(self) -> int:
        """Number of groups ``h``."""
        return len(self.budget_ladder)


@dataclass(frozen=True)
class GroupWarmState:
    """Where one budget group's stage-4 solves ended.

    ``weights`` maps each solve the group ran (``"emf"``, ``"emf_star"``,
    ``"cemf_star"``) to its converged weight vector; they are only valid
    as starting points on the same ``side``.
    """

    side: str
    weights: Mapping[str, np.ndarray]


@dataclass(frozen=True)
class WarmState:
    """Converged EM weights one round hands the next round over the same grids.

    ``probe`` holds the side probe's two vectors, keyed ``"left"`` /
    ``"right"``; ``groups`` holds each budget group's stage-4 state, keyed
    by the group's budget.  :meth:`DAPProtocol.aggregate_stats` starts every
    solve it has a vector for from it; the windowed service carries it from
    window to window.
    """

    probe: Mapping[str, np.ndarray]
    groups: Mapping[float, GroupWarmState]


@dataclass
class GroupEstimate:
    """Collector-side result for one group.

    Attributes
    ----------
    epsilon:
        The group budget.
    mean:
        The poison-corrected intra-group mean ``M_t``.
    gamma_hat:
        Poison proportion reconstructed in this group.
    n_reports:
        Number of reports the group contributed.
    n_normal_estimate:
        Estimated number of normal *users* ``n_hat_t`` (reports rescaled by
        ``eps_t / eps``).
    weight:
        Aggregation weight assigned by Theorem 6 (filled in at aggregation).
    emf:
        The reconstruction (EMF / EMF* / CEMF*) the mean was derived from.
    warm:
        The side and converged weights of the solves this group ran (a plain
        EMF reused from the probe is not one of them) — what the next
        round's stage 4 over the same grids may start from.
    em_iterations:
        EM iterations those solves took.
    """

    epsilon: float
    mean: float
    gamma_hat: float
    n_reports: int
    n_normal_estimate: float
    weight: float = 0.0
    emf: EMFResult | None = None
    warm: GroupWarmState | None = None
    em_iterations: int = 0


@dataclass
class DAPResult:
    """Final outcome of a DAP run.

    Attributes
    ----------
    estimate:
        The aggregated mean estimate ``M_tilde``.
    poisoned_side:
        Side selected by the probing stage.
    gamma_hat:
        Byzantine proportion probed in the smallest-budget group.
    group_estimates:
        Per-group details (budget, corrected mean, weight, ...).
    features:
        The probing stage's full :class:`~repro.core.features.ByzantineFeatures`
        (both side EMF runs included).
    skipped_reports:
        Reports dropped by the contribution-cap client gate (0 when no cap
        is configured); filled by the end-to-end entry points, which know
        the population size.
    amplification:
        Privacy-amplification ledger, one row per contributing group
        (``epsilon_local`` / ``n_reports`` / ``delta`` / ``epsilon_central``
        / ``amplification_factor``); ``None`` under the local protocol.
    warm_state:
        The converged weights of this round's probe and stage-4 solves,
        which an incremental caller passes to the next round's
        :meth:`DAPProtocol.aggregate_stats`.
    """

    estimate: float
    poisoned_side: str
    gamma_hat: float
    group_estimates: List[GroupEstimate] = field(default_factory=list)
    features: ByzantineFeatures | None = None
    skipped_reports: int = 0
    amplification: List[dict] | None = None
    warm_state: WarmState | None = None

    @property
    def weights(self) -> np.ndarray:
        """Aggregation weights, in group order."""
        return np.array([g.weight for g in self.group_estimates])

    @property
    def aggregate_iterations(self) -> int:
        """EM iterations of the round's stage-4 solves, over all groups."""
        return sum(g.em_iterations for g in self.group_estimates)


class DAPProtocol:
    """The multi-group Differential Aggregation Protocol."""

    def __init__(self, config: DAPConfig) -> None:
        self.config = config
        self._mechanisms = {
            eps: config.mechanism_factory(eps) for eps in config.budget_ladder
        }

    # ------------------------------------------------------------------
    # trust model
    # ------------------------------------------------------------------
    @property
    def plan(self) -> ProtocolPlan:
        """The protocol contract, derived lazily from the (mutable) config."""
        config = self.config
        return ProtocolPlan(
            config.protocol, config.contribution_cap, config.shuffle_seed
        )

    def adversary_mechanism(self, epsilon: float) -> NumericalMechanism:
        """The mechanism view the attack stage sees for one budget group.

        Local protocol: the group's own mechanism.  Shuffle protocol: the
        group-blind :class:`~repro.ldp.base.DomainRestrictedMechanism` over
        the ladder-wide output-domain intersection.
        """
        return self.plan.adversary_view(self.mechanism_for(epsilon), self._mechanisms)

    def contribution_summary(self, n_total: int) -> int:
        """Reports the contribution cap drops for ``n_total`` users.

        Deterministic without simulating: group head-counts are fixed by
        the nearly-equal split and per-user multiplicities by the ladder.
        """
        return self.plan.skipped_reports(
            self.group_sizes(n_total),
            [self._uncapped_reports_per_user(eps) for eps in self.config.budget_ladder],
        )

    def poison_domain(self) -> tuple[float, float] | None:
        """The poison support the *server* may assume, per trust model.

        The server conditions its reconstruction on the same contract the
        adversary is bound by: under the shuffle protocol poison lies in
        the ladder-wide output-domain intersection, so stages 3-4 restrict
        their poison columns to it; under the local protocol the adversary
        owns each group's whole poisoned side (``None`` — the historical,
        bit-identical hypotheses).
        """
        if not self.plan.is_shuffle:
            return None
        return intersection_output_domain(tuple(self._mechanisms.values()))

    # ------------------------------------------------------------------
    # client-side simulation
    # ------------------------------------------------------------------
    def mechanism_for(self, epsilon: float) -> NumericalMechanism:
        """The mechanism instance used by the group with budget ``epsilon``."""
        return self._mechanisms[epsilon]

    def _uncapped_reports_per_user(self, epsilon_t: float) -> int:
        """The ladder's per-user multiplicity, before the contribution cap."""
        repeats = int(round(self.config.epsilon / epsilon_t))
        return max(1, min(repeats, self.config.max_reports_per_user))

    def _reports_per_user(self, epsilon_t: float) -> int:
        """How many reports a user in the ``epsilon_t`` group submits."""
        return self.plan.effective_repeats(self._uncapped_reports_per_user(epsilon_t))

    def _reference_mean(self, mechanism: NumericalMechanism) -> float:
        if self.config.reference_mean is not None:
            return self.config.reference_mean
        low, high = mechanism.output_domain
        return 0.5 * (low + high)

    # ------------------------------------------------------------------
    # group accumulators
    # ------------------------------------------------------------------
    def group_sizes(self, n_total: int) -> List[int]:
        """User head-count per group for a population of ``n_total``.

        Matches the (nearly) equal split of :meth:`collect_sharded`: the
        first ``n_total % h`` groups receive one extra user.
        """
        n_total = check_integer(n_total, "n_total", minimum=1)
        h = self.config.n_groups
        base, extra = divmod(n_total, h)
        return [base + 1 if index < extra else base for index in range(h)]

    def group_output_grid(self, epsilon: float, n_reports: int) -> BucketGrid:
        """The output-domain grid the collector uses for a group's histogram."""
        _, d_out = self._bucket_counts(n_reports, epsilon)
        low, high = self.mechanism_for(epsilon).output_domain
        return BucketGrid(low, high, d_out)

    def group_accumulator(
        self, epsilon: float, n_expected_reports: int, n_users: int = 0
    ) -> GroupAccumulator:
        """A chunked accumulator holding one group's sufficient statistics.

        The accumulator's histogram grid is sized from ``n_expected_reports``
        (the collector knows it up front: group sizes and per-user report
        multiplicities are fixed by the grouping stage), so feeding exactly
        that many reports — in chunks of any size — yields statistics
        bit-identical to a one-shot update with all of them.
        """
        grid = self.group_output_grid(epsilon, max(1, n_expected_reports))
        return GroupAccumulator(
            epsilon, grid, n_expected_reports=n_expected_reports, n_users=n_users
        )

    # ------------------------------------------------------------------
    # sharded collection
    # ------------------------------------------------------------------
    @profiled_stage("collect")
    def collect_sharded(
        self,
        normal_values: np.ndarray,
        attack: Attack | None = None,
        n_byzantine: int = 0,
        rng: RngLike = None,
        n_shards: int = 1,
        n_workers: int | None = None,
        block_size: int = DEFAULT_SHARD_BLOCK,
    ) -> List[GroupAccumulator]:
        """Sharded grouping + perturbation: one collection round, many cores.

        The population is assigned to ``h`` (nearly) equal-sized groups by
        one master-generator permutation draw (:func:`assign_groups`), then
        each group's user range is cut into fixed-size blocks with one
        pre-drawn seed per block (:func:`repro.collect.build_shard_plan`).  A shard — a contiguous run
        of whole blocks — is perturbed and poisoned block by block into
        fresh :class:`~repro.collect.GroupAccumulator` objects, and shard
        results are folded back with ``merge()``.  Normal users perturb
        their value ``eps / eps_t`` times with their group's mechanism;
        Byzantine users submit the same number of poison reports drawn from
        the attack against that group's output domain (under the shuffle
        protocol, against the group-blind domain-intersection view).

        Because the blocks own the randomness, the merged accumulators are
        bit-identical at any ``n_shards`` and any ``n_workers`` (both are
        execution details); only ``block_size`` is part of the run identity.
        Shard results cross process boundaries as accumulator snapshots
        (bucket counts plus compacted sum partials), never as raw reports,
        and a worker holds one leaf or one block of reports at a time
        (:func:`repro.collect.round.collect_shard`).

        Besides the caller's ``normal_values``, the parent holds one
        group-ordered copy of them (8 bytes per normal user); while
        assigning groups it briefly holds the permutation (4 bytes per user)
        and then one group label per user (1 byte), both dropped before any
        shard runs.  Tasks carry handles into the copy, never values
        (:class:`~repro.collect.sharding.ShardValues`).  For a process pool
        the copy is one shared-memory segment: each worker maps it and
        touches only its own shards' values, and a forked worker shares the
        parent's other pages copy-on-write.

        Parameters
        ----------
        normal_values:
            The normal users' values (materialised; the round's reports,
            which would be an order of magnitude larger, are only ever held
            a leaf or a block at a time).
        attack:
            The Byzantine strategy (``None`` = :class:`NoAttack`).
        n_byzantine:
            Number of Byzantine users.
        rng:
            Master generator: consumed for the group assignment and the
            block seeds only.
        n_shards:
            Number of independent work units to split the round into.
        n_workers:
            ``None`` / ``1`` runs the shards in-process; larger values fan
            them out over a process pool (capped at ``n_shards``).
        block_size:
            Users per seed block (identity-relevant; keep the default unless
            benchmarking).
        """
        rng = ensure_rng(rng)
        normal_values = np.asarray(normal_values, dtype=float).ravel()
        n_byzantine = check_integer(n_byzantine, "n_byzantine", minimum=0)
        self._check_values(normal_values)
        if normal_values.size + n_byzantine == 0:
            raise ValueError("at least one user is required")
        client = _DAPClient(self, attack or NoAttack())
        with collection_round(
            client, normal_values, n_byzantine, rng, n_shards, n_workers, block_size
        ) as shards:
            states = run_shard_tasks(
                collect_shard, shards.tasks, shards.n_workers, pickle_probe=client
            )
        return shards.merge(states)

    def _check_values(self, normal_values: np.ndarray) -> None:
        """Refuse inputs a shard worker would, before any shard is dispatched.

        A worker raising on bad input would be retried by the resilient pool
        and surface as a ``TaskFailedError``; checking in the parent raises
        what the client stage raises instead:
        :class:`~repro.ldp.base.MechanismError` for values outside the input
        domain (infinities included) and ``ValueError`` for NaN, which the
        group accumulators refuse.
        """
        self.mechanism_for(self.config.epsilon).check_inputs(normal_values)
        if np.isnan(normal_values).any():
            raise ValueError("normal_values must not contain NaN")

    # ------------------------------------------------------------------
    # collector side
    # ------------------------------------------------------------------
    def aggregate_accumulated(
        self, accumulators: Sequence[GroupAccumulator]
    ) -> DAPResult:
        """Aggregate from group accumulators (see :meth:`collect_sharded`)."""
        stats = [acc.stats() for acc in accumulators if acc.n_reports > 0]
        if not stats:
            raise ValueError("no group contributed any reports")
        return self.aggregate_stats(stats)

    def aggregate_stats(
        self,
        stats: Sequence[GroupStats],
        warm_state: WarmState | None = None,
    ) -> DAPResult:
        """Stages 3-5 on per-group sufficient statistics.

        EMF and its variants operate on the output-grid histogram, and the
        corrected mean only needs the report sum and count, so no stage
        ever touches raw reports.

        ``warm_state`` optionally starts the probing stage's side EMs and
        each group's stage-4 solves from a previous round's converged
        weights (its ``result.warm_state``) — the incremental path the
        windowed service runs every window.  A group the state does not
        cover, or whose probed side changed, cold-starts.  Every vector must
        fit the current grids (:func:`repro.core.emf.warm_start_weights`).
        """
        stats = [s for s in stats if s.n_reports > 0]
        if not stats:
            raise ValueError("no group contributed any reports")
        for group in stats:
            self._check_stats_geometry(group)

        # --- stage 3: probe side and gamma in the smallest-budget group ----------
        with stage("probe"):
            probe_stats = min(stats, key=lambda s: s.epsilon)
            probe_mechanism = self.mechanism_for(probe_stats.epsilon)
            d_in, d_out = self._bucket_counts(
                probe_stats.n_reports, probe_stats.epsilon
            )
            features = estimate_byzantine_features(
                probe_mechanism,
                counts=probe_stats.output_counts,
                n_reports=probe_stats.n_reports,
                n_input_buckets=d_in,
                n_output_buckets=d_out,
                reference_mean=self.config.reference_mean,
                epsilon=probe_stats.epsilon,
                warm_start=None if warm_state is None else warm_state.probe,
                poison_domain=self.poison_domain(),
            )
        side = features.side
        gamma_global = features.gamma_hat

        with stage("aggregate"):
            # --- stage 4: per-group reconstruction + corrected mean --------------
            # The probing stage already ran EMF on the probe group with the
            # exact transform, counts and tolerance stage 4 would use (the
            # paper's tau applies to both), so its reconstruction is reused
            # instead of being recomputed.  The distribution route tightens
            # the tolerance, so it cannot reuse the probe run.
            reusable = (
                features.emf
                if self.config.intra_group_mean == "corrected_sum"
                else None
            )
            warm_groups = {} if warm_state is None else warm_state.groups
            estimates: List[GroupEstimate] = []
            for group in stats:
                reuse = reusable if group is probe_stats else None
                estimates.append(
                    self._estimate_group(
                        group,
                        side=side,
                        gamma_global=gamma_global,
                        reuse_emf=reuse,
                        warm=warm_groups.get(group.epsilon),
                    )
                )

            # --- stage 5: minimum-variance aggregation ---------------------------
            variances = [
                self.mechanism_for(e.epsilon).worst_case_variance()
                for e in estimates
            ]
            weights = aggregation_weights(
                [e.epsilon for e in estimates],
                [e.n_normal_estimate for e in estimates],
                per_report_variances=variances,
            )
            for estimate, weight in zip(estimates, weights):
                estimate.weight = float(weight)
            aggregated = aggregate_means([e.mean for e in estimates], weights)

        return DAPResult(
            estimate=aggregated,
            poisoned_side=side,
            gamma_hat=gamma_global,
            group_estimates=estimates,
            features=features,
            amplification=self.plan.ledger(
                [group.epsilon for group in stats],
                [group.n_reports for group in stats],
            ),
            warm_state=WarmState(
                probe=features.probe.warm_weights(),
                groups={e.epsilon: e.warm for e in estimates},
            ),
        )

    def _check_stats_geometry(self, stats: GroupStats) -> None:
        """Reject statistics accumulated on a grid the collector cannot use."""
        expected = self.group_output_grid(stats.epsilon, max(1, stats.n_reports))
        if stats.output_grid != expected:
            raise ValueError(
                f"group (epsilon={stats.epsilon:g}) statistics were accumulated "
                f"on a {stats.output_grid.n_buckets}-bucket grid over "
                f"[{stats.output_grid.low:g}, {stats.output_grid.high:g}], but "
                f"{stats.n_reports} reports call for {expected.n_buckets} buckets "
                f"over [{expected.low:g}, {expected.high:g}]; build the "
                f"accumulator via DAPProtocol.group_accumulator with the true "
                f"expected report count"
            )
        if stats.output_counts.shape != (expected.n_buckets,):
            raise ValueError(
                f"group (epsilon={stats.epsilon:g}) has "
                f"{stats.output_counts.shape} counts for a "
                f"{expected.n_buckets}-bucket grid"
            )

    def _estimate_group(
        self,
        group: GroupStats,
        side: str,
        gamma_global: float,
        reuse_emf: EMFResult | None = None,
        warm: GroupWarmState | None = None,
    ) -> GroupEstimate:
        """Stage 4 for one group: reconstruct, correct, convert to users.

        ``reuse_emf`` short-circuits the plain EMF run when the caller already
        holds a reconstruction of this group against the same transform (the
        probing stage produces exactly that for the probe group).  The reuse
        is rejected unless the transform geometry matches, so results are
        identical with or without it.  ``warm`` starts each solve from the
        group's previous converged weights when it was found on ``side``.
        """
        mechanism = self.mechanism_for(group.epsilon)
        d_in, d_out = self._bucket_counts(group.n_reports, group.epsilon)
        if reuse_emf is not None and not self._transform_matches(
            reuse_emf, d_in, d_out, side
        ):
            reuse_emf = None
        if reuse_emf is not None:
            transform = reuse_emf.transform
        else:
            transform = cached_transform_matrix(
                mechanism,
                n_input_buckets=d_in,
                n_output_buckets=d_out,
                side=side,
                reference_mean=self.config.reference_mean,
                poison_domain=self.poison_domain(),
            )
        counts = group.output_counts

        # the distribution route needs a sharply converged histogram, so it
        # tightens the paper's probing tolerance tau = 0.01 * e^eps
        tol = 1e-6 if self.config.intra_group_mean == "distribution" else None

        previous = warm.weights if warm is not None and warm.side == side else {}

        def initial(solve: str) -> np.ndarray | None:
            label = f"group epsilon={group.epsilon:g} {solve}"
            return warm_start_weights(previous.get(solve), transform, label)

        # plain EMF is only an input to the "emf" and "cemf_star" estimators;
        # EMF* re-runs EM with its constrained M-step
        solved: dict[str, EMFResult] = {}
        emf = reuse_emf
        if emf is None and self.config.estimator in ("emf", "cemf_star"):
            emf = solved["emf"] = run_emf(
                transform,
                counts=counts,
                epsilon=group.epsilon,
                tol=tol,
                initial=initial("emf"),
            )
        if self.config.estimator == "emf":
            reconstruction = emf
        elif self.config.estimator == "emf_star":
            reconstruction = solved["emf_star"] = run_emf_star(
                transform,
                gamma_hat=gamma_global,
                counts=counts,
                epsilon=group.epsilon,
                tol=tol,
                initial=initial("emf_star"),
            )
        else:  # cemf_star
            reconstruction = solved["cemf_star"] = run_cemf_star(
                transform,
                emf_result=emf,
                gamma_hat=gamma_global,
                counts=counts,
                epsilon=group.epsilon,
                suppression_factor=self.config.suppression_factor,
                tol=tol,
                initial=initial("cemf_star"),
            )

        gamma_t = reconstruction.gamma_hat
        if self.config.intra_group_mean == "corrected_sum":
            mean_t = corrected_mean_from_stats(
                group.report_sum,
                group.n_reports,
                gamma_hat=gamma_t,
                poison_mean=reconstruction.poison_mean,
                input_domain=mechanism.input_domain,
            )
        else:
            low, high = mechanism.input_domain
            mean_t = float(
                np.clip(reconstruction.estimated_normal_mean(), low, high)
            )
        m_hat_t = gamma_t * group.n_reports
        n_normal_estimate = max(0.0, (group.n_reports - m_hat_t)) * (
            group.epsilon / self.config.epsilon
        )
        return GroupEstimate(
            epsilon=group.epsilon,
            mean=mean_t,
            gamma_hat=gamma_t,
            n_reports=group.n_reports,
            n_normal_estimate=n_normal_estimate,
            emf=reconstruction,
            warm=GroupWarmState(
                side, {solve: result.weights for solve, result in solved.items()}
            ),
            em_iterations=sum(result.n_iterations for result in solved.values()),
        )

    def _transform_matches(
        self, emf: EMFResult, d_in: int, d_out: int, side: str
    ) -> bool:
        """Whether an existing reconstruction used this group's exact transform."""
        transform = emf.transform
        reference = self.config.reference_mean
        return (
            transform.input_grid.n_buckets == d_in
            and transform.output_grid.n_buckets == d_out
            and transform.side == side
            and (reference is None or transform.reference_mean == float(reference))
            and transform.poison_domain == self.poison_domain()
        )

    def _bucket_counts(self, n_reports: int, epsilon: float) -> tuple[int, int]:
        d_in, d_out = default_bucket_counts(max(1, n_reports), epsilon)
        if self.config.n_input_buckets is not None:
            d_in = self.config.n_input_buckets
        if self.config.n_output_buckets is not None:
            d_out = self.config.n_output_buckets
        return d_in, d_out

    # ------------------------------------------------------------------
    # end to end
    # ------------------------------------------------------------------
    def run(
        self,
        normal_values: np.ndarray,
        attack: Attack | None = None,
        n_byzantine: int = 0,
        rng: RngLike = None,
        n_shards: int = 1,
        n_workers: int | None = None,
        block_size: int = DEFAULT_SHARD_BLOCK,
    ) -> DAPResult:
        """Simulate one full DAP round (client + collector).

        :meth:`collect_sharded` followed by :meth:`aggregate_accumulated`;
        ``n_shards`` and ``n_workers`` only schedule the collection, so the
        result is identical for any value of either.
        """
        accumulators = self.collect_sharded(
            normal_values,
            attack,
            n_byzantine,
            rng=rng,
            n_shards=n_shards,
            n_workers=n_workers,
            block_size=block_size,
        )
        result = self.aggregate_accumulated(accumulators)
        result.skipped_reports = self.contribution_summary(
            int(np.asarray(normal_values).size) + int(n_byzantine)
        )
        return result

    run_sharded = run


def assign_groups(
    rng: np.random.Generator,
    normal_values: np.ndarray,
    n_byzantine: int,
    n_groups: int,
    out: np.ndarray,
) -> Tuple[List[int], List[int]]:
    """Split the users into ``n_groups`` nearly equal groups.

    Users ``0 .. n_normal - 1`` are the normal ones, holding
    ``normal_values``; the next ``n_byzantine`` are Byzantine.  One
    permutation of all users is drawn from ``rng`` and cut into
    ``n_groups`` consecutive pieces (:func:`numpy.array_split`); piece ``g``
    is group ``g``.  Each group's normal values are written to ``out``
    group after group, in ascending user order within a group.  Returns the
    per-group normal and Byzantine head-counts.

    The permutation is ``rng.permutation(n_total)`` — same draws, same
    generator state afterwards — shuffled in place as int32 (int64 past
    2^31 users).  It becomes one small-integer group label per user and is
    dropped before any value is gathered, so a 10^7-user round never holds
    an int64 index array or a per-group copy of the values.
    """
    n_normal = normal_values.size
    labels, normal_counts, byzantine_counts = _group_labels(
        rng, n_normal, n_normal + n_byzantine, n_groups
    )
    normal_labels = labels[:n_normal]
    start = 0
    for group, count in enumerate(normal_counts):
        np.compress(
            normal_labels == group, normal_values, out=out[start : start + count]
        )
        start += count
    return normal_counts, byzantine_counts


def _group_labels(
    rng: np.random.Generator, n_normal: int, n_total: int, n_groups: int
) -> Tuple[np.ndarray, List[int], List[int]]:
    """Each user's group, and the groups' normal and Byzantine head-counts.

    A function of its own so that the permutation, which the loop's last
    ``piece`` view would keep alive, is freed on return.  Counted piece by
    piece: ``np.bincount`` over the labels would make an 8-byte copy of
    them.
    """
    order = np.arange(
        n_total, dtype=np.int32 if n_total <= np.iinfo(np.int32).max else np.int64
    )
    rng.shuffle(order)
    labels = np.empty(n_total, dtype=np.min_scalar_type(n_groups - 1))
    normal_counts: List[int] = []
    byzantine_counts: List[int] = []
    for group, piece in enumerate(np.array_split(order, n_groups)):
        labels[piece] = group
        n_normal_members = int(np.count_nonzero(piece < n_normal))
        normal_counts.append(n_normal_members)
        byzantine_counts.append(piece.size - n_normal_members)
    return labels, normal_counts, byzantine_counts


# ----------------------------------------------------------------------
# DAP's client of the collection round (module-level, so tasks pickle)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _DAPClient:
    """DAP's side of :mod:`repro.collect.round`: one budget group per index."""

    protocol: DAPProtocol
    attack: Attack

    @property
    def plan(self) -> ProtocolPlan:
        return self.protocol.plan

    def assign(
        self,
        rng: np.random.Generator,
        values: np.ndarray,
        n_byzantine: int,
        out: np.ndarray,
    ) -> Tuple[List[int], List[int]]:
        n_groups = self.protocol.config.n_groups
        return assign_groups(rng, values, n_byzantine, n_groups, out=out)

    def group(self, index: int, n_normal: int, n_byzantine: int) -> "_DAPGroup":
        return _DAPGroup(self, index, n_normal, n_byzantine)


class _DAPGroup:
    """One budget group of ``n_normal`` normal and ``n_byzantine`` Byzantine
    users: its mechanism, repeats and poison, and its accumulators, each
    sized for the whole group so that every shard's merges."""

    def __init__(
        self, client: _DAPClient, index: int, n_normal: int, n_byzantine: int
    ) -> None:
        self.protocol = client.protocol
        self.attack = client.attack
        self.epsilon = self.protocol.config.budget_ladder[index]
        self.mechanism = self.protocol.mechanism_for(self.epsilon)
        self.repeats = self.protocol._reports_per_user(self.epsilon)
        self.streams_leaves = self.mechanism.samples_on_backend
        self.n_reports = n_normal * self.repeats + self.attack.n_poison_reports(
            n_byzantine * self.repeats
        )

    def accumulator(self, n_users: int) -> GroupAccumulator:
        return self.protocol.group_accumulator(self.epsilon, self.n_reports, n_users)

    def poison(self, n_users: int, rng: np.random.Generator) -> np.ndarray:
        view = self.protocol.adversary_mechanism(self.epsilon)
        return self.attack.poison_reports(
            n_users * self.repeats, view, self.protocol._reference_mean(view), rng
        ).reports


__all__ = [
    "DAPConfig",
    "DAPProtocol",
    "DAPResult",
    "GroupEstimate",
    "GroupWarmState",
    "WarmState",
    "assign_groups",
]
