"""Frequency-estimation extension of DAP for categorical data (Section V-D).

The paper's numerical machinery carries over to categorical data almost
unchanged: with k-RR as the perturbation mechanism, the transform matrix's
normal block is the k-RR transition matrix and each *candidate poisoned
category* contributes an identity poison column (Byzantine users report their
poisoned category directly).  The open design point is how to locate the
poisoned categories — the paper sketches a recursive variant of Algorithm 3.

This implementation uses greedy forward selection driven by the EM
log-likelihood: starting from "no category is poisoned", it repeatedly adds
the category whose poison column improves the reconstruction likelihood the
most, and stops when the improvement drops below a threshold.  This realises
the same idea (a poison column on a genuinely poisoned category explains the
observed excess far better than the k-RR mixture can) with a sharper, scale-
aware stopping rule; DESIGN.md records it as an implementation choice.

Once the poisoned categories are known, EMF* with the probed ``gamma_hat``
reconstructs the normal users' frequency histogram, which is the quantity
Figure 9(c)(d) evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Literal, Sequence, get_args

import numpy as np

from repro.collect.accumulators import CategoryCountAccumulator
from repro.collect.round import category_inputs, collect_shard, collection_round
from repro.collect.sharding import DEFAULT_SHARD_BLOCK, run_shard_tasks
from repro.core.cemf_star import suppression_mask
from repro.ldp.ems import em_reconstruct, em_reconstruct_batch
from repro.ldp.base import CategoricalMechanism
from repro.ldp.krr import KRandomizedResponse
from repro.protocol.plan import ProtocolPlan
from repro.utils.profiling import profiled_stage, stage
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_integer, check_positive

#: the reconstruction family every DAP route offers: plain EMF, the
#: gamma-constrained EMF* and CEMF* (EMF* after low-mass suppression)
EstimatorName = Literal["emf", "emf_star", "cemf_star"]


def check_estimator(name: str) -> str:
    """Validate an estimator name, returning it unchanged."""
    if name not in get_args(EstimatorName):
        raise ValueError(
            f"estimator must be 'emf', 'emf_star' or 'cemf_star', got {name!r}"
        )
    return name


#: Domains past this size make the dense route pathological: the probe's
#: ``k x k`` transform alone is ``8 k^2`` bytes (0.5 GiB at 8192) and the
#: greedy search is O(k^2) per round.  Larger domains belong on the sketch
#: route (:class:`repro.core.sketch_frequency.SketchFrequencyDAP`), whose
#: state is ``rows x width`` regardless of ``k``.
DENSE_MAX_CATEGORIES = 8192


def ostrich_frequencies(
    mechanism: KRandomizedResponse, reports: np.ndarray, clip: bool = True
) -> np.ndarray:
    """The undefended frequency estimator (standard k-RR de-biasing)."""
    frequencies = mechanism.estimate_frequencies(reports)
    if clip:
        frequencies = np.clip(frequencies, 0.0, 1.0)
        total = frequencies.sum()
        if total > 0:
            frequencies = frequencies / total
    return frequencies


@dataclass
class FrequencyDAPResult:
    """Outcome of the categorical DAP pipeline.

    Attributes
    ----------
    frequencies:
        Estimated frequency histogram of the *normal* users (sums to one).
    poisoned_categories:
        Categories identified as poisoned, in selection order.
    gamma_hat:
        Estimated fraction of poison reports.
    log_likelihood_gains:
        Likelihood improvement recorded when each poisoned category was added
        (diagnostic for the greedy probe).
    """

    frequencies: np.ndarray
    poisoned_categories: List[int] = field(default_factory=list)
    gamma_hat: float = 0.0
    log_likelihood_gains: List[float] = field(default_factory=list)
    #: reports dropped by the contribution-cap client gate (end-to-end runs)
    skipped_reports: int = 0
    #: privacy-amplification ledger (``None`` under the local protocol)
    amplification: List[dict] | None = None


# ----------------------------------------------------------------------
# the categorical client of the collection round (module-level, so tasks
# pickle)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _CategoryClient:
    """What a k-RR round adds to :mod:`repro.collect.round`.

    One group, one report per user: honest users report through
    ``mechanism``, Byzantine users one of ``targets``, uniformly at random.
    """

    plan: ProtocolPlan
    mechanism: CategoricalMechanism
    targets: np.ndarray

    streams_leaves = False
    assign = None

    @property
    def repeats(self) -> int:
        """One report per user, unless the contribution cap drops it."""
        return self.plan.effective_repeats(1)

    def group(self, index: int, n_normal: int, n_byzantine: int) -> "_CategoryClient":
        return self

    def accumulator(self, n_users: int) -> CategoryCountAccumulator:
        return CategoryCountAccumulator(self.mechanism.n_categories)

    def poison(self, n_users: int, rng: np.random.Generator) -> np.ndarray:
        return self.targets[rng.integers(0, self.targets.size, size=n_users)]


class CategoricalDAP:
    """What the k-RR and the sketch frequency routes share.

    One budget group, one report per user: the shared constructor checks,
    the protocol plan, the collection round (each route names its client
    and passes its own module's ``run_shard_tasks``), the contribution
    tally and the end-to-end :meth:`run`.  Subclasses build ``mechanism``
    and define ``collect_sharded`` and ``estimate_from_counts``.
    """

    #: the route's client of :mod:`repro.collect.round`
    client_type: type

    def __init__(
        self,
        epsilon: float,
        n_categories: int,
        estimator: EstimatorName,
        min_likelihood_gain: float,
        protocol: str,
        contribution_cap: int | None,
        shuffle_seed: int,
    ) -> None:
        self.epsilon = check_positive(epsilon, "epsilon")
        self.n_categories = check_integer(n_categories, "n_categories", minimum=2)
        self.estimator = check_estimator(estimator)
        self.min_likelihood_gain = check_positive(
            min_likelihood_gain, "min_likelihood_gain"
        )
        # one budget group, so the shuffle protocol leaves the adversary's
        # reach unchanged (poison is already category-targeted); what
        # shuffling adds here is the amplification ledger and the transport
        # mixing (statistics-invariant)
        self.plan = ProtocolPlan(
            protocol=protocol,
            contribution_cap=contribution_cap,
            shuffle_seed=shuffle_seed,
        )

    def contribution_summary(self, n_total: int) -> int:
        """Reports the contribution cap drops for ``n_total`` users."""
        return self.plan.skipped_reports([int(n_total)], [1])

    def _collect(
        self,
        run_tasks,
        normal_categories: np.ndarray,
        poisoned_categories: Sequence[int],
        n_byzantine: int,
        rng: RngLike,
        n_shards: int,
        n_workers: int | None,
        block_size: int,
    ):
        """The body of ``collect_sharded``: one collection round, its shard
        tasks run by ``run_tasks`` and merged into one accumulator."""
        rng = ensure_rng(rng)
        normal_categories, targets, n_byzantine = category_inputs(
            self.mechanism, normal_categories, poisoned_categories, n_byzantine
        )
        client = self.client_type(self.plan, self.mechanism, targets)
        if not client.repeats:
            return client.accumulator(0)
        with collection_round(
            client, normal_categories, n_byzantine, rng, n_shards, n_workers, block_size
        ) as shards:
            states = run_tasks(
                collect_shard, shards.tasks, shards.n_workers, pickle_probe=client
            )
        return shards.merge(states)[0]

    def run(
        self,
        normal_categories: np.ndarray,
        poisoned_categories: Sequence[int] = (),
        n_byzantine: int = 0,
        rng: RngLike = None,
    ):
        """Simulate one round end to end: ``collect_sharded`` (one shard)
        followed by ``estimate_from_counts``."""
        counts = self.collect_sharded(
            normal_categories, poisoned_categories, n_byzantine, rng
        )
        result = self.estimate_from_counts(counts)
        result.skipped_reports = self.contribution_summary(
            int(np.asarray(normal_categories).size) + int(n_byzantine)
        )
        return result


class FrequencyDAP(CategoricalDAP):
    """Collusion-robust frequency estimation on top of k-RR.

    Parameters
    ----------
    epsilon:
        Privacy budget of the k-RR reports.
    n_categories:
        Size of the categorical domain.
    estimator:
        ``"emf"`` (plain reconstruction), ``"emf_star"`` (gamma-constrained,
        the default) or ``"cemf_star"`` (additionally suppresses candidate
        poison columns that received negligible mass).
    max_poisoned:
        Upper bound on the number of poisoned categories the probe may flag
        (defaults to half the domain, mirroring the BFT bound).
    min_likelihood_gain:
        Greedy-probe stopping threshold on the per-step log-likelihood gain.
    """

    client_type = _CategoryClient

    def __init__(
        self,
        epsilon: float,
        n_categories: int,
        estimator: EstimatorName = "emf_star",
        max_poisoned: int | None = None,
        min_likelihood_gain: float = 2.0,
        protocol: str = "local",
        contribution_cap: int | None = None,
        shuffle_seed: int = 0,
    ) -> None:
        super().__init__(
            epsilon,
            n_categories,
            estimator,
            min_likelihood_gain,
            protocol,
            contribution_cap,
            shuffle_seed,
        )
        if self.n_categories > DENSE_MAX_CATEGORIES:
            transform_gib = 8.0 * float(self.n_categories) ** 2 / 2**30
            raise ValueError(
                f"n_categories={self.n_categories} exceeds the dense-route "
                f"limit ({DENSE_MAX_CATEGORIES}): the probe's k x k transform "
                f"alone would need ~{transform_gib:.1f} GiB; use the sketch "
                f"route (SketchFrequencyDAP / mechanism 'count-sketch') for "
                f"high-cardinality domains"
            )
        self.max_poisoned = (
            max(1, n_categories // 2) if max_poisoned is None else int(max_poisoned)
        )
        self.mechanism = KRandomizedResponse(epsilon, n_categories)
        # transform caches: the k x k normal block never changes for a given
        # instance, and repeated solves over one poison set (plain EMF, then
        # the gamma-constrained re-solve) reuse the identical stacked matrix
        self._normal_block: np.ndarray | None = None
        self._transform_cache: tuple[tuple[int, ...], np.ndarray] | None = None

    # ------------------------------------------------------------------
    # client-side simulation helpers
    # ------------------------------------------------------------------
    @profiled_stage("collect")
    def collect_sharded(
        self,
        normal_categories: np.ndarray,
        poisoned_categories: Sequence[int] = (),
        n_byzantine: int = 0,
        rng: RngLike = None,
        n_shards: int = 1,
        n_workers: int | None = None,
        block_size: int = DEFAULT_SHARD_BLOCK,
    ) -> CategoryCountAccumulator:
        """Simulate one collection round into a category-count accumulator.

        Normal users perturb their category with k-RR; Byzantine users
        report one of the ``poisoned_categories`` directly (uniformly at
        random among them), which is the strongest attack available in the
        k-RR output domain.  The categorical counterpart of
        :meth:`repro.core.dap.DAPProtocol.collect_sharded`: the users are cut
        into fixed-size blocks with one pre-drawn seed each
        (:func:`repro.collect.build_shard_plan`), shards — contiguous runs of
        blocks — are processed independently (optionally over a process
        pool), and the per-shard counts are folded with ``merge()``.  The
        merged counts are bit-identical at any ``n_shards`` / ``n_workers``.
        Feed the result to :meth:`estimate_from_counts`.
        """
        return self._collect(
            run_shard_tasks,
            normal_categories,
            poisoned_categories,
            n_byzantine,
            rng,
            n_shards,
            n_workers,
            block_size,
        )

    # ------------------------------------------------------------------
    # collector side
    # ------------------------------------------------------------------
    def _transition_matrix(self) -> np.ndarray:
        """The mechanism's ``k x k`` transition matrix, built once per instance."""
        if self._normal_block is None:
            self._normal_block = self.mechanism.transition_matrix()
        return self._normal_block

    def _build_transform(self, poison_set: Sequence[int]) -> np.ndarray:
        """Normal k-RR block plus identity poison columns for ``poison_set``.

        Single-slot cache keyed on the frozen poison set: the estimator
        re-solves the same poison set back to back (plain EMF for
        ``gamma_hat``, then the constrained re-solve), and rebuilding the
        stacked ``k x (k + m)`` matrix each time dominated small-domain runs.
        The cached matrix is returned as-is — solves never mutate it — so
        repeated calls are bit-identical to fresh builds.
        """
        normal_block = self._transition_matrix()
        if not poison_set:
            return normal_block
        key = tuple(int(category) for category in poison_set)
        if self._transform_cache is not None and self._transform_cache[0] == key:
            return self._transform_cache[1]
        poison_block = np.zeros((self.n_categories, len(poison_set)))
        for column, category in enumerate(poison_set):
            poison_block[category, column] = 1.0
        transform = np.hstack([normal_block, poison_block])
        self._transform_cache = (key, transform)
        return transform

    def _reconstruct(
        self,
        counts: np.ndarray,
        poison_set: Sequence[int],
        gamma_hat: float | None = None,
    ):
        """Run EM (optionally gamma-constrained) for a given poison set."""
        transform = self._build_transform(poison_set)
        poison_mass = None
        if gamma_hat is not None and poison_set:
            poison_mass = (gamma_hat, self.n_categories)
        # the poison columns are one-hot on their category row, so EM can use
        # the split dense + gather/scatter products
        return em_reconstruct(
            transform,
            counts,
            poison_mass=poison_mass,
            tol=1e-9,
            max_iter=10_000,
            indicator_tail=np.asarray(list(poison_set), dtype=np.intp),
        )

    def probe_poisoned_categories(
        self, counts: np.ndarray
    ) -> tuple[List[int], List[float]]:
        """Greedy likelihood-driven search for the poisoned categories."""
        return self._probe(np.asarray(counts, dtype=float))

    @profiled_stage("probe")
    def _probe(self, counts: np.ndarray) -> tuple[List[int], List[float]]:
        """Greedy search with batched hypothesis evaluation.

        Each greedy round (1) discards candidates whose log-likelihood
        provably cannot reach ``current_ll + min_likelihood_gain`` — for any
        weight vector ``F``, ``(A @ F)_i <= max_k A[i, k]``, so
        ``sum_i c_i log(max_k A[i, k])`` caps the achievable likelihood, and
        a candidate's cap differs from the incumbent's only through the rows
        its indicator column lifts to one; (2) solves every survivor in one
        batched EM, each hypothesis warm-started from the incumbent's
        converged weights with the new component seeded at a uniform share.
        Screened-out candidates can never change the selection: if the best
        survivor clears the gain threshold it also beats every screened
        candidate's cap, and if it does not, the round terminates the greedy
        loop exactly as a search solving every candidate from a cold start
        would.  That cold search selects the same poison set (the screen is a
        proof, the warm start a test-enforced property).
        """
        dense = self._transition_matrix()
        poison_set: List[int] = []
        poisoned: set[int] = set()
        gains: List[float] = []
        incumbent = self._reconstruct(counts, poison_set)
        current_ll = incumbent.log_likelihood
        incumbent_weights = incumbent.weights

        # per-row likelihood cap of the normal block (clamped for the log)
        row_max = np.maximum(dense.max(axis=1), 1e-300)
        log_row_max = np.log(row_max)

        while len(poison_set) < self.max_poisoned:
            candidates = np.array(
                [c for c in range(self.n_categories) if c not in poisoned],
                dtype=np.intp,
            )
            if candidates.size == 0:
                break
            # likelihood cap with the current poison set's rows lifted to one
            capped_log = log_row_max.copy()
            if poison_set:
                capped_log[poison_set] = np.maximum(capped_log[poison_set], 0.0)
            base_cap = float(counts @ capped_log)
            boosts = counts[candidates] * np.maximum(-capped_log[candidates], 0.0)
            survivors = candidates[
                base_cap + boosts >= current_ll + self.min_likelihood_gain
            ]
            if survivors.size == 0:
                break

            n_tail = len(poison_set) + 1
            n_components = self.n_categories + n_tail
            tail_rows = np.empty((survivors.size, n_tail), dtype=np.intp)
            tail_rows[:, :-1] = poison_set
            tail_rows[:, -1] = survivors
            # warm start: the incumbent's converged weights with the new
            # component seeded at a uniform share, plus a pinch of uniform
            # mass so no component starts at the (EM-absorbing) exact zero.
            # The deliberate blur keeps each candidate's effective solver
            # accuracy comparable to a cold-start solve under the same
            # tol/max_iter budget — candidates must not *out-converge* a
            # cold search, or threshold-marginal configurations would select
            # more categories than the cold search they must reproduce.
            share = 1.0 / n_components
            initial = np.empty((survivors.size, n_components))
            initial[:, :-1] = incumbent_weights * (1.0 - share)
            initial[:, -1] = share
            initial = 0.98 * initial + 0.02 / n_components

            batch = em_reconstruct_batch(
                dense,
                counts,
                tail_rows,
                initial=initial,
                tol=1e-9,
                max_iter=10_000,
                # candidates certifiably below the acceptance floor stop
                # immediately; the rest stop once their likelihood is
                # certified within a fraction of the gain threshold of
                # optimal — margins the greedy decisions never resolve
                gap_tol=1e-3 * self.min_likelihood_gain,
                ll_floor=current_ll + self.min_likelihood_gain,
            )
            best = int(np.argmax(batch.log_likelihoods))
            best_ll = float(batch.log_likelihoods[best])
            gain = best_ll - current_ll
            if gain < self.min_likelihood_gain:
                break
            poison_set.append(int(survivors[best]))
            poisoned.add(int(survivors[best]))
            gains.append(float(gain))
            current_ll = best_ll
            incumbent_weights = batch.weights[best]
        return poison_set, gains

    def estimate(self, reports: np.ndarray) -> FrequencyDAPResult:
        """Full collector pipeline: probe poisoned categories, then estimate."""
        reports = np.asarray(reports, dtype=int)
        if reports.size == 0:
            raise ValueError("cannot estimate frequencies from zero reports")
        counts = np.bincount(reports, minlength=self.n_categories).astype(float)
        return self.estimate_from_counts(counts)

    def estimate_from_counts(
        self, counts: np.ndarray | CategoryCountAccumulator
    ) -> FrequencyDAPResult:
        """The collector pipeline on category counts (the sufficient statistic).

        Accepts either a raw count vector or the accumulator produced by
        :meth:`collect_sharded`.  Category counts accumulated over blocks are
        exactly the bincount of all reports, so this path is bit-identical
        to :meth:`estimate` on the same reports.
        """
        if isinstance(counts, CategoryCountAccumulator):
            counts = counts.counts_float()
        counts = np.asarray(counts, dtype=float)
        if counts.shape != (self.n_categories,):
            raise ValueError(
                f"counts must have length n_categories={self.n_categories}, "
                f"got shape {counts.shape}"
            )
        if counts.sum() == 0:
            raise ValueError("cannot estimate frequencies from zero reports")

        poison_set, gains = self._probe(counts)

        with stage("aggregate"):
            # plain EMF reconstruction gives gamma_hat; it re-solves from a
            # cold start because the probe's warm-started iterates are not
            # bit-comparable to one
            emf = self._reconstruct(counts, poison_set)
            gamma_hat = (
                float(emf.weights[self.n_categories:].sum()) if poison_set else 0.0
            )

            if self.estimator == "emf" or not poison_set:
                weights = emf.weights
            else:
                if self.estimator == "cemf_star":
                    # suppress candidate poison columns with almost no mass
                    suppressed = suppression_mask(
                        emf.weights[self.n_categories:], gamma_hat
                    )
                    poison_set = [
                        category
                        for category, drop in zip(poison_set, suppressed)
                        if not drop
                    ]
                weights = self._reconstruct(
                    counts, poison_set, gamma_hat=gamma_hat
                ).weights

            normal = np.clip(weights[: self.n_categories], 0.0, None)
            total = normal.sum()
            frequencies = normal / total if total > 0 else np.full(
                self.n_categories, 1.0 / self.n_categories
            )
        return FrequencyDAPResult(
            frequencies=frequencies,
            poisoned_categories=list(poison_set),
            gamma_hat=gamma_hat,
            log_likelihood_gains=gains,
            amplification=self.plan.ledger([self.epsilon], [int(counts.sum())]),
        )


__all__ = [
    "CategoricalDAP",
    "DENSE_MAX_CATEGORIES",
    "EstimatorName",
    "FrequencyDAP",
    "FrequencyDAPResult",
    "check_estimator",
    "ostrich_frequencies",
]
