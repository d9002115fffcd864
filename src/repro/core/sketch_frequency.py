"""Sketch-backed high-cardinality frequency estimation with poison probing.

The dense :class:`~repro.core.frequency.FrequencyDAP` route is O(n*k) in
collection and O(k^2) in probing, which caps it at domains of a few thousand
categories (and it now refuses larger ones outright — see its
``DENSE_MAX_CATEGORIES`` guard).  This module is the production answer for
10^5–10^6-category domains: the same collect / probe / estimate pipeline,
re-based on the :class:`~repro.ldp.count_sketch.CountSketch` mechanism.

* **Collection** is O(1) per user: each report is a ``(row, bucket)`` pair
  folded into the mergeable ``(rows, width)``
  :class:`~repro.collect.SketchAccumulator`, so sharding and the windowed
  service compose exactly as on the dense path.
* **Probing** never touches a ``k x k`` transform — and unlike the dense
  probe it does not *attribute* poison greedily by likelihood.  At sketch
  geometry the reduced model is nearly unidentifiable per candidate: a
  candidate's column and its poison column differ only in the ``q``-spread
  carrying ``~ 1 - p`` of a report's probability, and the fungible
  background column absorbs that difference, so the *marginal* gain of one
  more poison column is O(1) even under a heavy attack.  Two signals remain
  identifiable.  (a) Decode geometry: targeted poison must land on **all**
  ``rows`` of a target's cells to move its estimate, so a true target's
  *row-minimum* decode stays at its inflated value, while a hash-collision
  artifact is elevated in only the colliding rows (minimum ~ 0) and an
  honest heavy hitter sits at its true frequency.  (b) The global spread
  deficit: a poisoned sketch is missing the ``q``-spread mass its inflated
  decodes imply, which is worth a large, certifiable likelihood gain for
  the flagged set *as a whole*.  The probe flags by row-minimum decode and
  verifies the flag set with two SQUAREM-certified solves over the sketch
  cells (one column per candidate, a closed-form background column,
  *spread* poison columns of ``1/rows`` at ``rows`` cells); each flag's
  single-target gain is then reported from its own certified solve (the
  refit's accelerated EM and ridge polish), within ``gap_tol`` of the
  single-flag optimum — a diagnostic that feeds no estimate, 0.02–0.14 s
  a round at the ``sketch-attack`` benchmark geometry (2 cores).
* **Cell classes.** Every solve runs on *cell classes*, not on the
  ``rows * width`` cells: a cell no candidate hashes to is described by
  its domain occupancy alone, so untouched cells of equal occupancy share
  one transform row and their counts are summed, while each candidate cell
  keeps its own row.  The likelihood, gradient and duality gap are sums
  over cells, so the classed problem is the same problem up to summation
  order — at the 10^6-category, 4 x 1024 benchmark geometry with 32 heavy
  hitters, ~300 rows instead of 4,096 (see ``_reduced_problem``).
* **Estimation** re-solves the reduced problem with the probed poison set,
  optionally gamma-constrained (EMF*) with CEMF*'s low-mass suppression —
  the same estimator family, on sketch cell classes instead of ``k``.
  The refit finishes with closed-form Newton line searches along the
  candidate/poison ridge (the one EM direction that would otherwise crawl
  for >10^5 iterations).  At the ridge's maximum a verified-poisoned
  category's *honest* share is driven to ~0: the split between a target's
  honest and poison mass is not identifiable at sketch resolution, so the
  estimator suppresses the category conservatively, and ``gamma_hat``
  over-counts true poison by at most ``p`` times the flagged categories'
  honest mass.

The probe's candidate reduction is the designed trade-off: poison planted
outside the decoded heavy hitters is invisible to it — but such poison is
also (by construction) not frequency-relevant at the sketch's resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.collect.accumulators import SketchAccumulator
from repro.collect.sharding import DEFAULT_SHARD_BLOCK, run_shard_tasks
from repro.core.cemf_star import suppression_mask
from repro.core.frequency import CategoricalDAP, EstimatorName, _CategoryClient
from repro.ldp.count_sketch import CountSketch
from repro.ldp.ems import (
    EMResult,
    em_reconstruct,
    em_reconstruct_accelerated,
    # unused here; the benchmark's span tracer (bench/spans.py) rebinds
    # this module global by name, so it stays until that target goes
    em_reconstruct_batch,  # noqa: F401
)
from repro.utils.profiling import profiled_stage, stage
from repro.utils.rng import RngLike
from repro.utils.validation import check_integer, check_positive

#: sigmas of privacy noise a candidate's row-minimum decode must clear to
#: be flaggable at all (the absolute arm of the flag rule)
FLAG_NOISE_SIGMAS = 3.0
#: verification solve: iterations between certificate checks, and the total
#: budget after which an undecided set is conservatively rejected
_VERIFY_CHUNK = 500
_VERIFY_MAX_ITER = 25_000


def _top_k(ranked: np.ndarray, k: int) -> np.ndarray:
    """Sorted ids of the ``k`` largest values, ties to the lowest ids.

    Equals ``np.sort(np.lexsort((ids, -ranked))[:k])`` without sorting the
    domain: a partition finds the ``k``-th largest value, every id above it
    is kept, and the lowest ids at it fill the remaining slots.
    """
    if k >= ranked.size:
        return np.arange(ranked.size)
    threshold = np.partition(ranked, ranked.size - k)[ranked.size - k]
    above = np.flatnonzero(ranked > threshold)
    tied = np.flatnonzero(ranked == threshold)[: k - above.size]
    return np.sort(np.concatenate([above, tied]))


@dataclass
class SketchFrequencyDAPResult:
    """Outcome of the sketch-backed categorical DAP pipeline.

    Attributes
    ----------
    heavy_hitters:
        The decoded top categories the probe and estimator operated on, in
        decode-rank order (highest sketch estimate first).
    frequencies:
        EM-estimated *normal-user* frequency of each heavy hitter (aligned
        with ``heavy_hitters``; poison mass removed).  A category verified
        as poisoned is conservatively suppressed to ~0 — its honest share
        is not identifiable at sketch resolution (module docstring).
    decoded:
        Raw (pre-EM) sketch decode of each heavy hitter — what an undefended
        collector would report.
    background_mass:
        Normal-user mass attributed to everything outside the heavy hitters.
    poisoned_categories:
        Heavy hitters identified as poisoned, in flag order (largest
        row-minimum decode first).
    gamma_hat:
        Estimated fraction of poison reports.  Approximate by design: the
        candidate/poison mass split sits on a near-flat likelihood ridge
        (see the module docstring), and the refit stops at the decision-
        irrelevant gap rather than grinding the ridge to its end.  The
        unconstrained refit's duality-gap certificate bounds the
        likelihood, not ``gamma_hat``; ``refit_converged`` reports whether
        that refit ended certified.  Certified, ``gamma_hat`` is
        reproducible; when ``refit_converged`` is false the refit exhausted
        its ridge-polish budget, and ``gamma_hat`` is an uncertified point
        on the flat ridge that moves with floating-point noise.
    log_likelihood_gains:
        Single-target likelihood gain of each flagged category over the
        dense-only incumbent, certified within ``gap_tol``
        (``1e-3 * min_likelihood_gain``) of the single-flag optimum
        (diagnostic — the accept decision is made on the *joint* gain of
        the flag set).
    gains_certified:
        Whether each gain's solve ended with its duality-gap certificate
        (aligned with ``log_likelihood_gains``).  An uncertified gain is
        still an achieved lower bound.
    """

    heavy_hitters: np.ndarray
    frequencies: np.ndarray
    decoded: np.ndarray
    background_mass: float = 0.0
    poisoned_categories: List[int] = field(default_factory=list)
    gamma_hat: float = 0.0
    log_likelihood_gains: List[float] = field(default_factory=list)
    gains_certified: List[bool] = field(default_factory=list)
    #: whether the unconstrained refit that sets ``gamma_hat`` ended with a
    #: duality-gap certificate (see ``gamma_hat``)
    refit_converged: bool = True
    mechanism: CountSketch | None = field(default=None, repr=False)
    sketch_counts: np.ndarray | None = field(default=None, repr=False)
    #: reports dropped by the contribution-cap client gate (end-to-end runs)
    skipped_reports: int = 0
    #: privacy-amplification ledger (``None`` under the local protocol)
    amplification: List[dict] | None = None

    def query(self, categories: np.ndarray) -> np.ndarray:
        """Raw sketch decode of arbitrary categories (post-hoc point queries)."""
        if self.mechanism is None or self.sketch_counts is None:
            raise ValueError("result was built without its sketch state")
        return self.mechanism.estimate_categories(self.sketch_counts, categories)


@dataclass
class _ProbeState:
    """Everything the estimator reuses from the probe's reduction."""

    candidates: np.ndarray  # (M,) heavy-hitter category ids, decode-ranked
    decoded: np.ndarray  # (M,) their raw sketch decodes
    dense: np.ndarray  # (C, M [+1]) reduced normal block over cell classes
    cells: np.ndarray  # (M, rows) cell-class row of each candidate's cells
    cell_class: np.ndarray  # (rows * width,) flat sketch cell -> class row
    has_background: bool
    positions: List[int]  # flagged candidate positions (the poison set)
    gains: List[float]
    gains_certified: List[bool] = field(default_factory=list)
    min_decoded: np.ndarray | None = None  # (M,) row-minimum decodes
    weights: np.ndarray | None = None  # converged reduced weights (dense [+ poison])

    def class_counts(self, counts: np.ndarray) -> np.ndarray:
        """Sketch counts summed per cell class (the reduced problem's data)."""
        return np.bincount(
            self.cell_class,
            weights=counts.ravel().astype(float),
            minlength=self.dense.shape[0],
        )


# ----------------------------------------------------------------------
# the sketch client of the collection round (module-level, so tasks pickle)
# ----------------------------------------------------------------------
class _SketchClient(_CategoryClient):
    """The sketch round's client: sketch counts, and poison from
    :meth:`~repro.ldp.count_sketch.CountSketch.target_reports`."""

    def accumulator(self, n_users: int) -> SketchAccumulator:
        mechanism = self.mechanism
        return SketchAccumulator(mechanism.sketch_rows, mechanism.sketch_width)

    def poison(self, n_users: int, rng: np.random.Generator) -> np.ndarray:
        return self.mechanism.target_reports(self.targets, rng, size=n_users)


class SketchFrequencyDAP(CategoricalDAP):
    """Collusion-robust heavy-hitter frequency estimation on a count sketch.

    Parameters
    ----------
    epsilon:
        Privacy budget of the sketch reports.
    n_categories:
        Size of the categorical domain (10^5–10^6 is the design regime).
    sketch_rows, sketch_width:
        Sketch geometry (identity knobs — all parties must agree).
    estimator:
        ``"emf"`` / ``"emf_star"`` / ``"cemf_star"``, with the same semantics
        as :class:`~repro.core.frequency.FrequencyDAP`, applied to the
        reduced heavy-hitter problem.
    n_heavy_hitters:
        How many decoded top categories the probe and estimator keep.
    max_poisoned:
        Upper bound on flagged categories (default: half the heavy hitters).
    min_likelihood_gain:
        Verification gate: the flag set is accepted only when its joint
        poison model beats the dense-only incumbent by at least this much
        log-likelihood (and rejected when the solver certifies it cannot).
    flag_relative_cut:
        Relative arm of the flag rule: a candidate is flagged when its
        row-minimum decode reaches this fraction of the largest row-minimum
        decode (and clears the absolute privacy-noise floor).
    """

    client_type = _SketchClient

    def __init__(
        self,
        epsilon: float,
        n_categories: int,
        sketch_rows: int = 4,
        sketch_width: int = 1024,
        estimator: EstimatorName = "emf_star",
        n_heavy_hitters: int = 64,
        max_poisoned: int | None = None,
        min_likelihood_gain: float = 2.0,
        flag_relative_cut: float = 0.5,
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
        self.n_heavy_hitters = min(
            check_integer(n_heavy_hitters, "n_heavy_hitters", minimum=1),
            self.n_categories,
        )
        self.max_poisoned = (
            max(1, self.n_heavy_hitters // 2)
            if max_poisoned is None
            else int(max_poisoned)
        )
        self.flag_relative_cut = check_positive(
            flag_relative_cut, "flag_relative_cut"
        )
        if self.flag_relative_cut > 1.0:
            raise ValueError(
                f"flag_relative_cut must be in (0, 1], got {flag_relative_cut!r}"
            )
        self.mechanism = CountSketch(
            epsilon, n_categories, sketch_rows=sketch_rows, sketch_width=sketch_width
        )
        self.sketch_rows = self.mechanism.sketch_rows
        self.sketch_width = self.mechanism.sketch_width

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
    ) -> SketchAccumulator:
        """Simulate one collection round into a merged sketch accumulator.

        Normal users perturb through the sketch mechanism; Byzantine users
        submit the strongest sketch poison — a target category's own cell in
        a uniformly chosen row (see :meth:`CountSketch.target_reports`).
        Same contract as the dense path: fixed-size blocks with pre-drawn
        seeds, shards folded with ``merge()`` — the merged sketch counts are
        bit-identical at any ``n_shards`` / ``n_workers``.
        """
        # the benchmark tracer rebinds this method and this module's
        # run_shard_tasks by name, so both stay here
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
    def _check_counts(self, counts) -> np.ndarray:
        if isinstance(counts, SketchAccumulator):
            if (
                counts.sketch_rows != self.sketch_rows
                or counts.sketch_width != self.sketch_width
            ):
                raise ValueError(
                    f"sketch accumulator geometry "
                    f"({counts.sketch_rows}, {counts.sketch_width}) does not "
                    f"match the mechanism "
                    f"({self.sketch_rows}, {self.sketch_width})"
                )
            counts = counts.counts
        counts = self.mechanism.check_counts(np.asarray(counts))
        if counts.sum() == 0:
            raise ValueError("cannot estimate frequencies from zero reports")
        return counts

    def _reduced_problem(self, counts: np.ndarray) -> _ProbeState:
        """Decode the domain, rank heavy hitters, build the reduced transform.

        The reduced model is defined on the ``rows * width`` flattened
        sketch cells: candidate category ``v`` reports cell ``(j, b)`` with
        probability ``(p if h_j(v) == b else q) / rows``, and the background
        column averages that distribution over every non-candidate category —
        its per-cell hash multiplicity is exactly the domain occupancy minus
        the candidates' own cells, so the column is closed-form (no per-
        category work beyond the occupancy pass).

        The transform is stored on *cell classes*, not cells.  A cell no
        candidate hashes to has the row ``q / rows`` in every candidate
        column, a background value fixed by its domain occupancy, and zero
        in every poison column (poison only lands on candidate cells), so
        untouched cells of equal occupancy — all untouched cells, without a
        background column — are interchangeable and share one row, their
        counts summed (:meth:`_ProbeState.class_counts`).  Each candidate
        cell keeps its own row.  The likelihood, the EM gradient and the
        duality gap are sums over cells whose terms agree within a class, so
        the classed problem has the same likelihoods, iterates and
        certificates up to floating-point summation order, on a few hundred
        rows instead of ``rows * width``.

        Ranking uses the *row-minimum* decode (the same statistic the flag
        rule keys on): collisions only ever *add* mass, so an honest heavy
        hitter's minimum never falls below its true frequency minus decode
        noise, while an innocent category elevated by sharing buckets with a
        heavy or poisoned cell is suppressed unless it collides in *every*
        row at once (probability ``~(m / w)^rows`` per category — negligible
        even at 10^6 categories, where the row-median's two-collision tail
        produces hundreds of artifacts that would crowd genuine heavies out
        of the candidate set).  True heavy hitters and actual poison targets
        are elevated in every row, so both still rank (poison targets must:
        the probe needs them as candidates to flag them).  The *mean* decode
        remains the reported unbiased estimate.  The top ``n_heavy_hitters``
        are selected by :func:`_top_k` (a partition, ties to the lowest id),
        not a sort of the whole domain.
        """
        mechanism = self.mechanism
        rows, width = self.sketch_rows, self.sketch_width
        ranked_all = mechanism.estimate_all(counts, reduce="min")
        candidates = _top_k(ranked_all, self.n_heavy_hitters)
        # decode-rank order for reporting; _top_k returns the ids sorted, which
        # keeps the cell arithmetic cache-friendlier, so re-rank explicitly
        candidates = candidates[np.argsort(-ranked_all[candidates], kind="stable")]
        decoded = mechanism.estimate_categories(counts, candidates)

        cells = mechanism.cells(candidates)  # (M, rows) flat cell indices

        n_other = self.n_categories - candidates.size
        p_cell = mechanism.p / rows
        q_cell = mechanism.q / rows
        # non-candidate categories per cell (all zero when n_other == 0)
        occupancy = mechanism.occupancy().ravel().astype(float)
        np.subtract.at(occupancy, cells.ravel(), 1.0)
        # candidate cells first (one class each), then one class per
        # occupancy level of the untouched cells
        touched = np.unique(cells)
        untouched = np.ones(rows * width, dtype=bool)
        untouched[touched] = False
        levels, level_of = np.unique(occupancy[untouched], return_inverse=True)
        cell_class = np.empty(rows * width, dtype=np.intp)
        cell_class[touched] = np.arange(touched.size)
        cell_class[untouched] = touched.size + level_of
        cells = cell_class[cells]

        n_classes = touched.size + levels.size
        dense = np.full((n_classes, candidates.size + (1 if n_other else 0)), q_cell)
        dense[cells, np.arange(candidates.size)[:, np.newaxis]] = p_cell
        if n_other:
            class_occupancy = np.concatenate([occupancy[touched], levels])
            dense[:, -1] = q_cell + (p_cell - q_cell) * class_occupancy / n_other
        return _ProbeState(
            candidates=candidates,
            decoded=decoded,
            dense=dense,
            cells=cells,
            cell_class=cell_class,
            has_background=bool(n_other),
            positions=[],
            gains=[],
        )

    def _poison_transform(
        self, state: _ProbeState, positions: Sequence[int]
    ) -> np.ndarray:
        """Reduced transform extended with one *spread* poison column per
        position: a sketch poison report lands on one of the target's cells
        per row, so the column is ``1/rows`` at the candidate's ``rows``
        cells and zero elsewhere."""
        transform = state.dense
        if len(positions):
            poison = np.zeros((transform.shape[0], len(positions)))
            for column, position in enumerate(positions):
                poison[state.cells[position], column] = 1.0 / self.sketch_rows
            transform = np.hstack([transform, poison])
        return transform

    def _poison_heavy_initial(
        self, incumbent_weights: np.ndarray, flags: Sequence[int]
    ) -> np.ndarray:
        """Incumbent weights with each flag's dense mass moved into its own
        poison column.

        The candidate and poison columns agree on the candidate's cells up
        to scale, so the likelihood ridge between them is nearly flat and EM
        crawls across it — warm-started from the candidate-heavy side, a
        genuinely poisoned flag set's solve stalls on the plateau and its
        gain goes unobserved.  Seeding from the poison-heavy side leaves
        only the fast direction (the background reabsorbing the released
        phantom spread); for honest flags the two sides are likelihood-
        equivalent, so the gain stays ~0 either way.  The uniform blur keeps
        every component off the EM-absorbing exact zero.
        """
        n_dense = incumbent_weights.size
        n_components = n_dense + len(flags)
        share = 1.0 / n_components
        initial = np.empty(n_components)
        initial[:n_dense] = incumbent_weights * (1.0 - share * len(flags))
        for column, position in enumerate(flags):
            initial[n_dense + column] = share + initial[position]
            initial[position] = 0.0
        return 0.98 * initial + 0.02 / n_components

    def _polish_ridge(
        self,
        transform: np.ndarray,
        counts_flat: np.ndarray,
        weights: np.ndarray,
        n_dense: int,
        positions: Sequence[int],
        gap_tol: float,
    ) -> EMResult:
        """Newton line searches along the candidate/poison ridge, then EM.

        EM's slow direction on the flagged model is known in closed form:
        by the cell-mass identity, trading a flagged candidate's weight
        ``delta`` for ``p * delta`` of its poison column and
        ``(1 - p) * delta`` of background leaves every sketch cell's mixture
        almost unchanged — accelerated EM needs >10^5 iterations to crawl
        that ridge, while a safeguarded 1-D Newton solves each flag's
        optimal ``delta`` exactly.  Alternating the line searches with short
        certified EM rounds (which handle every *fast* direction) reaches
        the certified optimum in a couple of rounds.
        """
        p = self.mechanism.p
        background = n_dense - 1
        mask = counts_flat > 0
        masked_counts = counts_flat[mask]
        fit = None
        for _ in range(8):
            for column, position in enumerate(positions):
                poison = n_dense + column
                direction = (
                    p * transform[:, poison]
                    + (1.0 - p) * transform[:, background]
                    - transform[:, position]
                )[mask]
                mixture = np.maximum(transform @ weights, 1e-300)[mask]
                low = max(
                    -weights[poison] / p, -weights[background] / (1.0 - p)
                ) + 1e-12
                high = weights[position] - 1e-12
                if high <= low:
                    continue
                delta = 0.0
                for _newton in range(60):
                    denominator = np.maximum(mixture + delta * direction, 1e-300)
                    gradient = float(
                        np.sum(masked_counts * direction / denominator)
                    )
                    curvature = float(
                        np.sum(masked_counts * (direction / denominator) ** 2)
                    )
                    if curvature <= 0:
                        break
                    moved = float(
                        np.clip(delta + gradient / curvature, low, high)
                    )
                    if abs(moved - delta) < 1e-15:
                        delta = moved
                        break
                    delta = moved
                weights = weights.copy()
                weights[position] -= delta
                weights[poison] += p * delta
                weights[background] += (1.0 - p) * delta
            fit = em_reconstruct_accelerated(
                transform,
                counts_flat,
                initial=weights,
                tol=1e-12,
                max_iter=500,
                gap_tol=gap_tol,
            )
            weights = fit.weights
            if fit.converged:
                break
        return fit

    def _reconstruct_reduced(
        self,
        counts_flat: np.ndarray,
        state: _ProbeState,
        positions: Sequence[int],
        gamma_hat: float | None = None,
        initial: np.ndarray | None = None,
    ) -> EMResult:
        """Scalar EM on the reduced problem for a given poison set.

        The unconstrained solve runs on the accelerated kernel with a
        duality-gap certificate; with poison columns present it finishes on
        :meth:`_polish_ridge`, which replaces the >10^5-iteration
        candidate/poison-ridge crawl with closed-form line searches.  The
        gamma-constrained M-step is not expressible in the accelerated
        kernel (plain normalising M-step only), so EMF*/CEMF* refits stay
        on the plain kernel, warm-started from the unconstrained solution.
        """
        transform = self._poison_transform(state, positions)
        if gamma_hat is not None and len(positions):
            return em_reconstruct(
                transform,
                counts_flat,
                initial=initial,
                poison_mass=(gamma_hat, state.dense.shape[1]),
                tol=1e-9,
                max_iter=10_000,
            )
        gap_tol = 1e-3 * self.min_likelihood_gain
        fit = em_reconstruct_accelerated(
            transform,
            counts_flat,
            initial=initial,
            tol=1e-12,
            max_iter=2_000,
            gap_tol=gap_tol,
        )
        if len(positions) and state.has_background and not fit.converged:
            fit = self._polish_ridge(
                transform,
                counts_flat,
                fit.weights,
                state.dense.shape[1],
                positions,
                gap_tol,
            )
        return fit

    def probe_poisoned_categories(self, counts) -> tuple[List[int], List[float]]:
        """Min-decode-flagged, likelihood-verified poisoned heavy hitters."""
        state = self._probe(self._check_counts(counts))
        return [int(state.candidates[p]) for p in state.positions], state.gains

    def _decode_initial(self, state: _ProbeState) -> np.ndarray:
        """Decode-based warm start for the dense incumbent solve.

        The mean decode is a consistent estimator of exactly the weights the
        incumbent EM solves for, so starting there skips the multiplicative
        crawl that dominates a uniform start: the candidate set typically
        contains dozens of near-zero categories (decode-noise order
        statistics), and multiplicative EM shrinks a uniform-initialised
        weight to ~1e-5 only geometrically — tens of thousands of iterations
        that the warm start replaces with a few hundred.
        """
        decoded = np.clip(state.decoded, 1e-6, None)
        if state.has_background:
            background = max(1e-3, 1.0 - float(decoded.sum()))
            decoded = np.concatenate([decoded, [background]])
        return decoded / decoded.sum()

    def _verify_flags(
        self,
        counts_flat: np.ndarray,
        state: _ProbeState,
        flagged: np.ndarray,
        incumbent: EMResult,
        gap_tol: float,
    ) -> np.ndarray | None:
        """Certified accept/reject of a flagged set; weights on accept.

        The achieved likelihood of the flagged model is a valid lower bound
        at *any* iteration, so the solve accepts as soon as it beats the
        incumbent's certified optimum by ``min_likelihood_gain`` — under a
        real attack that happens within the first few hundred iterations,
        long before the candidate/poison ridge converges.  Rejection uses
        the solver's ``ll_floor`` duality-gap certificate (the flagged
        optimum provably cannot reach the bar), which fires quickly on
        clean data where the true joint gain is ~0.  Between chunks the
        ridge polish (:meth:`_polish_ridge`) jumps the iterate along the
        candidate/poison ridge — on clean rounds that lands the solve at
        its certified optimum within a chunk or two, so the reject decision
        never grinds across the ridge one EM step at a time.  The solve
        runs in chunks so an undecided set cannot grind; exhausting the
        budget rejects conservatively.
        """
        transform = self._poison_transform(state, flagged)
        weights = self._poison_heavy_initial(incumbent.weights, flagged)
        floor = incumbent.log_likelihood + self.min_likelihood_gain
        budget = _VERIFY_MAX_ITER
        while budget > 0:
            chunk = min(_VERIFY_CHUNK, budget)
            fit = em_reconstruct_accelerated(
                transform,
                counts_flat,
                initial=weights,
                tol=1e-12,
                max_iter=chunk,
                gap_tol=gap_tol,
                ll_floor=floor,
            )
            weights = fit.weights
            budget -= fit.n_iterations
            if fit.log_likelihood >= floor + gap_tol:
                # the incumbent is certified within gap_tol of its optimum,
                # so this achieved likelihood certifies the joint gain
                return weights
            if fit.converged or fit.n_iterations < chunk:
                # converged below the bar, or the ll_floor certificate fired
                return None
            if state.has_background:
                fit = self._polish_ridge(
                    transform,
                    counts_flat,
                    weights,
                    state.dense.shape[1],
                    list(flagged),
                    gap_tol,
                )
                weights = fit.weights
                if fit.log_likelihood >= floor + gap_tol:
                    return weights
                if fit.converged:
                    # certified within gap_tol of the flagged optimum and
                    # still below the bar
                    return None
        return None

    def _one_shot_gains(
        self,
        counts_flat: np.ndarray,
        state: _ProbeState,
        flagged: np.ndarray,
        incumbent: EMResult,
    ) -> tuple[List[float], List[bool]]:
        """Single-flag likelihood gains over the incumbent, one solve each.

        Each flag gets the refit's certified solve
        (:meth:`_reconstruct_reduced`: accelerated EM, then the ridge
        polish) on the model with that flag's poison column alone,
        warm-started from the poison-heavy side.  A converged gain is
        certified within ``gap_tol`` of the single-flag optimum; the
        second list says which were, and an uncertified gain is still an
        achieved lower bound.
        """
        fits = [
            self._reconstruct_reduced(
                counts_flat,
                state,
                [position],
                initial=self._poison_heavy_initial(incumbent.weights, [position]),
            )
            for position in map(int, flagged)
        ]
        return (
            [float(fit.log_likelihood - incumbent.log_likelihood) for fit in fits],
            [bool(fit.converged) for fit in fits],
        )

    @profiled_stage("probe")
    def _probe(self, counts: np.ndarray) -> _ProbeState:
        """Flag poison by row-minimum decode; verify the set by likelihood.

        Stage ``probe.decode`` builds the reduced problem (min-decode
        candidate ranking) and computes the flag statistic: each candidate's
        *row-minimum* debiased decode.  Targeted sketch poison must elevate
        all ``rows`` of a target's cells to move its estimate, so a true
        target's minimum stays at its inflated decode, while a collision
        artifact is elevated in only the colliding rows (minimum ~ 0) and an
        honest heavy hitter sits at its true frequency.  A candidate is
        flagged when its minimum clears both ``flag_relative_cut`` of the
        largest minimum and the ``FLAG_NOISE_SIGMAS``-sigma noise floor.

        Stage ``probe.em`` verifies: the flag set is accepted only if its
        joint poison model beats the dense-only incumbent by
        ``min_likelihood_gain`` — the global q-spread-deficit test (module
        docstring).  Both solves carry duality-gap certificates, so accept
        (achieved gain) and reject (certified bound) are both sound; a clean
        round whose honest heavies pass the relative cut is rejected here,
        their joint gain being ~0.  Known limitation: the relative cut
        compares within the candidate set, so an honest heavy whose
        frequency is comparable to a true target's inflated decode is
        flagged along with it; the estimator's low-mass suppression (CEMF*)
        is the second line of defense.
        """
        with stage("probe.decode"):
            state = self._reduced_problem(counts)
            min_decoded = self.mechanism.estimate_categories(
                counts, state.candidates, reduce="min"
            )
            state.min_decoded = min_decoded
            noise_floor = FLAG_NOISE_SIGMAS * self.mechanism.frequency_stderr(
                int(counts.sum())
            )
            cut = max(
                self.flag_relative_cut * float(min_decoded.max()), noise_floor
            )
            flagged = np.flatnonzero(min_decoded >= cut)
            flagged = flagged[np.argsort(-min_decoded[flagged], kind="stable")]
            flagged = flagged[: self.max_poisoned]
        with stage("probe.em"):
            counts_flat = state.class_counts(counts)
            gap_tol = 1e-3 * self.min_likelihood_gain
            incumbent = em_reconstruct_accelerated(
                state.dense,
                counts_flat,
                initial=self._decode_initial(state),
                tol=1e-12,
                max_iter=200_000,
                gap_tol=gap_tol,
            )
            state.weights = incumbent.weights
            if flagged.size:
                verified = self._verify_flags(
                    counts_flat, state, flagged, incumbent, gap_tol
                )
                if verified is not None:
                    state.positions = [int(m) for m in flagged]
                    state.weights = verified
                    state.gains, state.gains_certified = self._one_shot_gains(
                        counts_flat, state, flagged, incumbent
                    )
        return state

    def estimate(self, reports: np.ndarray) -> SketchFrequencyDAPResult:
        """Full collector pipeline from raw ``(row, bucket)`` reports."""
        return self.estimate_from_counts(self.mechanism.fold(reports))

    def estimate_from_counts(self, counts) -> SketchFrequencyDAPResult:
        """The collector pipeline on sketch counts (the sufficient statistic).

        Accepts the raw ``(rows, width)`` count matrix or the accumulator
        produced by :meth:`collect_sharded`.  Sketch counts folded over
        blocks equal the one-shot fold of all reports, so this path is
        report-order invariant.
        """
        counts = self._check_counts(counts)
        state = self._probe(counts)
        counts_flat = state.class_counts(counts)
        positions = list(state.positions)

        with stage("aggregate"):
            # the probe's verification solve is the same reduced model, so
            # its converged weights warm-start the refit
            emf = self._reconstruct_reduced(
                counts_flat, state, positions, initial=state.weights
            )
            n_dense = state.dense.shape[1]
            gamma_hat = (
                float(emf.weights[n_dense:].sum()) if positions else 0.0
            )

            if self.estimator == "emf" or not positions:
                weights = emf.weights
            else:
                initial = emf.weights
                if self.estimator == "cemf_star":
                    poison_mass = emf.weights[n_dense:]
                    keep = np.flatnonzero(~suppression_mask(poison_mass, gamma_hat))
                    if keep.size < len(positions):
                        positions = [positions[index] for index in keep]
                        initial = np.concatenate(
                            [emf.weights[:n_dense], poison_mass[keep]]
                        )
                        initial = initial / initial.sum()
                weights = self._reconstruct_reduced(
                    counts_flat,
                    state,
                    positions,
                    gamma_hat=gamma_hat,
                    initial=initial,
                ).weights

            normal = np.clip(weights[:n_dense], 0.0, None)
            total = normal.sum()
            if total > 0:
                normal = normal / total
            else:
                normal = np.full(n_dense, 1.0 / n_dense)
            n_candidates = state.candidates.size
            frequencies = normal[:n_candidates]
            background = float(normal[-1]) if state.has_background else 0.0
        return SketchFrequencyDAPResult(
            heavy_hitters=state.candidates.copy(),
            frequencies=frequencies,
            decoded=state.decoded.copy(),
            background_mass=background,
            poisoned_categories=[int(state.candidates[p]) for p in state.positions],
            gamma_hat=gamma_hat,
            log_likelihood_gains=state.gains,
            gains_certified=state.gains_certified,
            refit_converged=bool(emf.converged),
            mechanism=self.mechanism,
            sketch_counts=counts,
            amplification=self.plan.ledger([self.epsilon], [int(counts.sum())]),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SketchFrequencyDAP(epsilon={self.epsilon:g}, "
            f"n_categories={self.n_categories}, "
            f"rows={self.sketch_rows}, width={self.sketch_width}, "
            f"estimator={self.estimator!r})"
        )


__all__ = ["SketchFrequencyDAP", "SketchFrequencyDAPResult"]
