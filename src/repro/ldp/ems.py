"""Generic Expectation-Maximisation reconstruction (EM and EMS).

Both the Square Wave estimator (EMS, Li et al.) and the paper's EMF family are
instances of the same computation: given

* a column-stochastic *transition matrix* ``A`` of shape ``(d', K)`` where
  ``A[i, k] = Pr[report falls in output bucket i | latent component k]``, and
* observed output-bucket counts ``c`` of length ``d'``,

find the latent mixture weights ``F`` (length ``K``, summing to one) that
maximise the log-likelihood ``sum_i c_i * log((A @ F)_i)``.

The EM update is

* E-step:  ``P_k = F_k * sum_i c_i * A[i, k] / (A @ F)_i``
* M-step:  ``F_k = P_k / sum_j P_j``

EMF* and CEMF* only change the M-step (they renormalise the normal-user and
poison blocks separately), so :func:`em_reconstruct` accepts an optional
``m_step`` callback.  EMS adds a smoothing pass over the reconstructed
histogram after each M-step (binomial kernel ``[1, 2, 1] / 4``), which is what
``expectation_maximization_smoothing`` provides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.backends import get_backend

MStep = Callable[[np.ndarray], np.ndarray]

#: minimum dense work saved per iteration (indicator columns x output rows)
#: before the split products beat plain BLAS; below this the gather/scatter
#: overhead dominates and the dense path is both faster and byte-stable with
#: the historical implementation
_INDICATOR_MIN_SAVINGS = 1 << 14


@dataclass
class EMResult:
    """Outcome of an EM reconstruction.

    Attributes
    ----------
    weights:
        Final latent mixture weights (length ``K``).
    log_likelihood:
        Log-likelihood at the final iterate.
    n_iterations:
        Number of EM iterations performed.
    converged:
        Whether the tolerance was reached before ``max_iter``.
    """

    weights: np.ndarray
    log_likelihood: float
    n_iterations: int
    converged: bool


def _validate_em_inputs(
    transform: np.ndarray,
    counts: np.ndarray,
    initial: Optional[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared preamble of the scalar EM kernels.

    Validates the transform/counts geometry and returns the normalised
    initial weights (uniform when ``initial`` is ``None``), so the kernels'
    input contracts stay in lockstep.
    """
    transform = np.asarray(transform, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if transform.ndim != 2:
        raise ValueError(f"transform must be 2-D, got shape {transform.shape}")
    d_out, n_components = transform.shape
    if counts.shape != (d_out,):
        raise ValueError(
            f"counts must have length {d_out} (transform rows), got {counts.shape}"
        )
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    if counts.sum() == 0:
        raise ValueError("counts must contain at least one observation")
    if initial is None:
        weights = np.full(n_components, 1.0 / n_components)
    else:
        weights = np.asarray(initial, dtype=float).copy()
        if weights.shape != (n_components,):
            raise ValueError(
                f"initial weights must have length {n_components}, got {weights.shape}"
            )
        total = weights.sum()
        if total <= 0:
            raise ValueError("initial weights must have positive mass")
        weights = weights / total
    return transform, counts, weights


def em_reconstruct(
    transform: np.ndarray,
    counts: np.ndarray,
    initial: Optional[np.ndarray] = None,
    max_iter: int = 10_000,
    tol: float = 1e-6,
    m_step: Optional[MStep] = None,
    fixed_zero: Optional[np.ndarray] = None,
    indicator_tail: Optional[np.ndarray] = None,
    gap_tol: Optional[float] = None,
) -> EMResult:
    """Run EM on a latent-mixture reconstruction problem.

    Parameters
    ----------
    transform:
        ``(d', K)`` transition matrix; every column should sum to (at most) 1.
    counts:
        Observed counts per output bucket, length ``d'``.
    initial:
        Optional initial weights; defaults to uniform over the ``K`` components.
    max_iter, tol:
        Convergence is declared when the absolute log-likelihood improvement
        drops below ``tol``.
    m_step:
        Optional replacement for the default "normalise to one" M-step.  The
        callback receives the un-normalised responsibilities ``P`` and must
        return the next weight vector.
    fixed_zero:
        Optional boolean mask of components forced to zero throughout (used by
        CEMF* bucket suppression).
    indicator_tail:
        Optional row indices declaring that the trailing ``len(indicator_tail)``
        columns of ``transform`` are one-hot indicator columns: column
        ``K - P + j`` is 1 at row ``indicator_tail[j]`` and 0 elsewhere (the
        EMF poison block and the k-RR poison columns have exactly this shape).
        Both per-iteration matrix products then split into a dense product
        over the leading columns plus a gather/scatter over the indicator
        rows, cutting the cost from ``O(d' * K)`` to ``O(d' * (K - P))`` —
        the dominant cost of large-population EMF runs, where the poison
        block holds half the output grid.  The indices must be unique and the
        declared columns genuinely one-hot (spot-checked).
    gap_tol:
        Optional optimality-gap stopping rule.  The log-likelihood is concave
        in the weights, so at any iterate ``F`` with gradient
        ``g = A^T (c / (A F))`` the optimum is bounded by
        ``LL* <= LL(F) + max_k g_k - sum_k F_k g_k`` — both terms the E-step
        already computes.  When the gap drops below ``gap_tol`` the iterate's
        likelihood is *certified* to be within ``gap_tol`` of the optimum and
        the loop stops (converged), typically long before the per-iteration
        improvement crawls under ``tol``.  ``None`` (the default) keeps the
        historical, bit-stable ``tol``-only behaviour.  Components pinned by
        ``fixed_zero`` are excluded from the gradient max; a non-default
        ``m_step`` constrains the feasible set further, which only loosens
        the (still valid) bound.

    Returns
    -------
    EMResult
    """
    transform, counts, weights = _validate_em_inputs(transform, counts, initial)
    d_out, n_components = transform.shape
    backend = get_backend()

    zero_mask = None
    if fixed_zero is not None:
        zero_mask = np.asarray(fixed_zero, dtype=bool)
        if zero_mask.shape != (n_components,):
            raise ValueError("fixed_zero mask must align with the number of components")
        weights = weights.copy()
        weights[zero_mask] = 0.0
        total = weights.sum()
        if total <= 0:
            raise ValueError("fixed_zero mask suppresses every component")
        weights /= total

    if indicator_tail is not None and (
        np.asarray(indicator_tail).size * d_out < _INDICATOR_MIN_SAVINGS
    ):
        # too small to pay for the split products; a deterministic function
        # of the problem shape, so any two runs on the same statistics still
        # take the same branch
        indicator_tail = None
    if indicator_tail is not None:
        tail = np.asarray(indicator_tail, dtype=np.intp).ravel()
        n_dense = n_components - tail.size
        if n_dense < 0:
            raise ValueError(
                f"indicator_tail declares {tail.size} indicator columns but the "
                f"transform only has {n_components}"
            )
        if tail.size and (
            tail.size != np.unique(tail).size
            or not np.all(transform[tail, np.arange(n_dense, n_components)] == 1.0)
        ):
            raise ValueError(
                "indicator_tail rows must be unique and each declared column "
                "must be 1.0 at its indicator row"
            )
        dense = np.ascontiguousarray(transform[:, :n_dense])

        def _mixture(w: np.ndarray) -> np.ndarray:
            out = backend.matvec(dense, w[:n_dense])
            if tail.size:
                out[tail] += w[n_dense:]
            return out

        def _aggregate(v: np.ndarray) -> np.ndarray:
            out = np.empty(n_components)
            out[:n_dense] = backend.rmatvec(dense, v)
            out[n_dense:] = v[tail]
            return out

    else:

        def _mixture(w: np.ndarray) -> np.ndarray:
            return backend.matvec(transform, w)

        def _aggregate(v: np.ndarray) -> np.ndarray:
            return backend.rmatvec(transform, v)

    # One matrix-vector product per iteration: the mixture computed for the
    # convergence check is exactly the mixture the next E-step needs, so it is
    # carried forward instead of being recomputed (bit-identical, ~1/3 fewer
    # BLAS calls).  The mixture is clamped once, right after it is computed —
    # the clamped values serve both the log-likelihood (clamping commutes with
    # the mask) and the next E-step division, instead of being re-clamped in
    # each place.  The log-likelihood mask is constant across iterations.
    mask = counts > 0
    masked_counts = counts[mask]
    mixture = np.maximum(_mixture(weights), 1e-300)
    prev_ll = float(np.dot(masked_counts, np.log(mixture[mask])))
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        # responsibilities aggregated over output buckets
        aggregate = _aggregate(counts / mixture)
        if gap_tol is not None:
            feasible_max = (
                aggregate.max()
                if zero_mask is None
                else aggregate[~zero_mask].max()
            )
            if feasible_max - float(np.dot(weights, aggregate)) < gap_tol:
                # certified: no feasible weights beat prev_ll by >= gap_tol
                iteration -= 1
                converged = True
                break
        responsibilities = weights * aggregate
        if zero_mask is not None:
            responsibilities[zero_mask] = 0.0
        if m_step is None:
            total = responsibilities.sum()
            if total <= 0:
                break
            weights = responsibilities / total
        else:
            weights = np.asarray(m_step(responsibilities), dtype=float)
            if zero_mask is not None:
                weights = weights.copy()
                weights[zero_mask] = 0.0
        mixture = np.maximum(_mixture(weights), 1e-300)
        ll = float(np.dot(masked_counts, np.log(mixture[mask])))
        if abs(ll - prev_ll) < tol:
            prev_ll = ll
            converged = True
            break
        prev_ll = ll

    return EMResult(
        weights=weights,
        log_likelihood=prev_ll,
        n_iterations=iteration,
        converged=converged,
    )


def em_reconstruct_accelerated(
    transform: np.ndarray,
    counts: np.ndarray,
    initial: Optional[np.ndarray] = None,
    max_iter: int = 10_000,
    tol: float = 1e-6,
    gap_tol: Optional[float] = None,
    ll_floor: Optional[float] = None,
    stall_tol: Optional[float] = None,
) -> EMResult:
    """SQUAREM-accelerated EM for the plain (normalising) M-step.

    EM's terminal phase on nearly-flat likelihood directions advances by a
    vanishing amount per iteration; squared extrapolation (Varadhan &
    Roland's SQUAREM, scheme S3) jumps along the direction two successive EM
    steps agree on: from ``F0`` take ``F1 = EM(F0)``, ``F2 = EM(F1)``, set
    ``r = F1 - F0``, ``v = (F2 - F1) - r`` and step to
    ``F0 - 2*a*r + a^2*v`` with ``a = -||r|| / ||v||``, followed by one
    stabilising EM step; whenever the extrapolated likelihood falls short of
    the plain two-step likelihood, the cycle falls back to ``F2``, so the
    iteration stays monotone and converges to the same (global, the
    likelihood being concave) maximiser as :func:`em_reconstruct` — in far
    fewer iterations on the crawl regimes where it matters.

    The counter weighs each cycle as its number of EM-equivalent steps.  Use
    for hypothesis *evaluation* (where only the converged likelihood and
    weights matter); keep :func:`em_reconstruct` where the historical
    iterate-for-iterate sequence must be preserved.
    """
    transform, counts, weights = _validate_em_inputs(transform, counts, initial)
    backend = get_backend()

    mask = counts > 0
    masked_counts = counts[mask]

    def _mixture(w: np.ndarray) -> np.ndarray:
        return np.maximum(backend.matvec(transform, w), 1e-300)

    def _log_likelihood(m: np.ndarray) -> float:
        return float(np.dot(masked_counts, np.log(m[mask])))

    def _em_step(w: np.ndarray, m: np.ndarray) -> Optional[np.ndarray]:
        out = w * backend.rmatvec(transform, counts / m)
        total = out.sum()
        if total <= 0:
            return None
        return out / total

    mixture = _mixture(weights)
    prev_ll = _log_likelihood(mixture)
    iteration = 0
    converged = False
    while iteration < max_iter:
        if gap_tol is not None:
            gradient = backend.rmatvec(transform, counts / mixture)
            gap = float(gradient.max() - np.dot(weights, gradient))
            if gap < gap_tol:
                converged = True
                break
            if ll_floor is not None and prev_ll + gap < ll_floor:
                break  # certified below the floor: unconverged lower bound
        f1 = _em_step(weights, mixture)
        if f1 is None:
            break
        m1 = _mixture(f1)
        f2 = _em_step(f1, m1)
        if f2 is None:
            weights, mixture = f1, m1
            prev_ll = _log_likelihood(m1)
            iteration += 1
            break
        iteration += 2
        best_w, best_m = f2, _mixture(f2)
        best_ll = _log_likelihood(best_m)
        r = f1 - weights
        v = (f2 - f1) - r
        vv = float(np.dot(v, v))
        if vv > 0:
            alpha = -np.sqrt(float(np.dot(r, r)) / vv)
            if alpha < -1.0:  # alpha == -1 reproduces f2 exactly
                extrapolated = weights - 2.0 * alpha * r + (alpha * alpha) * v
                # floor, don't clip: a weight extrapolated to exactly zero is
                # an absorbing state of the multiplicative EM update, and a
                # long jump that zeroes a needed coordinate would otherwise
                # park the iteration on a boundary face it can never leave
                np.maximum(extrapolated, 1e-16, out=extrapolated)
                total = extrapolated.sum()
                if total > 0:
                    stabilised = _em_step(
                        extrapolated / total, _mixture(extrapolated / total)
                    )
                    if stabilised is not None:
                        iteration += 1
                        candidate_m = _mixture(stabilised)
                        candidate_ll = _log_likelihood(candidate_m)
                        if candidate_ll >= best_ll:
                            best_w, best_m, best_ll = (
                                stabilised,
                                candidate_m,
                                candidate_ll,
                            )
        weights, mixture = best_w, best_m
        delta = abs(best_ll - prev_ll)
        prev_ll = best_ll
        if stall_tol is not None and ll_floor is not None and best_ll < ll_floor and delta < stall_tol:
            # a sub-floor hypothesis stalling: see the batched kernel's
            # stall_tol rationale
            converged = True
            break
        if delta < tol:
            if gap_tol is not None:
                # the caller asked for a certificate, so an ll-stall alone
                # does not end the solve: a near-boundary iterate can make
                # sub-tol progress for many cycles while the duality gap
                # still certifies it far from the optimum
                gradient = backend.rmatvec(transform, counts / mixture)
                if float(gradient.max() - np.dot(weights, gradient)) >= gap_tol:
                    continue
            converged = True
            break

    return EMResult(
        weights=weights,
        log_likelihood=prev_ll,
        n_iterations=min(iteration, max_iter),
        converged=converged,
    )


@dataclass
class BatchEMResult:
    """Outcome of a batched multi-hypothesis EM reconstruction.

    Attributes
    ----------
    weights:
        Final latent weights, one row per hypothesis (``(H, K)``); padded
        tail columns (see :func:`em_reconstruct_batch`) hold zeros.
    log_likelihoods:
        Log-likelihood of each hypothesis at its final iterate (``(H,)``).
    n_iterations:
        EM iterations each hypothesis performed before converging (``(H,)``).
    converged:
        Whether each hypothesis met the tolerance before ``max_iter``.
    screened:
        Whether a hypothesis was stopped early by the ``ll_floor`` screen —
        its certified optimum lies *below* the floor, so its reported
        log-likelihood is a valid lower bound that can never reach the floor.
    """

    weights: np.ndarray
    log_likelihoods: np.ndarray
    n_iterations: np.ndarray
    converged: np.ndarray
    screened: np.ndarray


def _scatter_tail(out: np.ndarray, tail_weights: np.ndarray, rows: np.ndarray) -> None:
    """Add ``tail_weights[h, t]`` to ``out[h, rows[h, t]]`` in place.

    One ``bincount`` over the flat ``(hypothesis, row)`` cells sums every
    tail column's mass, so the call count does not grow with the tail width.
    """
    n_rows, d_out = out.shape
    cells = np.arange(0, n_rows * d_out, d_out)[:, None] + rows
    out += np.bincount(
        cells.ravel(), weights=tail_weights.ravel(), minlength=out.size
    ).reshape(out.shape)


def _gather_tail(ratios: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Tail gradients ``ratios[h, rows[h, t]]``, shape ``(H, T)``."""
    return ratios[np.arange(rows.shape[0])[:, None], rows]


def em_reconstruct_batch(
    dense: np.ndarray,
    counts: np.ndarray,
    tail_rows: np.ndarray,
    tail_mask: Optional[np.ndarray] = None,
    initial: Optional[np.ndarray] = None,
    max_iter: int = 10_000,
    tol: float = 1e-6,
    gap_tol: Optional[float] = None,
    ll_floor: Optional[float] = None,
) -> BatchEMResult:
    """Run EM on a batch of hypotheses sharing one dense transform block.

    Hypothesis ``h`` has the transition matrix ``[dense | E_h]`` where
    ``E_h`` holds one one-hot *indicator* column per entry of
    ``tail_rows[h]`` (column ``t`` is 1 at output row ``tail_rows[h, t]``).
    This is exactly the shape of the EMF poison block and of the k-RR poison
    columns, so one batch evaluates every candidate poison hypothesis of a
    greedy probing round — or both side hypotheses of Algorithm 3 — at once:
    each EM iteration advances *all* still-active hypotheses with a single
    BLAS matrix product over the shared dense block plus one scatter and one
    gather over the indicator rows (a fixed number of numpy calls, whatever
    the tail width), instead of one full EM solve per hypothesis.

    Parameters
    ----------
    dense:
        ``(d', n_dense)`` shared dense block (each column a sub-distribution
        over the output buckets).
    counts:
        Observed output-bucket counts, length ``d'`` (shared by every
        hypothesis — they explain the same observations).
    tail_rows:
        ``(H, T)`` integer array of indicator rows.
        Hypotheses with fewer than ``T`` real tail columns are *padded*:
        repeat any of their real rows and mark the padding ``False`` in
        ``tail_mask`` — padded components are pinned to weight zero and
        never influence the fit.
    tail_mask:
        Optional ``(H, T)`` boolean mask of real (non-padding) tail columns;
        ``None`` means every column is real.
    initial:
        Optional ``(H, K)`` initial weights (``K = n_dense + T``); defaults
        to per-hypothesis uniform over the real components.  Rows are
        normalised; padded entries are forced to zero.  Warm starts go here.
    max_iter, tol:
        Per-hypothesis convergence controls, with the same semantics as
        :func:`em_reconstruct`: a hypothesis stops when its absolute
        log-likelihood improvement drops below ``tol`` (convergence masking —
        finished hypotheses stop consuming compute while stragglers iterate).
    gap_tol:
        Optional optimality-gap stopping rule (see :func:`em_reconstruct`):
        a hypothesis whose certified gap ``max_k g_k - sum_k F_k g_k`` drops
        below ``gap_tol`` stops converged, its likelihood provably within
        ``gap_tol`` of its optimum.  EM's terminal crawl — thousands of
        iterations each improving the likelihood by less than ``tol`` — is
        exactly the regime this skips.
    ll_floor:
        Optional screening floor: a hypothesis whose certified *upper* bound
        ``LL + max_k g_k - sum_k F_k g_k`` falls below ``ll_floor`` can never
        reach the floor, so it is stopped immediately and flagged in
        ``screened``.  This is how a greedy probing round discards candidates
        that provably cannot achieve the acceptance gain, without running
        them to convergence.

    Returns
    -------
    BatchEMResult
    """
    dense = np.asarray(dense, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if dense.ndim != 2:
        raise ValueError(f"dense block must be 2-D, got shape {dense.shape}")
    d_out, n_dense = dense.shape
    if counts.shape != (d_out,):
        raise ValueError(
            f"counts must have length {d_out} (dense rows), got {counts.shape}"
        )
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    if counts.sum() == 0:
        raise ValueError("counts must contain at least one observation")
    tail_rows = np.asarray(tail_rows, dtype=np.intp)
    if tail_rows.ndim != 2:
        raise ValueError(f"tail_rows must be (H, T), got shape {tail_rows.shape}")
    n_hypotheses, n_tail = tail_rows.shape
    if n_hypotheses == 0:
        raise ValueError("at least one hypothesis is required")
    if n_tail and (tail_rows.min() < 0 or tail_rows.max() >= d_out):
        raise ValueError("tail_rows must index output rows of the dense block")
    if tail_mask is None:
        tail_mask = np.ones((n_hypotheses, n_tail), dtype=bool)
    else:
        tail_mask = np.asarray(tail_mask, dtype=bool)
        if tail_mask.shape != (n_hypotheses, n_tail):
            raise ValueError(
                f"tail_mask must have shape {(n_hypotheses, n_tail)}, got "
                f"{tail_mask.shape}"
            )
    n_components = n_dense + n_tail
    real_counts = n_dense + tail_mask.sum(axis=1)
    backend = get_backend()

    if initial is None:
        weights = np.repeat(1.0 / real_counts[:, None], n_components, axis=1)
        weights[:, n_dense:][~tail_mask] = 0.0
    else:
        weights = np.array(initial, dtype=float)
        if weights.shape != (n_hypotheses, n_components):
            raise ValueError(
                f"initial weights must have shape "
                f"{(n_hypotheses, n_components)}, got {weights.shape}"
            )
        weights[:, n_dense:][~tail_mask] = 0.0
        totals = weights.sum(axis=1)
        if np.any(totals <= 0):
            raise ValueError("every hypothesis needs positive initial mass")
        weights /= totals[:, None]

    mask = counts > 0
    masked_counts = counts[mask]
    full_mask = bool(mask.all())

    # The inner loop operates on *compacted* state — only the still-active
    # hypotheses — and writes a hypothesis back to the full-size output
    # arrays the moment it finishes, so converged hypotheses stop costing
    # anything (convergence masking) and the loop never pays fancy-indexed
    # scatters into the full arrays per iteration.
    def _mixtures(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Clamped mixtures for the active block: one GEMM + one scatter."""
        out = backend.matmul(w[:, :n_dense], dense.T)
        # padded columns add exact zeros, so a cell that one real tail column
        # hits reads exactly GEMM + weight
        _scatter_tail(out, w[:, n_dense:], rows)
        return np.maximum(out, 1e-300)

    def _log_likelihoods(mixtures: np.ndarray) -> np.ndarray:
        if full_mask:
            return np.log(mixtures) @ masked_counts
        return np.log(mixtures[:, mask]) @ masked_counts

    log_likelihoods = np.empty(n_hypotheses)
    n_iterations = np.zeros(n_hypotheses, dtype=np.intp)
    converged = np.zeros(n_hypotheses, dtype=bool)
    screened = np.zeros(n_hypotheses, dtype=bool)

    use_bounds = gap_tol is not None or ll_floor is not None
    has_pads = not bool(tail_mask.all())

    active = np.arange(n_hypotheses)  # original hypothesis ids, compacted
    w_active = weights.copy()
    rows_active = tail_rows
    mask_active = tail_mask
    mixtures = _mixtures(w_active, rows_active)
    ll_active = _log_likelihoods(mixtures)
    log_likelihoods[:] = ll_active
    # In certified mode a handful of stragglers finish on the accelerated
    # scalar solver — extrapolation beats batching once the joint fan-out is
    # gone, and the finisher also stops when a whole accelerated cycle
    # improves the likelihood by less than an eighth of ``gap_tol`` (the
    # caller's own declaration of decision-irrelevant margin), so it never
    # grinds for certification precision no decision can see.  In bit-stable
    # mode only a lone straggler leaves the joint loop, onto the plain
    # scalar kernel, continuing the same update semantics (iterate-level
    # floating point differs from the joint GEMM's summation order either
    # way — callers needing bit-stability use the scalar kernel outright).
    straggler_cutoff = 3 if gap_tol is not None else 1
    # Certified mode stops a *sub-floor* hypothesis when its per-iteration
    # improvement drops below an eighth of gap_tol: a candidate crawling
    # beneath the acceptance floor is in EM's terminal wander (deltas orders
    # of magnitude above a 1e-9 tol yet going nowhere) and would otherwise
    # pin the whole batch at max_iter.  Hypotheses currently at or above the
    # floor — the potential winners, whose converged likelihood becomes the
    # next round's baseline — keep the full tolerance.  Unlike the ll_floor
    # screen this is a stopping *heuristic*, not a certificate (a winner
    # could in principle crawl below the floor before rising); callers rely
    # on the selection-equivalence tests and the benchmark's
    # selections-match gate, not on a proof.
    stall_tol = (
        max(tol, 0.125 * gap_tol)
        if gap_tol is not None and ll_floor is not None
        else None
    )
    iteration = 0
    while active.size and iteration < max_iter:
        if active.size <= straggler_cutoff:
            for position, h in enumerate(map(int, active)):
                real = np.ones(n_components, dtype=bool)
                real[n_dense:] = tail_mask[h]
                real_rows = tail_rows[h][tail_mask[h]]
                n_real_tail = real_rows.shape[0]
                transform = np.zeros((d_out, n_dense + n_real_tail))
                transform[:, :n_dense] = dense
                transform[real_rows, n_dense + np.arange(n_real_tail)] = 1.0
                budget = max_iter - iteration
                if gap_tol is not None:
                    result = em_reconstruct_accelerated(
                        transform,
                        counts,
                        initial=w_active[position][real],
                        max_iter=budget,
                        tol=tol,
                        gap_tol=gap_tol,
                        ll_floor=ll_floor,
                        stall_tol=stall_tol,
                    )
                    if (
                        ll_floor is not None
                        and not result.converged
                        and result.n_iterations < budget
                    ):
                        # the finisher stopped early without converging:
                        # that is its certified-below-the-floor break
                        screened[h] = True
                else:
                    result = em_reconstruct(
                        transform,
                        counts,
                        initial=w_active[position][real],
                        max_iter=budget,
                        tol=tol,
                        indicator_tail=real_rows,
                    )
                weights[h][real] = result.weights
                weights[h][~real] = 0.0
                log_likelihoods[h] = result.log_likelihood
                n_iterations[h] = iteration + result.n_iterations
                converged[h] = result.converged
            active = active[:0]
            break
        iteration += 1
        ratios = counts / mixtures  # zero counts contribute zero everywhere
        aggregates = np.empty((active.size, n_components))
        backend.matmul(ratios, dense, out=aggregates[:, :n_dense])
        aggregates[:, n_dense:] = _gather_tail(ratios, rows_active)
        responsibilities = w_active * aggregates
        totals = responsibilities.sum(axis=1)
        if use_bounds:
            # certified optimality gap at the current iterate (see gap_tol):
            # the aggregate IS the likelihood gradient and totals its inner
            # product with the weights, so the bounds come almost for free
            if has_pads:
                feasible_max = np.maximum(
                    aggregates[:, :n_dense].max(axis=1),
                    np.where(mask_active, aggregates[:, n_dense:], -np.inf).max(axis=1),
                )
            else:
                feasible_max = aggregates.max(axis=1)
            gaps = feasible_max - totals
            stop_conv = (
                gaps < gap_tol
                if gap_tol is not None
                else np.zeros(active.size, dtype=bool)
            )
            if ll_floor is not None:
                stop_screen = ((ll_active + gaps) < ll_floor) & ~stop_conv
                halt = stop_conv | stop_screen
            else:
                stop_screen = np.zeros(active.size, dtype=bool)
                halt = stop_conv
            if np.any(halt):
                ids = active[halt]
                weights[ids] = w_active[halt]
                log_likelihoods[ids] = ll_active[halt]
                n_iterations[ids] = iteration - 1
                converged[ids] = stop_conv[halt]
                screened[ids] = stop_screen[halt]
                keep = ~halt
                active = active[keep]
                if active.size == 0:
                    break
                w_active = w_active[keep]
                rows_active = rows_active[keep]
                if has_pads:
                    mask_active = mask_active[keep]
                responsibilities = responsibilities[keep]
                totals = totals[keep]
                ll_active = ll_active[keep]
        dead = totals <= 0
        if np.any(dead):
            # mirror em_reconstruct: stop before the update, unconverged
            # (prior weights and log-likelihood are already in the outputs)
            weights[active[dead]] = w_active[dead]
            log_likelihoods[active[dead]] = ll_active[dead]
            n_iterations[active[dead]] = iteration
            keep = ~dead
            active = active[keep]
            if active.size == 0:
                break
            w_active = w_active[keep]
            rows_active = rows_active[keep]
            if has_pads:
                mask_active = mask_active[keep]
            responsibilities = responsibilities[keep]
            totals = totals[keep]
            ll_active = ll_active[keep]
        w_active = responsibilities / totals[:, None]
        mixtures = _mixtures(w_active, rows_active)
        lls = _log_likelihoods(mixtures)
        deltas = np.abs(lls - ll_active)
        done = deltas < tol
        if stall_tol is not None:
            done |= (lls < ll_floor) & (deltas < stall_tol)
        ll_active = lls
        if np.any(done):
            finished = active[done]
            weights[finished] = w_active[done]
            log_likelihoods[finished] = lls[done]
            converged[finished] = True
            n_iterations[finished] = iteration
            keep = ~done
            active = active[keep]
            w_active = w_active[keep]
            rows_active = rows_active[keep]
            if has_pads:
                mask_active = mask_active[keep]
            mixtures = mixtures[keep]
            ll_active = ll_active[keep]
    if active.size:
        # max_iter exhausted with several hypotheses still running
        weights[active] = w_active
        log_likelihoods[active] = ll_active
        n_iterations[active] = max_iter

    return BatchEMResult(
        weights=weights,
        log_likelihoods=log_likelihoods,
        n_iterations=n_iterations,
        converged=converged,
        screened=screened,
    )


def smooth_histogram(histogram: np.ndarray, passes: int = 1) -> np.ndarray:
    """Apply the EMS binomial smoothing kernel ``[1, 2, 1] / 4``.

    Edge buckets use the truncated kernel re-normalised over the in-range
    entries, matching Li et al.'s implementation.
    """
    histogram = np.asarray(histogram, dtype=float)
    if histogram.size < 3 or passes <= 0:
        return histogram.copy()
    out = histogram.copy()
    for _ in range(passes):
        padded = np.empty(out.size + 2)
        padded[1:-1] = out
        padded[0] = out[0]
        padded[-1] = out[-1]
        smoothed = (padded[:-2] + 2.0 * padded[1:-1] + padded[2:]) / 4.0
        total = smoothed.sum()
        if total > 0:
            smoothed *= out.sum() / total
        out = smoothed
    return out


def expectation_maximization_smoothing(
    transform: np.ndarray,
    counts: np.ndarray,
    smoothing: bool = True,
    max_iter: int = 1000,
    tol: float = 1e-6,
) -> np.ndarray:
    """EMS reconstruction used by the Square Wave estimator.

    Runs EM with a smoothing pass folded into every M-step and returns the
    normalised reconstructed histogram.
    """

    def smoothed_m_step(responsibilities: np.ndarray) -> np.ndarray:
        total = responsibilities.sum()
        if total <= 0:
            return np.full_like(responsibilities, 1.0 / responsibilities.size)
        weights = responsibilities / total
        if smoothing:
            weights = smooth_histogram(weights)
            weights = np.clip(weights, 0.0, None)
            weights /= weights.sum()
        return weights

    result = em_reconstruct(
        transform, counts, max_iter=max_iter, tol=tol, m_step=smoothed_m_step
    )
    weights = np.clip(result.weights, 0.0, None)
    total = weights.sum()
    if total <= 0:
        return np.full_like(weights, 1.0 / weights.size)
    return weights / total


__all__ = [
    "EMResult",
    "BatchEMResult",
    "em_reconstruct",
    "em_reconstruct_accelerated",
    "em_reconstruct_batch",
    "smooth_histogram",
    "expectation_maximization_smoothing",
]
