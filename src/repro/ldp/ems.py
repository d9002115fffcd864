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
poison blocks separately), which :func:`em_reconstruct` runs in place when
given ``poison_mass``.  EMS adds a smoothing pass over the reconstructed
histogram after each M-step (binomial kernel ``[1, 2, 1] / 4``) through the
``m_step`` callback, which is what ``expectation_maximization_smoothing``
provides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.utils.validation import check_fraction, check_integer

MStep = Callable[[np.ndarray], np.ndarray]

#: ``ndarray.sum`` without its method wrapper: the same pairwise summation,
#: at a fraction of the call overhead of the loop's small reductions
_sum = np.add.reduce

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
    n_tail: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared preamble of the scalar EM kernels.

    Validates the transform/counts geometry and returns the normalised
    initial weights (uniform when ``initial`` is ``None``) over the
    transform's columns plus ``n_tail`` indicator columns, so the kernels'
    input contracts stay in lockstep.
    """
    transform = np.asarray(transform, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if transform.ndim != 2:
        raise ValueError(f"transform must be 2-D, got shape {transform.shape}")
    d_out, n_components = transform.shape
    n_components += n_tail
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


def _stacked(block: np.ndarray, tail_rows: np.ndarray) -> np.ndarray:
    """``[block | one-hot column per tail row]`` as one dense matrix."""
    n_block = block.shape[1]
    stacked = np.zeros((block.shape[0], n_block + tail_rows.size))
    stacked[:, :n_block] = block
    stacked[tail_rows, n_block + np.arange(tail_rows.size)] = 1.0
    return stacked


def em_reconstruct(
    transform: np.ndarray,
    counts: np.ndarray,
    initial: Optional[np.ndarray] = None,
    max_iter: int = 10_000,
    tol: float = 1e-6,
    m_step: Optional[MStep] = None,
    fixed_zero: Optional[np.ndarray] = None,
    tail_rows: Optional[np.ndarray] = None,
    gap_tol: Optional[float] = None,
    poison_mass: Optional[tuple[float, int]] = None,
) -> EMResult:
    """Run EM on a latent-mixture reconstruction problem.

    Parameters
    ----------
    transform:
        ``(d', K - P)`` transition matrix (``P`` is the length of
        ``tail_rows``, zero without it); every column should sum to (at
        most) 1.
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
        return the next weight vector (EMS smoothing uses it).
    fixed_zero:
        Optional boolean mask of components forced to zero throughout (used by
        CEMF* bucket suppression).
    tail_rows:
        Optional output rows of ``P`` one-hot *indicator* columns appended to
        ``transform``: component ``K - P + j`` is 1 at row ``tail_rows[j]``
        and 0 elsewhere (the EMF poison block and the k-RR poison columns,
        the same meaning :func:`em_reconstruct_batch` gives its
        ``tail_rows``).  The rows must be unique and index rows of
        ``transform``.  When the indicator columns hold enough dense work
        (``P * d' >= _INDICATOR_MIN_SAVINGS``), both per-iteration matrix
        products split into a dense product over ``transform`` plus a
        gather/scatter over the indicator rows, cutting the cost from
        ``O(d' * K)`` to ``O(d' * (K - P))`` — the dominant cost of
        large-population EMF runs, where the poison block holds half the
        output grid.  Rows forming one ascending run (every EMF side band)
        are addressed as a slice.  Below that size the solver stacks the
        ``(d', K)`` matrix once per solve and runs plain dense products.
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
        ``fixed_zero`` are excluded from the gradient max; a constrained
        M-step (``m_step`` or ``poison_mass``) restricts the feasible set
        further, which only loosens the (still valid) bound.
    poison_mass:
        Optional ``(gamma, n_normal)``: Theorem 4's constrained M-step (EMF*
        and CEMF*).  The leading ``n_normal`` components are renormalised to
        hold ``1 - gamma`` of the mass and the trailing poison components to
        hold ``gamma``, each block in proportion to its responsibilities.
        Mutually exclusive with ``m_step``.

    Returns
    -------
    EMResult
    """
    tail = None if tail_rows is None else np.asarray(tail_rows, dtype=np.intp).ravel()
    transform, counts, weights = _validate_em_inputs(
        transform, counts, initial, n_tail=0 if tail is None else tail.size
    )
    d_out, n_components = transform.shape[0], weights.size
    if poison_mass is not None:
        if m_step is not None:
            raise ValueError("pass at most one of m_step and poison_mass")
        gamma, n_normal = poison_mass
        gamma = check_fraction(gamma, "gamma_hat")
        n_normal = check_integer(n_normal, "n_normal", minimum=0)
        if n_normal > n_components:
            raise ValueError(
                f"poison_mass splits at component {n_normal} but the transform "
                f"only has {n_components}"
            )

    zero = feasible = None
    if fixed_zero is not None:
        zero_mask = np.asarray(fixed_zero, dtype=bool)
        if zero_mask.shape != (n_components,):
            raise ValueError("fixed_zero mask must align with the number of components")
        weights[zero_mask] = 0.0
        total = weights.sum()
        if total <= 0:
            raise ValueError("fixed_zero mask suppresses every component")
        weights /= total
        zero = np.flatnonzero(zero_mask)
        feasible = np.flatnonzero(~zero_mask)

    # The indicator tail splits both products only when that saves enough
    # dense work to pay for the gather/scatter (a deterministic function of
    # the problem shape, so any two runs on the same statistics take the
    # same branch); otherwise the stacked matrix is the dense block.
    dense = transform
    band = None
    if tail is not None and tail.size:
        if tail.min() < 0 or tail.max() >= d_out:
            raise ValueError("tail_rows must index rows of the transform")
        steps = np.diff(tail)
        # strictly ascending rows (every EMF side band) are unique as given
        if not np.all(steps > 0) and tail.size != np.unique(tail).size:
            raise ValueError("tail_rows must be unique")
        if tail.size * d_out >= _INDICATOR_MIN_SAVINGS:
            dense = np.ascontiguousarray(transform)
            band = tail
            if np.all(steps == 1):
                band = slice(int(tail[0]), int(tail[-1]) + 1)
        else:
            dense = _stacked(transform, tail)
    n_dense = dense.shape[1]

    # Work arrays, written in place every iteration, and their block views.
    # The loop performs the historical allocating loop's floating-point
    # operations in the same order (tests/em_oracle.py pins it bit for bit):
    # the mixture is clamped once and carried into the next E-step, and the
    # log-likelihood only reads the rows with positive counts.
    mixture = np.empty(d_out)
    ratio = np.empty(d_out)
    aggregate = np.empty(n_components)
    responsibilities = np.empty(n_components)
    w_dense, w_tail = weights[:n_dense], weights[n_dense:]
    a_dense, a_tail = aggregate[:n_dense], aggregate[n_dense:]
    positive = counts > 0
    observed = None if positive.all() else np.flatnonzero(positive)
    ll_counts = counts.copy() if observed is None else counts[observed]
    log_mixture = np.empty(ll_counts.size)

    def _mixture_log_likelihood() -> float:
        dense.dot(w_dense, out=mixture)
        if band is not None:
            mixture[band] += w_tail
        np.maximum(mixture, 1e-300, out=mixture)
        np.log(mixture if observed is None else mixture[observed], out=log_mixture)
        return float(ll_counts.dot(log_mixture))

    if poison_mass is not None:
        r_normal, r_poison = responsibilities[:n_normal], responsibilities[n_normal:]
        w_normal, w_poison = weights[:n_normal], weights[n_normal:]

        def split_m_step() -> None:
            # Theorem 4: x = (1 - gamma) P_x / sum(P_x), y = gamma P_y / sum(P_y);
            # a block without responsibility mass is spread uniformly.  The
            # proportional branches keep pinned components at exactly zero
            # (their responsibilities are zeroed), so only a uniform fill
            # has to re-pin them.
            normal_total = _sum(r_normal)
            if normal_total > 0:
                np.multiply(r_normal, 1.0 - gamma, out=w_normal)
                np.divide(w_normal, normal_total, out=w_normal)
            else:
                w_normal[:] = (1.0 - gamma) / max(1, n_normal)
                if zero is not None:
                    weights[zero] = 0.0
            if not r_poison.size:
                return
            if gamma == 0.0:
                w_poison[:] = 0.0
                return
            poison_total = _sum(r_poison)
            if poison_total > 0:
                np.multiply(r_poison, gamma, out=w_poison)
                np.divide(w_poison, poison_total, out=w_poison)
            else:
                w_poison[:] = gamma / r_poison.size
                if zero is not None:
                    weights[zero] = 0.0

    prev_ll = _mixture_log_likelihood()
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        # responsibilities aggregated over output buckets
        np.divide(counts, mixture, out=ratio)
        ratio.dot(dense, out=a_dense)
        if band is not None:
            a_tail[:] = ratio[band]
        if gap_tol is not None:
            feasible_max = (
                aggregate.max() if feasible is None else aggregate[feasible].max()
            )
            if feasible_max - float(weights.dot(aggregate)) < gap_tol:
                # certified: no feasible weights beat prev_ll by >= gap_tol
                iteration -= 1
                converged = True
                break
        np.multiply(weights, aggregate, out=responsibilities)
        if zero is not None:
            responsibilities[zero] = 0.0
        if poison_mass is not None:
            split_m_step()
        elif m_step is None:
            total = _sum(responsibilities)
            if total <= 0:
                break
            np.divide(responsibilities, total, out=weights)
        else:
            weights[:] = m_step(responsibilities)
            if zero is not None:
                weights[zero] = 0.0
        ll = _mixture_log_likelihood()
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
    mask = counts > 0
    masked_counts = counts[mask]

    def _mixture(w: np.ndarray) -> np.ndarray:
        return np.maximum(transform @ w, 1e-300)

    def _log_likelihood(m: np.ndarray) -> float:
        return float(np.dot(masked_counts, np.log(m[mask])))

    def _gradient(m: np.ndarray) -> np.ndarray:
        return transform.T @ (counts / m)

    def _em_step(w: np.ndarray, gradient: np.ndarray) -> Optional[np.ndarray]:
        out = w * gradient
        total = out.sum()
        if total <= 0:
            return None
        return out / total

    mixture = _mixture(weights)
    prev_ll = _log_likelihood(mixture)
    # the likelihood gradient at ``weights``: the gap certificate and the
    # cycle's first EM step share it, so each iterate computes it once
    gradient = None
    iteration = 0
    converged = False
    while iteration < max_iter:
        if gradient is None:
            gradient = _gradient(mixture)
        if gap_tol is not None:
            gap = float(gradient.max() - np.dot(weights, gradient))
            if gap < gap_tol:
                converged = True
                break
            if ll_floor is not None and prev_ll + gap < ll_floor:
                break  # certified below the floor: unconverged lower bound
        f1 = _em_step(weights, gradient)
        if f1 is None:
            break
        m1 = _mixture(f1)
        f2 = _em_step(f1, _gradient(m1))
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
                    extrapolated /= total
                    stabilised = _em_step(
                        extrapolated, _gradient(_mixture(extrapolated))
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
        weights, mixture, gradient = best_w, best_m, None
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
                gradient = _gradient(mixture)
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


def _validate_batch_inputs(
    dense: np.ndarray,
    counts: np.ndarray,
    tail_rows: np.ndarray,
    tail_mask: Optional[np.ndarray],
    initial: Optional[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Input contract of :func:`em_reconstruct_batch`.

    Validates the geometry and returns ``(dense, counts, tail_rows,
    tail_mask, weights)``: the tail mask filled in (every column real when
    ``None``) and the normalised initial weights, padded entries zero.
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
    if n_tail > 1:
        # padding gets distinct negative stand-ins, so only a repeated
        # *real* row shows up as a tie after sorting
        real = np.sort(np.where(tail_mask, tail_rows, -1 - np.arange(n_tail)), axis=1)
        if np.any(real[:, 1:] == real[:, :-1]):
            raise ValueError("each hypothesis's real tail_rows must be unique")
    n_components = n_dense + n_tail

    if initial is None:
        real_counts = n_dense + tail_mask.sum(axis=1)
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
    return dense, counts, tail_rows, tail_mask, weights


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
    each EM iteration advances *all* still-active hypotheses with one BLAS
    product over the shared dense block in each direction, plus one gather
    and one scatter over the indicator cells (a fixed number of numpy calls,
    whatever the tail width), instead of one full EM solve per hypothesis.

    The loop keeps the active hypotheses in the leading rows of work arrays
    allocated once per solve and written with ``out=``; the flat
    ``(hypothesis, row)`` cells of the indicator columns are rebuilt only
    when a hypothesis leaves.  It performs the same floating-point
    operations in the same order as the allocating loop kept in
    ``tests/em_oracle.py`` (``tests/test_em_oracle.py`` pins weights,
    log-likelihoods, iterations, ``converged`` and ``screened`` bit for
    bit): each real tail column hits its own mixture cell once, so adding
    its weight there gives the bits of the oracle's ``bincount`` sum.

    Parameters
    ----------
    dense:
        ``(d', n_dense)`` shared dense block (each column a sub-distribution
        over the output buckets).
    counts:
        Observed output-bucket counts, length ``d'`` (shared by every
        hypothesis — they explain the same observations).
    tail_rows:
        ``(H, T)`` integer array of indicator rows, e.g. each side's
        :attr:`~repro.core.transform.TransformMatrix.poison_bucket_indices`;
        the one-hot columns themselves are never built.  A hypothesis's
        real rows must be unique.
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
    dense, counts, tail_rows, tail_mask, weights = _validate_batch_inputs(
        dense, counts, tail_rows, tail_mask, initial
    )
    d_out, n_dense = dense.shape
    n_hypotheses, n_tail = tail_rows.shape
    n_components = n_dense + n_tail
    out = BatchEMResult(
        weights=weights,
        log_likelihoods=np.empty(n_hypotheses),
        n_iterations=np.zeros(n_hypotheses, dtype=np.intp),
        converged=np.zeros(n_hypotheses, dtype=bool),
        screened=np.zeros(n_hypotheses, dtype=bool),
    )
    use_bounds = gap_tol is not None or ll_floor is not None
    has_pads = not bool(tail_mask.all())
    # In certified mode a handful of stragglers finish on the accelerated
    # scalar solver — extrapolation beats batching once the joint fan-out is
    # gone, and the finisher also stops when a whole accelerated cycle
    # improves the likelihood by less than an eighth of ``gap_tol`` (the
    # caller's own declaration of decision-irrelevant margin), so it never
    # grinds for certification precision no decision can see.  In bit-stable
    # mode only a lone straggler leaves the joint loop, onto the plain scalar
    # kernel, continuing the same update semantics (iterate-level floating
    # point differs from the joint GEMM's summation order either way —
    # callers needing bit-stability use the scalar kernel outright).
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
    positive = counts > 0
    observed = None if positive.all() else np.flatnonzero(positive)
    ll_counts = counts.copy() if observed is None else counts[observed]
    dense_t = dense.T

    # Work arrays: rows [0, n) hold the n still-active hypotheses, and a
    # hypothesis is written to ``out`` the moment it finishes, so finished
    # hypotheses stop costing anything (convergence masking).
    w = weights.copy()
    mixtures = np.empty((n_hypotheses, d_out))
    ratios = np.empty((n_hypotheses, d_out))
    logs = np.empty((n_hypotheses, d_out)) if observed is None else None
    aggregates = np.empty((n_hypotheses, n_components))
    responsibilities = np.empty((n_hypotheses, n_components))
    totals = np.empty(n_hypotheses)
    ll = np.empty(n_hypotheses)
    lls = np.empty(n_hypotheses)
    w_flat, mixtures_flat, ratios_flat = w.ravel(), mixtures.ravel(), ratios.ravel()
    tail_columns = n_dense + np.arange(n_tail)

    def _active_views(n: int):
        """The first ``n`` rows of the work arrays."""
        return (
            w[:n],
            mixtures[:n],
            ratios[:n],
            # the observed columns' logs are column-major, as a boolean
            # column selection returns them: the likelihood product sums in
            # another order on another layout
            logs[:n] if observed is None else np.empty((ll_counts.size, n)).T,
            aggregates[:n],
            responsibilities[:n],
            totals[:n],
            ll[:n],
            lls[:n],
        )

    def _tail_cells(rows: np.ndarray, mask: np.ndarray):
        """Flat work-array cells of the active tails.

        Returns ``(gather, scatter, sources)``: ``gather[p, t]`` is row
        ``rows[p, t]`` of ratio row ``p`` (padding included); ``scatter``
        and ``sources`` are the mixture and weight cells of the real tail
        columns only.
        """
        n = rows.shape[0]
        gather = np.arange(0, n * d_out, d_out)[:, None] + rows
        sources = np.arange(0, n * n_components, n_components)[:, None] + tail_columns
        if has_pads:
            return gather, gather[mask], sources[mask]
        return gather, gather.ravel(), sources.ravel()

    def _mixture_log_likelihoods(weight, mixture, log, lls_n) -> None:
        """Clamped mixtures of the active rows and their log-likelihoods."""
        weight[:, :n_dense].dot(dense_t, out=mixture)
        # each real tail column hits its own cell once; padding adds nothing
        mixtures_flat[scatter] += w_flat[sources]
        np.maximum(mixture, 1e-300, out=mixture)
        if observed is None:
            np.log(mixture, out=log)
        else:
            mixture.take(observed, axis=1, out=log)
            np.log(log, out=log)
        log.dot(ll_counts, out=lls_n)

    def _retain(keep: np.ndarray, *carried: np.ndarray) -> None:
        """Shrink the active set to its ``keep`` rows.

        The work arrays in ``carried`` (those whose rows outlive the step)
        move their kept rows to the front; the fancy-indexed read copies
        before the write, so the overlapping move is safe.
        """
        nonlocal n, active, rows_active, mask_active, gather, scatter, sources
        kept = int(np.count_nonzero(keep))
        for array in carried:
            array[:kept] = array[:n][keep]
        n = kept
        active = active[keep]
        rows_active, mask_active = rows_active[keep], mask_active[keep]
        gather, scatter, sources = _tail_cells(rows_active, mask_active)

    active = np.arange(n_hypotheses)  # original hypothesis ids, compacted
    rows_active, mask_active = tail_rows, tail_mask
    gather, scatter, sources = _tail_cells(rows_active, mask_active)
    n = n_hypotheses
    weight, mixture, ratio, log, aggregate, responsibility, total, ll_n, lls_n = (
        _active_views(n)
    )
    _mixture_log_likelihoods(weight, mixture, log, lls_n)
    ll[:] = lls
    out.log_likelihoods[:] = ll
    iteration = 0
    while n and iteration < max_iter:
        if n <= straggler_cutoff:
            for position, h in enumerate(map(int, active)):
                real = np.ones(n_components, dtype=bool)
                real[n_dense:] = tail_mask[h]
                real_rows = tail_rows[h][tail_mask[h]]
                budget = max_iter - iteration
                if gap_tol is not None:
                    result = em_reconstruct_accelerated(
                        _stacked(dense, real_rows),
                        counts,
                        initial=weight[position][real],
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
                        out.screened[h] = True
                else:
                    result = em_reconstruct(
                        dense,
                        counts,
                        initial=weight[position][real],
                        max_iter=budget,
                        tol=tol,
                        tail_rows=real_rows,
                    )
                out.weights[h][real] = result.weights
                out.weights[h][~real] = 0.0
                out.log_likelihoods[h] = result.log_likelihood
                out.n_iterations[h] = iteration + result.n_iterations
                out.converged[h] = result.converged
            n = 0
            break
        iteration += 1
        # zero counts contribute zero everywhere
        np.divide(counts, mixture, out=ratio)
        np.matmul(ratio, dense, out=aggregate[:, :n_dense])
        aggregate[:, n_dense:] = ratios_flat[gather]
        np.multiply(weight, aggregate, out=responsibility)
        np.add.reduce(responsibility, axis=1, out=total)
        # hypotheses without responsibility mass, and in certified mode the
        # certified (gap_tol) and screened (ll_floor) ones, stop before the
        # update
        dead = total <= 0
        leave = dead
        if use_bounds:
            # certified optimality gap at the current iterate (see gap_tol):
            # the aggregate IS the likelihood gradient and totals its inner
            # product with the weights, so the bounds come almost for free
            if has_pads:
                feasible_max = np.maximum(
                    aggregate[:, :n_dense].max(axis=1),
                    np.where(mask_active, aggregate[:, n_dense:], -np.inf).max(axis=1),
                )
            else:
                feasible_max = aggregate.max(axis=1)
            gaps = feasible_max - total
            stop_conv = (
                gaps < gap_tol if gap_tol is not None else np.zeros(n, dtype=bool)
            )
            if ll_floor is not None:
                stop_screen = ((ll_n + gaps) < ll_floor) & ~stop_conv
                halt = stop_conv | stop_screen
            else:
                stop_screen = np.zeros(n, dtype=bool)
                halt = stop_conv
            if halt.any():
                ids = active[halt]
                out.weights[ids] = weight[halt]
                out.log_likelihoods[ids] = ll_n[halt]
                out.n_iterations[ids] = iteration - 1
                out.converged[ids] = stop_conv[halt]
                out.screened[ids] = stop_screen[halt]
            dead = dead & ~halt
            leave = dead | halt
        if dead.any():
            # mirror em_reconstruct: stop before the update, unconverged
            # (prior weights and log-likelihood are already in the outputs)
            ids = active[dead]
            out.weights[ids] = weight[dead]
            out.log_likelihoods[ids] = ll_n[dead]
            out.n_iterations[ids] = iteration
        if leave.any():
            _retain(~leave, w, responsibilities, totals, ll)
            if not n:
                break
            weight, mixture, ratio, log, aggregate, responsibility, total, ll_n, lls_n = (
                _active_views(n)
            )
        np.divide(responsibility, total[:, None], out=weight)
        _mixture_log_likelihoods(weight, mixture, log, lls_n)
        deltas = np.abs(lls_n - ll_n)
        done = deltas < tol
        if stall_tol is not None:
            done |= (lls_n < ll_floor) & (deltas < stall_tol)
        ll_n[:] = lls_n
        if done.any():
            finished = active[done]
            out.weights[finished] = weight[done]
            out.log_likelihoods[finished] = ll_n[done]
            out.converged[finished] = True
            out.n_iterations[finished] = iteration
            _retain(~done, w, mixtures, ll)
            weight, mixture, ratio, log, aggregate, responsibility, total, ll_n, lls_n = (
                _active_views(n)
            )
    if n:
        # max_iter exhausted with several hypotheses still running
        out.weights[active] = weight
        out.log_likelihoods[active] = ll_n
        out.n_iterations[active] = max_iter
    return out


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
