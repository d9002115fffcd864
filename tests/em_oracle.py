"""The historical EM loops, kept as bit-level test oracles.

:func:`repro.ldp.ems.em_reconstruct` runs its iteration in preallocated work
arrays with direct ``ndarray.dot`` products and Theorem 4's constrained
M-step fused in (``poison_mass``).  It must perform the same floating-point
operations in the same order as the loop below, which allocates every
temporary, masks the log-likelihood each iteration and builds the EMF*
M-step as a closure; ``tests/test_em_oracle.py`` checks the two agree bit
for bit in weights, log-likelihood, iteration count and convergence flag.

:func:`repro.ldp.ems.em_reconstruct_batch` likewise keeps its active
hypotheses in work arrays allocated once per solve and adds each real tail
weight to its own mixture cell; :func:`em_reconstruct_batch` below is the
loop it replaced, which allocates every temporary and sums the tail weights
with ``bincount``.  The tests compare the two in weights, log-likelihoods,
iterations, ``converged`` and ``screened``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ldp.ems import (
    BatchEMResult,
    EMResult,
    MStep,
    _INDICATOR_MIN_SAVINGS,
    _stacked,
    _validate_em_inputs,
    em_reconstruct_accelerated,
)
from repro.ldp.ems import em_reconstruct as _scalar_em


def constrained_m_step(gamma_hat: float, n_normal: int) -> MStep:
    """Theorem 4's split renormalisation as an M-step callback."""

    def m_step(responsibilities: np.ndarray) -> np.ndarray:
        normal = responsibilities[:n_normal]
        poison = responsibilities[n_normal:]
        out = np.empty_like(responsibilities)

        normal_total = normal.sum()
        if normal_total > 0:
            out[:n_normal] = (1.0 - gamma_hat) * normal / normal_total
        else:
            out[:n_normal] = (1.0 - gamma_hat) / max(1, n_normal)

        poison_total = poison.sum()
        if poison.size == 0:
            pass
        elif gamma_hat == 0.0:
            out[n_normal:] = 0.0
        elif poison_total > 0:
            out[n_normal:] = gamma_hat * poison / poison_total
        else:
            out[n_normal:] = gamma_hat / poison.size
        return out

    return m_step


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
    """The allocating EM loop on the stacked matrix.

    ``indicator_tail`` declares the trailing columns of ``transform`` one-hot
    at those rows; the library kernel takes the leading block and the rows
    (``tail_rows``) instead.
    """
    transform, counts, weights = _validate_em_inputs(transform, counts, initial)
    d_out, n_components = transform.shape

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
        indicator_tail = None
    if indicator_tail is not None:
        tail = np.asarray(indicator_tail, dtype=np.intp).ravel()
        n_dense = n_components - tail.size
        if n_dense < 0:
            raise ValueError("indicator_tail declares more columns than the transform has")
        if tail.size and (
            tail.size != np.unique(tail).size
            or not np.all(transform[tail, np.arange(n_dense, n_components)] == 1.0)
        ):
            raise ValueError("indicator_tail rows must be unique one-hot rows")
        dense = np.ascontiguousarray(transform[:, :n_dense])

        def _mixture(w: np.ndarray) -> np.ndarray:
            out = dense @ w[:n_dense]
            if tail.size:
                out[tail] += w[n_dense:]
            return out

        def _aggregate(v: np.ndarray) -> np.ndarray:
            out = np.empty(n_components)
            out[:n_dense] = dense.T @ v
            out[n_dense:] = v[tail]
            return out

    else:

        def _mixture(w: np.ndarray) -> np.ndarray:
            return transform @ w

        def _aggregate(v: np.ndarray) -> np.ndarray:
            return transform.T @ v

    mask = counts > 0
    masked_counts = counts[mask]
    mixture = np.maximum(_mixture(weights), 1e-300)
    prev_ll = float(np.dot(masked_counts, np.log(mixture[mask])))
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        aggregate = _aggregate(counts / mixture)
        if gap_tol is not None:
            feasible_max = (
                aggregate.max()
                if zero_mask is None
                else aggregate[~zero_mask].max()
            )
            if feasible_max - float(np.dot(weights, aggregate)) < gap_tol:
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
    """The allocating batch EM loop.

    Every iteration allocates its ratios, aggregates, responsibilities and
    mixtures, rebuilds the tail cells with ``arange`` and scatters the tail
    weights with one ``bincount`` (:func:`_scatter_tail`); finished
    hypotheses are dropped by fancy indexing.  The straggler finishers are
    the library's scalar kernels.
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
        out = w[:, :n_dense] @ dense.T
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
                budget = max_iter - iteration
                if gap_tol is not None:
                    result = em_reconstruct_accelerated(
                        _stacked(dense, real_rows),
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
                    result = _scalar_em(
                        dense,
                        counts,
                        initial=w_active[position][real],
                        max_iter=budget,
                        tol=tol,
                        tail_rows=real_rows,
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
        np.matmul(ratios, dense, out=aggregates[:, :n_dense])
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
