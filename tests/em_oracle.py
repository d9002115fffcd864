"""The historical EM loop, kept as a bit-level test oracle.

:func:`repro.ldp.ems.em_reconstruct` runs its iteration in preallocated work
arrays with direct ``ndarray.dot`` products and Theorem 4's constrained
M-step fused in (``poison_mass``).  It must perform the same floating-point
operations in the same order as the loop below, which allocates every
temporary, masks the log-likelihood each iteration and builds the EMF*
M-step as a closure; ``tests/test_em_oracle.py`` checks the two agree bit
for bit in weights, log-likelihood, iteration count and convergence flag.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ldp.ems import EMResult, MStep, _INDICATOR_MIN_SAVINGS, _validate_em_inputs


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
