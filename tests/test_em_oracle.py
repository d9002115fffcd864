"""Bit-level equivalence of the EM loop with its historical oracle.

``em_reconstruct`` keeps its work arrays across iterations, addresses an
ascending indicator band as a slice and fuses Theorem 4's M-step
(``poison_mass``); ``tests/em_oracle.py`` is the allocating loop it replaced.
Each case below must give the same weights, log-likelihood, iteration count
and convergence flag, bit for bit.  The golden grid never reaches the split
products (its problems are under ``_INDICATOR_MIN_SAVINGS``), so most cases
are sized to cross that threshold.

A case with one-hot poison columns hands the kernel the normal block plus
``tail_rows`` and the oracle the stacked ``[block | indicator columns]``
matrix, so each such case also checks that the two formats agree bit for
bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from em_oracle import constrained_m_step, em_reconstruct as oracle_em
from repro.core.transform import build_transform_matrix
from repro.ldp.ems import _INDICATOR_MIN_SAVINGS, em_reconstruct, smooth_histogram
from repro.ldp.piecewise import PiecewiseMechanism
from repro.ldp.square_wave import SquareWaveMechanism

GAMMA = 0.15
#: 0.01 e^epsilon at epsilon ~ 0.7, the EMF default tolerance scale
TOL = 0.02
GAP_TOL = 2.0


def _counts(transform: np.ndarray, seed: int, zero_share: float = 0.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    truth = rng.dirichlet(np.ones(transform.shape[1]))
    counts = rng.poisson(transform @ truth * 50_000).astype(float)
    if zero_share:
        counts[rng.random(counts.size) < zero_share] = 0.0
    return counts


def _stacked(block: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """``[block | one-hot column per tail row]``: the oracle's stacked matrix."""
    n_block = block.shape[1]
    stacked = np.zeros((block.shape[0], n_block + tail.size))
    stacked[:, :n_block] = block
    stacked[tail, n_block + np.arange(tail.size)] = 1.0
    return stacked


def _emf(side: str, poison_domain=None, mechanism=None, d_out: int = 800):
    mechanism = mechanism or PiecewiseMechanism(1.0)
    transform = build_transform_matrix(
        mechanism, 16, d_out, side, 0.0, poison_domain=poison_domain
    )
    tail = transform.poison_bucket_indices
    # the EMF band is one ascending run (addressed as a slice)
    assert np.all(np.diff(tail) == 1)
    return transform.normal_block, tail, transform.n_normal_components


def _krr(k: int = 1024, poison=(3, 7, 20, 21, 40, 77, 90, 130, 131, 200,
                                  333, 400, 512, 600, 700, 801, 900, 950, 1000, 1023)):
    """k-RR normal block plus the rows of its scattered one-hot poison columns."""
    p, q = 0.3, 0.7 / (k - 1)
    normal = np.full((k, k), q)
    np.fill_diagonal(normal, p)
    return normal, np.asarray(poison, dtype=np.intp), k


def _smoothed_m_step(responsibilities: np.ndarray) -> np.ndarray:
    weights = smooth_histogram(responsibilities / responsibilities.sum())
    weights = np.clip(weights, 0.0, None)
    return weights / weights.sum()


def _case(name):
    """``(block, tail rows or None, counts, new-kernel kwargs, oracle kwargs)``."""
    if name in ("right-band", "left-band", "square-wave-band"):
        mechanism = SquareWaveMechanism(2.0) if name == "square-wave-band" else None
        side = "left" if name == "left-band" else "right"
        block, tail, _ = _emf(side, mechanism=mechanism)
        kwargs = dict(tol=TOL, max_iter=3_000)
        return block, tail, _counts(_stacked(block, tail), 1), kwargs, kwargs
    if name == "poison-domain-band":
        block, tail, _ = _emf("right", poison_domain=(0.5, 2.0))
        kwargs = dict(tol=TOL, max_iter=3_000)
        return block, tail, _counts(_stacked(block, tail), 2), kwargs, kwargs
    if name == "small-band":
        # under the split threshold: the kernel stacks the matrix itself
        block, tail, _ = _emf("right", d_out=100)
        kwargs = dict(tol=TOL, max_iter=3_000)
        return block, tail, _counts(_stacked(block, tail), 11), kwargs, kwargs
    if name in ("gamma-constrained", "gamma-zero", "fixed-zero", "fixed-zero-gap"):
        block, tail, n_normal = _emf("right")
        kwargs = dict(tol=TOL, max_iter=3_000)
        if name.startswith("fixed-zero"):
            # CEMF*: every third poison bucket suppressed
            zero = np.zeros(n_normal + tail.size, dtype=bool)
            zero[n_normal::3] = True
            kwargs["fixed_zero"] = zero
        if name == "fixed-zero-gap":
            kwargs.update(tol=1e-12, gap_tol=GAP_TOL)
        gamma = 0.0 if name == "gamma-zero" else GAMMA
        new = dict(kwargs, poison_mass=(gamma, n_normal))
        old = dict(kwargs, m_step=constrained_m_step(gamma, n_normal))
        return block, tail, _counts(_stacked(block, tail), 3), new, old
    if name in ("krr-scattered-tail", "krr-gamma-constrained"):
        block, tail, k = _krr()
        counts = _counts(_stacked(block, tail), 4)
        kwargs = dict(tol=1e-3, max_iter=3_000)
        if name == "krr-scattered-tail":
            return block, tail, counts, kwargs, kwargs
        new = dict(kwargs, poison_mass=(GAMMA, k))
        old = dict(kwargs, m_step=constrained_m_step(GAMMA, k))
        return block, tail, counts, new, old
    if name in ("zero-counts-split", "zero-counts-dense"):
        block, tail, _ = _emf("right")
        counts = _counts(_stacked(block, tail), 5, zero_share=0.3)
        kwargs = dict(tol=TOL, max_iter=3_000)
        if name == "zero-counts-split":
            return block, tail, counts, kwargs, kwargs
        return _stacked(block, tail), None, counts, kwargs, kwargs
    if name == "no-tail":
        block, tail, _ = _emf("right", d_out=300)
        matrix = _stacked(block, tail)
        kwargs = dict(tol=TOL, max_iter=3_000)
        return matrix, None, _counts(matrix, 6), kwargs, kwargs
    if name == "column-slice":
        # a non-contiguous column slice of a caller's matrix
        block, tail, n_normal = _emf("right", d_out=300)
        matrix = _stacked(block, tail)
        kwargs = dict(tol=TOL, max_iter=3_000)
        return matrix[:, :n_normal], None, _counts(matrix, 7), kwargs, kwargs
    if name == "gap-certified":
        block, tail, _ = _emf("left")
        kwargs = dict(tol=1e-12, max_iter=3_000, gap_tol=GAP_TOL)
        return block, tail, _counts(_stacked(block, tail), 8), kwargs, kwargs
    if name == "ems-smoothing":
        matrix = SquareWaveMechanism(1.0).interval_probability_matrix(
            np.linspace(0.0, 1.0, 64), np.linspace(-0.6, 1.6, 257)
        )
        kwargs = dict(tol=TOL, max_iter=1_000, m_step=_smoothed_m_step)
        return matrix, None, _counts(matrix, 9), kwargs, kwargs
    if name == "max-iter-exhausted":
        block, tail, _ = _emf("right")
        kwargs = dict(tol=0.0, max_iter=25)
        return block, tail, _counts(_stacked(block, tail), 10), kwargs, kwargs
    if name == "total-nonpositive-break":
        # all initial mass on a column whose only row saw no reports: every
        # responsibility is zero at the first E-step
        matrix = np.eye(4)
        counts = np.array([5.0, 3.0, 2.0, 0.0])
        kwargs = dict(initial=np.array([0.0, 0.0, 0.0, 1.0]))
        return matrix, None, counts, kwargs, kwargs
    raise KeyError(name)


CASES = (
    "right-band",
    "left-band",
    "square-wave-band",
    "poison-domain-band",
    "small-band",
    "gamma-constrained",
    "gamma-zero",
    "fixed-zero",
    "fixed-zero-gap",
    "krr-scattered-tail",
    "krr-gamma-constrained",
    "zero-counts-split",
    "zero-counts-dense",
    "no-tail",
    "column-slice",
    "gap-certified",
    "ems-smoothing",
    "max-iter-exhausted",
    "total-nonpositive-break",
)


@pytest.mark.parametrize("name", CASES)
def test_em_loop_matches_oracle_bit_for_bit(name):
    block, tail, counts, new_kwargs, old_kwargs = _case(name)
    if tail is None:
        lean = em_reconstruct(block, counts, **new_kwargs)
        oracle = oracle_em(block, counts, **old_kwargs)
    else:
        split = tail.size * block.shape[0] >= _INDICATOR_MIN_SAVINGS
        assert split == (name != "small-band")
        lean = em_reconstruct(block, counts, tail_rows=tail, **new_kwargs)
        oracle = oracle_em(
            _stacked(block, tail), counts, indicator_tail=tail, **old_kwargs
        )
    np.testing.assert_array_equal(lean.weights, oracle.weights)
    assert lean.log_likelihood == oracle.log_likelihood
    assert lean.n_iterations == oracle.n_iterations
    assert lean.converged == oracle.converged
    if name == "max-iter-exhausted":
        assert lean.n_iterations == 25 and not lean.converged
    if name == "total-nonpositive-break":
        assert lean.n_iterations == 1 and not lean.converged


def test_poison_mass_rejects_a_second_m_step():
    with pytest.raises(ValueError, match="at most one"):
        em_reconstruct(
            np.eye(3), np.ones(3), poison_mass=(0.1, 2), m_step=_smoothed_m_step
        )


@pytest.mark.parametrize("poison_mass", [(1.5, 2), (0.1, 4), (0.1, -1)])
def test_poison_mass_validated(poison_mass):
    with pytest.raises(ValueError):
        em_reconstruct(np.eye(3), np.ones(3), poison_mass=poison_mass)
