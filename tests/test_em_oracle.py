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

``em_reconstruct_batch`` (certified mode is its only mode) is held to its
own allocating loop the same way, in weights, log-likelihoods, iterations,
``converged`` and ``screened``: EMF side bands and scattered k-RR
candidate rows, with zero counts, warm starts, an exhausted budget, a dead
hypothesis and a screening floor, each with hypotheses that leave the
joint loop on different iterations.
"""

from __future__ import annotations

import numpy as np
import pytest

from em_oracle import (
    constrained_m_step,
    em_reconstruct as oracle_em,
    em_reconstruct_batch as oracle_batch,
)
from repro.core.transform import build_transform_matrix
from repro.ldp.ems import (
    _INDICATOR_MIN_SAVINGS,
    em_reconstruct,
    em_reconstruct_batch,
    smooth_histogram,
)
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
    if name in ("gamma-constrained", "gamma-zero", "fixed-zero"):
        block, tail, n_normal = _emf("right")
        kwargs = dict(tol=TOL, max_iter=3_000)
        if name == "fixed-zero":
            # CEMF*: every third poison bucket suppressed
            zero = np.zeros(n_normal + tail.size, dtype=bool)
            zero[n_normal::3] = True
            kwargs["fixed_zero"] = zero
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
    "krr-scattered-tail",
    "krr-gamma-constrained",
    "zero-counts-split",
    "zero-counts-dense",
    "no-tail",
    "column-slice",
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


@pytest.mark.parametrize("rows", [[0, 2, 2], [2, 0, 2]], ids=["ascending", "unsorted"])
def test_tail_rows_must_be_unique(rows):
    block = np.full((4, 2), 0.25)
    em_reconstruct(block, np.ones(4), tail_rows=[2, 0, 3], max_iter=2)
    with pytest.raises(ValueError, match="unique"):
        em_reconstruct(block, np.ones(4), tail_rows=rows, max_iter=2)


# ----------------------------------------------------------------------
# the batched loop
# ----------------------------------------------------------------------
#: a floor no likelihood falls below: nothing is screened, and every
#: hypothesis stops on the gap certificate or on ``tol``
NO_FLOOR = -np.inf


def _side_batch(d_out: int = 400):
    """EMF left/right side tails on one normal block, plus the same-width
    bands between them (band rows, one ascending run each)."""
    mechanism = PiecewiseMechanism(1.0)
    sides = [
        build_transform_matrix(mechanism, 12, d_out, side, 0.0)
        for side in ("left", "right")
    ]
    block = sides[0].normal_block
    left, right = (side.poison_bucket_indices for side in sides)
    assert left.size == right.size
    shifted = [left + 40 * (j + 1) for j in range(4)]
    return block, np.array([left, right, *shifted])


def _scattered_batch():
    """k-RR block with scattered one-hot poison rows per hypothesis.

    Like a greedy category probe round: every hypothesis holds the same
    poison set plus one candidate category.
    """
    normal, _, _ = _krr(k=256, poison=())
    poison_set = [5, 40, 77, 130]
    candidates = [3, 9, 20, 64, 101, 180, 200, 255]
    return normal, np.array([poison_set + [c] for c in candidates], dtype=np.intp)


def _batch_counts(block, rows, seed, zero_share=0.0):
    """Counts drawn from the first hypothesis's stacked matrix."""
    return _counts(_stacked(block, rows[0]), seed, zero_share)


def _attacked_counts(block, seed):
    """k-RR counts with 15% of the reports poured onto categories 64, 180."""
    rng = np.random.default_rng(seed)
    truth = block @ rng.dirichlet(np.ones(block.shape[1]))
    truth[[64, 180]] += [0.1, 0.05]
    return rng.poisson(truth / truth.sum() * 50_000).astype(float)


def _batch_case(name):
    """``(block, counts, tail_rows, kwargs)`` of one batch oracle case."""
    certified = dict(gap_tol=GAP_TOL, ll_floor=NO_FLOOR, tol=1e-9, max_iter=3_000)
    if name in ("sides-band", "sides-zero-counts"):
        block, rows = _side_batch()
        share = 0.3 if name == "sides-zero-counts" else 0.0
        return block, _batch_counts(block, rows, 21, zero_share=share), rows, certified
    if name == "sides-warm-start":
        block, rows = _side_batch()
        counts = _batch_counts(block, rows, 22)
        rng = np.random.default_rng(22)
        initial = rng.dirichlet(np.ones(rows.shape[1] + block.shape[1]), size=len(rows))
        return block, counts, rows, dict(certified, initial=initial)
    if name == "sides-max-iter":
        # several hypotheses still running when the budget runs out
        block, rows = _side_batch()
        counts = _batch_counts(block, rows, 23)
        return block, counts, rows, dict(certified, gap_tol=1e-12, tol=0.0, max_iter=40)
    if name in ("scattered", "scattered-certified"):
        block, rows = _scattered_batch()
        counts = _attacked_counts(block, 24 if name == "scattered" else 25)
        if name == "scattered":
            return block, counts, rows, dict(certified, gap_tol=0.5)
        # a floor no hypothesis reaches: some are screened, the rest stall
        # beneath it
        unscreened = oracle_batch(block, counts, rows, **dict(certified, gap_tol=1e-3))
        floor = float(unscreened.log_likelihoods.max()) + 1.0
        return block, counts, rows, dict(certified, gap_tol=0.01, ll_floor=floor)
    if name == "dead-hypothesis":
        # hypothesis 0 holds all its mass on a tail column whose row saw no
        # reports: every responsibility is zero at the first E-step
        block, rows = _scattered_batch()
        counts = _attacked_counts(block, 26)
        counts[rows[0, -1]] = 0.0
        initial = np.full((len(rows), block.shape[1] + rows.shape[1]), 1.0)
        initial[0] = 0.0
        initial[0, -1] = 1.0
        return block, counts, rows, dict(certified, gap_tol=0.5, initial=initial)
    raise KeyError(name)


BATCH_CASES = (
    "sides-band",
    "sides-zero-counts",
    "sides-warm-start",
    "sides-max-iter",
    "scattered",
    "scattered-certified",
    "dead-hypothesis",
)


@pytest.mark.parametrize("name", BATCH_CASES)
def test_batch_loop_matches_oracle_bit_for_bit(name):
    block, counts, rows, kwargs = _batch_case(name)
    lean = em_reconstruct_batch(block, counts, rows, **kwargs)
    oracle = oracle_batch(block, counts, rows, **kwargs)
    for field in ("weights", "log_likelihoods", "n_iterations", "converged", "screened"):
        np.testing.assert_array_equal(
            getattr(lean, field), getattr(oracle, field), err_msg=field
        )
    # each case reaches the branch it is named for
    if name == "sides-max-iter":
        assert np.all(lean.n_iterations == 40) and not lean.converged.any()
    elif name == "dead-hypothesis":
        assert lean.n_iterations[0] == 1 and not lean.converged[0]
        assert lean.converged[1:].all()
    else:
        # hypotheses leave the joint loop on different iterations
        assert np.unique(lean.n_iterations).size > 1
    assert lean.screened.any() == (name == "scattered-certified")
    if name == "sides-zero-counts":
        assert (counts == 0).any()


def test_batch_rejects_a_repeated_real_tail_row():
    block, rows = _scattered_batch()
    counts = _attacked_counts(block, 27)
    kwargs = dict(gap_tol=GAP_TOL, ll_floor=NO_FLOOR, max_iter=2)
    em_reconstruct_batch(block, counts, rows, **kwargs)
    repeated = rows.copy()
    repeated[0, 1] = repeated[0, 0]
    with pytest.raises(ValueError, match="unique"):
        em_reconstruct_batch(block, counts, repeated, **kwargs)
