"""Isolation-forest outlier-removal defence (Section III-A related techniques).

A from-scratch 1-D isolation forest: each tree recursively splits the value
range at uniform random cut points; values isolated after few splits are
anomalous.  The anomaly score follows Liu et al.:

``score(x) = 2 ** (-E[h(x)] / c(n))``

where ``h(x)`` is the path length and ``c(n)`` the average path length of an
unsuccessful BST search.  Reports whose score exceeds a threshold are removed
before averaging.

As with the boxplot defence, isolation forests struggle against poison values
hidden inside the legitimate (enlarged) output domain — they are included as
the "existing detection technique" comparison point the paper mentions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.defenses.base import Defense, DefenseResult
from repro.ldp.base import NumericalMechanism
from repro.registry import DEFENSES
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_fraction, check_integer


def _average_path_length(n: int) -> float:
    """``c(n)`` — average unsuccessful-search path length in a BST of size n."""
    if n <= 1:
        return 0.0
    harmonic = np.log(n - 1) + np.euler_gamma
    return 2.0 * harmonic - 2.0 * (n - 1) / n


@dataclass
class _TreeNode:
    """One node of an isolation tree (leaf when ``split`` is ``None``)."""

    size: int
    split: Optional[float] = None
    left: Optional["_TreeNode"] = None
    right: Optional["_TreeNode"] = None


def _build_tree(
    values: np.ndarray, depth: int, max_depth: int, rng: np.random.Generator
) -> _TreeNode:
    if depth >= max_depth or values.size <= 1 or values.min() == values.max():
        return _TreeNode(size=values.size)
    split = rng.uniform(values.min(), values.max())
    left_mask = values < split
    return _TreeNode(
        size=values.size,
        split=split,
        left=_build_tree(values[left_mask], depth + 1, max_depth, rng),
        right=_build_tree(values[~left_mask], depth + 1, max_depth, rng),
    )


class _FlatTree:
    """An isolation tree encoded as the interval partition it induces.

    A 1-D isolation tree splits the real line into one interval per leaf:
    descending "left if ``value < split`` else right" lands ``value`` in the
    leaf whose interval contains it, and the in-order sequence of internal
    splits is exactly the sorted interval boundaries (every left-subtree
    split is strictly below its parent's, every right-subtree split at or
    above).  So the whole recursive descent collapses into one
    ``searchsorted`` against the boundaries — ``side="right"`` reproduces
    the ``value < split`` tie handling comparison-for-comparison — followed
    by a gather of the per-leaf complete path length ``depth + c(size)``.
    """

    __slots__ = ("boundaries", "leaf_values")

    def __init__(self, root: _TreeNode) -> None:
        boundaries: List[float] = []
        leaf_values: List[float] = []

        def visit(node: _TreeNode, depth: int) -> None:
            if node.split is None:
                leaf_values.append(depth + _average_path_length(node.size))
            else:
                visit(node.left, depth + 1)
                boundaries.append(node.split)
                visit(node.right, depth + 1)

        visit(root, 0)
        self.boundaries = np.asarray(boundaries, dtype=float)
        self.leaf_values = np.asarray(leaf_values, dtype=float)

    def path_lengths(self, values: np.ndarray) -> np.ndarray:
        """Path length of every value: the recursive descent's, bit for bit."""
        return self.leaf_values[
            np.searchsorted(self.boundaries, values, side="right")
        ]


#: users scored per chunk: bounds the (n_trees, chunk) path-length matrix to
#: a few MiB however large the population is
SCORE_CHUNK = 1 << 16


class IsolationForest:
    """A minimal 1-D isolation forest."""

    def __init__(
        self,
        n_trees: int = 50,
        subsample_size: int = 256,
        rng: RngLike = None,
    ) -> None:
        self.n_trees = check_integer(n_trees, "n_trees", minimum=1)
        self.subsample_size = check_integer(subsample_size, "subsample_size", minimum=2)
        self._rng = ensure_rng(rng)
        self._flat_trees: List[_FlatTree] = []
        self._sample_size = 0

    def fit(self, values: np.ndarray) -> "IsolationForest":
        """Build the forest on ``values``."""
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            raise ValueError("IsolationForest requires at least one value")
        self._sample_size = min(self.subsample_size, values.size)
        max_depth = int(np.ceil(np.log2(max(2, self._sample_size))))
        self._flat_trees = []
        for _ in range(self.n_trees):
            idx = self._rng.choice(values.size, size=self._sample_size, replace=False)
            tree = _build_tree(values[idx], 0, max_depth, self._rng)
            self._flat_trees.append(_FlatTree(tree))
        return self

    def scores(self, values: np.ndarray) -> np.ndarray:
        """Anomaly scores in (0, 1); higher means more anomalous.

        All users are scored at once: each array-encoded tree is descended
        for a whole chunk of values per step, the per-tree path lengths fill
        a ``(chunk, n_trees)`` matrix whose contiguous rows reduce with the
        same pairwise summation as the per-user loop's 1-D mean, and the
        final ``2 ** x`` uses ``np.float_power`` (the generic libm pow loop,
        matching Python's ``**``; numpy's SIMD ``np.power`` rounds a few
        results one ulp differently) — bit-identical to per-user recursive
        scoring, test-enforced, at array speed.
        """
        if not self._flat_trees:
            raise RuntimeError("IsolationForest must be fit before scoring")
        values = np.asarray(values, dtype=float).ravel()
        c_n = _average_path_length(self._sample_size)
        if c_n <= 0:
            return np.full(values.size, 0.5)
        scores = np.empty(values.size)
        paths = np.empty((min(SCORE_CHUNK, max(1, values.size)), self.n_trees))
        for start in range(0, values.size, SCORE_CHUNK):
            chunk = values[start : start + SCORE_CHUNK]
            block = paths[: chunk.size]
            for column, tree in enumerate(self._flat_trees):
                block[:, column] = tree.path_lengths(chunk)
            mean_paths = np.mean(block, axis=1)
            scores[start : start + SCORE_CHUNK] = np.float_power(
                2.0, -mean_paths / c_n
            )
        return scores


@DEFENSES.register("IsolationForest", aliases=("isolation-forest",))
class IsolationForestDefense(Defense):
    """Remove reports flagged anomalous by an isolation forest, then average."""

    name = "IsolationForest"

    def __init__(
        self,
        contamination: float = 0.1,
        n_trees: int = 50,
        subsample_size: int = 256,
    ) -> None:
        self.contamination = check_fraction(contamination, "contamination", inclusive=False)
        self.n_trees = n_trees
        self.subsample_size = subsample_size

    def estimate_mean(
        self,
        reports: np.ndarray,
        mechanism: NumericalMechanism,
        rng: RngLike = None,
    ) -> DefenseResult:
        reports = self._validate_reports(reports)
        rng = ensure_rng(rng)
        forest = IsolationForest(
            n_trees=self.n_trees, subsample_size=self.subsample_size, rng=rng
        ).fit(reports)
        scores = forest.scores(reports)
        threshold = np.quantile(scores, 1.0 - self.contamination)
        keep = scores < threshold
        kept = reports[keep]
        if kept.size == 0:
            kept = reports
            keep = np.ones(reports.size, dtype=bool)
        estimate = mechanism.estimate_mean(kept)
        low, high = mechanism.input_domain
        estimate = float(np.clip(estimate, low, high))
        return DefenseResult(
            estimate=estimate,
            kept_mask=keep,
            metadata={"score_threshold": float(threshold)},
        )


__all__ = ["IsolationForest", "IsolationForestDefense"]
