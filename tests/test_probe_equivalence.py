"""Equivalence suite for the fast probing + vectorized defense kernels.

Four contracts introduced by the perf overhauls, each enforced here:

* the **batched** (screened, warm-started, gap-certified) hypothesis
  evaluation selects the same poison categories as the **cold** oracle
  kept below (one cold-start EM solve per hypothesis, the seed
  implementation's search) on the seed grids, and the final estimates
  agree;
* the batched EM kernel converges to the same maximisers as per-hypothesis
  scalar solves, and its screening certificates are sound;
* the batched kernel's flat-cell tail scatter/gather reproduces the
  per-column loops of the original loop bit for bit;
* the vectorized defense kernels (interval-encoded isolation forest,
  searchsorted k-means assignment, blocked subset sampling) are
  bit-identical to the seed loop implementations, kept below as oracles,
  under a fixed rng.

The side probe (Algorithm 3) has no oracle here: it runs the two
independent ``run_emf`` solves the seed implementation ran.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dap import DAPConfig, DAPProtocol
from repro.core.frequency import FrequencyDAP
from repro.core.transform import cached_transform_matrix, default_bucket_counts
from repro.datasets import covid_dataset
from repro.datasets.synthetic import uniform_dataset
from repro.defenses.isolation_forest import (
    IsolationForest,
    _average_path_length,
    _build_tree,
)
from repro.defenses.kmeans import (
    KMeansDefense,
    _nearest_center_labels,
    _nearest_center_labels_brute,
    kmeans_1d,
)
import em_oracle
from repro.ldp.ems import (
    em_reconstruct,
    em_reconstruct_accelerated,
    em_reconstruct_batch,
)
from repro.ldp.piecewise import PiecewiseMechanism

#: a screening floor no likelihood falls below
NO_FLOOR = -np.inf


# ----------------------------------------------------------------------
# batched EM kernel
# ----------------------------------------------------------------------
class TestBatchKernel:
    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(0)
        dense = rng.random((30, 12))
        dense /= dense.sum(axis=0)
        counts = rng.integers(0, 500, size=30).astype(float)
        return dense, counts

    def test_matches_scalar_solves(self, problem):
        dense, counts = problem
        candidates = [3, 7, 11, 20]
        batch = em_reconstruct_batch(
            dense,
            counts,
            np.array([[c] for c in candidates]),
            gap_tol=1e-9,
            ll_floor=NO_FLOOR,
            tol=1e-12,
        )
        for h, candidate in enumerate(candidates):
            column = np.zeros((30, 1))
            column[candidate, 0] = 1.0
            reference = em_reconstruct(np.hstack([dense, column]), counts, tol=1e-9)
            assert batch.log_likelihoods[h] == pytest.approx(
                reference.log_likelihood, abs=1e-6
            )
            np.testing.assert_allclose(
                batch.weights[h], reference.weights, atol=1e-6
            )

    def test_tails_must_be_one_hot_rows(self, problem):
        dense, counts = problem
        with pytest.raises(ValueError, match=r"must be \(H, T\)"):
            em_reconstruct_batch(
                dense,
                counts,
                np.zeros((2, 3, 2), dtype=np.intp),
                gap_tol=1e-6,
                ll_floor=NO_FLOOR,
            )

    def test_screening_certificate_is_sound(self, problem):
        dense, counts = problem
        candidates = np.arange(dense.shape[0])
        floor_probe = em_reconstruct_batch(
            dense,
            counts,
            candidates[:, None],
            gap_tol=1e-9,
            ll_floor=NO_FLOOR,
            tol=1e-12,
        )
        # set the floor above some hypotheses' optima (certified within
        # 1e-9): those (and only those) may be screened, and every screened
        # hypothesis's true optimum must indeed lie below the floor
        floor = float(np.median(floor_probe.log_likelihoods))
        screened_run = em_reconstruct_batch(
            dense,
            counts,
            candidates[:, None],
            tol=1e-9,
            gap_tol=1e-6,
            ll_floor=floor,
        )
        assert screened_run.screened.any()
        for h in np.flatnonzero(screened_run.screened):
            assert floor_probe.log_likelihoods[h] < floor

    def test_accelerated_reaches_the_same_maximiser(self, problem):
        dense, counts = problem
        column = np.zeros((30, 1))
        column[5, 0] = 1.0
        transform = np.hstack([dense, column])
        plain = em_reconstruct(transform, counts, tol=1e-9)
        accelerated = em_reconstruct_accelerated(transform, counts, tol=1e-9)
        assert accelerated.log_likelihood == pytest.approx(
            plain.log_likelihood, abs=1e-5
        )
        assert accelerated.n_iterations < plain.n_iterations

    def test_gap_certificate_stops_early_and_accurately(self, problem):
        dense, counts = problem
        full = em_reconstruct(dense, counts, tol=1e-12, max_iter=50_000)
        certified = em_reconstruct_accelerated(
            dense, counts, tol=1e-12, gap_tol=1e-4
        )
        assert certified.converged
        assert certified.n_iterations <= full.n_iterations
        assert full.log_likelihood - certified.log_likelihood <= 1e-4


# ----------------------------------------------------------------------
# batched EM tail products: flat-cell scatter + gather == per-column loops
# ----------------------------------------------------------------------
def _loop_scatter_tail(out, tail_weights, rows):
    """The per-tail-column scatter the batched kernel first ran (oracle)."""
    index = np.arange(rows.shape[0])
    for t in range(rows.shape[1]):
        out[index, rows[:, t]] += tail_weights[:, t]


def _loop_gather_tail(ratios, rows):
    """The per-tail-column gather the batched kernel first ran (oracle)."""
    index = np.arange(rows.shape[0])
    out = np.empty(rows.shape)
    for t in range(rows.shape[1]):
        out[:, t] = ratios[index, rows[:, t]]
    return out


def _batch_both_ways(monkeypatch, *args, **kwargs):
    """Run ``em_reconstruct_batch``, then the allocating loop of
    ``tests/em_oracle.py`` with per-column tail loops."""
    fast = em_reconstruct_batch(*args, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(em_oracle, "_scatter_tail", _loop_scatter_tail)
        patch.setattr(em_oracle, "_gather_tail", _loop_gather_tail)
        loop = em_oracle.em_reconstruct_batch(*args, **kwargs)
    return fast, loop


@pytest.fixture(scope="module")
def side_probe_problem():
    """EMF side hypotheses at the real probe geometry, plus same-width tails.

    A ``DAPProtocol`` at eps=1 probes its eps=0.0625 group; 640,000 reports
    there give d=12, d'=800 and 400 one-hot poison columns per side.  Three
    shifted bands and the even and odd rows add five more 400-row tails.
    """
    protocol = DAPProtocol(DAPConfig(epsilon=1.0))
    epsilon = min(protocol.config.budget_ladder)
    d_in, d_out = default_bucket_counts(640_000, epsilon)
    assert (d_in, d_out) == (12, 800)
    mechanism = protocol.mechanism_for(epsilon)
    sides = [
        cached_transform_matrix(
            mechanism, n_input_buckets=d_in, n_output_buckets=d_out, side=side
        )
        for side in ("left", "right")
    ]
    dense = sides[0].normal_block
    left, right = (side.poison_bucket_indices for side in sides)
    tails = [left, right, left + 100, left + 200, left + 300]
    tails += [np.arange(0, d_out, 2), np.arange(1, d_out, 2)]
    rng = np.random.default_rng(13)
    normal = rng.dirichlet(np.ones(d_in))
    poison = np.zeros(d_out)
    poison[right[200:]] = 1.0 / right[200:].size
    mixture = 0.75 * (dense @ normal) + 0.25 * poison
    counts = rng.multinomial(640_000, mixture / mixture.sum()).astype(float)
    return dense, counts, np.array(tails, dtype=np.intp)


class TestVectorisedTailProducts:
    def test_emf_tails_bit_identical_to_loop(self, monkeypatch, side_probe_problem):
        dense, counts, tail_rows = side_probe_problem
        # the iteration caps bound the loop oracle's cost (a few ms an
        # iteration here); a floor at the median unscreened likelihood
        # screens some hypotheses
        kwargs = {"gap_tol": 1.0, "tol": 1e-9, "max_iter": 400}
        unscreened = em_reconstruct_batch(
            dense, counts, tail_rows, ll_floor=NO_FLOOR, **kwargs
        )
        floor = float(np.median(unscreened.log_likelihoods))
        fast, loop = _batch_both_ways(
            monkeypatch, dense, counts, tail_rows, ll_floor=floor, **kwargs
        )
        assert loop.screened.any()
        for field in (
            "weights",
            "log_likelihoods",
            "n_iterations",
            "converged",
            "screened",
        ):
            np.testing.assert_array_equal(
                getattr(fast, field), getattr(loop, field), err_msg=field
            )


# ----------------------------------------------------------------------
# greedy category probe: batched == cold selections, identical estimates
# ----------------------------------------------------------------------
def _cold_greedy_probe(dap, counts):
    """One cold-start EM solve per candidate per greedy round (oracle).

    The seed implementation's search: each round re-solves every unflagged
    category's hypothesis from scratch and keeps the best one while its
    likelihood gain clears ``min_likelihood_gain``.
    """
    poison_set, gains = [], []
    current_ll = dap._reconstruct(counts, poison_set).log_likelihood
    while len(poison_set) < dap.max_poisoned:
        best_category, best_ll = None, current_ll
        for category in range(dap.n_categories):
            if category in poison_set:
                continue
            ll = dap._reconstruct(counts, poison_set + [category]).log_likelihood
            if ll > best_ll:
                best_category, best_ll = category, ll
        if best_category is None or best_ll - current_ll < dap.min_likelihood_gain:
            break
        poison_set.append(best_category)
        gains.append(float(best_ll - current_ll))
        current_ll = best_ll
    return poison_set, gains


@pytest.fixture(scope="module")
def covid():
    return covid_dataset(n_samples=12_000, rng=3)


SEED_GRIDS = [
    (0, (3,), 2_000),
    (1, (2, 3), 3_000),
    (2, (), 0),
    (5, (0, 7, 11), 3_000),
]


class TestFrequencyProbeEquivalence:
    @pytest.mark.parametrize("estimator", ["emf", "emf_star", "cemf_star"])
    @pytest.mark.parametrize("grid", SEED_GRIDS, ids=str)
    def test_same_selections_and_identical_estimates(self, covid, estimator, grid):
        seed, targets, n_byzantine = grid
        rng = np.random.default_rng(seed)
        dap = FrequencyDAP(1.0, covid.n_categories, estimator=estimator)
        counts = dap.collect_sharded(
            covid.categories[:6_000], targets, n_byzantine, rng=rng
        ).counts_float()

        cold_selection = _cold_greedy_probe(dap, counts)
        batched_set, _ = dap.probe_poisoned_categories(counts)
        assert batched_set == cold_selection[0]

        # the estimate the cold search leads to, from the same pipeline
        cold = FrequencyDAP(1.0, covid.n_categories, estimator=estimator)
        cold._probe = lambda counts: cold_selection
        cold_result = cold.estimate_from_counts(counts)
        batched_result = dap.estimate_from_counts(counts)
        assert batched_result.poisoned_categories == cold_result.poisoned_categories
        assert batched_result.gamma_hat == cold_result.gamma_hat
        np.testing.assert_array_equal(
            batched_result.frequencies, cold_result.frequencies
        )

    def test_invalid_strategy_rejected(self, covid):
        # the strategy knob is gone: naming it is an error, whatever the value
        for strategy in ("batched", "cold"):
            with pytest.raises(TypeError, match="probe_strategy"):
                FrequencyDAP(1.0, covid.n_categories, probe_strategy=strategy)


# ----------------------------------------------------------------------
# vectorized defense kernels: bit-identical to the seed loops
# ----------------------------------------------------------------------
def _kmeans_seed_replica(values, n_clusters, max_iter, rng):
    """The pre-vectorisation kmeans_1d, kept verbatim as the oracle."""
    values = np.asarray(values, dtype=float).ravel()
    n_clusters = min(n_clusters, values.size)
    quantiles = np.linspace(0.0, 1.0, n_clusters + 2)[1:-1]
    centers = np.quantile(values, quantiles)
    labels = np.zeros(values.size, dtype=int)
    for _ in range(max_iter):
        distances = np.abs(values[:, None] - centers[None, :])
        new_labels = distances.argmin(axis=1)
        new_centers = centers.copy()
        for cluster in range(n_clusters):
            members = values[new_labels == cluster]
            if members.size:
                new_centers[cluster] = members.mean()
            else:
                new_centers[cluster] = values[rng.integers(0, values.size)]
        if np.array_equal(new_labels, labels) and np.allclose(new_centers, centers):
            labels, centers = new_labels, new_centers
            break
        labels, centers = new_labels, new_centers
    return labels, centers


report_vectors = st.lists(
    st.floats(
        min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
    ),
    min_size=8,
    max_size=300,
)


def _path_length(node, value, depth=0):
    """Recursive descent of one isolation tree (the seed implementation)."""
    if node.split is None:
        return depth + _average_path_length(node.size)
    if value < node.split:
        return _path_length(node.left, value, depth + 1)
    return _path_length(node.right, value, depth + 1)


def _scores_loop(train, values, n_trees, subsample_size, seed):
    """Per-user recursive scoring over recursive trees (oracle).

    Grows the trees on the same rng stream :meth:`IsolationForest.fit`
    consumes, keeps them as linked nodes, and scores one value at a time.
    """
    rng = np.random.default_rng(seed)
    train = np.asarray(train, dtype=float)
    sample_size = min(subsample_size, train.size)
    max_depth = int(np.ceil(np.log2(max(2, sample_size))))
    trees = []
    for _ in range(n_trees):
        idx = rng.choice(train.size, size=sample_size, replace=False)
        trees.append(_build_tree(train[idx], 0, max_depth, rng))
    c_n = _average_path_length(sample_size)
    scores = np.empty(len(values))
    for i, value in enumerate(values):
        mean_path = float(np.mean([_path_length(tree, value) for tree in trees]))
        scores[i] = 2.0 ** (-mean_path / c_n)
    return scores


class TestIsolationForestVectorization:
    @settings(max_examples=25, deadline=None)
    @given(values=report_vectors, seed=st.integers(0, 2**31 - 1))
    def test_scores_bit_identical_to_loop(self, values, seed):
        rng = np.random.default_rng(seed)
        train = rng.normal(0.0, 1.0, 600)
        forest = IsolationForest(n_trees=15, subsample_size=64, rng=seed).fit(train)
        values = np.asarray(values)
        np.testing.assert_array_equal(
            forest.scores(values), _scores_loop(train, values, 15, 64, seed)
        )

    def test_boundary_values_bit_identical(self):
        rng = np.random.default_rng(11)
        train = rng.normal(0.0, 1.0, 2_000)
        forest = IsolationForest(n_trees=25, subsample_size=128, rng=4).fit(train)
        # exact split boundaries exercise the `value < split` tie handling
        boundaries = np.concatenate(
            [tree.boundaries for tree in forest._flat_trees]
        )
        np.testing.assert_array_equal(
            forest.scores(boundaries), _scores_loop(train, boundaries, 25, 128, 4)
        )

    def test_chunked_scoring_matches_single_chunk(self):
        from repro.defenses import isolation_forest as module

        rng = np.random.default_rng(5)
        forest = IsolationForest(n_trees=10, subsample_size=64, rng=0).fit(
            rng.normal(0.0, 1.0, 1_000)
        )
        values = rng.normal(0.0, 2.0, 1_000)
        whole = forest.scores(values)
        original = module.SCORE_CHUNK
        module.SCORE_CHUNK = 97  # force many ragged chunks
        try:
            np.testing.assert_array_equal(forest.scores(values), whole)
        finally:
            module.SCORE_CHUNK = original


class TestKMeansVectorization:
    @settings(max_examples=40, deadline=None)
    @given(values=report_vectors, seed=st.integers(0, 2**31 - 1))
    def test_kmeans_bit_identical_to_seed_loop(self, values, seed):
        values = np.asarray(values)
        fast_labels, fast_centers = kmeans_1d(values, 2, rng=seed)
        ref_labels, ref_centers = _kmeans_seed_replica(
            values, 2, 100, np.random.default_rng(seed)
        )
        np.testing.assert_array_equal(fast_labels, ref_labels)
        np.testing.assert_array_equal(fast_centers, ref_centers)

    @settings(max_examples=40, deadline=None)
    @given(
        values=report_vectors,
        centers=st.lists(
            st.floats(
                min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_assignment_bit_identical_even_unsorted(self, values, centers):
        values = np.asarray(values)
        centers = np.asarray(centers)
        np.testing.assert_array_equal(
            _nearest_center_labels(values, centers),
            _nearest_center_labels_brute(values, centers),
        )

    def test_midpoint_ties_match_argmin(self):
        centers = np.array([-1.0, 0.5, 2.0])
        midpoints = (centers[:-1] + centers[1:]) / 2.0
        np.testing.assert_array_equal(
            _nearest_center_labels(midpoints, centers),
            _nearest_center_labels_brute(midpoints, centers),
        )

    def test_defense_estimate_bit_identical_to_seed_sampling(self):
        mechanism = PiecewiseMechanism(1.0)
        rng = np.random.default_rng(2)
        reports = mechanism.perturb(rng.uniform(-1.0, 1.0, 30_000), rng)
        defense = KMeansDefense(sampling_rate=0.1, n_subsets=200)
        result = defense.estimate_mean(reports, mechanism, rng=np.random.default_rng(9))

        # seed replica: per-subset loop + per-subset means, same rng stream
        replica_rng = np.random.default_rng(9)
        subset_size = max(1, int(round(reports.size * 0.1)))
        means = np.empty(200)
        for index in range(200):
            idx = replica_rng.integers(0, reports.size, size=subset_size)
            means[index] = reports[idx].mean()
        labels, _ = _kmeans_seed_replica(means, 2, 100, replica_rng)
        majority = int(np.argmax(np.bincount(labels, minlength=2)))
        expected = float(
            np.clip(means[labels == majority].mean(), *mechanism.input_domain)
        )
        assert result.estimate == expected


# ----------------------------------------------------------------------
# the removed probe-strategy knob: refused at every layer
# ----------------------------------------------------------------------
class TestProbeStrategyKnob:
    def _spec(self, **kwargs):
        from repro.engine import ExperimentSpec
        from repro.engine.factories import FixedAttack, FixedDataset, SchemesByName

        return ExperimentSpec(
            name="knob",
            points=[{"epsilon": 1.0}],
            n_users=200,
            n_trials=1,
            scheme_factory=SchemesByName(("DAP-CEMF*",)),
            attack_factory=FixedAttack(None),
            dataset_factory=FixedDataset(uniform_dataset(n_samples=200, rng=0)),
            **kwargs,
        )

    def test_excluded_from_fingerprint(self):
        from repro.engine.executor import _execution_details

        spec = self._spec()
        assert "probe_strategy" not in spec.fingerprint()
        assert "probe_strategy" not in _execution_details(spec)

    def test_invalid_strategy_rejected(self):
        for strategy in ("batched", "cold"):
            with pytest.raises(TypeError, match="probe_strategy"):
                self._spec(probe_strategy=strategy)
            with pytest.raises(TypeError, match="probe_strategy"):
                DAPConfig(epsilon=1.0, probe_strategy=strategy)

    def test_scenario_document_excludes_the_knob(self):
        from repro.scenario import ScenarioSpec

        base = dict(name="s", schemes=["Ostrich"], epsilons=[1.0])
        assert "probe_strategy" not in ScenarioSpec.from_dict(base).document()
        for key, value in (
            ("probe_strategy", "batched"),
            ("probe_strategy", "cold"),
            ("batched", False),
            ("batched", True),
        ):
            with pytest.raises(ValueError, match="unknown scenario keys"):
                ScenarioSpec.from_dict({**base, key: value})
