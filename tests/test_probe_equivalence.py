"""Equivalence suite for the fast probing + vectorized defense kernels.

Four contracts introduced by the perf overhauls, each enforced here:

* the **batched** (screened, warm-started, gap-certified) hypothesis
  evaluation selects the same poison categories and the same poisoned side
  as the bit-stable **cold** greedy path on the seed grids, and the final
  frequency estimates are bit-identical (both strategies solve the final
  reconstruction on the cold path);
* the batched EM kernel converges to the same maximisers as per-hypothesis
  scalar solves, and its screening certificates are sound;
* the batched kernel's whole-array tail scatter/gather reproduces the
  per-column loops it replaced: bit-identically on one-hot tails, to
  summation order on spread tails that share cells;
* the vectorized defense kernels (interval-encoded isolation forest,
  searchsorted k-means assignment, blocked subset sampling) are
  bit-identical to the seed loop implementations under a fixed rng.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.bba import BiasedByzantineAttack
from repro.attacks.distributions import PAPER_POISON_RANGES
from repro.core.dap import DAPConfig, DAPProtocol
from repro.core.emf import default_tolerance
from repro.core.frequency import FrequencyDAP
from repro.core.probing import check_probe_strategy
from repro.core.transform import cached_transform_matrix, default_bucket_counts
from repro.datasets import covid_dataset
from repro.datasets.synthetic import uniform_dataset
from repro.defenses.isolation_forest import IsolationForest
from repro.defenses.kmeans import (
    KMeansDefense,
    _nearest_center_labels,
    _nearest_center_labels_brute,
    kmeans_1d,
)
from repro.ldp import ems
from repro.ldp.ems import (
    em_reconstruct,
    em_reconstruct_accelerated,
    em_reconstruct_batch,
)
from repro.ldp.piecewise import PiecewiseMechanism
from repro.simulation.population import build_population


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
            dense, counts, np.array([[c] for c in candidates]), tol=1e-9
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

    def test_padded_tails_match_ragged_hypotheses(self, problem):
        dense, counts = problem
        tail_rows = np.array([[3, 7], [11, 11]])
        tail_mask = np.array([[True, True], [True, False]])
        batch = em_reconstruct_batch(
            dense, counts, tail_rows, tail_mask=tail_mask, tol=1e-9
        )
        two = np.zeros((30, 2))
        two[3, 0] = two[7, 1] = 1.0
        one = np.zeros((30, 1))
        one[11, 0] = 1.0
        ref2 = em_reconstruct(np.hstack([dense, two]), counts, tol=1e-9)
        ref1 = em_reconstruct(np.hstack([dense, one]), counts, tol=1e-9)
        assert batch.log_likelihoods[0] == pytest.approx(
            ref2.log_likelihood, abs=1e-6
        )
        assert batch.log_likelihoods[1] == pytest.approx(
            ref1.log_likelihood, abs=1e-6
        )
        assert batch.weights[1, -1] == 0.0  # padded component pinned to zero

    def test_screening_certificate_is_sound(self, problem):
        dense, counts = problem
        candidates = np.arange(dense.shape[0])
        floor_probe = em_reconstruct_batch(
            dense, counts, candidates[:, None], tol=1e-9
        )
        # set the floor above some hypotheses' converged optima: those (and
        # only those) may be screened, and every screened hypothesis's true
        # optimum must indeed lie below the floor
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
        certified = em_reconstruct(dense, counts, tol=1e-12, gap_tol=1e-4)
        assert certified.converged
        assert certified.n_iterations <= full.n_iterations
        assert full.log_likelihood - certified.log_likelihood <= 1e-4


# ----------------------------------------------------------------------
# batched EM tail products: one scatter + one gather == per-column loops
# ----------------------------------------------------------------------
def _loop_scatter_tail(out, tail_weights, rows, share):
    """The per-tail-column scatter the batched kernel used to run (oracle)."""
    index = np.arange(rows.shape[0])
    for t in range(rows.shape[1]):
        mass = tail_weights[:, t] * share
        for s in range(rows.shape[2]):
            out[index, rows[:, t, s]] += mass


def _loop_gather_tail(ratios, rows, share):
    """The per-tail-column gather the batched kernel used to run (oracle)."""
    index = np.arange(rows.shape[0])
    out = np.empty(rows.shape[:2])
    for t in range(rows.shape[1]):
        out[:, t] = share * ratios[index[:, None], rows[:, t, :]].sum(axis=1)
    return out


def _batch_both_ways(monkeypatch, *args, **kwargs):
    """Run ``em_reconstruct_batch`` vectorised, then on the loop oracle."""
    fast = em_reconstruct_batch(*args, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(ems, "_scatter_tail", _loop_scatter_tail)
        patch.setattr(ems, "_gather_tail", _loop_gather_tail)
        loop = em_reconstruct_batch(*args, **kwargs)
    return fast, loop


@pytest.fixture(scope="module")
def side_probe_problem():
    """EMF side hypotheses at the real probe geometry, padded to one width.

    A ``DAPProtocol`` at eps=1 probes its eps=0.0625 group; 640,000 reports
    there give d=12, d'=800 and 400 one-hot poison columns per side.  Six
    truncated variants add ragged, zero-weight-padded tails.
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
    dense = sides[0].matrix[:, :d_in]
    tails = [side.poison_bucket_indices for side in sides]
    tails += [tails[0][:150], tails[1][:300], tails[1][100:], tails[0][::3]]
    tails += [tails[1][::2], tails[1][50:]]
    n_tail = max(tail.size for tail in tails)
    tail_rows = np.empty((len(tails), n_tail), dtype=np.intp)
    tail_mask = np.zeros((len(tails), n_tail), dtype=bool)
    for h, tail in enumerate(tails):
        tail_rows[h] = tail[0]
        tail_rows[h, : tail.size] = tail
        tail_mask[h, : tail.size] = True
    rng = np.random.default_rng(13)
    normal = rng.dirichlet(np.ones(d_in))
    poison = np.zeros(d_out)
    poison[tails[1][200:]] = 1.0 / tails[1][200:].size
    mixture = 0.75 * (dense @ normal) + 0.25 * poison
    counts = rng.multinomial(640_000, mixture / mixture.sum()).astype(float)
    return dense, counts, tail_rows, tail_mask, default_tolerance(epsilon)


@pytest.fixture(scope="module")
def colliding_spread_problem():
    """Spread tails whose columns share cells within one hypothesis.

    Overlapping bump columns and a planted interior optimum keep every
    weight well determined: in certified mode the accelerated finisher can
    otherwise magnify a last-bit difference along flat likelihood
    directions, whatever the summation order that caused it.
    """
    rng = np.random.default_rng(22)
    d_out, n_dense, n_hyp, n_tail, spread = 120, 10, 10, 12, 3
    dense = np.zeros((d_out, n_dense))
    for k in range(n_dense):
        dense[8 * k : 8 * k + 16, k] = 1.0 / 16
    tail_rows = 80 + np.stack(
        [
            [rng.choice(40, size=spread, replace=False) for _ in range(n_tail)]
            for _ in range(n_hyp)
        ]
    )
    tail_mask = rng.random((n_hyp, n_tail)) < 0.8
    tail_mask[:, 0] = True
    mixture = 0.8 * (dense @ rng.dirichlet(np.ones(n_dense)))
    np.add.at(
        mixture,
        tail_rows[0].ravel(),
        np.repeat(0.2 * rng.dirichlet(np.ones(n_tail)) / spread, spread),
    )
    mixture[80:] += 1e-3
    counts = rng.multinomial(200_000, mixture / mixture.sum()).astype(float)
    return dense, counts, tail_rows, tail_mask


class TestVectorisedTailProducts:
    @pytest.mark.parametrize("certified", [False, True], ids=["plain", "certified"])
    def test_emf_tails_bit_identical_to_loop(
        self, monkeypatch, side_probe_problem, certified
    ):
        dense, counts, tail_rows, tail_mask, tol = side_probe_problem
        # the iteration caps bound the loop oracle's cost (a few ms an
        # iteration here); the right-side hypotheses still converge first
        kwargs = {"tail_mask": tail_mask, "tol": tol, "max_iter": 600}
        if certified:
            plain = em_reconstruct_batch(dense, counts, tail_rows, **kwargs)
            floor = float(np.median(plain.log_likelihoods))
            kwargs.update(gap_tol=1.0, ll_floor=floor, tol=1e-9, max_iter=400)
        fast, loop = _batch_both_ways(
            monkeypatch, dense, counts, tail_rows, **kwargs
        )
        if certified:
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

    @pytest.mark.parametrize("certified", [False, True], ids=["plain", "certified"])
    def test_colliding_spread_tails_match_loop(
        self, monkeypatch, colliding_spread_problem, certified
    ):
        dense, counts, tail_rows, tail_mask = colliding_spread_problem
        kwargs = {"tail_mask": tail_mask, "tol": 1e-6}
        if certified:
            plain = em_reconstruct_batch(dense, counts, tail_rows, **kwargs)
            floor = float(np.quantile(plain.log_likelihoods, 0.3))
            kwargs.update(gap_tol=1e-3, ll_floor=floor, tol=1e-9)
        fast, loop = _batch_both_ways(
            monkeypatch, dense, counts, tail_rows, **kwargs
        )
        if certified:
            assert loop.screened.any()
        np.testing.assert_array_equal(fast.n_iterations, loop.n_iterations)
        np.testing.assert_array_equal(fast.converged, loop.converged)
        np.testing.assert_array_equal(fast.screened, loop.screened)
        np.testing.assert_allclose(fast.weights, loop.weights, rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            fast.log_likelihoods, loop.log_likelihoods, rtol=1e-12, atol=0
        )


# ----------------------------------------------------------------------
# greedy category probe: batched == cold selections, identical estimates
# ----------------------------------------------------------------------
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
        cold = FrequencyDAP(
            1.0, covid.n_categories, estimator=estimator, probe_strategy="cold"
        )
        batched = FrequencyDAP(
            1.0, covid.n_categories, estimator=estimator, probe_strategy="batched"
        )
        counts = cold.collect_sharded(
            covid.categories[:6_000], targets, n_byzantine, rng=rng
        ).counts_float()

        cold_set, _ = cold.probe_poisoned_categories(counts)
        batched_set, _ = batched.probe_poisoned_categories(counts)
        assert batched_set == cold_set

        cold_result = cold.estimate_from_counts(counts)
        batched_result = batched.estimate_from_counts(counts)
        assert batched_result.poisoned_categories == cold_result.poisoned_categories
        assert batched_result.gamma_hat == cold_result.gamma_hat
        np.testing.assert_array_equal(
            batched_result.frequencies, cold_result.frequencies
        )

    def test_default_strategy_is_batched(self, covid):
        assert FrequencyDAP(1.0, covid.n_categories).probe_strategy == "batched"

    def test_invalid_strategy_rejected(self, covid):
        with pytest.raises(ValueError):
            FrequencyDAP(1.0, covid.n_categories, probe_strategy="bogus")
        with pytest.raises(ValueError):
            check_probe_strategy("warm")


# ----------------------------------------------------------------------
# side probe: batched == cold side selection across the DAP estimators
# ----------------------------------------------------------------------
class TestSideProbeEquivalence:
    @pytest.mark.parametrize("estimator", ["emf", "emf_star", "cemf_star"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_side_and_equivalent_estimates(self, estimator, seed):
        dataset = uniform_dataset(n_samples=20_000, rng=seed)
        population = build_population(dataset, 20_000, 0.25, rng=seed)
        attack = BiasedByzantineAttack(PAPER_POISON_RANGES["[C/2,C]"])
        results = {}
        for strategy in ("cold", "batched"):
            protocol = DAPProtocol(
                DAPConfig(epsilon=1.0, estimator=estimator, probe_strategy=strategy)
            )
            results[strategy] = protocol.run(
                population.normal_values,
                attack,
                population.n_byzantine,
                rng=np.random.default_rng(seed),
            )
        assert results["batched"].poisoned_side == results["cold"].poisoned_side
        assert results["batched"].estimate == pytest.approx(
            results["cold"].estimate, abs=1e-9
        )
        assert results["batched"].gamma_hat == pytest.approx(
            results["cold"].gamma_hat, abs=1e-9
        )


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


class TestIsolationForestVectorization:
    @settings(max_examples=25, deadline=None)
    @given(values=report_vectors, seed=st.integers(0, 2**31 - 1))
    def test_scores_bit_identical_to_loop(self, values, seed):
        rng = np.random.default_rng(seed)
        train = rng.normal(0.0, 1.0, 600)
        forest = IsolationForest(n_trees=15, subsample_size=64, rng=seed).fit(train)
        values = np.asarray(values)
        np.testing.assert_array_equal(
            forest.scores(values), forest.scores_loop(values)
        )

    def test_boundary_values_bit_identical(self):
        rng = np.random.default_rng(11)
        forest = IsolationForest(n_trees=25, subsample_size=128, rng=4).fit(
            rng.normal(0.0, 1.0, 2_000)
        )
        # exact split boundaries exercise the `value < split` tie handling
        boundaries = np.concatenate(
            [tree.boundaries for tree in forest._flat_trees]
        )
        np.testing.assert_array_equal(
            forest.scores(boundaries), forest.scores_loop(boundaries)
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
# engine / scenario knob: execution detail, not identity
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
        assert (
            self._spec(probe_strategy="cold").fingerprint()
            == self._spec().fingerprint()
        )

    def test_applied_to_schemes(self):
        spec = self._spec(probe_strategy="cold")
        (scheme,) = spec.schemes_for(spec.points[0])
        assert scheme.config.probe_strategy == "cold"
        (default_scheme,) = self._spec().schemes_for(self._spec().points[0])
        assert default_scheme.config.probe_strategy == "batched"

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            self._spec(probe_strategy="warm")

    def test_scenario_document_excludes_the_knob(self):
        from repro.scenario import ScenarioSpec

        base = dict(
            name="s", schemes=["Ostrich"], epsilons=[1.0], n_users=100, n_trials=1
        )
        with_knob = ScenarioSpec(**base, probe_strategy="cold")
        without = ScenarioSpec(**base)
        assert with_knob.document() == without.document()
        assert with_knob.digest() == without.digest()

    def test_non_probing_schemes_validate_and_ignore(self):
        from repro.simulation.schemes import make_scheme

        scheme = make_scheme("Ostrich", epsilon=1.0)
        assert scheme.configure_probing("cold") is scheme
        with pytest.raises(ValueError):
            scheme.configure_probing("warm")
