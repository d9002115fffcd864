"""Tests for the pluggable array-backend kernel layer.

Three contracts are pinned here:

1. **Selection semantics** — name validation, process-local active backend
   and scoped selection via ``use_backend`` (including the ``None``
   passthrough).
2. **Reference bit-identity** — under the default ``"numpy"`` backend, every
   mechanism's ``perturb`` must reproduce the seed implementation draw for
   draw; the frozen copies of the seed samplers live in this file, so the
   dispatch seam can never silently change a single rounding.
3. **Fast-path statistical equivalence** — the ``"fast"`` backend draws
   different random numbers but must produce the same distributions, checked
   against the mechanisms' analytic bucket probabilities and by frequency
   round trips.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    ArrayBackend,
    BACKENDS,
    DEFAULT_BACKEND,
    check_backend,
    get_backend,
    resolve_backend,
    set_backend,
    use_backend,
)
from repro.backends import base as backend_base
from repro.backends.fast import FastBackend, OUE_SPARSE_MIN_CELLS
from repro.collect.accumulators import CategoryCountAccumulator, HistogramAccumulator
from repro.ldp.ems import em_reconstruct
from repro.ldp.krr import KRandomizedResponse
from repro.ldp.olh import OptimizedLocalHashing, _hash_categories
from repro.ldp.oue import OptimizedUnaryEncoding
from repro.ldp.piecewise import PiecewiseMechanism
from repro.ldp.square_wave import SquareWaveMechanism
from repro.utils.discretization import BucketGrid

EPSILONS = (0.25, 1.0, 4.0)


@pytest.fixture(autouse=True)
def _restore_backend():
    """Backend selection is process-global; never leak it across tests."""
    yield
    set_backend(DEFAULT_BACKEND)


# ----------------------------------------------------------------------
# selection semantics
# ----------------------------------------------------------------------
class TestSelection:
    def test_known_names(self):
        assert BACKENDS == ("numpy", "fast")
        assert DEFAULT_BACKEND == "numpy"
        for name in BACKENDS:
            assert check_backend(name) == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend 'gpu'"):
            check_backend("gpu")
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gpu")

    def test_default_is_numpy_reference(self):
        assert get_backend().name == "numpy"
        assert type(get_backend()) is ArrayBackend

    def test_set_backend_switches_process_state(self):
        backend = set_backend("fast")
        assert backend is get_backend()
        assert get_backend().name == "fast"
        set_backend("numpy")
        assert get_backend().name == "numpy"

    def test_use_backend_scopes_and_restores(self):
        assert get_backend().name == "numpy"
        with use_backend("fast") as backend:
            assert backend.name == "fast"
            assert get_backend() is backend
        assert get_backend().name == "numpy"

    def test_use_backend_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_backend("fast"):
                raise RuntimeError("boom")
        assert get_backend().name == "numpy"

    def test_use_backend_none_is_a_passthrough(self):
        set_backend("fast")
        with use_backend(None) as backend:
            assert backend is get_backend()
            assert backend.name == "fast"
        assert get_backend().name == "fast"

    def test_instances_are_shared(self):
        assert resolve_backend("fast") is resolve_backend("fast")
        assert resolve_backend("numpy") is resolve_backend("numpy")


# ----------------------------------------------------------------------
# reference bit-identity: frozen copies of the seed samplers
# ----------------------------------------------------------------------
def _seed_pm_perturb(mechanism: PiecewiseMechanism, values, rng):
    """The seed implementation's PM sampler, frozen verbatim."""
    flat = np.asarray(values, dtype=float).ravel()
    left, right = mechanism.high_band(flat)
    n = flat.size
    outputs = np.empty(n, dtype=float)
    in_band = rng.random(n) < mechanism.high_prob
    n_in = int(in_band.sum())
    if n_in:
        u = rng.random(n_in)
        outputs[in_band] = left[in_band] + u * (right[in_band] - left[in_band])
    out_band = ~in_band
    n_out = int(out_band.sum())
    if n_out:
        l_out = left[out_band]
        r_out = right[out_band]
        left_len = l_out + mechanism.C
        right_len = mechanism.C - r_out
        total_len = left_len + right_len
        u = rng.random(n_out) * total_len
        take_left = u < left_len
        outputs[out_band] = np.where(
            take_left, -mechanism.C + u, r_out + (u - left_len)
        )
    return outputs


def _seed_sw_perturb(mechanism: SquareWaveMechanism, values, rng):
    """The seed implementation's SW sampler, frozen verbatim."""
    flat = np.asarray(values, dtype=float).ravel()
    b = mechanism.b
    n = flat.size
    out = np.empty(n, dtype=float)
    window_mass = 2.0 * b * mechanism._p_high
    in_window = rng.random(n) < window_mass
    n_in = int(in_window.sum())
    if n_in:
        out[in_window] = flat[in_window] + rng.uniform(-b, b, size=n_in)
    out_window = ~in_window
    n_out = int(out_window.sum())
    if n_out:
        v = flat[out_window]
        left_len = (v - b) - (-b)
        right_len = (1.0 + b) - (v + b)
        total_len = left_len + right_len
        u = rng.random(n_out) * total_len
        take_left = u < left_len
        out[out_window] = np.where(take_left, -b + u, v + b + (u - left_len))
    return out


def _seed_oue_perturb(mechanism: OptimizedUnaryEncoding, categories, rng):
    n = categories.size
    bits = rng.random((n, mechanism.n_categories)) < mechanism.q
    keep_one = rng.random(n) < mechanism.p
    bits[np.arange(n), categories] = keep_one
    return bits.astype(np.int8)


def _seed_olh_perturb(mechanism: OptimizedLocalHashing, categories, rng):
    n = categories.size
    seeds = rng.integers(0, 2**32 - 1, size=n, dtype=np.uint64)
    hashed = _hash_categories(categories, seeds, mechanism.g)
    keep = rng.random(n) < mechanism.p
    random_other = rng.integers(0, mechanism.g - 1, size=n)
    random_other = np.where(random_other >= hashed, random_other + 1, random_other)
    reports = np.where(keep, hashed, random_other)
    return np.column_stack([seeds.astype(np.int64), reports.astype(np.int64)])


def _seed_krr_perturb(mechanism: KRandomizedResponse, categories, rng):
    n = categories.size
    keep = rng.random(n) < mechanism.p
    random_other = rng.integers(0, mechanism.n_categories - 1, size=n)
    random_other = np.where(
        random_other >= categories, random_other + 1, random_other
    )
    return np.where(keep, categories, random_other)


class TestNumpyBitIdentity:
    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_pm(self, epsilon, rng):
        mechanism = PiecewiseMechanism(epsilon)
        values = rng.uniform(-1.0, 1.0, 5000)
        got = mechanism.perturb(values, np.random.default_rng(42))
        want = _seed_pm_perturb(mechanism, values, np.random.default_rng(42))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_sw(self, epsilon, rng):
        mechanism = SquareWaveMechanism(epsilon)
        values = rng.uniform(0.0, 1.0, 5000)
        got = mechanism.perturb(values, np.random.default_rng(42))
        want = _seed_sw_perturb(mechanism, values, np.random.default_rng(42))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_oue(self, epsilon, rng):
        mechanism = OptimizedUnaryEncoding(epsilon, 12)
        categories = rng.integers(0, 12, 2000)
        got = mechanism.perturb(categories, np.random.default_rng(42))
        want = _seed_oue_perturb(mechanism, categories, np.random.default_rng(42))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_olh(self, epsilon, rng):
        mechanism = OptimizedLocalHashing(epsilon, 12)
        categories = rng.integers(0, 12, 2000)
        got = mechanism.perturb(categories, np.random.default_rng(42))
        want = _seed_olh_perturb(mechanism, categories, np.random.default_rng(42))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_krr(self, epsilon, rng):
        mechanism = KRandomizedResponse(epsilon, 12)
        categories = rng.integers(0, 12, 2000)
        got = mechanism.perturb(categories, np.random.default_rng(42))
        want = _seed_krr_perturb(mechanism, categories, np.random.default_rng(42))
        np.testing.assert_array_equal(got, want)

    def test_pm_consecutive_calls_share_one_generator_like_the_seed(self, rng):
        """Each call draws exactly what the seed drew, so a generator reused
        across calls lines up with the seed draw for draw."""
        mechanism = PiecewiseMechanism(1.0)
        values = rng.uniform(-1.0, 1.0, 3000)
        blocks = [values[start : start + 777] for start in range(0, 3000, 777)]
        generator, seed_generator = np.random.default_rng(9), np.random.default_rng(9)
        for block in blocks:
            np.testing.assert_array_equal(
                mechanism.perturb(block, generator),
                _seed_pm_perturb(mechanism, block, seed_generator),
            )
        assert generator.random() == seed_generator.random()

    def test_explicit_numpy_backend_matches_default(self, rng):
        mechanism = PiecewiseMechanism(1.0)
        values = rng.uniform(-1.0, 1.0, 1000)
        default = mechanism.perturb(values, np.random.default_rng(3))
        with use_backend("numpy"):
            explicit = mechanism.perturb(values, np.random.default_rng(3))
        np.testing.assert_array_equal(default, explicit)


# ----------------------------------------------------------------------
# fast backend: statistical equivalence
# ----------------------------------------------------------------------
def _bucket_probabilities(reports: np.ndarray, edges: np.ndarray) -> np.ndarray:
    counts, _ = np.histogram(reports, bins=edges)
    return counts / reports.size


class TestFastStatisticalEquivalence:
    N = 200_000

    @pytest.mark.parametrize("epsilon", (0.5, 1.0, 2.0))
    def test_pm_matches_analytic_bucket_probabilities(self, epsilon):
        mechanism = PiecewiseMechanism(epsilon)
        values = np.full(self.N, 0.3)
        with use_backend("fast"):
            reports = mechanism.perturb(values, np.random.default_rng(11))
        assert reports.min() >= -mechanism.C and reports.max() <= mechanism.C
        edges = np.linspace(-mechanism.C, mechanism.C, 21)
        expected = mechanism.interval_probability_matrix(
            np.array([0.3]), edges
        )[:, 0]
        observed = _bucket_probabilities(reports, edges)
        np.testing.assert_allclose(observed, expected, atol=5e-3)

    @pytest.mark.parametrize("epsilon", (0.5, 1.0, 2.0))
    def test_sw_matches_analytic_bucket_probabilities(self, epsilon):
        mechanism = SquareWaveMechanism(epsilon)
        values = np.full(self.N, 0.7)
        with use_backend("fast"):
            reports = mechanism.perturb(values, np.random.default_rng(11))
        low, high = mechanism.output_domain
        assert reports.min() >= low and reports.max() <= high
        edges = np.linspace(low, high, 21)
        expected = mechanism.interval_probability_matrix(
            np.array([0.7]), edges
        )[:, 0]
        observed = _bucket_probabilities(reports, edges)
        np.testing.assert_allclose(observed, expected, atol=5e-3)

    def test_pm_moments(self):
        mechanism = PiecewiseMechanism(1.0)
        values = np.full(self.N, 0.3)
        with use_backend("fast"):
            reports = mechanism.perturb(values, np.random.default_rng(23))
        assert reports.mean() == pytest.approx(0.3, abs=0.02)
        assert reports.var() == pytest.approx(mechanism.variance(0.3), rel=0.02)

    def test_oue_bit_rates(self):
        mechanism = OptimizedUnaryEncoding(1.0, 16)
        categories = np.zeros(50_000, dtype=int)
        with use_backend("fast"):
            bits = mechanism.perturb(categories, np.random.default_rng(5))
        assert set(np.unique(bits)) <= {0, 1}
        assert bits[:, 0].mean() == pytest.approx(mechanism.p, abs=0.01)
        assert bits[:, 1:].mean() == pytest.approx(mechanism.q, abs=0.005)

    def test_oue_small_input_uses_dense_reference(self, rng):
        """Below the sparse threshold the fast OUE defers to the reference."""
        mechanism = OptimizedUnaryEncoding(1.0, 8)
        categories = rng.integers(0, 8, 100)
        assert categories.size * 8 < OUE_SPARSE_MIN_CELLS
        with use_backend("fast"):
            got = mechanism.perturb(categories, np.random.default_rng(2))
        want = mechanism.perturb(categories, np.random.default_rng(2))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "mechanism_cls", (KRandomizedResponse, OptimizedLocalHashing,
                          OptimizedUnaryEncoding)
    )
    def test_frequency_roundtrip(self, mechanism_cls, rng):
        k = 24
        mechanism = mechanism_cls(2.0, k)
        probabilities = np.arange(1, k + 1, dtype=float)
        probabilities /= probabilities.sum()
        categories = rng.choice(k, size=100_000, p=probabilities)
        with use_backend("fast"):
            reports = mechanism.perturb(categories, np.random.default_rng(17))
            estimate = mechanism.estimate_frequencies(reports)
        np.testing.assert_allclose(estimate, probabilities, atol=0.02)

    def test_krr_keep_probability(self):
        mechanism = KRandomizedResponse(2.0, 4)
        with use_backend("fast"):
            out = mechanism.perturb(
                np.zeros(50_000, dtype=int), np.random.default_rng(1)
            )
        assert out.min() >= 0 and out.max() < 4
        assert np.mean(out == 0) == pytest.approx(mechanism.p, abs=0.01)
        # the flipped mass is uniform over the other categories
        flipped = out[out != 0]
        for category in (1, 2, 3):
            assert np.mean(flipped == category) == pytest.approx(1 / 3, abs=0.02)


# ----------------------------------------------------------------------
# OLH support counting (the O(k*n) blowup fix)
# ----------------------------------------------------------------------
class TestOlhSupportTiling:
    def _broadcast_support(self, mechanism, seeds, observed):
        """The pre-fix one-shot broadcast (reference for the tiled kernel)."""
        categories = np.arange(mechanism.n_categories)[:, np.newaxis]
        hashed = _hash_categories(categories, seeds[np.newaxis, :], mechanism.g)
        return (hashed == observed[np.newaxis, :]).sum(axis=1)

    @pytest.mark.parametrize("n_users", (1, 7, 100, 4096))
    @pytest.mark.parametrize("k", (2, 5, 24))
    def test_tiled_support_equals_broadcast(self, n_users, k, rng, monkeypatch):
        # a tiny tile forces many partial passes even at small n
        monkeypatch.setattr(backend_base, "OLH_SUPPORT_TILE_ELEMENTS", 64)
        mechanism = OptimizedLocalHashing(1.0, k)
        categories = rng.integers(0, k, n_users)
        reports = mechanism.perturb(categories, rng)
        seeds = reports[:, 0].astype(np.uint64)
        observed = reports[:, 1]
        tiled = get_backend().olh_support(
            seeds, observed, k, mechanism.g, _hash_categories
        )
        np.testing.assert_array_equal(
            tiled, self._broadcast_support(mechanism, seeds, observed)
        )

    def test_estimate_frequencies_unchanged_by_tile_size(self, rng, monkeypatch):
        mechanism = OptimizedLocalHashing(1.0, 10)
        categories = rng.integers(0, 10, 5000)
        reports = mechanism.perturb(categories, rng)
        full = mechanism.estimate_frequencies(reports)
        monkeypatch.setattr(backend_base, "OLH_SUPPORT_TILE_ELEMENTS", 32)
        tiled = mechanism.estimate_frequencies(reports)
        np.testing.assert_array_equal(full, tiled)

    def test_memory_stays_bounded(self, rng, monkeypatch):
        """The conceptual (k, n) hash grid must never materialise."""
        seen = []
        original = _hash_categories

        def spying(categories, seeds, domain):
            out = original(categories, seeds, domain)
            seen.append(out.size)
            return out

        mechanism = OptimizedLocalHashing(1.0, 64)
        categories = rng.integers(0, 64, 20_000)
        reports = mechanism.perturb(categories, rng)
        monkeypatch.setattr(backend_base, "OLH_SUPPORT_TILE_ELEMENTS", 1 << 12)
        get_backend().olh_support(
            reports[:, 0].astype(np.uint64), reports[:, 1], 64, mechanism.g, spying
        )
        assert max(seen) <= (1 << 12)


# ----------------------------------------------------------------------
# accumulators
# ----------------------------------------------------------------------
class TestAccumulatorBackends:
    def test_histogram_counts_identical_sum_close(self, rng):
        grid = BucketGrid(-1.0, 1.0, 32)
        values = rng.uniform(-1.0, 1.0, 10_000)
        chunks = np.array_split(values, 7)

        reference = HistogramAccumulator(grid, track_sum=True)
        for chunk in chunks:
            reference.update(chunk)
        with use_backend("fast"):
            fast = HistogramAccumulator(grid, track_sum=True)
            for chunk in chunks:
                fast.update(chunk)

        np.testing.assert_array_equal(fast.counts, reference.counts)
        assert fast.n_values == reference.n_values
        assert fast.sum == pytest.approx(reference.sum, rel=1e-12)

    def test_histogram_fast_state_roundtrip_and_merge(self, rng):
        grid = BucketGrid(0.0, 1.0, 8)
        with use_backend("fast"):
            a = HistogramAccumulator(grid, track_sum=True)
            a.update(rng.uniform(0, 1, 500))
            b = HistogramAccumulator.from_state(a.state_dict())
            a.merge(b)
        assert a.n_values == 1000
        assert a.sum == pytest.approx(2 * b.sum, rel=1e-12)

    def test_histogram_rejects_non_finite_on_both_backends(self):
        grid = BucketGrid(0.0, 1.0, 4)
        bad = np.array([0.5, np.nan])
        for name in ("numpy", "fast"):
            with use_backend(name):
                with pytest.raises(ValueError, match="finite"):
                    HistogramAccumulator(grid).update(bad)

    def test_category_counts_identical(self, rng):
        reports = rng.integers(0, 9, 5000)
        reference = CategoryCountAccumulator(9).update(reports)
        with use_backend("fast"):
            fast = CategoryCountAccumulator(9).update(reports)
        np.testing.assert_array_equal(fast.counts, reference.counts)

    @pytest.mark.parametrize("bad", ([-1, 2], [0, 9], [-3, 12]))
    def test_category_range_error_identical(self, bad):
        reports = np.asarray(bad)
        messages = []
        for name in ("numpy", "fast"):
            with use_backend(name):
                with pytest.raises(ValueError) as excinfo:
                    CategoryCountAccumulator(9).update(reports)
                messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "category reports must lie in [0, 9)" in messages[0]


# ----------------------------------------------------------------------
# EM products are backend-routed but bit-identical on the numpy path
# ----------------------------------------------------------------------
class TestEmRouting:
    def test_em_reconstruct_identical_under_explicit_numpy(self, rng):
        transform = np.abs(rng.random((30, 10)))
        transform /= transform.sum(axis=0, keepdims=True)
        counts = rng.integers(0, 100, 30).astype(float)
        default = em_reconstruct(transform, counts)
        with use_backend("numpy"):
            explicit = em_reconstruct(transform, counts)
        np.testing.assert_array_equal(default.weights, explicit.weights)
        assert default.log_likelihood == explicit.log_likelihood

    def test_em_reconstruct_close_under_fast(self, rng):
        """EM calls numpy directly, not a backend kernel, so the active
        backend cannot move a single bit of its output."""
        transform = np.abs(rng.random((30, 10)))
        transform /= transform.sum(axis=0, keepdims=True)
        counts = rng.integers(0, 100, 30).astype(float)
        default = em_reconstruct(transform, counts)
        with use_backend("fast"):
            fast = em_reconstruct(transform, counts)
        np.testing.assert_array_equal(fast.weights, default.weights)
        assert fast.log_likelihood == default.log_likelihood


# ----------------------------------------------------------------------
# spec / scenario integration
# ----------------------------------------------------------------------
class TestSpecIntegration:
    def test_scenario_rejects_unknown_backend(self):
        from repro.scenario import ScenarioSpec

        with pytest.raises(ValueError, match="unknown backend"):
            ScenarioSpec(
                name="x", schemes=["Ostrich"], epsilons=[1.0], backend="gpu"
            )

    def test_backend_excluded_from_scenario_digest(self):
        from repro.scenario import ScenarioSpec

        base = dict(name="x", schemes=["Ostrich"], epsilons=[1.0])
        plain = ScenarioSpec(**base)
        fast = ScenarioSpec(**base, backend="fast")
        assert plain.digest() == fast.digest()
        assert "backend" not in plain.document()

    def test_backend_excluded_from_spec_fingerprint(self):
        from repro.engine.factories import (
            AttackLookup,
            DatasetLookup,
            SchemesFromSpecs,
        )
        from repro.engine.spec import ExperimentSpec

        def build(backend):
            return ExperimentSpec(
                name="x",
                points=[{"epsilon": 1.0, "attack": "none", "dataset": "d"}],
                n_users=100,
                n_trials=1,
                scheme_factory=SchemesFromSpecs(["Ostrich"]),
                attack_factory=AttackLookup({"none": None}),
                dataset_factory=DatasetLookup(
                    {"d": __import__("repro.datasets", fromlist=["x"]).uniform_dataset(
                        100, rng=np.random.default_rng(0)
                    )}
                ),
                backend=backend,
            )

        assert build(None).fingerprint() == build("fast").fingerprint()

    def test_spec_rejects_unknown_backend(self):
        from repro.engine.spec import ExperimentSpec

        with pytest.raises(ValueError, match="unknown backend"):
            ExperimentSpec(
                name="x",
                points=[{"epsilon": 1.0}],
                n_users=10,
                n_trials=1,
                scheme_factory=lambda point: [],
                attack_factory=lambda point: None,
                dataset_factory=lambda point: None,
                backend="gpu",
            )

    def test_run_scenario_backend_statistically_equivalent(self):
        from repro.scenario import ScenarioSpec, run_scenario

        doc = dict(
            name="backend_equiv",
            schemes=["DAP-EMF"],
            epsilons=[1.0],
            datasets=["Uniform"],
            attacks=["ima"],
            n_users=20_000,
            n_trials=2,
            gamma=0.25,
            seed=7,
        )
        reference = run_scenario(ScenarioSpec(**doc))
        fast = run_scenario(ScenarioSpec(**doc, backend="fast"))
        assert get_backend().name == "numpy"  # selection did not leak
        for ref_row, fast_row in zip(reference, fast):
            assert ref_row.scheme == fast_row.scheme
            # different draws, same estimator: errors agree in magnitude
            assert fast_row.mse == pytest.approx(ref_row.mse, rel=1.0, abs=5e-3)
