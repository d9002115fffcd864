"""Integration tests for the sketch-backed high-cardinality frequency route.

Covers the pieces the property tests (``test_sketch_properties.py``) do not:

* the dense-route memory guards that redirect high-cardinality domains to
  the sketch path;
* the mechanism-registry and spec/CLI wiring of the sketch identity knobs;
* shard-count invariance of the full collection pipeline;
* the probe end to end — planted targeted poison is flagged exactly, a
  clean round is never flagged, honest heavy hitters stay accurate;
* the ``probe.decode`` / ``probe.em`` stage timers;
* the cell-class reduction against the full-cell reduced problem (oracle);
* the refit certificate report (``refit_converged``);
* the cached domain occupancy;
* the dense probe's frozen-poison-set transform cache.

The end-to-end configuration (k = 20_000, n = 40_000 + 2_000 Byzantine,
4 x 1024 sketch, seed 7) was validated across seeds 7/11/23: the min-decode
flag statistic separates targets (~0.24+) from honest heavies (~0.07) by
more than 3x, and the joint-likelihood verification gains are ~30 against a
2.0 bar.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.collect import SketchAccumulator
from repro.core.frequency import DENSE_MAX_CATEGORIES, FrequencyDAP
from repro.backends import get_backend
from repro.cli import build_parser
from repro.core.sketch_frequency import SketchFrequencyDAP
from repro.ldp.count_sketch import CountSketch
from repro.ldp.olh import OLH_MAX_CATEGORIES, OptimizedLocalHashing
from repro.ldp.oue import OUE_MAX_CATEGORIES, OptimizedUnaryEncoding
from repro.registry import MECHANISMS
from repro.scenario import ScenarioSpec
from repro.service import ServiceSpec
from repro.utils import profiling

# ----------------------------------------------------------------------
# shared end-to-end round (validated configuration; see module docstring)
# ----------------------------------------------------------------------
K = 20_000
N_NORMAL = 40_000
N_BYZANTINE = 2_000
TARGETS = (999, 20)
HEAVIES = {10: 0.08, 20: 0.06, 30: 0.04}
SEED = 7


def _dap() -> SketchFrequencyDAP:
    return SketchFrequencyDAP(
        epsilon=4.0,
        n_categories=K,
        sketch_rows=4,
        sketch_width=1024,
        n_heavy_hitters=12,
    )


def _population(rng: np.random.Generator) -> np.ndarray:
    categories = rng.integers(0, K, N_NORMAL)
    heavy = rng.random(N_NORMAL) < sum(HEAVIES.values())
    ids = np.array(list(HEAVIES))
    weights = np.array(list(HEAVIES.values())) / sum(HEAVIES.values())
    categories[heavy] = rng.choice(ids, heavy.sum(), p=weights)
    return categories


@pytest.fixture(scope="module")
def attack_round():
    rng = np.random.default_rng(SEED)
    categories = _population(rng)
    dap = _dap()
    return dap, dap.run(categories, list(TARGETS), N_BYZANTINE, rng)


@pytest.fixture(scope="module")
def clean_round():
    rng = np.random.default_rng(SEED)
    categories = _population(rng)
    dap = _dap()
    return dap, dap.run(categories, rng=rng)


def _estimates(result) -> dict:
    return {
        int(c): float(f) for c, f in zip(result.heavy_hitters, result.frequencies)
    }


# ----------------------------------------------------------------------
# dense-route memory guards
# ----------------------------------------------------------------------
class TestDenseGuards:
    def test_dense_probe_guard_points_to_sketch_route(self):
        with pytest.raises(ValueError, match="count-sketch"):
            FrequencyDAP(1.0, DENSE_MAX_CATEGORIES + 1)
        FrequencyDAP(1.0, DENSE_MAX_CATEGORIES)  # at the limit is fine

    def test_oue_category_guard(self):
        with pytest.raises(ValueError, match="count-sketch"):
            OptimizedUnaryEncoding(1.0, OUE_MAX_CATEGORIES + 1)

    def test_oue_report_cells_guard(self):
        mechanism = OptimizedUnaryEncoding(1.0, OUE_MAX_CATEGORIES)
        too_many = (1 << 27) // OUE_MAX_CATEGORIES + 1
        with pytest.raises(ValueError, match="count-sketch"):
            mechanism.perturb(np.zeros(too_many, dtype=int))

    def test_olh_category_guard(self):
        with pytest.raises(ValueError, match="count-sketch"):
            OptimizedLocalHashing(1.0, OLH_MAX_CATEGORIES + 1)

    def test_sketch_route_accepts_what_dense_rejects(self):
        k = DENSE_MAX_CATEGORIES * 4
        dap = SketchFrequencyDAP(1.0, k, sketch_rows=2, sketch_width=64)
        assert dap.n_categories == k


# ----------------------------------------------------------------------
# registry / spec / CLI identity knobs
# ----------------------------------------------------------------------
class TestWiring:
    @pytest.mark.parametrize("name", ["count-sketch", "count_sketch", "cms"])
    def test_mechanism_registry_aliases(self, name):
        assert MECHANISMS.get(name) is CountSketch

    @pytest.mark.parametrize("key", ["sketch_rows", "sketch_width"])
    def test_scenario_document_refuses_sketch_geometry(self, key):
        # scenarios sweep numerical mean estimation, so no component reads a
        # sketch geometry: the keys are unknown, not silently digested
        document = {"name": "s", "schemes": ["Ostrich"], "epsilons": [1.0], key: 4}
        with pytest.raises(ValueError, match=f"unknown scenario keys \\['{key}'\\]"):
            ScenarioSpec.from_dict(document)

    @pytest.mark.parametrize("key", ["sketch_rows", "sketch_width"])
    def test_service_document_refuses_sketch_geometry(self, key):
        with pytest.raises(ValueError, match=f"unknown service keys \\['{key}'\\]"):
            ServiceSpec.from_mapping({"name": "svc", key: 4})

    @pytest.mark.parametrize("command", ["run", "resume", "serve"])
    @pytest.mark.parametrize("flag", ["--sketch-rows", "--sketch-width"])
    def test_cli_refuses_sketch_geometry_flags(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "doc.json", flag, "4"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 4" in capsys.readouterr().err


# ----------------------------------------------------------------------
# collection invariance (the merge gates the benchmark asserts at scale)
# ----------------------------------------------------------------------
class TestShardedCollection:
    def test_shard_count_invariance(self):
        dap = SketchFrequencyDAP(2.0, 5_000, sketch_rows=3, sketch_width=128)
        categories = np.random.default_rng(0).integers(0, 5_000, 3_000)
        folds = [
            dap.collect_sharded(
                categories, [7], 200, np.random.default_rng(1), n_shards=shards
            ).counts
            for shards in (1, 2, 4)
        ]
        np.testing.assert_array_equal(folds[0], folds[1])
        np.testing.assert_array_equal(folds[0], folds[2])
        assert int(folds[0].sum()) == 3_200

    def test_estimate_accepts_accumulator(self):
        dap = SketchFrequencyDAP(2.0, 2_000, sketch_rows=2, sketch_width=64)
        categories = np.random.default_rng(3).integers(0, 2_000, 1_000)
        accumulator = dap.collect_sharded(
            categories, rng=np.random.default_rng(4), n_shards=2
        )
        direct = dap.estimate_from_counts(accumulator.counts)
        wrapped = dap.estimate_from_counts(accumulator)
        np.testing.assert_array_equal(direct.frequencies, wrapped.frequencies)

    def test_geometry_mismatch_rejected(self):
        dap = SketchFrequencyDAP(2.0, 2_000, sketch_rows=2, sketch_width=64)
        with pytest.raises(ValueError, match="geometry"):
            dap.estimate_from_counts(SketchAccumulator(2, 128))


# ----------------------------------------------------------------------
# probe end to end
# ----------------------------------------------------------------------
class TestProbe:
    def test_attack_flags_exactly_the_targets(self, attack_round):
        _, result = attack_round
        assert sorted(result.poisoned_categories) == sorted(TARGETS)

    def test_attack_gains_clear_the_verification_bar(self, attack_round):
        dap, result = attack_round
        assert len(result.log_likelihood_gains) == len(TARGETS)
        for gain in result.log_likelihood_gains:
            assert gain > dap.min_likelihood_gain

    def test_attack_gamma_hat_in_range(self, attack_round):
        _, result = attack_round
        true_gamma = N_BYZANTINE / (N_NORMAL + N_BYZANTINE)
        assert 0.4 * true_gamma < result.gamma_hat < 1.6 * true_gamma

    def test_attack_keeps_honest_heavies_accurate(self, attack_round):
        _, result = attack_round
        estimates = _estimates(result)
        scale = N_NORMAL / (N_NORMAL + N_BYZANTINE)
        for category in (10, 30):  # the honest heavies that are not targets
            assert estimates[category] == pytest.approx(
                HEAVIES[category] * scale, abs=0.02
            )

    def test_frequencies_and_background_form_a_distribution(self, attack_round):
        _, result = attack_round
        total = float(result.frequencies.sum()) + result.background_mass
        assert total == pytest.approx(1.0, abs=1e-9)
        assert np.all(result.frequencies >= 0.0)

    def test_clean_round_never_flagged(self, clean_round):
        _, result = clean_round
        assert result.poisoned_categories == []
        assert result.gamma_hat == 0.0
        assert result.log_likelihood_gains == []

    def test_clean_round_estimates_accurate(self, clean_round):
        _, result = clean_round
        estimates = _estimates(result)
        for category, frequency in HEAVIES.items():
            assert estimates[category] == pytest.approx(frequency, abs=0.02)

    def test_heavy_hitters_contain_planted_heavies(self, clean_round):
        _, result = clean_round
        candidates = [int(c) for c in result.heavy_hitters]
        assert set(HEAVIES) <= set(candidates)
        # ranking is by median decode, so the planted heavies lead the list
        assert set(candidates[: len(HEAVIES)]) == set(HEAVIES)
        decoded = {int(c): float(d) for c, d in zip(candidates, result.decoded)}
        for category, frequency in HEAVIES.items():
            assert decoded[category] == pytest.approx(frequency, abs=0.02)

    def test_probe_stage_timers_nest_under_probe(self):
        dap = _dap()
        rng = np.random.default_rng(SEED)
        before = profiling.snapshot()
        dap.run(_population(rng), list(TARGETS), N_BYZANTINE, rng)
        profile = profiling.delta_since(before)
        assert profile["probe.decode"] > 0.0
        assert profile["probe.em"] > 0.0
        # sub-timers attribute the probe total without adding to it
        assert (
            profile["probe.decode"] + profile["probe.em"]
            <= profile["probe"] + 1e-6
        )
        assert profile["collect"] > 0.0


# ----------------------------------------------------------------------
# cell-class reduction vs the full-cell reduced problem
# ----------------------------------------------------------------------
def _full_cell_state(dap: SketchFrequencyDAP, counts: np.ndarray):
    """The reduced problem on every ``rows * width`` sketch cell.

    The oracle the cell-class reduction must reproduce: one transform row
    per cell, filled candidate by candidate, with the identity cell map.
    """
    classed = SketchFrequencyDAP._reduced_problem(dap, counts)
    mechanism = dap.mechanism
    rows, width = dap.sketch_rows, dap.sketch_width
    candidates = classed.candidates
    cells = mechanism.hash_rows(candidates) + (np.arange(rows) * width)[np.newaxis, :]
    n_other = dap.n_categories - candidates.size
    p_cell, q_cell = mechanism.p / rows, mechanism.q / rows
    dense = np.full((rows * width, candidates.size + (1 if n_other else 0)), q_cell)
    for m in range(candidates.size):
        dense[cells[m], m] = p_cell
    if n_other:
        occupancy = mechanism.occupancy().ravel().astype(float)
        np.subtract.at(occupancy, cells.ravel(), 1.0)
        dense[:, -1] = q_cell + (p_cell - q_cell) * occupancy / n_other
    return replace(
        classed, dense=dense, cells=cells, cell_class=np.arange(rows * width)
    )


def _full_cell_poison(state, positions, rows: int) -> np.ndarray:
    """Full-cell transform with one spread poison column per position."""
    poison = np.zeros((state.dense.shape[0], len(positions)))
    for column, position in enumerate(positions):
        poison[state.cells[position], column] = 1.0 / rows
    return np.hstack([state.dense, poison])


def _small_round(n_categories: int):
    """A 2 x 16 sketch with 8 heavy hitters: 16 candidate cells in 32, so
    candidates collide."""
    dap = SketchFrequencyDAP(
        2.0, n_categories, sketch_rows=2, sketch_width=16, n_heavy_hitters=8
    )
    rng = np.random.default_rng(5)
    categories = rng.integers(0, n_categories, 3_000)
    categories[:600] = 3
    counts = dap.collect_sharded(categories, [1, 2], 400, rng).counts
    return dap, counts


@pytest.fixture(params=[300, 8], ids=["background", "no-background"])
def small_round(request):
    return _small_round(request.param)


class TestCellClasses:
    def test_geometry_has_colliding_candidates(self, small_round):
        dap, counts = small_round
        full = _full_cell_state(dap, counts)
        assert np.unique(full.cells).size < full.cells.size
        assert full.has_background == (dap.n_categories > 8)

    def test_expanded_blocks_reproduce_the_full_cell_matrices(self, small_round):
        dap, counts = small_round
        state = dap._reduced_problem(counts)
        full = _full_cell_state(dap, counts)
        assert state.dense.shape[0] < full.dense.shape[0]
        np.testing.assert_array_equal(state.dense[state.cell_class], full.dense)
        positions = [0, 2, 5]
        np.testing.assert_array_equal(
            dap._poison_transform(state, positions)[state.cell_class],
            _full_cell_poison(full, positions, dap.sketch_rows),
        )
        class_counts = state.class_counts(counts)
        for row, count in enumerate(class_counts):
            assert count == counts.ravel()[state.cell_class == row].sum()

    def test_untouched_classes_are_distinct_rows(self, small_round):
        dap, counts = small_round
        state = dap._reduced_problem(counts)
        untouched = np.setdiff1d(np.arange(state.dense.shape[0]), state.cells)
        rows = state.dense[untouched]
        assert np.unique(rows, axis=0).shape[0] == rows.shape[0]
        if not state.has_background:
            assert untouched.size == 1

    def test_likelihood_and_gradient_match_the_full_cells(self, small_round):
        dap, counts = small_round
        state = dap._reduced_problem(counts)
        full = _full_cell_state(dap, counts)
        positions = [0, 1, 4]
        classed = dap._poison_transform(state, positions)
        reference = _full_cell_poison(full, positions, dap.sketch_rows)
        class_counts = state.class_counts(counts)
        cell_counts = counts.ravel().astype(float)
        rng = np.random.default_rng(0)
        for _ in range(5):
            weights = rng.dirichlet(np.ones(classed.shape[1]))
            (ll_classed, grad_classed), (ll_full, grad_full) = (
                (
                    float(c[c > 0] @ np.log((transform @ weights)[c > 0])),
                    transform.T @ (c / (transform @ weights)),
                )
                for transform, c in (
                    (classed, class_counts),
                    (reference, cell_counts),
                )
            )
            assert ll_classed == pytest.approx(ll_full, rel=1e-12)
            np.testing.assert_allclose(grad_classed, grad_full, rtol=1e-12)

    def test_attacked_probe_matches_the_full_cell_probe(self, monkeypatch):
        dap = _dap()
        rng = np.random.default_rng(SEED)
        counts = dap.collect_sharded(
            _population(rng), list(TARGETS), N_BYZANTINE, rng
        ).counts
        classed = dap._probe(counts)
        monkeypatch.setattr(
            dap, "_reduced_problem", lambda c: _full_cell_state(dap, c)
        )
        full = dap._probe(counts)
        assert full.dense.shape[0] == dap.sketch_rows * dap.sketch_width
        assert classed.dense.shape[0] < full.dense.shape[0]
        assert classed.positions == full.positions
        assert sorted(int(classed.candidates[p]) for p in classed.positions) == sorted(
            TARGETS
        )
        np.testing.assert_allclose(classed.gains, full.gains, rtol=1e-7)


class TestRefitCertificate:
    def test_certified_attack_refit(self, attack_round):
        _, result = attack_round
        assert result.refit_converged is True

    def test_uncertified_refit_is_reported(self, monkeypatch):
        dap = _dap()
        rng = np.random.default_rng(SEED)
        counts = dap.collect_sharded(_population(rng), list(TARGETS), N_BYZANTINE, rng)
        solve = dap._reconstruct_reduced

        def uncertified(*args, gamma_hat=None, **kwargs):
            fit = solve(*args, gamma_hat=gamma_hat, **kwargs)
            return fit if gamma_hat is not None else replace(fit, converged=False)

        monkeypatch.setattr(dap, "_reconstruct_reduced", uncertified)
        result = dap.estimate_from_counts(counts)
        assert result.refit_converged is False
        assert sorted(result.poisoned_categories) == sorted(TARGETS)


# ----------------------------------------------------------------------
# cached domain occupancy
# ----------------------------------------------------------------------
class TestOccupancyCache:
    def test_second_call_skips_the_kernel_and_result_is_read_only(
        self, monkeypatch
    ):
        mechanism = CountSketch(1.0, 5_000, sketch_rows=3, sketch_width=64)
        backend_type = type(get_backend())
        kernel = backend_type.sketch_occupancy
        calls = []

        def counting(self, *args, **kwargs):
            calls.append(1)
            return kernel(self, *args, **kwargs)

        monkeypatch.setattr(backend_type, "sketch_occupancy", counting)
        first = mechanism.occupancy()
        second = mechanism.occupancy()
        assert len(calls) == 1
        assert second is first
        assert int(first.sum()) == 3 * 5_000
        with pytest.raises(ValueError):
            first[0, 0] = 1

    def test_cache_is_per_instance(self):
        narrow = CountSketch(1.0, 1_000, sketch_rows=2, sketch_width=16)
        wide = CountSketch(1.0, 1_000, sketch_rows=2, sketch_width=32)
        assert narrow.occupancy().shape == (2, 16)
        assert wide.occupancy().shape == (2, 32)


# ----------------------------------------------------------------------
# dense probe transform cache (frozen poison set)
# ----------------------------------------------------------------------
class TestDenseTransformCache:
    def test_repeat_poison_set_reuses_the_matrix(self):
        dap = FrequencyDAP(1.0, 16)
        first = dap._build_transform([3, 5])
        assert dap._build_transform([3, 5]) is first

    def test_changed_poison_set_rebuilds(self):
        dap = FrequencyDAP(1.0, 16)
        first = dap._build_transform([3, 5])
        second = dap._build_transform([3, 7])
        assert second is not first
        np.testing.assert_array_equal(
            second, FrequencyDAP(1.0, 16)._build_transform([3, 7])
        )

    def test_normal_block_cached_and_correct(self):
        dap = FrequencyDAP(1.0, 16)
        block = dap._transition_matrix()
        assert dap._transition_matrix() is block
        np.testing.assert_array_equal(block, dap.mechanism.transition_matrix())
