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
* each single-flag gain's duality-gap certificate (``gains_certified``);
* the cell-table decode and occupancy against the hashing oracles, and the
  table's once-per-geometry, off-instance cache;
* the top-k candidate selection against a full lexsort;
* the dense probe's frozen-poison-set transform cache.

The end-to-end configuration (k = 20_000, n = 40_000 + 2_000 Byzantine,
4 x 1024 sketch, seed 7) was validated across seeds 7/11/23: the min-decode
flag statistic separates targets (~0.24+) from honest heavies (~0.07) by
more than 3x, and the joint-likelihood verification gains are ~30 against a
2.0 bar.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.collect import SketchAccumulator
from repro.core.frequency import DENSE_MAX_CATEGORIES, FrequencyDAP
from repro.cli import build_parser
from repro.core.sketch_frequency import SketchFrequencyDAP, _SketchClient, _top_k
from repro.ldp import count_sketch
from repro.ldp.count_sketch import CountSketch, sketch_row_seeds
from repro.ldp.olh import OLH_MAX_CATEGORIES, OptimizedLocalHashing, _hash_categories
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
    buckets = _hash_categories(
        candidates[:, np.newaxis], sketch_row_seeds(rows)[np.newaxis, :], width
    )
    cells = buckets + (np.arange(rows) * width)[np.newaxis, :]
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


class TestGainCertificate:
    def test_each_gain_is_certified_by_its_duality_gap(
        self, attack_round, monkeypatch
    ):
        dap, result = attack_round
        seen, fits = {}, []
        solve = dap._reconstruct_reduced
        one_shot = dap._one_shot_gains

        def record_fit(counts_flat, state, positions, **kwargs):
            # inside the probe, the gain solves are the only reduced solves
            fit = solve(counts_flat, state, positions, **kwargs)
            fits.append((list(positions), fit))
            return fit

        def record_call(counts_flat, state, flagged, incumbent):
            seen.update(counts=counts_flat, state=state, incumbent=incumbent)
            return one_shot(counts_flat, state, flagged, incumbent)

        monkeypatch.setattr(dap, "_reconstruct_reduced", record_fit)
        monkeypatch.setattr(dap, "_one_shot_gains", record_call)
        dap._probe(result.sketch_counts)
        counts, state = seen["counts"], seen["state"]
        incumbent = seen["incumbent"]
        assert [positions for positions, _ in fits] == [
            [position] for position in state.positions
        ]
        gap_tol = 1e-3 * dap.min_likelihood_gain
        for gain, ([position], fit) in zip(result.log_likelihood_gains, fits):
            transform = dap._poison_transform(state, [position])
            mixture = transform @ fit.weights
            ratios = np.divide(
                counts, mixture, out=np.zeros_like(counts), where=counts > 0
            )
            gradient = transform.T @ ratios
            assert gradient.max() - fit.weights @ gradient < gap_tol
            assert gain == fit.log_likelihood - incumbent.log_likelihood
        assert result.gains_certified == [True] * len(TARGETS)

    def test_uncertified_gain_is_reported(self, monkeypatch):
        dap = _dap()
        rng = np.random.default_rng(SEED)
        counts = dap.collect_sharded(_population(rng), list(TARGETS), N_BYZANTINE, rng)
        solve = dap._reconstruct_reduced
        forced = []

        def first_gain_uncertified(*args, **kwargs):
            # the first reduced solve of a round is its first gain solve
            fit = solve(*args, **kwargs)
            if forced:
                return fit
            forced.append(True)
            return replace(fit, converged=False)

        monkeypatch.setattr(dap, "_reconstruct_reduced", first_gain_uncertified)
        result = dap.estimate_from_counts(counts)
        assert result.gains_certified == [False, True]
        assert len(result.log_likelihood_gains) == len(TARGETS)
        assert result.refit_converged is True


# ----------------------------------------------------------------------
# cell-table decode vs the hashing decode it replaced
# ----------------------------------------------------------------------
def _hashing_decode(mechanism, counts, categories, reduce, tile):
    """The tiled hashing decode: every call re-hashes its categories."""
    rows, width = mechanism.sketch_rows, mechanism.sketch_width
    p, q = mechanism.p, mechanism.q
    row_totals = counts.sum(axis=1).astype(float)
    freq_buckets = (counts / np.maximum(row_totals, 1.0)[:, np.newaxis] - q) / (p - q)
    out = np.empty(categories.size, dtype=float)
    row_index = np.arange(rows)[np.newaxis, :]
    seed_row = sketch_row_seeds(rows)[np.newaxis, :]
    for start in range(0, categories.size, tile):
        cats = categories[start : start + tile, np.newaxis]
        gathered = freq_buckets[row_index, _hash_categories(cats, seed_row, width)]
        if reduce == "median":
            raw = np.median(gathered, axis=1)
        elif reduce == "min":
            raw = gathered.min(axis=1)
        else:
            raw = gathered.mean(axis=1)
        out[start : start + tile] = (width * raw - 1.0) / (width - 1.0)
    return out


def _hashing_occupancy(mechanism, tile):
    """The tiled hashing occupancy count of the full domain."""
    rows, width = mechanism.sketch_rows, mechanism.sketch_width
    occupancy = np.zeros(rows * width, dtype=np.int64)
    row_offsets = (np.arange(rows) * width)[np.newaxis, :]
    seed_row = sketch_row_seeds(rows)[np.newaxis, :]
    for start in range(0, mechanism.n_categories, tile):
        cats = np.arange(start, min(start + tile, mechanism.n_categories))
        hashed = _hash_categories(cats[:, np.newaxis], seed_row, width)
        occupancy += np.bincount((hashed + row_offsets).ravel(), minlength=rows * width)
    return occupancy.reshape(rows, width)


def _bits(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


#: (n_categories, rows, width, table dtype): 1 to 9 rows (the mean's
#: pairwise sum unrolls at 8), and domains that are no multiple of the tile
DECODE_GEOMETRIES = [
    (10_001, 2, 64, np.uint8),
    (20_001, 1, 300, np.uint16),
    (10_001, 4, 1024, np.uint16),
    (4_001, 9, 16, np.uint8),
    (10_001, 2, 1 << 16, np.uint32),
]
#: a decode tile small enough that every geometry spans several tiles
SMALL_TILE_ELEMENTS = 1 << 14


@pytest.fixture
def fresh_tables(monkeypatch):
    """Small decode tiles and empty geometry caches for the test's duration."""
    monkeypatch.setattr(count_sketch, "OLH_SUPPORT_TILE_ELEMENTS", SMALL_TILE_ELEMENTS)
    count_sketch._cell_table.cache_clear()
    count_sketch._occupancy.cache_clear()
    yield
    count_sketch._cell_table.cache_clear()
    count_sketch._occupancy.cache_clear()


@pytest.mark.usefixtures("fresh_tables")
class TestCellTableDecode:
    @pytest.mark.parametrize(
        "geometry", DECODE_GEOMETRIES, ids=lambda g: f"k{g[0]}-r{g[1]}-w{g[2]}"
    )
    def test_bit_identical_to_the_hashing_decode(self, geometry):
        n_categories, rows, width, dtype = geometry
        mechanism = CountSketch(1.5, n_categories, sketch_rows=rows, sketch_width=width)
        tile = SMALL_TILE_ELEMENTS // rows
        assert n_categories % tile and n_categories > tile
        rng = np.random.default_rng(n_categories)
        counts = rng.integers(0, 40, size=(rows, width))
        everything = np.arange(n_categories)
        subset = rng.integers(0, n_categories, size=(3 * n_categories) // 2)
        assert np.unique(subset).size < subset.size  # unsorted and repeated
        for reduce in ("min", "mean", "median"):
            assert _bits(mechanism.estimate_all(counts, reduce=reduce)) == _bits(
                _hashing_decode(mechanism, counts, everything, reduce, tile)
            )
            assert _bits(
                mechanism.estimate_categories(counts, subset, reduce=reduce)
            ) == _bits(_hashing_decode(mechanism, counts, subset, reduce, tile))
        occupancy = mechanism.occupancy()
        assert occupancy.dtype == np.int64
        np.testing.assert_array_equal(occupancy, _hashing_occupancy(mechanism, tile))
        assert count_sketch._cell_table(n_categories, rows, width).dtype == dtype

    def test_unknown_reduce_is_rejected(self):
        mechanism = CountSketch(1.0, 100, sketch_rows=2, sketch_width=16)
        with pytest.raises(ValueError, match="reduce"):
            mechanism.estimate_all(np.ones((2, 16), dtype=int), reduce="max")


# ----------------------------------------------------------------------
# the geometry cache: one hash pass per process, never on the instance
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("fresh_tables")
class TestCellTableCache:
    def test_one_hash_pass_per_geometry(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return _hash_categories(*args, **kwargs)

        monkeypatch.setattr(count_sketch, "_hash_categories", counting)
        n_categories = 5_000
        tiles = -(-n_categories // (SMALL_TILE_ELEMENTS // 3))
        counts = np.random.default_rng(0).integers(0, 9, size=(3, 64))
        first = CountSketch(1.0, n_categories, sketch_rows=3, sketch_width=64)
        second = CountSketch(2.0, n_categories, sketch_rows=3, sketch_width=64)
        occupancies = []
        for mechanism in (first, second, first):
            mechanism.estimate_all(counts, reduce="min")
            mechanism.estimate_categories(counts, [3, 1, 3])
            occupancies.append(mechanism.occupancy())
        assert len(calls) == tiles
        assert all(occupancy is occupancies[0] for occupancy in occupancies)
        assert int(occupancies[0].sum()) == 3 * n_categories

        CountSketch(1.0, n_categories, sketch_rows=3, sketch_width=32).occupancy()
        assert len(calls) == 2 * tiles

    def test_table_and_occupancy_are_read_only(self):
        mechanism = CountSketch(1.0, 5_000, sketch_rows=3, sketch_width=64)
        occupancy = mechanism.occupancy()
        table = count_sketch._cell_table(5_000, 3, 64)
        for array in (occupancy, table):
            with pytest.raises(ValueError):
                array[0, 0] = 1

    def test_cache_is_per_geometry(self):
        narrow = CountSketch(1.0, 1_000, sketch_rows=2, sketch_width=16)
        wide = CountSketch(1.0, 1_000, sketch_rows=2, sketch_width=32)
        assert narrow.occupancy().shape == (2, 16)
        assert wide.occupancy().shape == (2, 32)

    def test_shard_task_client_stays_small_after_a_full_decode(self):
        """The table lives in the process memo, not on the mechanism the
        sketch client pickles into every pooled shard task."""
        dap = SketchFrequencyDAP(1.0, 200_000, sketch_rows=4, sketch_width=1024)
        client = _SketchClient(dap.plan, dap.mechanism, np.array([5, 7]))
        before = len(pickle.dumps(client))
        counts = np.random.default_rng(1).integers(0, 50, size=(4, 1024))
        dap.mechanism.estimate_all(counts, reduce="min")
        dap.mechanism.occupancy()
        table = count_sketch._cell_table(200_000, 4, 1024)
        assert len(pickle.dumps(client)) == before < table.nbytes // 100


# ----------------------------------------------------------------------
# top-k candidate selection vs a full lexsort
# ----------------------------------------------------------------------
def _lexsort_top_k(ranked: np.ndarray, k: int) -> np.ndarray:
    return np.sort(np.lexsort((np.arange(ranked.size), -ranked))[:k])


class TestTopK:
    @pytest.mark.parametrize("k", [1, 5, 17, 40, 99])
    def test_ties_straddling_the_kth_value(self, k):
        ranked = np.random.default_rng(k).integers(0, 6, size=100).astype(float)
        ranked[ranked == 2.0] = -0.5
        selected = _top_k(ranked, k)
        np.testing.assert_array_equal(selected, _lexsort_top_k(ranked, k))
        assert selected.size == k

    @pytest.mark.parametrize("k", [1, 7, 64])
    def test_all_zero_decode_with_signed_zeros(self, k):
        ranked = np.where(np.random.default_rng(3).random(200) < 0.5, -0.0, 0.0)
        np.testing.assert_array_equal(_top_k(ranked, k), np.arange(k))
        np.testing.assert_array_equal(_top_k(ranked, k), _lexsort_top_k(ranked, k))

    def test_continuous_values(self):
        ranked = np.random.default_rng(9).standard_normal(10_000)
        np.testing.assert_array_equal(_top_k(ranked, 32), _lexsort_top_k(ranked, 32))

    def test_k_equal_to_the_domain(self):
        ranked = np.random.default_rng(4).integers(0, 3, size=50).astype(float)
        np.testing.assert_array_equal(_top_k(ranked, 50), np.arange(50))
        np.testing.assert_array_equal(_top_k(ranked, 50), _lexsort_top_k(ranked, 50))


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
