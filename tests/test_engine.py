"""Tests for the parallel experiment engine (spec, executor, store).

The load-bearing guarantees:

* seed pairing — every scheme sees the identical population draw per trial
  index, in the legacy runner and in the engine;
* worker-count invariance — the parallel executor reproduces the serial path
  bit for bit, and the legacy serial ``sweep``;
* the columnar store round-trips records exactly and supports resume.
"""

import json

import numpy as np
import pytest

from repro.attacks import BiasedByzantineAttack, PAPER_POISON_RANGES
from repro.datasets import uniform_dataset
from repro.engine import (
    ExperimentSpec,
    FixedDataset,
    PoisonRangeAttack,
    SchemesByName,
    draw_seed_matrix,
    load_run,
    resolve_workers,
    run_experiment,
)
from repro.engine.store import columns_to_records, records_to_columns
from repro.simulation.runner import evaluate_schemes
from repro.simulation.schemes import make_scheme
from repro.simulation.sweep import SweepRecord, sweep

ATTACK = BiasedByzantineAttack(PAPER_POISON_RANGES["[C/2,C]"])


@pytest.fixture(scope="module")
def dataset():
    return uniform_dataset(n_samples=3_000, low=-0.5, high=0.5, rng=1)


def make_spec(dataset, epsilons=(0.5, 1.0), schemes=("Ostrich", "Trimming")):
    return ExperimentSpec(
        name="test",
        points=[{"epsilon": e, "poison_range": "[C/2,C]"} for e in epsilons],
        n_users=1_500,
        n_trials=2,
        gamma=0.25,
        scheme_factory=SchemesByName(tuple(schemes)),
        attack_factory=PoisonRangeAttack(),
        dataset_factory=FixedDataset(dataset),
    )


def record_key(records):
    return [(r.point["epsilon"], r.scheme, repr(r.mse), repr(r.bias)) for r in records]


class TestSeedPairing:
    def test_evaluate_schemes_identical_truths_across_schemes(self, dataset):
        """Every scheme must see the identical population draw per trial index."""
        schemes = [make_scheme("Ostrich", 1.0), make_scheme("Trimming", 1.0),
                   make_scheme("DAP-EMF*", 1.0, epsilon_min=1 / 4)]
        results = evaluate_schemes(schemes, dataset, ATTACK, 1_500, 0.25,
                                   n_trials=3, rng=11)
        truths = [results[s.name].truths for s in schemes]
        assert truths[0] == truths[1] == truths[2]

    def test_seed_matrix_matches_sequential_draws(self):
        """Pre-drawing all point seeds must consume the master stream in the
        exact order the legacy serial sweep did."""
        sequential = np.random.default_rng(3)
        expected = [sequential.integers(0, 2**63 - 1, size=4, dtype=np.int64)
                    for _ in range(6)]
        matrix = draw_seed_matrix(np.random.default_rng(3), 6, 4)
        assert all((row == exp).all() for row, exp in zip(matrix, expected))


class TestExecutorEquivalence:
    def test_serial_engine_matches_legacy_sweep(self, dataset):
        points = [{"epsilon": e, "poison_range": "[C/2,C]"} for e in (0.5, 1.0)]
        legacy = sweep(
            points,
            scheme_factory=lambda pt: [make_scheme("Ostrich", pt["epsilon"]),
                                       make_scheme("Trimming", pt["epsilon"])],
            attack_factory=lambda pt: ATTACK,
            dataset_factory=lambda pt: dataset,
            n_users=1_500,
            gamma=0.25,
            n_trials=2,
            rng=0,
        )
        engine = run_experiment(make_spec(dataset), rng=0)
        assert record_key(engine) == record_key(legacy)

    def test_parallel_reproduces_serial_bit_for_bit(self, dataset):
        spec = make_spec(dataset)
        serial = run_experiment(spec, rng=7)
        parallel_2 = run_experiment(spec, rng=7, n_workers=2)
        parallel_4 = run_experiment(spec, rng=7, n_workers=4)
        assert record_key(parallel_2) == record_key(serial)
        assert record_key(parallel_4) == record_key(serial)

    def test_unpicklable_spec_falls_back_to_serial(self, dataset):
        spec = ExperimentSpec(
            name="lambda-spec",
            points=[{"epsilon": 0.5}, {"epsilon": 1.0}],
            n_users=1_000,
            n_trials=1,
            gamma=0.25,
            scheme_factory=lambda pt: [make_scheme("Ostrich", pt["epsilon"])],
            attack_factory=lambda pt: ATTACK,
            dataset_factory=lambda pt: dataset,
        )
        serial = run_experiment(spec, rng=1)
        with pytest.warns(RuntimeWarning, match="not picklable"):
            fallback = run_experiment(spec, rng=1, n_workers=2)
        assert record_key(fallback) == record_key(serial)

    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers("auto") >= 1
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestFig6QuickGridEquivalence:
    def test_engine_matches_legacy_serial_path_on_fig6_grid(self):
        """Acceptance: fixed seed => engine records numerically identical to
        the seed repo's serial sweep on (a slice of) the fig6 quick grid."""
        from repro.datasets import load_dataset
        from repro.experiments.defaults import ExperimentScale
        from repro.experiments.fig6 import run_fig6

        scale = ExperimentScale(n_users=3_000, n_trials=2, gamma=0.25)
        epsilons = (0.5, 1.0)

        # the seed repo's serial path, reproduced verbatim through the legacy
        # sweep helper (which is unchanged modulo the pivot-key fix)
        rng = np.random.default_rng(0)
        dataset_cache = {
            "Taxi": load_dataset("Taxi", n_samples=scale.n_users, rng=rng)
        }
        points = [
            {"dataset": "Taxi", "poison_range": "[3C/4,C]", "epsilon": e}
            for e in epsilons
        ]
        legacy = sweep(
            points,
            scheme_factory=lambda pt: [
                make_scheme(name, epsilon=pt["epsilon"], epsilon_min=1 / 16)
                for name in ("DAP-EMF", "DAP-EMF*", "Ostrich")
            ],
            attack_factory=lambda pt: BiasedByzantineAttack(
                PAPER_POISON_RANGES[pt["poison_range"]]
            ),
            dataset_factory=lambda pt: dataset_cache[pt["dataset"]],
            n_users=scale.n_users,
            gamma=scale.gamma,
            n_trials=scale.n_trials,
            rng=rng,
        )

        for n_workers in (None, 2):
            engine = run_fig6(
                scale,
                epsilons=epsilons,
                schemes=("DAP-EMF", "DAP-EMF*", "Ostrich"),
                rng=0,
                n_workers=n_workers,
            )
            assert record_key(engine) == record_key(legacy), n_workers


class TestStore:
    def test_columns_roundtrip(self):
        records = [
            SweepRecord(point={"epsilon": 0.5}, scheme="Ostrich", mse=1.5,
                        bias=-0.2, n_trials=3),
            SweepRecord(point={"epsilon": 1.0}, scheme="Trimming", mse=0.25,
                        bias=0.1, n_trials=3),
        ]
        points, columns = records_to_columns(records, [0, 1])
        rows = columns_to_records(points, columns)
        assert [r.record for r in rows] == records
        assert [r.point_index for r in rows] == [0, 1]

    def test_save_and_load_run(self, dataset, tmp_path):
        path = tmp_path / "run.json"
        spec = make_spec(dataset)
        records = run_experiment(spec, rng=5, store_path=path)
        assert path.exists()
        artifact = load_run(path)
        assert artifact.meta["fingerprint"]["name"] == "test"
        assert record_key(artifact.records) == record_key(records)

    def test_resume_skips_completed_units(self, dataset, tmp_path, monkeypatch):
        path = tmp_path / "run.json"
        spec = make_spec(dataset)
        first = run_experiment(spec, rng=5, store_path=path)

        calls = []
        original = ExperimentSpec.evaluate_unit

        def counting(self, unit, seeds):
            calls.append(unit)
            return original(self, unit, seeds)

        monkeypatch.setattr(ExperimentSpec, "evaluate_unit", counting)
        resumed = run_experiment(spec, rng=5, store_path=path)
        assert calls == []  # everything served from the artifact
        assert record_key(resumed) == record_key(first)

    def test_resume_ignores_mismatched_fingerprint(self, dataset, tmp_path):
        path = tmp_path / "run.json"
        spec = make_spec(dataset)
        run_experiment(spec, rng=5, store_path=path)
        other = make_spec(dataset, epsilons=(0.5, 1.0, 2.0))
        records = run_experiment(other, rng=5, store_path=path)
        assert len(records) == 3 * 2  # recomputed for the new spec

    @pytest.mark.parametrize("stored_batched, reused", [(False, True), (True, False)])
    def test_resume_reuses_only_per_trial_artifacts(
        self, dataset, tmp_path, stored_batched, reused
    ):
        """Records of the removed stacked-trials path never resume: only a
        stored fingerprint with the constant ``"batched": false`` matches."""
        path = tmp_path / "run.json"
        spec = make_spec(dataset)
        fresh = run_experiment(spec, rng=5, store_path=path)
        # leave a partial artifact with sentinel values, so reused records
        # are told apart from recomputed ones
        document = json.loads(path.read_text())
        document["meta"]["fingerprint"]["batched"] = stored_batched
        columns = document["columns"]
        for name in columns:
            columns[name] = columns[name][:-1]
        columns["mse"] = [123.0] * len(columns["mse"])
        path.write_text(json.dumps(document))

        resumed = run_experiment(spec, rng=5, store_path=path)
        served = [record.mse == 123.0 for record in resumed]
        assert served == [reused] * (len(fresh) - 1) + [False]
        if not reused:
            assert record_key(resumed) == record_key(fresh)

    def test_resume_rejects_same_shape_different_points(self, dataset, tmp_path):
        """An artifact from another sweep of identical shape must not be
        served: the fingerprint digests the point values themselves."""
        path = tmp_path / "run.json"
        run_experiment(make_spec(dataset, epsilons=(0.5, 1.0)),
                       rng=5, store_path=path)
        other = make_spec(dataset, epsilons=(1.5, 2.0))
        records = run_experiment(other, rng=5, store_path=path)
        assert sorted({r.point["epsilon"] for r in records}) == [1.5, 2.0]

    def test_resume_rejects_different_schemes(self, dataset, tmp_path):
        path = tmp_path / "run.json"
        run_experiment(make_spec(dataset), rng=5, store_path=path)
        other = make_spec(dataset, schemes=("Ostrich", "Boxplot"))
        records = run_experiment(other, rng=5, store_path=path)
        assert {r.scheme for r in records} == {"Ostrich", "Boxplot"}

    def test_load_rejects_foreign_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a repro.engine.run"):
            load_run(path)

    @staticmethod
    def _keep_only(path, scheme, **execution):
        """Rewrite an artifact to hold only ``scheme``'s rows (a partial run),
        optionally overriding fields of its ``meta.execution``."""
        import json

        payload = json.loads(path.read_text())
        kept = [i for i, s in enumerate(payload["columns"]["scheme"]) if s == scheme]
        payload["columns"] = {
            key: [column[i] for i in kept]
            for key, column in payload["columns"].items()
        }
        payload["meta"]["execution"].update(execution)
        path.write_text(json.dumps(payload))

    def test_partial_pre_sharding_artifact_resumes_and_warns(self, dataset, tmp_path):
        """An artifact written while the in-memory and streaming collection
        paths existed carries ``chunk_size`` in its ``meta.execution``.  It
        still resumes — completed records verbatim — but its pending units
        now run on the block-seeded sharded path, which is flagged."""
        import warnings

        path = tmp_path / "run.json"
        spec = make_spec(dataset, schemes=("DAP-EMF", "Ostrich"))
        first = run_experiment(spec, rng=5, store_path=path)
        self._keep_only(path, "Ostrich", chunk_size=None)

        with pytest.warns(RuntimeWarning, match="no longer exists"):
            resumed = run_experiment(spec, rng=5, store_path=path)
        assert len(resumed) == len(first)
        ostrich = lambda records: [
            (r.point["epsilon"], repr(r.mse)) for r in records if r.scheme == "Ostrich"
        ]
        assert ostrich(resumed) == ostrich(first)

        # a complete artifact has no pending units: it resumes silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_experiment(spec, rng=5, store_path=path)

        # a pre-change artifact that already ran sharded (collect_workers
        # set) produced records the new path reproduces: no warning either
        run_experiment(spec, rng=5, store_path=path, resume=False)
        self._keep_only(path, "Ostrich", chunk_size=None, collect_workers=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert record_key(run_experiment(spec, rng=5, store_path=path)) == (
                record_key(first)
            )

    def test_partial_resume_under_other_collect_workers_is_silent(
        self, dataset, tmp_path
    ):
        """``collect_workers`` never changes a record, so resuming a partial
        artifact under another shard-worker count neither warns nor moves
        the pending units' records."""
        import dataclasses
        import warnings

        path = tmp_path / "run.json"
        spec = make_spec(dataset, schemes=("DAP-EMF", "Ostrich"))
        first = run_experiment(spec, rng=5, store_path=path)
        self._keep_only(path, "Ostrich")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resumed = run_experiment(
                dataclasses.replace(spec, collect_workers=2), rng=5, store_path=path
            )
        assert record_key(resumed) == record_key(first)

    def test_partial_resume_under_different_backend_warns(self, dataset, tmp_path):
        """The backend is a collection knob: the fast samplers consume the
        RNG stream differently, so a partial artifact resumed under another
        backend is flagged."""
        import dataclasses

        path = tmp_path / "run.json"
        spec = make_spec(dataset, schemes=("Ostrich", "Trimming"))
        first = run_experiment(spec, rng=5, store_path=path)
        self._keep_only(path, "Ostrich")

        fast = dataclasses.replace(spec, backend="fast")
        with pytest.warns(RuntimeWarning, match="partial artifact"):
            resumed = run_experiment(fast, rng=5, store_path=path)
        assert len(resumed) == len(first)
        ostrich = lambda records: [
            (r.point["epsilon"], repr(r.mse)) for r in records if r.scheme == "Ostrich"
        ]
        assert ostrich(resumed) == ostrich(first)

    def test_legacy_chunk_size_fingerprint_stays_resumable(
        self, dataset, tmp_path, monkeypatch
    ):
        """Artifacts written when chunk_size was (wrongly) part of the
        fingerprint, and before execution provenance existed, must still be
        served — the legacy key is stripped before comparison."""
        import json

        path = tmp_path / "run.json"
        spec = make_spec(dataset)
        first = run_experiment(spec, rng=5, store_path=path)
        payload = json.loads(path.read_text())
        payload["meta"]["fingerprint"]["chunk_size"] = 256  # legacy shape
        del payload["meta"]["execution"]
        path.write_text(json.dumps(payload))

        calls = []
        original = ExperimentSpec.evaluate_unit

        def counting(self, unit, seeds):
            calls.append(unit)
            return original(self, unit, seeds)

        monkeypatch.setattr(ExperimentSpec, "evaluate_unit", counting)
        resumed = run_experiment(spec, rng=5, store_path=path)
        assert calls == []  # everything served despite the legacy fingerprint
        assert record_key(resumed) == record_key(first)


class TestSpecValidation:
    def test_missing_factories_rejected(self):
        with pytest.raises(ValueError, match="scheme_factory"):
            ExperimentSpec(
                name="bad", points=[{"epsilon": 1.0}], n_users=100, n_trials=1
            )

    def test_empty_points_rejected(self, dataset):
        with pytest.raises(ValueError, match="no sweep points"):
            ExperimentSpec(
                name="bad",
                points=[],
                n_users=100,
                n_trials=1,
                scheme_factory=SchemesByName(("Ostrich",)),
                attack_factory=PoisonRangeAttack(),
                dataset_factory=FixedDataset(dataset),
            )

    def test_point_granular_spec_needs_no_factories(self):
        class CustomSpec(ExperimentSpec):
            def evaluate_point(self, point, trial_seeds):
                return [int(trial_seeds[0]) % 97]

        spec = CustomSpec(name="custom", points=[{}, {}], n_users=10, n_trials=1)
        serial = run_experiment(spec, rng=0)
        assert len(serial) == 2
        again = run_experiment(spec, rng=0)
        assert serial == again
