"""Tests for the parallel experiment engine (spec, executor, store).

The load-bearing guarantees:

* seed pairing — every scheme sees the identical population draw per trial
  index, in the legacy runner and in the engine;
* worker-count invariance — the parallel executor reproduces the serial path
  bit for bit, and the legacy serial ``sweep``;
* the columnar store round-trips records exactly and supports resume.
"""

import dataclasses
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import knobs
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
    save_run,
)
from repro.engine.executor import run_identity
from repro.experiments import QUICK_SCALE, build_fig6_spec
from repro.experiments.defaults import ExperimentScale
from repro.simulation.schemes import make_scheme
from repro.simulation.sweep import SweepRecord
from tests.legacy_sweep import evaluate_schemes, sweep

ATTACK = BiasedByzantineAttack(PAPER_POISON_RANGES["[C/2,C]"])
SRC = str(Path(__file__).resolve().parent.parent / "src")


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


@dataclasses.dataclass
class ForeignRecord:
    """A dataclass record defined outside ``repro``."""

    value: int


class TestStore:
    def test_columns_roundtrip(self, tmp_path):
        """Records come back per unit, and a unit that returned no records
        is still listed as finished."""
        units = {
            (0, 0): [SweepRecord(point={"epsilon": 0.5, "targets": (1, 2)},
                                 scheme="Ostrich", mse=1.5, bias=-0.2, n_trials=3)],
            (0, 1): [],
            (1, 0): [SweepRecord(point={"epsilon": 1.0}, scheme="Trimming",
                                 mse=0.25, bias=0.1, n_trials=3)],
        }
        save_run(tmp_path / "run.json", units)
        artifact = load_run(tmp_path / "run.json")
        assert artifact.units == units
        assert artifact.records == units[(0, 0)] + units[(1, 0)]

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
    def _keep_only(path, scheme):
        """Rewrite an artifact to hold only ``scheme``'s rows (a partial run)."""
        payload = json.loads(path.read_text())
        kept = [i for i, s in enumerate(payload["columns"]["scheme"]) if s == scheme]
        payload["columns"] = {
            key: [column[i] for i in kept]
            for key, column in payload["columns"].items()
        }
        payload["units"] = payload["columns"]["unit"]
        path.write_text(json.dumps(payload))

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

    @pytest.mark.parametrize(
        "record", [7, ForeignRecord(7)], ids=["int", "foreign-dataclass"]
    )
    def test_unstorable_record_raises_type_error(self, record, tmp_path):
        """Only a dataclass defined under ``repro`` can be restored by name,
        so any other record fails the write, naming its type, and no file
        is left behind."""

        class TwoPointSpec(ExperimentSpec):
            def evaluate_point(self, point, trial_seeds):
                return [record]

        spec = TwoPointSpec(name="two-point", points=[{}, {}], n_users=10, n_trials=1)
        with pytest.raises(TypeError, match=type(record).__qualname__):
            run_experiment(spec, rng=0, store_path=tmp_path / "run.json")
        assert list(tmp_path.iterdir()) == []


#: ``build_fig6_spec(QUICK_SCALE, rng=0).fingerprint()`` as the hand-built
#: fingerprint computed it before the run identity held the spec's fields
#: and the seed matrix
HAND_BUILT_FIG6_FINGERPRINT = {
    "batched": False,
    "gamma": 0.25,
    "granularity": "scheme",
    "n_points": 5,
    "n_trials": 3,
    "n_users": 20000,
    "name": "fig6",
    "points_digest": "dabac6d183b4ecf1",
    "schemes": ["DAP-EMF", "DAP-EMF*", "DAP-CEMF*", "Ostrich", "Trimming"],
}


class SelfReferencing:
    """A value object whose state refers back to itself."""

    def __init__(self):
        self.me = self


def closure(offset):
    return lambda point: point["epsilon"] + offset


@pytest.fixture
def unit_calls(monkeypatch):
    """The units the executor computes (rather than resumes), in order."""
    calls = []
    original = ExperimentSpec.evaluate_unit

    def counting(self, unit, seeds):
        calls.append(unit)
        return original(self, unit, seeds)

    monkeypatch.setattr(ExperimentSpec, "evaluate_unit", counting)
    return calls


class TestRunIdentity:
    """A stored artifact resumes only under the same spec fields and the same
    seed matrix; anything else recomputes and equals a fresh run."""

    SCALE = ExperimentScale(n_users=3_000, n_trials=1, gamma=0.25)

    def fig6(self, **kwargs):
        return build_fig6_spec(
            self.SCALE, epsilons=(1.0,), schemes=("DAP-EMF", "Ostrich"), rng=0, **kwargs
        )

    @staticmethod
    def over(first, second, path, first_rng, second_rng):
        """Run ``second`` over ``first``'s artifact, and ``second`` fresh."""
        run_experiment(first, rng=first_rng, store_path=path)
        resumed = run_experiment(second, rng=second_rng, store_path=path)
        return record_key(resumed), record_key(run_experiment(second, rng=second_rng))

    def test_other_master_seed_recomputes(self, tmp_path):
        spec = self.fig6()
        resumed, fresh = self.over(spec, spec, tmp_path / "run.json", 0, 12345)
        assert resumed == fresh

    def test_other_factory_options_recompute(self, tmp_path):
        resumed, fresh = self.over(
            self.fig6(), self.fig6(epsilon_min=0.5), tmp_path / "run.json", 0, 0
        )
        assert resumed == fresh

    def test_other_dataset_values_recompute(self, dataset, tmp_path):
        other = uniform_dataset(n_samples=3_000, low=0.0, high=0.8, rng=2)
        resumed, fresh = self.over(
            make_spec(dataset), make_spec(other), tmp_path / "run.json", 5, 5
        )
        assert resumed == fresh

    def test_generator_state_decides_resume(self, dataset, tmp_path, unit_calls):
        path = tmp_path / "run.json"
        spec = make_spec(dataset)
        first = run_experiment(spec, rng=np.random.default_rng(7), store_path=path)
        unit_calls.clear()
        same = run_experiment(spec, rng=np.random.default_rng(7), store_path=path)
        assert unit_calls == [] and record_key(same) == record_key(first)

        other = run_experiment(spec, rng=np.random.default_rng(8), store_path=path)
        assert unit_calls == spec.units()
        fresh = run_experiment(spec, rng=np.random.default_rng(8))
        assert record_key(other) == record_key(fresh)

    def test_interrupted_run_stores_its_finished_units(self, tmp_path, unit_calls):
        """A run that raises first writes what it finished, so the rerun
        computes only the rest and equals an uninterrupted run."""
        spec = build_fig6_spec(
            self.SCALE, epsilons=(1.0, 2.0), schemes=("DAP-EMF", "Ostrich"), rng=0
        )
        assert len(spec.units()) == 4
        path = tmp_path / "run.json"

        def interrupt_after_three(completed, total):
            if completed == 3:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_experiment(spec, rng=0, store_path=path, progress=interrupt_after_three)
        assert len(load_run(path).records) == 3
        stored = unit_calls[:3]

        unit_calls.clear()
        resumed = run_experiment(spec, rng=0, store_path=path)
        assert len(unit_calls) == 1 and unit_calls[0] not in stored
        assert len(load_run(path).records) == 4
        assert record_key(resumed) == record_key(run_experiment(spec, rng=0))

    def test_lambda_spec_writes_its_artifact_but_never_resumes(
        self, dataset, tmp_path, unit_calls
    ):
        spec = ExperimentSpec(
            name="lambda-spec",
            points=[{"epsilon": 1.0}],
            n_users=1_000,
            n_trials=1,
            scheme_factory=lambda pt: [make_scheme("Ostrich", pt["epsilon"])],
            attack_factory=lambda pt: ATTACK,
            dataset_factory=lambda pt: dataset,
        )
        assert spec.fingerprint() == spec.fingerprint()
        assert spec.fingerprint()["scheme_factory"] == knobs.OPAQUE
        path = tmp_path / "run.json"
        first = run_experiment(spec, rng=1, store_path=path)
        assert record_key(load_run(path).records) == record_key(first)
        again = run_experiment(spec, rng=1, store_path=path)
        assert unit_calls == spec.units() * 2
        assert record_key(again) == record_key(first)

    @pytest.mark.parametrize(
        "component",
        [
            lambda point: None,
            closure(1.0),
            functools.partial(make_scheme, "Ostrich"),
            np.random.default_rng(0),
            SelfReferencing(),
        ],
        ids=["lambda", "closure", "partial", "generator", "cycle"],
    )
    def test_component_without_canonical_form_is_opaque(self, component):
        document = knobs.canonical(component)
        assert knobs.is_opaque(document)
        assert document == knobs.canonical(component)

    @pytest.mark.parametrize(
        "legacy",
        [{}, {"chunk_size": 256}, {"batched": True}],
        ids=["hand-built", "with-chunk-size", "batched"],
    )
    def test_hand_built_fingerprint_never_resumes(self, legacy, tmp_path, unit_calls):
        """Artifacts written before the run identity carry the hand-built
        fingerprint (some with a ``chunk_size`` or a stacked-trials flag);
        each recomputes once."""
        spec = build_fig6_spec(QUICK_SCALE, rng=0)
        records = [
            SweepRecord(point=point, scheme=scheme.name, mse=123.0, bias=0.0, n_trials=3)
            for point in spec.points
            for scheme in spec.schemes_for(point)
        ]
        path = tmp_path / "run.json"
        save_run(
            path,
            {unit: [record] for unit, record in zip(spec.units(), records)},
            meta={"fingerprint": {**HAND_BUILT_FIG6_FINGERPRINT, **legacy}},
        )
        stub = [SweepRecord(point={}, scheme="stub", mse=0.0, bias=0.0, n_trials=3)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ExperimentSpec, "_evaluate_unit", lambda self, unit, seeds: stub)
            resumed = run_experiment(spec, rng=0, store_path=path)
        assert unit_calls == spec.units()
        assert all(record.mse == 0.0 for record in resumed)

    def test_identity_is_independent_of_the_hash_seed(self):
        """The fig6 quick identity computed under another ``PYTHONHASHSEED``
        equals the in-process one, so a fresh process resumes."""
        code = (
            "import json, numpy as np\n"
            "from repro.engine.executor import draw_seed_matrix, run_identity\n"
            "from repro.experiments import QUICK_SCALE, build_fig6_spec\n"
            "rng = np.random.default_rng(0)\n"
            "spec = build_fig6_spec(QUICK_SCALE, rng=rng)\n"
            "matrix = draw_seed_matrix(rng, len(spec.points), spec.n_trials)\n"
            "print(json.dumps(run_identity(spec, matrix)))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="4242")
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        rng = np.random.default_rng(0)
        spec = build_fig6_spec(QUICK_SCALE, rng=rng)
        matrix = draw_seed_matrix(rng, len(spec.points), spec.n_trials)
        assert json.loads(result.stdout) == run_identity(spec, matrix)


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


# ----------------------------------------------------------------------
# the record codec: every driver's spec stores and resumes
# ----------------------------------------------------------------------
CODEC_SCALE = ExperimentScale(n_users=2_000, n_trials=1, gamma=0.25)

#: each ``run_*`` driver on a shrunken grid (fig8 is its three panel drivers)
DRIVERS = {
    "table1": lambda E: E.table1.run_table1(
        CODEC_SCALE, epsilons=(1.0,), poison_ranges=("[O,C]",), rng=0
    ),
    "fig4": lambda E: E.fig4.run_fig4(CODEC_SCALE, datasets=("Taxi", "Beta(2,5)"), rng=0),
    "fig5": lambda E: E.fig5.run_fig5(
        CODEC_SCALE, epsilons=(1.0,), gammas=(0.1,), poison_ranges=("[O,C]",), rng=0
    ),
    "fig6": lambda E: E.fig6.run_fig6(
        CODEC_SCALE, epsilons=(1.0,), schemes=("DAP-EMF", "Ostrich"), rng=0
    ),
    "fig7": lambda E: E.fig7.run_fig7(
        CODEC_SCALE, poison_ranges=("[O,C/2]",), gammas=(0.1,),
        distributions=("Uniform",), schemes=("DAP-EMF", "Ostrich"), rng=0,
    ),
    "fig8": lambda E: (
        E.fig8.run_fig8_distribution(CODEC_SCALE, epsilons=(1.0,), rng=0),
        E.fig8.run_fig8_gamma(
            CODEC_SCALE, dataset_names=("Beta(2,5)",), epsilons=(1.0,), rng=0
        ),
        E.fig8.run_fig8_mse(
            CODEC_SCALE, dataset_names=("Beta(2,5)",), epsilons=(1.0,), rng=0
        ),
    ),
    "fig9": lambda E: E.fig9.run_fig9_defense_comparison(
        CODEC_SCALE, epsilons=(1.0,), sampling_rates=(0.5,), ima_inputs=(0.0,), rng=0
    ),
    "fig9_frequency": lambda E: E.fig9_freq.run_fig9_frequency(
        CODEC_SCALE, epsilons=(1.0,), rng=0
    ),
    "fig10": lambda E: E.fig10.run_fig10(
        CODEC_SCALE, evasive_fractions=(0.5,), schemes=("DAP-EMF",), rng=0
    ),
    "matrix": lambda E: E.matrix.run_matrix(
        CODEC_SCALE, datasets=("Taxi",), attacks=({"name": "ima", "label": "IMA"},),
        schemes=("Ostrich", "Trimming"), epsilons=(1.0,), rng=0,
    ),
}


#: each driver that runs one spec, with its shrunken arguments
SINGLE_SPEC_DRIVERS = {
    "run_table1": ("table1", dict(epsilons=(1.0,), poison_ranges=("[O,C]",))),
    "run_fig4": ("fig4", dict(datasets=("Taxi",))),
    "run_fig5": (
        "fig5", dict(epsilons=(1.0,), gammas=(0.1,), poison_ranges=("[O,C]",))
    ),
    "run_fig6": ("fig6", dict(epsilons=(1.0,), schemes=("Ostrich",))),
    "run_fig7": (
        "fig7",
        dict(
            poison_ranges=("[O,C/2]",), gammas=(0.1,), distributions=("Uniform",),
            schemes=("Ostrich",),
        ),
    ),
    "run_fig8_distribution": ("fig8", dict(epsilons=(1.0,))),
    "run_fig8_gamma": ("fig8", dict(dataset_names=("Beta(2,5)",), epsilons=(1.0,))),
    "run_fig8_mse": ("fig8", dict(dataset_names=("Beta(2,5)",), epsilons=(1.0,))),
    "run_fig9_frequency": ("fig9_freq", dict(epsilons=(1.0,))),
    "run_fig10": ("fig10", dict(evasive_fractions=(0.5,), schemes=("DAP-EMF",))),
}


def executor_calls(driver):
    """``(spec, keyword arguments)`` of each executor call ``driver`` makes,
    unexecuted."""
    import repro.experiments as experiments
    import repro.scenario

    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for module in [repro.scenario, *vars(experiments).values()]:
            if getattr(module, "run_experiment", None) is run_experiment:
                patch.setattr(
                    module,
                    "run_experiment",
                    lambda spec, **kwargs: calls.append((spec, kwargs)) or [],
                )
        driver(experiments)
    return calls


def driver_specs(name):
    """The specs the driver ``name`` hands the executor, unexecuted."""
    specs = [spec for spec, _ in executor_calls(DRIVERS[name])]
    assert specs, name
    return specs


@pytest.mark.parametrize("name", sorted(SINGLE_SPEC_DRIVERS))
def test_driver_hands_its_store_path_to_the_executor(name, tmp_path):
    module, kwargs = SINGLE_SPEC_DRIVERS[name]
    path = tmp_path / "run.json"
    calls = executor_calls(
        lambda E: getattr(getattr(E, module), name)(
            CODEC_SCALE, rng=0, store_path=path, **kwargs
        )
    )
    assert [call_kwargs["store_path"] for _, call_kwargs in calls] == [path]


def test_fig9_stores_each_panel_in_its_own_artifact(tmp_path):
    stores = {"a": tmp_path / "a.json", "b": tmp_path / "b.json"}
    calls = executor_calls(
        lambda E: E.fig9.run_fig9_defense_comparison(
            CODEC_SCALE, epsilons=(1.0,), sampling_rates=(0.5,), ima_inputs=(0.0,),
            rng=0, store_paths=stores,
        )
    )
    assert [(spec.name, kwargs["store_path"]) for spec, kwargs in calls] == [
        ("fig9a", stores["a"]),
        ("fig9b", stores["b"]),
    ]


def same_records(actual, expected):
    """Equal field by field, arrays bit for bit, containers of the same type."""
    containers = (tuple, list, dict, np.ndarray)
    kinds = lambda records: [
        [type(value) for value in vars(record).values() if isinstance(value, containers)]
        for record in records
    ]
    canonical = lambda records: json.dumps(knobs.canonical(records))
    return canonical(actual) == canonical(expected) and kinds(actual) == kinds(expected)


class TestRecordCodec:
    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_driver_spec_round_trips_and_resumes(self, name, tmp_path, unit_calls):
        for index, spec in enumerate(driver_specs(name)):
            path = tmp_path / f"{index}.json"
            records = run_experiment(spec, rng=3, store_path=path)
            assert records and same_records(load_run(path).records, records)
            unit_calls.clear()
            resumed = run_experiment(spec, rng=3, store_path=path)
            assert unit_calls == [] and same_records(resumed, records)

    def test_fresh_interpreter_restores_table1_records(self, tmp_path):
        (spec,) = driver_specs("table1")
        path = tmp_path / "table1.json"
        records = run_experiment(spec, rng=3, store_path=path)
        code = (
            "import sys\n"
            "import repro.engine\n"
            "assert 'repro.experiments.table1' not in sys.modules\n"
            f"records = repro.engine.load_run({str(path)!r}).records\n"
            "print(*{type(r).__module__ + '.' + type(r).__qualname__ for r in records})\n"
            "print(repr(records))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        kind, restored = result.stdout.splitlines()
        assert kind == "repro.experiments.table1.Table1Record"
        assert restored == repr(records)

    @pytest.mark.parametrize(
        "name",
        [
            "repro.simulation.schemes.Scheme",
            "tests.test_engine.ForeignRecord",
            "repro.experiments.table1.NoSuchRecord",
            "builtins.dict",
        ],
    )
    def test_edited_class_name_is_refused(self, name, tmp_path, unit_calls):
        (spec,) = driver_specs("table1")
        path = tmp_path / "table1.json"
        records = run_experiment(spec, rng=3, store_path=path)
        payload = json.loads(path.read_text())
        payload["record_class"] = name
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="not a repro dataclass"):
            load_run(path)
        unit_calls.clear()
        with pytest.warns(RuntimeWarning, match="ignoring unreadable run artifact"):
            recomputed = run_experiment(spec, rng=3, store_path=path)
        assert unit_calls == spec.units() and same_records(recomputed, records)
