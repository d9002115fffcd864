"""Scenario layer: ScenarioSpec validation, lowering, and engine equivalence."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.attacks import (
    BiasedByzantineAttack,
    GaussianPoison,
    InputManipulationAttack,
    NoAttack,
    PAPER_POISON_RANGES,
)
from repro.engine import (
    AttackLookup,
    DatasetLookup,
    ExperimentSpec,
    SchemesFromSpecs,
    run_experiment,
)
from repro.scenario import (
    ScenarioSpec,
    attack_from_spec,
    dataset_from_spec,
    format_scenario_records,
    run_scenario,
)
from repro.utils.rng import ensure_rng

QUICK = dict(
    name="quick",
    schemes=("Ostrich", "Trimming"),
    epsilons=(0.5, 1.0),
    attacks=({"name": "bba", "poison_range": "[C/2,C]"},),
    datasets=("Uniform",),
    n_users=500,
    n_trials=2,
    seed=11,
)


class TestAttackSpecs:
    def test_name_only(self):
        label, attack = attack_from_spec("ima")
        assert label == "ima" and isinstance(attack, InputManipulationAttack)

    def test_none_and_null(self):
        for spec in (None, "none"):
            label, attack = attack_from_spec(spec)
            assert isinstance(attack, NoAttack)

    def test_range_and_distribution_resolution(self):
        label, attack = attack_from_spec(
            {"name": "bba", "poison_range": "[3C/4,C]",
             "distribution": {"name": "gaussian", "relative_std": 0.1},
             "label": "custom"}
        )
        assert label == "custom"
        assert isinstance(attack, BiasedByzantineAttack)
        assert attack.poison_range is PAPER_POISON_RANGES["[3C/4,C]"]
        assert isinstance(attack.distribution, GaussianPoison)
        assert attack.distribution.relative_std == 0.1

    def test_absolute_range_pair(self):
        _, attack = attack_from_spec({"name": "bba", "poison_range": [0.5, 0.9]})
        assert attack.poison_range.label == "[0.5,0.9]"

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError, match="registered attacks"):
            attack_from_spec("not-an-attack")
        with pytest.raises(KeyError, match="known ranges"):
            attack_from_spec({"name": "bba", "poison_range": "[bogus]"})
        with pytest.raises(KeyError, match="known:"):
            attack_from_spec({"name": "bba", "distribution": "bogus"})
        with pytest.raises(KeyError, match="unknown poison distribution"):
            attack_from_spec({"name": "bba", "distribution": {"name": 5}})
        with pytest.raises(ValueError, match="needs a 'name'"):
            attack_from_spec({"poison_range": "[O,C]"})


class TestDatasetSpecs:
    def test_params_and_label(self):
        label, dataset = dataset_from_spec(
            {"name": "uniform", "low": 0.0, "high": 0.5, "label": "U[0,.5]"},
            n_samples=300,
            rng=0,
        )
        assert label == "U[0,.5]" and len(dataset) == 300
        assert dataset.values.min() >= 0.0

    def test_categorical_rejected(self):
        with pytest.raises(ValueError, match="categorical"):
            dataset_from_spec("covid-19", n_samples=100, rng=0)


class TestScenarioValidation:
    def test_from_dict_round_trip(self):
        scenario = ScenarioSpec.from_dict(
            {
                "name": "s",
                "schemes": ["Ostrich"],
                "epsilons": [1.0],
                "trials": 2,
                "population": {"n_users": 600, "gamma": 0.1},
            }
        )
        assert scenario.n_trials == 2
        assert scenario.n_users == 600
        assert scenario.gamma == 0.1

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario keys \\['bogus'\\]"):
            ScenarioSpec.from_dict(
                {"name": "s", "schemes": ["Ostrich"], "epsilons": [1.0], "bogus": 1}
            )
        with pytest.raises(ValueError, match="unknown population keys"):
            ScenarioSpec.from_dict(
                {"name": "s", "schemes": ["Ostrich"], "epsilons": [1.0],
                 "population": {"users": 5}}
            )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("input_domain", [1.0, -1.0]),
            ("input_domain", [-1.0, 0.0, 1.0]),
            ("epsilon_min", -0.5),
            ("seed", 7.9),
        ],
    )
    def test_bad_knob_values_refused(self, key, value):
        # the same values ServiceSpec refuses: one validator per knob
        document = {"name": "s", "schemes": ["Ostrich"], "epsilons": [1.0]}
        if key == "input_domain":
            document["population"] = {key: value}
        else:
            document[key] = value
        with pytest.raises(ValueError, match=key):
            ScenarioSpec.from_dict(document)

    def test_missing_required_keys(self):
        with pytest.raises(ValueError, match="missing .*schemes"):
            ScenarioSpec.from_dict({"name": "s", "epsilons": [1.0]})

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="empty 'attacks' axis"):
            ScenarioSpec(name="s", schemes=("Ostrich",), epsilons=(1.0,), attacks=())

    def test_duplicate_attack_labels_rejected(self):
        scenario = ScenarioSpec(
            **{**QUICK, "attacks": ("bba", {"name": "bba", "side": "left"})}
        )
        with pytest.raises(ValueError, match="duplicate attack label"):
            scenario.to_experiment_spec()

    def test_duplicate_scheme_labels_rejected(self):
        # scheme names key resumed artifacts per point, so colliding display
        # names would silently serve one scheme's records for both
        scenario = ScenarioSpec(
            **{
                **QUICK,
                "schemes": (
                    "Trimming",
                    {"defense": "trimming", "params": {"trim_fraction": 0.4}},
                ),
            }
        )
        with pytest.raises(ValueError, match="duplicate scheme label"):
            scenario.to_experiment_spec()


class TestLowering:
    def test_grid_shape_and_keys(self):
        scenario = ScenarioSpec(
            **{**QUICK, "attacks": ("bba", "ima"), "datasets": ("Uniform", "Gaussian")}
        )
        spec = scenario.to_experiment_spec()
        assert isinstance(spec, ExperimentSpec)
        assert len(spec.points) == 2 * 2 * 2  # dataset x attack x epsilon
        assert spec.points[0] == {"dataset": "Uniform", "attack": "bba", "epsilon": 0.5}
        schemes = spec.schemes_for(spec.points[0])
        assert [s.name for s in schemes] == ["Ostrich", "Trimming"]

    def test_gamma_grid_becomes_axis(self):
        scenario = ScenarioSpec(**{**QUICK, "gammas": (0.1, 0.3)})
        spec = scenario.to_experiment_spec()
        assert len(spec.points) == 1 * 1 * 2 * 2
        assert spec.point_gamma(spec.points[0]) == 0.1
        assert spec.point_gamma(spec.points[-1]) == 0.3

    def test_records_match_programmatic_experiment_spec(self):
        """Scenario records are bit-identical to the hand-built engine call."""
        scenario = ScenarioSpec(**QUICK)
        via_scenario = run_scenario(scenario)

        master = ensure_rng(scenario.seed)
        label, dataset = dataset_from_spec("Uniform", scenario.n_users, master)
        attack_label, attack = attack_from_spec(
            {"name": "bba", "poison_range": "[C/2,C]"}
        )
        spec = ExperimentSpec(
            name=scenario.name,
            points=[
                {"dataset": label, "attack": attack_label, "epsilon": epsilon}
                for epsilon in scenario.epsilons
            ],
            n_users=scenario.n_users,
            n_trials=scenario.n_trials,
            gamma=scenario.gamma,
            scheme_factory=SchemesFromSpecs(scenario.schemes),
            attack_factory=AttackLookup({attack_label: attack}),
            dataset_factory=DatasetLookup({label: dataset}),
        )
        programmatic = run_experiment(spec, rng=master)
        assert [(r.point, r.scheme, r.mse, r.bias) for r in via_scenario] == [
            (r.point, r.scheme, r.mse, r.bias) for r in programmatic
        ]

    def test_parallel_identical_to_serial(self):
        scenario = ScenarioSpec(**QUICK)
        serial = run_scenario(scenario)
        parallel = run_scenario(scenario, n_workers=2)
        assert [(r.scheme, r.mse) for r in serial] == [
            (r.scheme, r.mse) for r in parallel
        ]

    def test_store_resume_round_trip(self, tmp_path):
        scenario = ScenarioSpec(**QUICK)
        store = tmp_path / "run.json"
        first = run_scenario(scenario, store_path=store)
        assert store.exists()
        payload = json.loads(store.read_text())
        assert payload["meta"]["fingerprint"]["name"] == "quick"
        resumed = run_scenario(scenario, store_path=store, resume=True)
        assert [(r.scheme, r.mse) for r in first] == [
            (r.scheme, r.mse) for r in resumed
        ]

    def test_edited_scenario_never_resumes_stale_artifact(self, tmp_path):
        """Changing seed or scheme params must invalidate the artifact."""
        store = tmp_path / "run.json"
        run_scenario(ScenarioSpec(**QUICK), store_path=store)
        edited = ScenarioSpec(**{**QUICK, "seed": 99})
        resumed = run_scenario(edited, store_path=store, resume=True)
        fresh = run_scenario(edited)
        assert [(r.scheme, r.mse) for r in resumed] == [
            (r.scheme, r.mse) for r in fresh
        ]

        reparams = ScenarioSpec(
            **{
                **QUICK,
                "schemes": (
                    {"defense": "trimming", "params": {"trim_fraction": 0.4},
                     "label": "Trimming"},
                    "Ostrich",
                ),
            }
        )
        resumed = run_scenario(reparams, store_path=store, resume=True)
        fresh = run_scenario(reparams)
        assert [(r.scheme, r.mse) for r in resumed] == [
            (r.scheme, r.mse) for r in fresh
        ]

    def test_rng_override_never_resumes_seed_artifact(self, tmp_path):
        """An rng override is part of the artifact identity (and vice versa)."""
        store = tmp_path / "run.json"
        scenario = ScenarioSpec(**QUICK)
        run_scenario(scenario, rng=123, store_path=store)
        seeded = run_scenario(scenario, store_path=store, resume=True)
        fresh = run_scenario(scenario)
        assert [(r.scheme, r.mse) for r in seeded] == [
            (r.scheme, r.mse) for r in fresh
        ]
        # a generator in another state draws another seed matrix: no resume
        run_scenario(scenario, rng=ensure_rng(5), store_path=store)
        again = run_scenario(scenario, rng=ensure_rng(6), store_path=store)
        fresh6 = run_scenario(scenario, rng=ensure_rng(6))
        assert [(r.scheme, r.mse) for r in again] == [
            (r.scheme, r.mse) for r in fresh6
        ]

    def test_unknown_scheme_in_scenario_raises(self):
        scenario = ScenarioSpec(**{**QUICK, "schemes": ("NotAScheme",)})
        with pytest.raises(KeyError, match="registered schemes"):
            run_scenario(scenario)

    def test_format_scenario_records(self):
        scenario = ScenarioSpec(**QUICK)
        text = format_scenario_records(run_scenario(scenario))
        assert "attack=bba" in text and "Ostrich" in text and "Trimming" in text


class TestMatrixDriver:
    def test_cross_grid_runs_and_formats(self):
        from repro.experiments.defaults import ExperimentScale
        from repro.experiments.matrix import format_matrix, run_matrix

        scale = ExperimentScale(n_users=400, n_trials=2)
        records = run_matrix(
            scale,
            datasets=("Uniform",),
            attacks=("bba", "ima", "gba"),
            schemes=("Ostrich", "Trimming", "Boxplot"),
            epsilons=(1.0,),
        )
        assert len(records) == 3 * 3  # attacks x schemes at one (dataset, epsilon)
        assert all(np.isfinite(record.mse) for record in records)
        text = format_matrix(records)
        assert "attack=ima" in text
