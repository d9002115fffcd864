"""Literal identity pins for the committed examples and a figure spec.

Scenario and service digests and engine fingerprints key every stored run
artifact and service checkpoint: a run resumes only while they match (an
experiment artifact also needs the same seed matrix).  These pins catch a
refactor that would silently re-key existing artifacts; moving one is a
deliberate, documented format change, never a side effect.  A change
meant to move seeded outputs bumps ``repro.knobs.DRAWS`` and re-pins these
in the same commit, so artifacts and checkpoints written before it
recompute instead of splicing old bits with new ones.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import QUICK_SCALE, build_fig6_spec
from repro.scenario import ScenarioSpec
from repro.service.spec import ServiceSpec

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


#: the examples' digests; every one moves when ``repro.knobs.DRAWS`` does
SCENARIO_DIGESTS = {
    "scenario_matrix.json": "3b2b10f072a42085",
    "scenario_scale_smoke.json": "92e67e47b3b83220",
    "scenario_shuffle.json": "146432131197054f",
}


@pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
def test_scenario_example_digest(name):
    assert ScenarioSpec.from_file(EXAMPLES / name).digest() == SCENARIO_DIGESTS[name]


def test_service_example_digest():
    spec = ServiceSpec.from_file(EXAMPLES / "service_smoke.json")
    assert spec.digest() == "efc5637fa0d1eede"


UNIFORM_POISON = {"class": "repro.attacks.distributions.UniformPoison"}


def test_scenario_matrix_fingerprint():
    spec = ScenarioSpec.from_file(EXAMPLES / "scenario_matrix.json")
    assert spec.to_experiment_spec().fingerprint() == {
        "name": "scenario_matrix",
        "points": [
            {"dataset": "Beta(2,5)", "attack": attack, "epsilon": epsilon}
            for attack in ("BBA[C/2,C]", "GBA(0.8R)", "IMA")
            for epsilon in (0.5, 1.0, 2.0)
        ],
        "n_users": 2000,
        "n_trials": 2,
        "gamma": 0.25,
        "scheme_factory": {
            "class": "repro.engine.factories.SchemesFromSpecs",
            "specs": [
                "DAP-CEMF*",
                "Trimming",
                {
                    "defense": "kmeans",
                    "params": {"sampling_rate": 0.2, "n_subsets": 50},
                    "label": "K-means(0.2)",
                },
                "Boxplot",
            ],
            "epsilon_min": 0.0625,
            "epsilon_key": "epsilon",
            "default_mechanism": "piecewise",
        },
        "attack_factory": {
            "class": "repro.engine.factories.AttackLookup",
            "attacks": {
                "BBA[C/2,C]": {
                    "class": "repro.attacks.bba.BiasedByzantineAttack",
                    "poison_range": {
                        "class": "repro.attacks.distributions.PoisonRange",
                        "low": {
                            "class": "repro.attacks.distributions._Endpoint",
                            "scale_c": 0.5,
                            "scale_mean": 0.0,
                            "offset": 0.0,
                        },
                        "high": {
                            "class": "repro.attacks.distributions._Endpoint",
                            "scale_c": 1.0,
                            "scale_mean": 0.0,
                            "offset": 0.0,
                        },
                        "label": "[0.5C,1C]",
                    },
                    "distribution": UNIFORM_POISON,
                    "side": "right",
                },
                "GBA(0.8R)": {
                    "class": "repro.attacks.gba.GeneralByzantineAttack",
                    "right_fraction": 0.8,
                    "distribution": UNIFORM_POISON,
                },
                "IMA": {
                    "class": "repro.attacks.input_manipulation.InputManipulationAttack",
                    "poison_input": 1.0,
                },
            },
            "attack_key": "attack",
        },
        "dataset_factory": {
            "class": "repro.engine.factories.DatasetLookup",
            "datasets": {
                "Beta(2,5)": {
                    "class": "repro.datasets.base.NumericalDataset",
                    "name": "Beta(2,5)",
                    "values": {
                        "dtype": "<f8",
                        "shape": [2000],
                        "sha256": "312da0b8a1e075e5cca0ae0975288114"
                        "ec1f936292dbd77eeeddab6c5aec4bd0",
                    },
                    "raw_domain": [0.0, 1.0],
                    "description": "2000 samples drawn from a Beta(2, 5) distribution "
                    "on [0, 1], normalised into [-1, 1] (paper Section VI-A).",
                },
            },
            "dataset_key": "dataset",
        },
        "input_domain": [-1.0, 1.0],
        "draws": 1,
    }


def test_fig6_quick_fingerprint():
    assert build_fig6_spec(QUICK_SCALE, rng=0).fingerprint() == {
        "name": "fig6",
        "points": [
            {"dataset": "Taxi", "poison_range": "[3C/4,C]", "epsilon": epsilon}
            for epsilon in (0.25, 0.5, 1.0, 1.5, 2.0)
        ],
        "n_users": 20000,
        "n_trials": 3,
        "gamma": 0.25,
        "scheme_factory": {
            "class": "repro.engine.factories.SchemesByName",
            "schemes": ["DAP-EMF", "DAP-EMF*", "DAP-CEMF*", "Ostrich", "Trimming"],
            "epsilon_min": 0.0625,
            "epsilon_key": "epsilon",
            "mechanism": "piecewise",
        },
        "attack_factory": {
            "class": "repro.engine.factories.PoisonRangeAttack",
            "range_key": "poison_range",
            "side": "right",
        },
        "dataset_factory": {
            "class": "repro.engine.factories.DatasetLookup",
            "datasets": {
                "Taxi": {
                    "class": "repro.datasets.base.NumericalDataset",
                    "name": "Taxi",
                    "values": {
                        "dtype": "<f8",
                        "shape": [20000],
                        "sha256": "6299fbc65414a16746d57798837cbdc7"
                        "925e418fa4baba076f97f52566b154d7",
                    },
                    "raw_domain": [0.0, 86340.0],
                    "description": "20000 synthetic taxi pick-up times (seconds "
                    "since midnight) drawn from a rush-hour mixture tuned to match "
                    "the paper's normalised mean of ~0.119 (substitute for the "
                    "2018-01 NYC taxi data; see DESIGN.md).",
                },
            },
            "dataset_key": "dataset",
        },
        "input_domain": [-1.0, 1.0],
        "draws": 1,
    }
