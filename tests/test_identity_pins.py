"""Literal identity pins for the committed examples and a figure spec.

Scenario and service digests and engine fingerprints key every stored run
artifact and service checkpoint: a run resumes only while they match.  These
pins catch a refactor that would silently re-key existing artifacts; moving
one is a deliberate, documented format change, never a side effect.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import QUICK_SCALE, build_fig6_spec
from repro.scenario import ScenarioSpec
from repro.service.spec import ServiceSpec

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "name, digest",
    [
        ("scenario_matrix.json", "4bd5e4ce4205adb6"),
        ("scenario_scale_smoke.json", "d3568ef96e3c325e"),
        ("scenario_shuffle.json", "5e0fac5183388dc1"),
    ],
)
def test_scenario_example_digest(name, digest):
    assert ScenarioSpec.from_file(EXAMPLES / name).digest() == digest


def test_service_example_digest():
    spec = ServiceSpec.from_file(EXAMPLES / "service_smoke.json")
    assert spec.digest() == "a6145b9f85187f82"


def test_scenario_matrix_fingerprint():
    spec = ScenarioSpec.from_file(EXAMPLES / "scenario_matrix.json")
    assert spec.to_experiment_spec().fingerprint() == {
        "batched": False,
        "gamma": 0.25,
        "granularity": "scheme",
        "n_points": 9,
        "n_trials": 2,
        "n_users": 2000,
        "name": "scenario_matrix",
        "points_digest": "5df3c07d6ea84f84",
        "scenario_digest": "4bd5e4ce4205adb6",
        "schemes": ["DAP-CEMF*", "Trimming", "K-means(0.2)", "Boxplot"],
    }


def test_fig6_quick_fingerprint():
    assert build_fig6_spec(QUICK_SCALE, rng=0).fingerprint() == {
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
