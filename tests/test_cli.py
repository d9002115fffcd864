"""End-to-end tests for the ``python -m repro`` CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.engine import load_run
from repro.scenario import ScenarioSpec, run_scenario

TINY_SCENARIO = {
    "name": "tiny",
    "population": {"n_users": 500, "gamma": 0.25},
    "trials": 2,
    "seed": 3,
    "epsilons": [0.5, 1.0],
    "datasets": ["Uniform"],
    "attacks": [
        {"name": "bba", "poison_range": "[C/2,C]", "label": "BBA"},
        "ima",
    ],
    "schemes": ["Ostrich", "Trimming"],
}


def run_cli(*args: str, cwd=None):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=300,
    )


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_SCENARIO))
    return path


class TestRun:
    def test_run_matches_programmatic_bit_for_bit(self, scenario_file, tmp_path):
        store = tmp_path / "artifact.json"
        result = run_cli("run", str(scenario_file), "--store", str(store))
        assert result.returncode == 0, result.stderr
        assert "8 records" in result.stdout
        assert store.exists()

        programmatic = run_scenario(ScenarioSpec.from_dict(TINY_SCENARIO))
        stored = load_run(store).records
        assert [(r.scheme, r.mse, r.bias) for r in stored] == [
            (r.scheme, r.mse, r.bias) for r in programmatic
        ]

    def test_run_parallel_matches_serial(self, scenario_file, tmp_path):
        serial, parallel = tmp_path / "serial.json", tmp_path / "parallel.json"
        assert run_cli("run", str(scenario_file), "--store", str(serial)).returncode == 0
        assert (
            run_cli(
                "run", str(scenario_file), "--store", str(parallel), "--workers", "2"
            ).returncode
            == 0
        )
        a, b = json.loads(serial.read_text()), json.loads(parallel.read_text())
        assert a["columns"] == b["columns"]

    def test_run_default_store_under_runs(self, scenario_file, tmp_path):
        result = run_cli("run", str(scenario_file), "--quiet", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "runs" / "tiny.json").exists()

    def test_unknown_component_fails_cleanly(self, tmp_path):
        bad = dict(TINY_SCENARIO, schemes=["NotAScheme"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        result = run_cli("run", str(path))
        assert result.returncode == 1
        assert "unknown scheme" in result.stderr

    def test_missing_scenario_file_names_the_file(self, tmp_path):
        result = run_cli("run", str(tmp_path / "nope.json"))
        assert result.returncode == 1
        assert "nope.json" in result.stderr  # not a bare errno

    def test_non_integer_seed_is_refused(self, tmp_path):
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(dict(TINY_SCENARIO, seed=7.9)))
        result = run_cli("run", str(path), "--store", str(tmp_path / "a.json"))
        assert result.returncode == 1
        assert "seed must be an integer" in result.stderr
        assert not (tmp_path / "a.json").exists()

    def test_invalid_document_fails_cleanly(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(TINY_SCENARIO, bogus=1)))
        result = run_cli("run", str(path))
        assert result.returncode == 1
        assert "unknown scenario keys" in result.stderr


class TestResumeAcrossTheCollectionChange:
    """A partial artifact resumes under another shard-worker count, and a
    document naming the removed ``chunk_size`` knob is refused."""

    def _partial_artifact(self, tmp_path):
        scenario = dict(TINY_SCENARIO, name="legacy", schemes=["DAP-EMF", "Ostrich"])
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(scenario))
        store = tmp_path / "artifact.json"
        assert run_cli("run", str(path), "--store", str(store)).returncode == 0
        full = json.loads(store.read_text())
        payload = json.loads(store.read_text())
        kept = [i for i, s in enumerate(payload["columns"]["scheme"]) if s == "Ostrich"]
        payload["columns"] = {
            key: [column[i] for i in kept] for key, column in payload["columns"].items()
        }
        payload["units"] = payload["columns"]["unit"]
        store.write_text(json.dumps(payload))
        return path, store, full

    def test_partial_resume_under_collect_workers_is_silent(self, tmp_path):
        path, store, full = self._partial_artifact(tmp_path)
        result = run_cli(
            "resume", str(path), "--store", str(store), "--quiet",
            "--collect-workers", "2",
        )
        assert result.returncode == 0, result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert json.loads(store.read_text())["columns"] == full["columns"]

    def test_scenario_chunk_size_key_is_rejected(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(dict(TINY_SCENARIO, chunk_size=128)))
        result = run_cli("run", str(path))
        assert result.returncode == 1
        assert "unknown scenario keys ['chunk_size']" in result.stderr


class TestCollectWorkers:
    def test_collect_workers_matches_serial_bit_for_bit(self, tmp_path):
        scenario = dict(TINY_SCENARIO, name="shardy", schemes=["DAP-EMF"])
        path = tmp_path / "shardy.json"
        path.write_text(json.dumps(scenario))
        s1, s2 = tmp_path / "w1.json", tmp_path / "w2.json"
        assert (
            run_cli(
                "run", str(path), "--store", str(s1), "--collect-workers", "1"
            ).returncode
            == 0
        )
        assert (
            run_cli(
                "run", str(path), "--store", str(s2), "--collect-workers", "2"
            ).returncode
            == 0
        )
        a, b = json.loads(s1.read_text()), json.loads(s2.read_text())
        assert a["columns"] == b["columns"]
        assert "collect_workers" not in a["meta"]["fingerprint"]

    def test_rejects_bad_collect_workers(self, scenario_file):
        result = run_cli("run", str(scenario_file), "--collect-workers", "0")
        assert result.returncode == 2  # argparse usage error
        assert "positive integer" in result.stderr


class TestProgressOutput:
    def test_run_reports_completed_over_total_units(self, scenario_file, tmp_path):
        result = run_cli("run", str(scenario_file), "--store", str(tmp_path / "a.json"))
        assert result.returncode == 0, result.stderr
        # 2 epsilons x 2 attacks x 2 schemes = 8 units; the final unit is
        # always reported regardless of throttling
        assert "8/8 work units completed" in result.stderr

    def test_quiet_silences_progress(self, scenario_file, tmp_path):
        result = run_cli(
            "run", str(scenario_file), "--store", str(tmp_path / "a.json"), "--quiet"
        )
        assert result.returncode == 0, result.stderr
        assert "work units" not in result.stderr


class TestResume:
    def test_resume_requires_artifact(self, scenario_file, tmp_path):
        result = run_cli(
            "resume", str(scenario_file), "--store", str(tmp_path / "missing.json")
        )
        assert result.returncode == 1
        assert "no run artifact" in result.stderr

    def test_resume_reuses_completed_run(self, scenario_file, tmp_path):
        store = tmp_path / "artifact.json"
        assert run_cli("run", str(scenario_file), "--store", str(store)).returncode == 0
        before = json.loads(store.read_text())
        result = run_cli("resume", str(scenario_file), "--store", str(store), "--quiet")
        assert result.returncode == 0, result.stderr
        assert json.loads(store.read_text())["columns"] == before["columns"]


class TestListComponents:
    def test_lists_every_registry_group(self):
        result = run_cli("list-components")
        assert result.returncode == 0, result.stderr
        for token in (
            "mechanisms:",
            "attacks:",
            "defenses:",
            "schemes:",
            "datasets:",
            "piecewise",
            "bba",
            "Trimming",
            "DAP-CEMF*",
            "Taxi",
        ):
            assert token in result.stdout, token


class TestExampleScenario:
    def test_shipped_example_is_valid(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        scenario = ScenarioSpec.from_file(
            os.path.join(root, "examples", "scenario_matrix.json")
        )
        spec = scenario.to_experiment_spec()
        assert len(spec.points) == 9  # 3 attacks x 3 epsilons
        assert len(spec.schemes_for(spec.points[0])) == 4

    def test_shipped_shuffle_example_is_valid(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        scenario = ScenarioSpec.from_file(
            os.path.join(root, "examples", "scenario_shuffle.json")
        )
        assert scenario.protocol == "shuffle"
        spec = scenario.to_experiment_spec()
        assert spec.protocol == "shuffle"
        assert len(spec.points) == 4  # 2 attacks x 2 epsilons
        for scheme in spec.schemes_for(spec.points[0]):
            assert scheme.config.protocol == "shuffle"


DAP_SCENARIO = {
    "name": "dappy",
    "population": {"n_users": 600, "gamma": 0.25},
    "trials": 2,
    "seed": 5,
    "epsilons": [1.0],
    "datasets": ["Uniform"],
    "attacks": [{"name": "bba", "poison_range": "[C/2,C]"}],
    "schemes": ["DAP-CEMF*"],
}


class TestProbeStrategy:
    """The probe-strategy flag is gone: every probing scheme runs the one
    stacked-EM probe, and a command line naming the flag is refused."""

    def test_rejects_unknown_strategy(self, scenario_file):
        result = run_cli("run", str(scenario_file), "--probe-strategy", "warm")
        assert result.returncode == 2
        assert "--probe-strategy" in result.stderr

    @pytest.mark.parametrize("command", ["run", "resume", "serve"])
    def test_flag_refused_on_every_command(self, scenario_file, command):
        # even the one strategy that remains is refused, not silently ignored
        result = run_cli(command, str(scenario_file), "--probe-strategy", "batched")
        assert result.returncode == 2
        assert "unrecognized arguments: --probe-strategy" in result.stderr


class TestBackend:
    def test_flag_recorded_as_execution_detail(self, scenario_file, tmp_path):
        store = tmp_path / "artifact.json"
        result = run_cli(
            "run", str(scenario_file), "--quiet", "--backend", "fast",
            "--store", str(store),
        )
        assert result.returncode == 0, result.stderr
        artifact = load_run(store)
        assert artifact.meta["execution"]["backend"] == "fast"
        assert "backend" not in artifact.meta["fingerprint"]

    def test_numpy_backend_matches_default_bit_for_bit(self, scenario_file, tmp_path):
        """The numpy backend *is* the reference: selecting it explicitly must
        not change a single record."""
        default, numpy_store = tmp_path / "default.json", tmp_path / "numpy.json"
        assert (
            run_cli(
                "run", str(scenario_file), "--quiet", "--store", str(default)
            ).returncode
            == 0
        )
        assert (
            run_cli(
                "run", str(scenario_file), "--quiet", "--backend", "numpy",
                "--store", str(numpy_store),
            ).returncode
            == 0
        )
        a, b = json.loads(default.read_text()), json.loads(numpy_store.read_text())
        assert a["columns"] == b["columns"]

    def test_backend_is_an_execution_detail_for_resume(self, scenario_file, tmp_path):
        store = tmp_path / "artifact.json"
        assert (
            run_cli("run", str(scenario_file), "--quiet", "--store", str(store))
            .returncode
            == 0
        )
        before = load_run(store)
        # a complete artifact resumed under another backend reuses every
        # record verbatim (the knob is not part of the fingerprint)
        result = run_cli(
            "resume", str(scenario_file), "--quiet", "--backend", "fast",
            "--store", str(store),
        )
        assert result.returncode == 0, result.stderr
        after = load_run(store)
        assert [
            (r.point, r.scheme, r.mse, r.bias) for r in after.records
        ] == [(r.point, r.scheme, r.mse, r.bias) for r in before.records]
        assert after.meta["execution"]["backend"] == "fast"

    def test_partial_resume_under_different_backend_warns(
        self, scenario_file, tmp_path
    ):
        store = tmp_path / "artifact.json"
        assert (
            run_cli("run", str(scenario_file), "--quiet", "--store", str(store))
            .returncode
            == 0
        )
        payload = json.loads(store.read_text())
        kept = [
            i for i, s in enumerate(payload["columns"]["scheme"]) if s == "Ostrich"
        ]
        payload["columns"] = {
            key: [column[i] for i in kept]
            for key, column in payload["columns"].items()
        }
        payload["units"] = payload["columns"]["unit"]
        store.write_text(json.dumps(payload))
        result = run_cli(
            "resume", str(scenario_file), "--quiet", "--backend", "fast",
            "--store", str(store),
        )
        assert result.returncode == 0, result.stderr
        assert "partial artifact" in result.stderr

    def test_rejects_unknown_backend(self, scenario_file):
        result = run_cli("run", str(scenario_file), "--backend", "gpu")
        assert result.returncode == 2
        assert "--backend" in result.stderr


class TestProfile:
    def test_profile_recorded_in_artifact_and_printed(self, scenario_file, tmp_path):
        store = tmp_path / "artifact.json"
        result = run_cli(
            "run", str(scenario_file), "--quiet", "--profile", "--store", str(store)
        )
        assert result.returncode == 0, result.stderr
        assert "profile:" in result.stderr
        profile = load_run(store).meta["execution"]["profile"]
        # Ostrich/Trimming rounds have a collection and a defense stage
        assert set(profile) >= {"collect", "defense"}
        assert all(seconds >= 0.0 for seconds in profile.values())

    def test_profile_covers_probe_and_aggregate_for_dap(self, tmp_path):
        path = tmp_path / "dappy.json"
        path.write_text(json.dumps(DAP_SCENARIO))
        store = tmp_path / "artifact.json"
        result = run_cli(
            "run", str(path), "--quiet", "--profile", "--store", str(store)
        )
        assert result.returncode == 0, result.stderr
        profile = load_run(store).meta["execution"]["profile"]
        assert set(profile) >= {"collect", "probe", "aggregate"}

    @pytest.mark.parametrize("collect_workers", [1, 2])
    def test_profile_splits_collect_into_sub_timers(self, tmp_path, collect_workers):
        # the DAP rounds run on the sharded collector, pooled at two workers
        path = tmp_path / "tiny_dap.json"
        path.write_text(
            json.dumps(dict(TINY_SCENARIO, schemes=["Ostrich", "DAP-CEMF*"]))
        )
        store = tmp_path / "artifact.json"
        result = run_cli(
            "run", str(path), "--quiet", "--profile", "--store", str(store),
            "--collect-workers", str(collect_workers),
        )
        assert result.returncode == 0, result.stderr
        profile = load_run(store).meta["execution"]["profile"]
        sub_timers = {"collect.sample", "collect.poison", "collect.accumulate"}
        assert {"collect"} | sub_timers <= set(profile)
        # the sub-timers nest *inside* collect: in one process they
        # attribute its total, never add to it; pooled ones are summed over
        # the workers that ran them
        assert (
            sum(profile[name] for name in sub_timers)
            <= collect_workers * profile["collect"] + 1e-6
        )

    def test_profile_covers_accumulation(self, tmp_path):
        scenario = dict(DAP_SCENARIO, name="dap_accumulate")
        path = tmp_path / "dap_accumulate.json"
        path.write_text(json.dumps(scenario))
        store = tmp_path / "artifact.json"
        result = run_cli(
            "run", str(path), "--quiet", "--profile", "--store", str(store),
        )
        assert result.returncode == 0, result.stderr
        profile = load_run(store).meta["execution"]["profile"]
        assert {
            "collect", "collect.sample", "collect.poison", "collect.accumulate"
        } <= set(profile)

    def test_no_profile_key_without_flag(self, scenario_file, tmp_path):
        store = tmp_path / "artifact.json"
        result = run_cli("run", str(scenario_file), "--quiet", "--store", str(store))
        assert result.returncode == 0, result.stderr
        assert "profile" not in load_run(store).meta["execution"]

    def test_profile_out_writes_json_and_implies_profile(
        self, scenario_file, tmp_path
    ):
        store = tmp_path / "artifact.json"
        out = tmp_path / "nested" / "profile.json"
        result = run_cli(
            "run", str(scenario_file), "--quiet", "--store", str(store),
            "--profile-out", str(out),
        )
        assert result.returncode == 0, result.stderr
        assert "profile:" in result.stderr  # --profile-out implies --profile
        written = json.loads(out.read_text())
        assert written == load_run(store).meta["execution"]["profile"]
        assert set(written) >= {"collect", "defense"}

    def test_profile_out_on_resume(self, scenario_file, tmp_path):
        store = tmp_path / "artifact.json"
        out = tmp_path / "profile.json"
        assert (
            run_cli(
                "run", str(scenario_file), "--quiet", "--store", str(store)
            ).returncode
            == 0
        )
        result = run_cli(
            "resume", str(scenario_file), "--quiet", "--store", str(store),
            "--profile-out", str(out),
        )
        assert result.returncode == 0, result.stderr
        # everything was already computed: an empty-but-valid profile document
        assert json.loads(out.read_text()) == {}
