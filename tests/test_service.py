"""Tests for the continuous-service runtime (``repro.service``).

The load-bearing guarantees:

* determinism — window ``w`` is a pure function of ``(spec, w)``, so fresh
  re-runs, sharded runs and kill/resume runs (simulated, and a real SIGKILL
  of a serving process) all produce bit-identical window results;
* checkpoint safety — corrupt or foreign checkpoints raise ``ValueError``
  instead of silently resuming the wrong stream;
* bounded state — the checkpointed accumulators keep one shape however
  long the stream runs;
* warm starts — the probe and every group's stage-4 solves restart from the
  previous window: on a stream attacked from its first window, the same
  side selections and flags as a cold stream, at least 3x fewer probe EM
  iterations and fewer stage-4 iterations once the stream reaches steady
  state; a cold stream keeps no warm state;
* exact warm checkpoints — weight vectors round-trip bit for bit, and a
  damaged vector makes its checkpoint invalid;
* change detection — a mid-stream attack onset is flagged within a couple
  of windows, and an attack-free stream is never flagged.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import knobs
from repro.backends import use_backend
from repro.cli import _with_overrides, build_parser
from repro.service import (
    CHECKPOINT_VERSION,
    CheckpointChain,
    CusumDetector,
    ServiceSpec,
    WindowResult,
    WindowedAggregationService,
    load_checkpoint,
    run_service,
    write_checkpoint,
)
from repro.service.checkpoint import WARM_KEY, decode_weights, encode_weights

SMALL = dict(
    name="svc_test",
    epsilon=1.0,
    epsilon_min=0.25,
    window_size=500,
    n_windows=5,
    dataset="Uniform",
    attack={"name": "bba", "poison_range": "[C/2,C]"},
    gamma=0.2,
    attack_start=0,
    seed=11,
    detector={"warmup": 2},
)


#: one valid, non-default value per settable knob
ALTERNATIVES = dict(
    name="svc_other",
    description="another stream",
    epsilon=2.0,
    epsilon_min=0.5,
    estimator="emf",
    dataset="Gaussian",
    attack="ima",
    gamma=0.25,
    attack_start=2,
    window_size=600,
    n_windows=6,
    seed=12,
    input_domain=(0.0, 1.0),
    warm_probe=False,
    detector={"warmup": 3},
    protocol="shuffle",
    backend="fast",
    collect_shards=4,
    collect_workers=2,
    checkpoint_every=3,
    checkpoint_retain=5,
)
IDENTITY_ROLES = (knobs.IDENTITY, knobs.IDENTITY_UNLESS_DEFAULT)
EXECUTION_ROLES = (knobs.EXECUTION, knobs.EXECUTION_REDRAWS)


def roles(spec_class, *wanted):
    """The settable knobs of ``spec_class`` declared with one of ``wanted``."""
    return {
        f.name for f in knobs.knobs(spec_class) if f.init and f.metadata["role"] in wanted
    }


def small_spec(**overrides) -> ServiceSpec:
    return ServiceSpec(**{**SMALL, **overrides})


def deterministic(result):
    return [row.deterministic_view() for row in result.windows]


@pytest.fixture(scope="module")
def small_run():
    return run_service(small_spec())


#: the spec's entries that are always in the document and never settable
CONSTANTS = {"probe_strategy", "draws"}


class TestServiceSpec:
    def test_every_knob_has_a_tested_alternative(self):
        # a new knob must get an alternative here, so the role tests below
        # cover it; the legacy constant and the draws version are the only
        # entries nobody can set
        settable = {f.name for f in knobs.knobs(ServiceSpec) if f.init}
        assert settable == set(ALTERNATIVES)
        constants = {f.name for f in knobs.knobs(ServiceSpec) if not f.init}
        assert constants == CONSTANTS

    def test_digest_ignores_execution_details(self):
        base = small_spec()
        for name in roles(ServiceSpec, *EXECUTION_ROLES):
            changed = small_spec(**{name: ALTERNATIVES[name]})
            assert changed.digest() == base.digest(), name

    def test_digest_pins_identity_knobs(self):
        base = small_spec()
        for name in roles(ServiceSpec, *IDENTITY_ROLES):
            changed = small_spec(**{name: ALTERNATIVES[name]})
            assert changed.digest() != base.digest(), name

    def test_document_and_execution_details_follow_the_roles(self):
        base = small_spec()
        identity = roles(ServiceSpec, knobs.IDENTITY)
        assert set(base.document()) == identity | CONSTANTS
        shuffle = small_spec(protocol="shuffle")
        assert set(shuffle.document()) == identity | CONSTANTS | {"protocol"}
        assert set(base.execution_details()) == roles(ServiceSpec, *EXECUTION_ROLES)

    @pytest.mark.parametrize(
        "field", knobs.flagged(ServiceSpec), ids=lambda f: f.metadata["flag"]
    )
    def test_every_flag_parses_onto_its_field(self, field):
        value = ALTERNATIVES[field.name]
        text = value if isinstance(value, str) else json.dumps(value)
        args = build_parser().parse_args(
            ["serve", "svc.json", field.metadata["flag"], text]
        )
        assert getattr(args, field.name) == value
        assert getattr(_with_overrides(small_spec(), args), field.name) == value

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
        with pytest.raises(ValueError, match=key):
            ServiceSpec.from_mapping({**SMALL, key: value})

    def test_unknown_keys_rejected(self):
        # a removed knob is unknown too, even at the value it always had,
        # and so is the draws constant
        extras = ({"n_wndows": 3}, {"probe_strategy": "batched"}, {"draws": 1})
        for extra in extras:
            with pytest.raises(ValueError, match="unknown service keys"):
                ServiceSpec.from_mapping({**SMALL, **extra})

    def test_warm_probe_must_be_a_boolean(self):
        for value in ("false", "true", 0, 1, None):
            with pytest.raises(ValueError, match="warm_probe"):
                ServiceSpec.from_mapping({**SMALL, "warm_probe": value})

    def test_unknown_detector_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown detector keys"):
            small_spec(detector={"warmup": 2, "thresold": 3.0})

    def test_validation(self):
        with pytest.raises(ValueError, match="window_size"):
            small_spec(window_size=1)
        with pytest.raises(ValueError, match="n_windows"):
            small_spec(n_windows=0)
        with pytest.raises(ValueError, match="gamma"):
            small_spec(gamma=1.5)
        with pytest.raises(ValueError, match="input_domain"):
            small_spec(input_domain=(1.0, -1.0))

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "svc.json"
        path.write_text(json.dumps(SMALL))
        assert ServiceSpec.from_file(str(path)).digest() == small_spec().digest()


class TestCusumDetector:
    def test_warmup_never_flags(self):
        detector = CusumDetector(warmup=3, threshold=2.0, min_sigma=0.01)
        assert not any(detector.update(w, 100.0) for w in range(3))
        assert detector.calibrated and not detector.flagged

    def test_flags_on_sustained_shift_and_is_sticky(self):
        detector = CusumDetector(warmup=3, threshold=4.0, drift=1.0, min_sigma=0.01)
        for w in range(3):
            detector.update(w, 0.0)
        assert detector.update(3, 0.1)  # 10 sigma - drift > threshold
        assert detector.flagged_window == 3
        assert not detector.update(4, 0.1)  # sticky: no re-raise
        assert detector.flagged_window == 3

    def test_benign_noise_decays(self):
        detector = CusumDetector(warmup=4, threshold=8.0, drift=1.0, min_sigma=0.05)
        rng = np.random.default_rng(0)
        values = rng.normal(0.0, 0.05, size=50)
        assert not any(detector.update(w, v) for w, v in enumerate(values))

    def test_state_round_trip_continues_bit_identically(self):
        rng = np.random.default_rng(1)
        values = list(rng.normal(0.0, 0.02, size=20)) + [0.5, 0.5]
        one_shot = CusumDetector(warmup=4)
        for w, v in enumerate(values):
            one_shot.update(w, v)
        chained = CusumDetector(warmup=4)
        for w, v in enumerate(values):
            # snapshot through real JSON before every update
            chained = CusumDetector.from_state(
                json.loads(json.dumps(chained.state_dict()))
            )
            chained.update(w, v)
        assert chained.state_dict() == one_shot.state_dict()

    def test_from_state_rejects_corrupt(self):
        good = CusumDetector().state_dict()
        with pytest.raises(ValueError, match="missing keys"):
            CusumDetector.from_state({k: v for k, v in good.items() if k != "m2"})
        with pytest.raises(ValueError, match="finite"):
            CusumDetector.from_state({**good, "mean": float("nan")})
        with pytest.raises(ValueError, match="mapping"):
            CusumDetector.from_state([1, 2, 3])


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "c.json")
        payload = {
            "version": CHECKPOINT_VERSION,
            "digest": "abc",
            "next_window": 2,
            "cumulative": [],
            "windows": [],
            "detector": {},
        }
        write_checkpoint(path, payload)
        assert load_checkpoint(path) == payload
        assert load_checkpoint(path, expected_digest="abc") == payload

    def test_digest_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "c.json")
        write_checkpoint(
            path,
            {
                "version": CHECKPOINT_VERSION,
                "digest": "abc",
                "next_window": 0,
                "cumulative": [],
                "windows": [],
                "detector": {},
            },
        )
        with pytest.raises(ValueError, match="different service configuration"):
            load_checkpoint(path, expected_digest="xyz")

    def test_version_and_structure_rejected(self, tmp_path):
        path = str(tmp_path / "c.json")
        write_checkpoint(path, {"version": 999})
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)
        write_checkpoint(path, {"version": CHECKPOINT_VERSION})
        with pytest.raises(ValueError, match="missing key"):
            load_checkpoint(path)
        (tmp_path / "c.json").write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_checkpoint(path)

    def test_failed_write_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "c.json")
        with pytest.raises(TypeError):
            write_checkpoint(path, {"bad": object()})
        assert os.listdir(tmp_path) == []


def checkpoint_payload(**overrides):
    return {
        "version": CHECKPOINT_VERSION,
        "digest": "abc",
        "next_window": 2,
        "cumulative": [],
        "windows": [],
        "detector": {},
        **overrides,
    }


#: zeros, the smallest subnormal, a larger subnormal and ordinary values
EDGE_WEIGHTS = np.array(
    [0.0, 5e-324, 2.5e-310, np.finfo(float).tiny, 0.1, 1.0 / 3.0, 1e300]
)


class TestWarmCheckpointCodec:
    def test_version_1_checkpoint_refused(self, tmp_path):
        path = str(tmp_path / "c.json")
        write_checkpoint(path, checkpoint_payload(version=1))
        with pytest.raises(ValueError, match="has version 1, expected 2"):
            load_checkpoint(path)

    def test_weights_round_trip_bit_for_bit(self, tmp_path):
        assert decode_weights(encode_weights(EDGE_WEIGHTS)).tobytes() == (
            EDGE_WEIGHTS.tobytes()
        )
        path = str(tmp_path / "c.json")
        warm = {"probe": {"left": EDGE_WEIGHTS, "right": EDGE_WEIGHTS[::-1]}}
        write_checkpoint(path, checkpoint_payload(**{WARM_KEY: warm}))
        loaded = load_checkpoint(path)[WARM_KEY]["probe"]
        assert loaded["left"].tobytes() == EDGE_WEIGHTS.tobytes()
        assert loaded["right"].tobytes() == EDGE_WEIGHTS[::-1].tobytes()
        # a loaded payload writes back unchanged
        write_checkpoint(path, load_checkpoint(path))
        again = load_checkpoint(path)[WARM_KEY]["probe"]["left"]
        assert again.tobytes() == EDGE_WEIGHTS.tobytes()

    @pytest.mark.parametrize(
        "encoded",
        [
            {**encode_weights(EDGE_WEIGHTS), "n": EDGE_WEIGHTS.size + 1},
            encode_weights(EDGE_WEIGHTS)
            | {"f64le": encode_weights(EDGE_WEIGHTS[:-1])["f64le"]},
            encode_weights(np.array([0.5, np.nan])),
            encode_weights(np.array([0.5, np.inf])),
            encode_weights(np.array([0.5, -1e-300])),
            {"n": 1, "f64le": "not base64!"},
        ],
        ids=["long-n", "short-bytes", "nan", "inf", "negative", "garbage"],
    )
    def test_invalid_vector_invalidates_the_checkpoint(self, tmp_path, encoded):
        with pytest.raises(ValueError):
            decode_weights(encoded)
        chain = CheckpointChain(str(tmp_path / "c.json"))
        chain.write(checkpoint_payload(next_window=1))
        chain.write(
            checkpoint_payload(**{WARM_KEY: {"probe": {"left": encoded}}})
        )
        with pytest.raises(ValueError, match="invalid warm state"):
            load_checkpoint(chain.path)
        # the chain quarantines the damaged head and rolls back
        with pytest.warns(RuntimeWarning, match="quarantined"):
            payload, quarantined = chain.load_latest("abc")
        assert payload["next_window"] == 1
        assert len(quarantined) == 1


def run_partial(spec, checkpoint_path, n_windows):
    """Run the first ``n_windows`` windows and checkpoint — a simulated kill."""
    service = WindowedAggregationService(spec, checkpoint_path=checkpoint_path)
    service._fresh_state()
    with use_backend(spec.backend):
        for window in range(n_windows):
            service._windows.append(service._run_window(window))
            service._next_window = window + 1
    write_checkpoint(checkpoint_path, service._checkpoint_payload())


class TestRuntimeDeterminism:
    def test_fresh_rerun_bit_identical(self, small_run):
        again = run_service(small_spec())
        assert deterministic(again) == deterministic(small_run)

    @pytest.mark.parametrize("kill_after", [1, 3])
    def test_kill_resume_bit_identical(self, small_run, tmp_path, kill_after):
        spec = small_spec()
        checkpoint = spec.default_checkpoint_path(str(tmp_path))
        run_partial(spec, checkpoint, kill_after)
        resumed = run_service(spec, checkpoint_path=checkpoint)
        assert resumed.resumed_from == kill_after
        assert deterministic(resumed) == deterministic(small_run)

    def test_resume_of_complete_run_recomputes_nothing(self, small_run, tmp_path):
        spec = small_spec()
        checkpoint = spec.default_checkpoint_path(str(tmp_path))
        first = run_service(spec, checkpoint_path=checkpoint)
        again = run_service(spec, checkpoint_path=checkpoint)
        assert again.resumed_from == spec.n_windows
        assert deterministic(again) == deterministic(first)
        assert again.profile.get("probe", 0.0) == 0.0  # nothing recomputed

    def test_sharded_collection_bit_identical(self, small_run):
        sharded = run_service(small_spec(collect_shards=3))
        assert deterministic(sharded) == deterministic(small_run)

    def test_fresh_flag_ignores_checkpoint(self, small_run, tmp_path):
        spec = small_spec()
        checkpoint = spec.default_checkpoint_path(str(tmp_path))
        run_partial(spec, checkpoint, 2)
        fresh = run_service(spec, checkpoint_path=checkpoint, resume=False)
        assert fresh.resumed_from == 0
        assert deterministic(fresh) == deterministic(small_run)


class TestCheckpointGuards:
    def test_foreign_checkpoint_rejected(self, tmp_path):
        spec = small_spec()
        checkpoint = spec.default_checkpoint_path(str(tmp_path))
        run_partial(spec, checkpoint, 1)
        other = small_spec(seed=12)
        with pytest.raises(ValueError, match="different service configuration"):
            run_service(other, checkpoint_path=checkpoint)

    def test_checkpoint_without_draws_rejected(self, tmp_path, monkeypatch):
        """A checkpoint written before the ``draws`` constant existed holds
        the state of older code: it belongs to a different configuration."""
        spec = small_spec()
        assert spec.document()["draws"] == knobs.DRAWS
        checkpoint = spec.default_checkpoint_path(str(tmp_path))
        with monkeypatch.context() as patch:
            patch.setattr(
                ServiceSpec,
                "document",
                lambda self: {
                    k: v for k, v in knobs.document(self).items() if k != "draws"
                },
            )
            run_partial(spec, checkpoint, 1)
        assert load_checkpoint(checkpoint)["digest"] != spec.digest()
        with pytest.raises(ValueError, match="different service configuration"):
            run_service(spec, checkpoint_path=checkpoint)

    def test_corrupt_cumulative_rejected(self, tmp_path):
        spec = small_spec()
        checkpoint = spec.default_checkpoint_path(str(tmp_path))
        run_partial(spec, checkpoint, 1)
        payload = load_checkpoint(checkpoint)
        payload["cumulative"][0]["histogram"]["counts"][0] += 1
        write_checkpoint(checkpoint, payload)
        with pytest.raises(ValueError, match="corrupt"):
            run_service(spec, checkpoint_path=checkpoint)

    def test_execution_drift_warns_but_stays_bit_identical(
        self, small_run, tmp_path
    ):
        spec = small_spec()
        checkpoint = spec.default_checkpoint_path(str(tmp_path))
        run_partial(spec, checkpoint, 2)
        drifted = small_spec(collect_shards=2, checkpoint_every=2)
        with pytest.warns(RuntimeWarning, match="different execution details"):
            resumed = run_service(drifted, checkpoint_path=checkpoint)
        assert deterministic(resumed) == deterministic(small_run)


def array_shapes(state, path=()):
    """``{path: length}`` of every array (list of scalars) in a JSON state."""
    if isinstance(state, dict):
        items = state.items()
    elif isinstance(state, list) and any(
        isinstance(item, (dict, list)) for item in state
    ):
        items = enumerate(state)
    elif isinstance(state, list):
        return {path: len(state)}
    else:
        return {}
    shapes = {}
    for key, value in items:
        shapes.update(array_shapes(value, path + (key,)))
    return shapes


class TestBoundedState:
    def test_cumulative_state_does_not_grow_with_the_stream(self, tmp_path):
        # the service keeps sufficient statistics only, so the checkpointed
        # accumulators have the same shape after the first and the last
        # window; the per-window result rows grow by design and are not
        # part of that state
        spec = small_spec(n_windows=6)

        def shapes(n_windows):
            checkpoint = str(tmp_path / f"after-{n_windows}.json")
            run_partial(spec, checkpoint, n_windows)
            return array_shapes(load_checkpoint(checkpoint)["cumulative"])

        first = shapes(1)
        assert first
        assert shapes(spec.n_windows) == first


class TestWarmProbing:
    def test_warm_and_cold_select_the_same_side(self):
        warm = run_service(small_spec(n_windows=6))
        cold = run_service(small_spec(n_windows=6, warm_probe=False))
        assert [r.poisoned_side for r in warm.windows] == [
            r.poisoned_side for r in cold.windows
        ]
        assert [r.flagged for r in warm.windows] == [r.flagged for r in cold.windows]
        # steady state: warm needs at least 3x fewer EM iterations than a
        # cold solve (measured ~5.9x at this size)
        assert 3 * sum(r.probe_iterations for r in warm.windows[2:]) <= sum(
            r.probe_iterations for r in cold.windows[2:]
        )
        # the stage-4 solves restart warm too (measured 391 against 618)
        assert sum(r.aggregate_iterations for r in warm.windows[2:]) < sum(
            r.aggregate_iterations for r in cold.windows[2:]
        )

    def test_checkpoint_carries_every_group(self, tmp_path):
        spec = small_spec()
        checkpoint = str(tmp_path / "warm.json")
        run_partial(spec, checkpoint, 2)
        warm = load_checkpoint(checkpoint)[WARM_KEY]
        assert set(warm["probe"]) == {"left", "right"}
        ladder = WindowedAggregationService(spec).config.budget_ladder
        assert [group["epsilon"] for group in warm["groups"]] == ladder
        for group in warm["groups"]:
            # the probe group reuses the probe's EMF, so it solves CEMF* only
            solves = {"cemf_star"} if group["epsilon"] == ladder[-1] else {
                "emf",
                "cemf_star",
            }
            assert set(group["weights"]) == solves
            assert all(isinstance(w, np.ndarray) for w in group["weights"].values())

    def test_cold_stream_keeps_no_warm_state(self, tmp_path):
        spec = small_spec(warm_probe=False)
        checkpoint = str(tmp_path / "cold.json")
        run_partial(spec, checkpoint, 2)
        assert load_checkpoint(checkpoint)[WARM_KEY] is None
        service = WindowedAggregationService(spec)
        service._fresh_state()
        service._run_window(0)
        assert service._warm is None

    def test_first_window_is_always_cold(self, small_run):
        assert small_run.windows[0].warm is False
        assert all(row.warm for row in small_run.windows[1:])


class TestChangeDetection:
    def test_attack_onset_flagged_within_two_windows(self):
        spec = small_spec(
            window_size=2000,
            n_windows=8,
            gamma=0.25,
            attack_start=5,
            seed=7,
            detector={"warmup": 3},
        )
        result = run_service(spec)
        assert result.flagged_window is not None
        assert 5 <= result.flagged_window <= 7

    def test_attack_free_stream_never_flags(self):
        spec = small_spec(
            attack="none", gamma=0.0, n_windows=6, detector={"warmup": 2}
        )
        assert run_service(spec).flagged_window is None


class TestServeCli:
    @staticmethod
    def cli_env():
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return env

    @classmethod
    def run_cli(cls, *args, cwd=None):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=cls.cli_env(),
            timeout=300,
        )

    def test_serve_run_resume_and_artifacts(self, tmp_path, small_run):
        service_file = tmp_path / "svc.json"
        service_file.write_text(json.dumps(SMALL))
        results = tmp_path / "results.json"
        profile = tmp_path / "profile.json"
        first = self.run_cli(
            "serve",
            str(service_file),
            "--checkpoint-dir",
            str(tmp_path),
            "--results-out",
            str(results),
            "--profile-out",
            str(profile),
        )
        assert first.returncode == 0, first.stderr
        assert "svc_test" in first.stdout
        payload = json.loads(results.read_text())
        assert payload["digest"] == small_spec().digest()
        assert len(payload["windows"]) == SMALL["n_windows"]
        # the CLI stream matches the in-process API bit for bit
        for row, expected in zip(payload["windows"], small_run.windows):
            assert row["estimate"] == expected.estimate
            assert row["gamma_hat"] == expected.gamma_hat
        assert json.loads(profile.read_text()).get("probe", 0.0) > 0.0

        # a second invocation resumes the finished stream without recomputing
        second = self.run_cli(
            "serve", str(service_file), "--checkpoint-dir", str(tmp_path), "--quiet"
        )
        assert second.returncode == 0, second.stderr
        assert f"resumed from window {SMALL['n_windows']}" in second.stdout

    def test_sigkill_mid_stream_then_resume_bit_identical(self, tmp_path):
        # a real SIGKILL (no cooperative shutdown) of a serving process once
        # its first checkpoint lands, then a re-serve from what survived.
        # 40 windows of 1000 users leave ~1 s of stream after the first
        # checkpoint on 2 cores, far longer than one poll below
        overrides = dict(window_size=1000, n_windows=40)
        spec = small_spec(**overrides)
        service_file = tmp_path / "svc.json"
        service_file.write_text(json.dumps({**SMALL, **overrides}))
        checkpoint = spec.default_checkpoint_path(str(tmp_path))
        serve = (
            "serve", str(service_file), "--checkpoint-dir", str(tmp_path), "--quiet"
        )

        child = subprocess.Popen(
            [sys.executable, "-m", "repro", *serve],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=self.cli_env(),
        )
        killed_at = None
        deadline = time.monotonic() + 120
        try:
            while child.poll() is None and time.monotonic() < deadline:
                try:
                    progressed = load_checkpoint(checkpoint)["next_window"]
                except (OSError, ValueError):
                    progressed = 0  # not written yet, or mid-rotation
                if progressed >= 1:
                    child.send_signal(signal.SIGKILL)
                    killed_at = progressed
                    break
                time.sleep(0.005)
        finally:
            child.kill()
            child.wait()
        assert killed_at is not None and killed_at < spec.n_windows, (
            f"the kill did not land mid-stream (next_window={killed_at}, "
            f"exit code {child.returncode})"
        )
        assert child.returncode == -signal.SIGKILL

        results = tmp_path / "results.json"
        resumed = self.run_cli(*serve, "--results-out", str(results))
        assert resumed.returncode == 0, resumed.stderr
        payload = json.loads(results.read_text())
        assert killed_at <= payload["resumed_from"] < spec.n_windows
        assert [
            WindowResult.from_dict(row).deterministic_view()
            for row in payload["windows"]
        ] == deterministic(run_service(spec))

    def test_serve_malformed_json_names_the_file(self, tmp_path):
        service_file = tmp_path / "broken.json"
        service_file.write_text('{"name": "svc", }')
        result = self.run_cli("serve", str(service_file), "--quiet")
        assert result.returncode == 1
        assert "broken.json" in result.stderr
        assert "invalid JSON" in result.stderr

    def test_serve_identity_override_errors_on_foreign_checkpoint(self, tmp_path):
        service_file = tmp_path / "svc.json"
        service_file.write_text(json.dumps({**SMALL, "n_windows": 2}))
        assert (
            self.run_cli(
                "serve", str(service_file), "--checkpoint-dir", str(tmp_path), "--quiet"
            ).returncode
            == 0
        )
        clash = self.run_cli(
            "serve",
            str(service_file),
            "--checkpoint-dir",
            str(tmp_path),
            "--windows",
            "3",
            "--quiet",
        )
        assert clash.returncode == 1
        assert "different service configuration" in clash.stderr
