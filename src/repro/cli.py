"""``python -m repro`` — run declarative scenarios from the command line.

Four subcommands:

* ``run <scenario.json>`` — execute a scenario file through the parallel
  executor, persist a resumable run artifact and print the result tables;
* ``resume <scenario.json>`` — continue an interrupted run from its artifact
  (the artifact must exist; completed units are reused);
* ``serve <service.json>`` — run a windowed continuous-aggregation service
  (:mod:`repro.service`): ingest report windows, keep a running DAP
  estimate with warm-started incremental probing, checkpoint after each
  window, and resume bit-identically after a kill;
* ``list-components`` — print every registered mechanism, attack, defense,
  scheme and dataset name the scenario schema accepts.

Exit status: ``0`` on success, ``1`` on scenario/component errors, ``2`` if a
run unexpectedly produced no records.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import time
from typing import Sequence

from repro import knobs
from repro.registry import ALL_REGISTRIES
from repro.resilience import (
    DEFAULT_POLICY,
    FaultPlan,
    use_fault_plan,
    use_retry_policy,
)
from repro.scenario import ScenarioSpec, format_scenario_records, run_scenario
from repro.service import ServiceSpec, WindowedAggregationService, format_window


def _workers(value: str) -> int | str:
    """Parse ``--workers``: a positive integer or ``auto`` (one per CPU)."""
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--workers must be an integer or 'auto', got {value!r}"
        ) from None


def _checked(flag: str, check: knobs.Check):
    """argparse ``type=`` that runs a knob validator on the flag's value.

    The text is read as the JSON document would spell the value (``4``,
    ``fast``), so a flag accepts exactly what the document key accepts.
    """

    def parse(text: str):
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        try:
            return check(value, flag)
        except (KeyError, TypeError, ValueError) as error:
            raise argparse.ArgumentTypeError(error.args[0]) from None

    return parse


def _add_knob_flags(parser: argparse.ArgumentParser, spec_class: type) -> None:
    """One override flag per flagged knob of ``spec_class``."""
    for field in knobs.flagged(spec_class):
        parser.add_argument(
            field.metadata["flag"],
            dest=field.name,
            type=_checked(field.metadata["flag"], field.metadata["check"]),
            default=None,
            help=f"{field.metadata['help']} "
            f"({knobs.ROLE_NOTES[field.metadata['role']]}); overrides the "
            f"document's {field.name!r}",
        )


def _with_overrides(spec, args: argparse.Namespace):
    """``spec`` with the knob flags given on the command line applied.

    The spec is rebuilt (not mutated) so its own validation runs on the
    overrides.  An identity override changes the digest, so a run or stream
    recorded under one setting never resumes into another; an execution
    override leaves existing artifacts and checkpoints resumable.
    """
    overrides = {
        field.name: getattr(args, field.name)
        for field in knobs.flagged(spec)
        if getattr(args, field.name) is not None
    }
    return dataclasses.replace(spec, **overrides)


def _default_store(scenario: ScenarioSpec) -> str:
    return os.path.join("runs", f"{scenario.name}.json")


def _resilience_context(args: argparse.Namespace):
    """The fault-plan + retry-policy scope a command's run executes under.

    Both are execution details: they never enter a scenario or service digest,
    so a chaos run stays resumable into (and bit-identical with) a clean one;
    the run's execution record names the plan.
    """
    stack = contextlib.ExitStack()
    if getattr(args, "fault_plan", None) is not None:
        stack.enter_context(use_fault_plan(FaultPlan.from_file(args.fault_plan)))
    overrides = {}
    if getattr(args, "task_retries", None) is not None:
        overrides["max_attempts"] = args.task_retries
    if getattr(args, "task_timeout", None) is not None:
        overrides["task_timeout"] = args.task_timeout
    if overrides:
        stack.enter_context(
            use_retry_policy(dataclasses.replace(DEFAULT_POLICY, **overrides))
        )
    return stack


class _ProgressPrinter:
    """Throttled ``completed/total`` work-unit progress on stderr.

    Prints at most every ``interval`` seconds (plus always the final unit),
    so long streaming runs show a heartbeat without flooding short ones.
    """

    def __init__(self, name: str, interval: float = 5.0) -> None:
        self.name = name
        self.interval = interval
        self._last = 0.0

    def __call__(self, completed: int, total: int) -> None:
        now = time.monotonic()
        if completed < total and now - self._last < self.interval:
            return
        self._last = now
        print(
            f"{self.name}: {completed}/{total} work units completed",
            file=sys.stderr,
            flush=True,
        )


def _execute(args: argparse.Namespace, resume: bool, require_artifact: bool) -> int:
    scenario = _with_overrides(ScenarioSpec.from_file(args.scenario), args)
    store = args.store or _default_store(scenario)
    if require_artifact and not os.path.exists(store):
        print(
            f"error: no run artifact at {store!r} to resume from; "
            f"use 'run' to start it",
            file=sys.stderr,
        )
        return 1
    profile = args.profile or args.profile_out is not None
    with _resilience_context(args):
        records = run_scenario(
            scenario,
            n_workers=args.workers,
            store_path=store,
            resume=resume,
            progress=None if args.quiet else _ProgressPrinter(scenario.name),
            profile=profile,
        )
    if not records:
        print(f"error: scenario {scenario.name!r} produced no records", file=sys.stderr)
        return 2
    if profile:
        stage_totals = _load_profile(store)
        _print_profile(stage_totals)
        if args.profile_out is not None:
            _write_profile(args.profile_out, stage_totals)
    print(
        f"{scenario.name}: {len(records)} records "
        f"({len(set(str(r.point) for r in records))} grid points x "
        f"{len(set(r.scheme for r in records))} schemes), artifact: {store}"
    )
    if not args.quiet:
        print()
        print(format_scenario_records(records))
    return 0


def _load_profile(store: str) -> dict:
    """The per-stage wall times recorded in the run artifact."""
    from repro.engine import load_run

    return (load_run(store).meta.get("execution") or {}).get("profile") or {}


def _print_profile(stage_totals: dict) -> None:
    from repro.utils.profiling import format_profile

    rendered = (
        format_profile(stage_totals) if stage_totals else "(no freshly computed units)"
    )
    print(f"profile: {rendered}", file=sys.stderr)


def _write_profile(path: str, stage_totals: dict) -> None:
    """Write the per-stage profile dict as a JSON document."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(stage_totals, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _cmd_run(args: argparse.Namespace) -> int:
    return _execute(args, resume=not args.fresh, require_artifact=False)


def _cmd_resume(args: argparse.Namespace) -> int:
    return _execute(args, resume=True, require_artifact=True)


def _cmd_serve(args: argparse.Namespace) -> int:
    spec = _with_overrides(ServiceSpec.from_file(args.service), args)
    checkpoint_dir = args.checkpoint_dir or os.path.join("runs", "service")
    checkpoint_path = spec.default_checkpoint_path(checkpoint_dir)
    service = WindowedAggregationService(spec, checkpoint_path=checkpoint_path)

    def progress(row) -> None:
        print(format_window(row, spec.n_windows), file=sys.stderr, flush=True)

    with _resilience_context(args):
        result = service.run(
            resume=not args.fresh, progress=None if args.quiet else progress
        )
    final = result.windows[-1]
    flagged = result.flagged_window
    print(
        f"{spec.name}: {len(result.windows)} windows x {spec.window_size} users, "
        f"estimate={final.estimate:+.6f} gamma_hat={final.gamma_hat:.4f} "
        f"(resumed from window {result.resumed_from}), "
        f"checkpoint: {checkpoint_path}"
    )
    print(
        "attack flagged at window "
        + (str(flagged) if flagged is not None else "- (never)")
    )
    if args.profile or args.profile_out is not None:
        _print_profile(result.profile)
        if args.profile_out is not None:
            _write_profile(args.profile_out, result.profile)
    if args.results_out is not None:
        payload = {
            "spec": spec.document(),
            "digest": spec.digest(),
            "execution": result.execution,
            "resumed_from": result.resumed_from,
            "estimate": final.estimate,
            "flagged_window": flagged,
            "windows": [row.to_dict() for row in result.windows],
        }
        directory = os.path.dirname(os.path.abspath(args.results_out))
        os.makedirs(directory, exist_ok=True)
        with open(args.results_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    return 0


def _cmd_list_components(args: argparse.Namespace) -> int:
    for group, registry in ALL_REGISTRIES.items():
        print(f"{group}:")
        for entry in registry.entries():
            notes = []
            if entry.aliases:
                notes.append(f"aliases: {', '.join(entry.aliases)}")
            kind = entry.metadata.get("kind")
            if kind:
                notes.append(kind)
            if entry.defaults:
                notes.append(
                    "defaults: "
                    + ", ".join(f"{k}={v!r}" for k, v in entry.defaults.items())
                )
            suffix = f"  ({'; '.join(notes)})" if notes else ""
            print(f"  {entry.name}{suffix}")
        print()
    print("(every defense is also accepted as a single-round scheme name)")
    return 0


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """The fault-tolerance knobs shared by run / resume / serve."""
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="PATH",
        help="inject deterministic faults from a JSON fault plan (worker "
        "kills, task timeouts, checkpoint corruption, artifact-write "
        "failures); an execution detail — the recovered run is bit-identical "
        "to a fault-free one and the plan is recorded under meta.execution "
        "only",
    )
    parser.add_argument(
        "--task-retries",
        type=_checked("--task-retries", knobs.integer(1)),
        default=None,
        help="total attempts per pool task before the run fails "
        f"(default: {DEFAULT_POLICY.max_attempts}); retried tasks are "
        "bit-identical to first-try tasks",
    )
    parser.add_argument(
        "--task-timeout",
        type=_checked("--task-timeout", knobs.positive),
        default=None,
        metavar="SECONDS",
        help="per-task watchdog: a pool task running longer is re-dispatched "
        "(straggler mitigation; first result wins and both compute the same "
        "bits); default: no watchdog",
    )


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    """The arguments ``run`` and ``resume`` share."""
    parser.add_argument("scenario", help="path to a scenario JSON file")
    parser.add_argument(
        "--workers",
        type=_workers,
        default=None,
        help="process-pool size, or 'auto' for one worker per CPU (default: serial)",
    )
    _add_knob_flags(parser, ScenarioSpec)
    parser.add_argument(
        "--store",
        default=None,
        help="run-artifact path (default: runs/<scenario name>.json)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record per-stage wall times (collect / probe / aggregate / "
        "defense) into the artifact's meta.execution.profile and print them",
    )
    parser.add_argument(
        "--profile-out",
        default=None,
        metavar="PATH",
        help="also write the per-stage profile dict as JSON to PATH "
        "(implies --profile)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="print only the summary line"
    )
    _add_resilience_flags(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run declarative attack x defense x epsilon x dataset scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a scenario file")
    _add_scenario_arguments(run_parser)
    run_parser.add_argument(
        "--fresh",
        action="store_true",
        help="ignore any existing artifact and recompute every unit",
    )
    run_parser.set_defaults(func=_cmd_run)

    resume_parser = sub.add_parser(
        "resume", help="continue an interrupted run from its artifact"
    )
    _add_scenario_arguments(resume_parser)
    resume_parser.set_defaults(func=_cmd_resume)

    serve_parser = sub.add_parser(
        "serve",
        help="run a windowed continuous-aggregation service from a service "
        "JSON file (checkpointed; re-running resumes bit-identically)",
    )
    serve_parser.add_argument("service", help="path to a service JSON file")
    _add_knob_flags(serve_parser, ServiceSpec)
    serve_parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="directory for the service checkpoint file "
        "(default: runs/service/<name>.checkpoint.json)",
    )
    serve_parser.add_argument(
        "--fresh",
        action="store_true",
        help="ignore any existing checkpoint and recompute from window 0",
    )
    serve_parser.add_argument("--profile", action="store_true")
    serve_parser.add_argument(
        "--profile-out",
        default=None,
        metavar="PATH",
        help="write the per-stage profile dict (this run's freshly computed "
        "windows) as JSON to PATH (implies --profile)",
    )
    serve_parser.add_argument(
        "--results-out",
        default=None,
        metavar="PATH",
        help="write the full window-by-window results as JSON to PATH",
    )
    serve_parser.add_argument("--quiet", action="store_true")
    _add_resilience_flags(serve_parser)
    serve_parser.set_defaults(func=_cmd_serve)

    list_parser = sub.add_parser(
        "list-components", help="list every registered component name"
    )
    list_parser.set_defaults(func=_cmd_list_components)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as error:
        # str(OSError) includes strerror + filename; args[0] is a bare errno
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (KeyError, ValueError, TypeError) as error:
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 1


__all__ = ["main", "build_parser"]
