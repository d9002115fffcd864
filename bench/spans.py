"""Outside-in span tracing for the benchmark's ``--trace 1`` runs.

The tracer never edits the program.  It rebinds public names in the modules
and classes that *call* each layer (``TARGETS``), so a span opens when
control crosses a layer boundary and closes when the call returns.  Untraced
runs never install it, and :meth:`Tracer.installed` restores every original
object on exit, so outside a traced run each wrapped name is the program's
own function.

Spans are kept in memory and written as JSONL when the run ends.  A span
records its name, start, end, parent span and the benchmark unit (round id)
it belongs to; spans opened outside a unit (for example by a check that
reads an accumulator) are not recorded.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Mapping

import numpy as np

import repro.core.dap as dap_module
import repro.core.emf as emf_module
import repro.core.emf_star as emf_star_module
import repro.core.probing as probing_module
import repro.core.sketch_frequency as sketch_module
import repro.service.runtime as runtime_module
from repro.collect.accumulators import GroupAccumulator
from repro.core.dap import DAPProtocol
from repro.core.sketch_frequency import SketchFrequencyDAP
from repro.ldp.count_sketch import CountSketch
from repro.service.checkpoint import CheckpointChain
from repro.service.detector import CusumDetector

Annotate = Callable[[Any, tuple], Dict[str, int]]


def _group_reports(result, args) -> Dict[str, int]:
    return {"reports": int(sum(acc.n_reports for acc in result))}


def _sketch_reports(result, args) -> Dict[str, int]:
    return {"reports": int(result.n_reports)}


def _probe_iterations(result, args) -> Dict[str, int]:
    probe = result.probe
    return {
        "em_iterations": int(probe.emf_left.n_iterations + probe.emf_right.n_iterations)
    }


def _solver_work(result, args) -> Dict[str, int]:
    iterations = np.atleast_1d(result.n_iterations)
    converged = np.atleast_1d(result.converged)
    return {
        "iterations": int(iterations.sum()),
        "hypotheses": int(iterations.size),
        "unconverged": int(converged.size - np.count_nonzero(converged)),
    }


def _checkpoint_bytes(result, args) -> Dict[str, int]:
    return {"bytes": os.path.getsize(args[0].path)}


#: every layer boundary the trace times: (owner whose callers cross it,
#: public attribute, span name, optional annotation of the call's result)
TARGETS = (
    (DAPProtocol, "collect_sharded", "collect", _group_reports),
    (DAPProtocol, "aggregate_stats", "aggregate", None),
    (dap_module, "run_shard_tasks", "resilience.pool", None),
    (dap_module, "estimate_byzantine_features", "probe", _probe_iterations),
    (dap_module, "cached_transform_matrix", "transform", None),
    (dap_module, "run_emf", "aggregate.emf", None),
    (dap_module, "run_cemf_star", "aggregate.cemf_star", None),
    (probing_module, "cached_transform_matrix", "transform", None),
    (emf_module, "em_reconstruct", "ems.single", _solver_work),
    (emf_module, "em_reconstruct_batch", "ems.batch", _solver_work),
    (emf_star_module, "em_reconstruct", "ems.single", _solver_work),
    (GroupAccumulator, "stats", "accumulator.stats", None),
    (runtime_module, "build_population", "population", None),
    (CheckpointChain, "write", "checkpoint.write", _checkpoint_bytes),
    (CusumDetector, "update", "detector.update", None),
    (SketchFrequencyDAP, "collect_sharded", "sketch.collect", _sketch_reports),
    (SketchFrequencyDAP, "estimate_from_counts", "sketch.estimate", None),
    (sketch_module, "run_shard_tasks", "resilience.pool", None),
    (sketch_module, "em_reconstruct", "ems.single", _solver_work),
    (sketch_module, "em_reconstruct_accelerated", "ems.accelerated", _solver_work),
    (sketch_module, "em_reconstruct_batch", "ems.batch", _solver_work),
    (CountSketch, "estimate_categories", "sketch.decode", None),
    (CountSketch, "occupancy", "sketch.decode", None),
)

_SOLVER_SPANS = ("ems.batch", "ems.single", "ems.accelerated")


class Span:
    """One timed crossing of a layer boundary."""

    __slots__ = ("id", "parent", "name", "round", "start", "end", "attrs")

    def __init__(self, id: int, parent: int | None, name: str, round: int) -> None:
        self.id = id
        self.parent = parent
        self.name = name
        self.round = round
        self.start = time.perf_counter()
        self.end = self.start
        self.attrs: Dict[str, int] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self, origin: float) -> Dict[str, Any]:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "round": self.round,
            "start": self.start - origin,
            "end": self.end - origin,
            **self.attrs,
        }


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._round = 0
        self.origin = time.perf_counter()

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self._round)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, round_id: int) -> Iterator[None]:
        """The span of one benchmark unit; layer spans nest inside it."""
        self._round = round_id
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, function: Callable, name: str, annotate: Annotate | None) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self._stack:
                return function(*args, **kwargs)
            span = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                span.attrs = annotate(result, args)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Rebind every target to a span-recording wrapper; restore on exit."""
        originals = []
        try:
            for owner, attribute, name, annotate in TARGETS:
                original = vars(owner)[attribute]
                originals.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(original, name, annotate))
            yield self
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(self.origin)) + "\n")


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            start = max(child.start, reach)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = span.duration - covered
    return result


def outside_in_totals(spans: List[Span]) -> Dict[str, float]:
    """Per-stage totals comparable with ``repro.utils.profiling`` deltas.

    ``aggregate`` is the ``aggregate_stats`` span minus its probe, matching
    the profiler's split of stages 3 and 4-5.
    """
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
    stages = {}
    if "collect" in totals or "sketch.collect" in totals:
        stages["collect"] = totals.get("collect", 0.0) + totals.get("sketch.collect", 0.0)
    if "probe" in totals:
        stages["probe"] = totals["probe"]
    if "aggregate" in totals:
        stages["aggregate"] = totals["aggregate"] - totals.get("probe", 0.0)
    return stages


def layer_metrics(
    spans: List[Span], users: int, counters: Mapping[str, int]
) -> Dict[str, float]:
    """The per-layer metrics of one traced run (names as in BENCHMARK.json).

    ``counters`` holds the run's ``retries`` and transform-cache ``hits`` /
    ``misses`` deltas.  Layers a workload does not exercise read 0.
    """
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    total: Dict[str, float] = {}
    self_total: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    attrs: Dict[str, Dict[str, int]] = {}
    for span in spans:
        total[span.name] = total.get(span.name, 0.0) + span.duration
        self_total[span.name] = self_total.get(span.name, 0.0) + own[span.id]
        calls[span.name] = calls.get(span.name, 0) + 1
        bucket = attrs.setdefault(span.name, {})
        for key, value in span.attrs.items():
            bucket[key] = bucket.get(key, 0) + value

    def attr(names, key) -> int:
        return sum(attrs.get(name, {}).get(key, 0) for name in names)

    def under_sketch(span: Span) -> bool:
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == "sketch.estimate":
                return True
        return False

    roots = [span for span in spans if span.parent is None]
    wall = sum(span.duration for span in roots)
    solver_s = sum(total.get(name, 0.0) for name in _SOLVER_SPANS)
    iterations = attr(_SOLVER_SPANS, "iterations")
    collect_s = total.get("collect", 0.0)
    lookups = counters.get("hits", 0) + counters.get("misses", 0)
    return {
        "collect.self_s": self_total.get("collect", 0.0),
        "collect.reports_per_s": attr(["collect"], "reports") / collect_s if collect_s else 0.0,
        "resilience.pool_s": total.get("resilience.pool", 0.0),
        "resilience.retries": counters.get("retries", 0),
        "probe.self_s": self_total.get("probe", 0.0),
        "probe.em_iterations": attr(["probe"], "em_iterations"),
        "ems.batch_s": total.get("ems.batch", 0.0),
        "ems.single_s": total.get("ems.single", 0.0),
        "ems.accelerated_s": total.get("ems.accelerated", 0.0),
        "ems.iterations": iterations,
        "ems.s_per_iteration": solver_s / iterations if iterations else 0.0,
        "ems.unconverged": attr(_SOLVER_SPANS, "unconverged"),
        "transform.calls": calls.get("transform", 0),
        "transform.s": total.get("transform", 0.0),
        "transform.cache_hit_ratio": counters.get("hits", 0) / lookups if lookups else 0.0,
        "aggregate.self_s": self_total.get("aggregate", 0.0),
        "aggregate.emf_s": total.get("aggregate.emf", 0.0),
        "aggregate.cemf_star_s": total.get("aggregate.cemf_star", 0.0),
        "accumulator.stats_s": total.get("accumulator.stats", 0.0),
        "population.build_s": total.get("population", 0.0),
        "checkpoint.write_s": total.get("checkpoint.write", 0.0),
        "checkpoint.bytes": attr(["checkpoint.write"], "bytes"),
        "detector.update_s": total.get("detector.update", 0.0),
        "sketch.collect_s": total.get("sketch.collect", 0.0),
        "sketch.decode_s": total.get("sketch.decode", 0.0),
        "sketch.em_hypotheses": sum(
            span.attrs.get("hypotheses", 0)
            for span in spans
            if span.name in _SOLVER_SPANS and under_sketch(span)
        ),
        "sketch.estimate_self_s": self_total.get("sketch.estimate", 0.0),
        "unattributed_s": sum(own[span.id] for span in roots),
        "traced.wall_s": wall,
        "traced.users_per_s": users / wall if wall else 0.0,
    }
