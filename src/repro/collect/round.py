"""One collection round, written once for every protocol.

Users form groups (DAP's budget ladder; one group on the frequency routes),
each group is cut into seed blocks
(:func:`~repro.collect.sharding.build_shard_plan`), and shards — contiguous
runs of blocks — are collected independently and merged.
:func:`collection_round` builds one :class:`ShardTask` per shard index: task
``i`` is shard ``i``, empty shards included (they always form a suffix,
because every group splits its blocks like ``numpy.array_split``).  Callers
run the tasks with :func:`collect_shard` through their own module's
``run_shard_tasks`` and fold the states with :meth:`CollectionRound.merge`.

A protocol supplies what differs as a small picklable *client*:

* ``plan`` — the :class:`~repro.protocol.plan.ProtocolPlan` that delivers
  every block (:meth:`~repro.protocol.plan.ProtocolPlan.deliver`);
* ``assign(rng, values, n_byzantine, out)`` — writes the normal values
  group after group into ``out`` and returns the groups' normal and
  Byzantine head-counts (``None``: the users form one group);
* ``group(index, n_normal, n_byzantine)`` — the group of that many users,
  with ``mechanism`` (the honest sampler), ``repeats`` (reports per user),
  ``streams_leaves`` (whether honest blocks may be drawn leaf by leaf),
  ``accumulator(n_users)`` (sized for the whole group, starting at
  ``n_users`` users) and ``poison(n_users, rng)`` (that many Byzantine
  users' reports).
"""

from __future__ import annotations

import functools
import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.backends import get_backend, use_backend
from repro.collect.sharding import ShardSlice, ShardValues, ValueSlice, build_shard_plan
from repro.protocol.plan import ProtocolPlan
from repro.utils.profiling import stage
from repro.utils.rng import RngLike
from repro.utils.validation import check_integer

#: most reports one leaf of a streamed collection block holds: its handful
#: of float64 work arrays (~2 MiB together) stay in cache
LEAF_REPORTS = 1 << 15


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs to collect one shard (picklable)."""

    client: Any
    #: every group's normal and Byzantine head-counts
    groups: Tuple[Tuple[int, int], ...]
    #: the shard's share of each group it touches
    pieces: Tuple[ShardSlice, ...]
    #: every group's normal values, group after group
    values: ValueSlice
    block_size: int
    backend: str


def _client_perturb(
    mechanism: Any,
    values: np.ndarray,
    repeats: int,
    rng: RngLike,
    start: int = 0,
    stop: int | None = None,
) -> np.ndarray:
    """Client stage, honest users: perturb ``repeats`` reports per value.

    ``start`` / ``stop`` select a slice of the ``values.size * repeats``
    reports (all of them by default); only the slice's inputs are built and
    perturbed.
    """
    if stop is None:
        stop = values.size * repeats
    first = start // repeats
    users = values[first : (stop + repeats - 1) // repeats]
    if repeats > 1:
        offset = start - first * repeats
        users = np.repeat(users, repeats)[offset : offset + stop - start]
    return mechanism.perturb(users, rng)


def _draw_normal(
    plan: ProtocolPlan,
    mechanism: Any,
    values: np.ndarray,
    repeats: int,
    seed: int,
    rng: np.random.Generator,
    start: int,
    stop: int,
) -> np.ndarray:
    """Reports ``[start, stop)`` of one honest block, delivered."""
    with stage("collect.sample"):
        reports = _client_perturb(mechanism, values, repeats, rng, start, stop)
    # the block seed is the shard-partition-invariant lane key, so shuffled
    # merges stay bit-identical at any shard/worker count
    return plan.deliver(reports, (seed,))


def _collect_block(
    accumulator: Any,
    draw: Callable[[int, int], np.ndarray],
    n_reports: int,
    leaf_reports: int,
) -> None:
    """Draw, bin and sum one block's ``n_reports`` reports, a leaf at a time.

    ``draw(start, stop)`` returns the block's reports ``[start, stop)`` and
    must give, leaf after leaf, exactly the reports one whole-block draw
    would.  The block is cut the way numpy's pairwise ``sum`` cuts an
    array — at half its length rounded down to a multiple of 8 — until a
    piece holds at most ``leaf_reports``.  Each leaf is drawn, binned and
    summed while it fits in cache, and the leaf sums are added back up the
    same tree, so counts and report sum are bit for bit those of one
    :meth:`~repro.collect.GroupAccumulator.update` with the whole block, and
    only one leaf's arrays exist at a time.  With ``leaf_reports >=
    n_reports`` the leaf is the whole block, and any accumulator will do.
    """
    if n_reports <= leaf_reports:
        reports = draw(0, n_reports)
        with stage("collect.accumulate"):
            accumulator.update(reports)
        return

    grid = accumulator.output_grid
    histogram_chunk = get_backend().histogram_chunk
    counts = np.zeros(grid.n_buckets, dtype=np.int64)

    def tree_sum(start: int, stop: int) -> float:
        size = stop - start
        if size > leaf_reports:
            half = size // 2
            half -= half % 8
            return tree_sum(start, start + half) + tree_sum(start + half, stop)
        reports = draw(start, stop)
        with stage("collect.accumulate"):
            leaf_counts, leaf_sum = histogram_chunk(reports, grid)
            np.add(counts, leaf_counts, out=counts)
        return leaf_sum

    report_sum = tree_sum(0, n_reports)
    # the recursive closure refers to itself; emptying its cell frees the
    # block's draw (and the values it views) now, not at the next cyclic
    # garbage collection
    del tree_sum
    with stage("collect.accumulate"):
        accumulator.fold(counts, n_reports, report_sum)


def collect_shard(task: ShardTask) -> List[Tuple[int, dict]]:
    """Collect one shard into ``(group index, accumulator state)`` pairs.

    Every block is perturbed (or poisoned) with a fresh generator seeded by
    its pre-drawn block seed, so the output depends only on the task —
    never on which process ran it or what ran before.  The task also
    carries the submitting process's array backend, entered here so pooled
    shards sample with the same kernels as in-process ones.

    A worker holds the reports of one leaf at a time: at most
    :data:`LEAF_REPORTS` of them under the ``fast`` backend and the local
    protocol, a whole block of up to ``block_size`` times the group's
    reports per user under the numpy reference backend, the shuffle
    protocol (whose delivery permutes the whole block), for poison blocks
    and for samplers that do not stream (mechanisms other than PM / SW, and
    the frequency routes).  Leaf size never changes a bit.
    """
    with use_backend(task.backend):
        plan = task.client.plan
        # leaves reproduce the whole-block draw only when the sampler takes
        # one uniform per report in order and nothing reorders the block
        streamed = get_backend().streams_leaves and not plan.is_shuffle
        block = task.block_size
        starts = [0, *itertools.accumulate(n_normal for n_normal, _ in task.groups)]
        states: List[Tuple[int, dict]] = []
        for piece in task.pieces:
            group = task.client.group(
                piece.group_index, *task.groups[piece.group_index]
            )
            accumulator = group.accumulator(piece.n_users)
            repeats = group.repeats
            start = starts[piece.group_index]
            values = task.values.read()[
                start + piece.normal_start : start + piece.normal_stop
            ]
            # every block holds users; only the last may hold fewer than a block
            for index, seed in enumerate(piece.normal_seeds if repeats else ()):
                chunk = values[index * block : (index + 1) * block]
                n_reports = chunk.size * repeats
                _collect_block(
                    accumulator,
                    functools.partial(
                        _draw_normal,
                        plan,
                        group.mechanism,
                        chunk,
                        repeats,
                        int(seed),
                        np.random.default_rng(int(seed)),
                    ),
                    n_reports,
                    LEAF_REPORTS if streamed and group.streams_leaves else n_reports,
                )
            for index, seed in enumerate(piece.byzantine_seeds if repeats else ()):
                n_users = min(block, piece.n_byzantine - index * block)
                with stage("collect.poison"):
                    poison = group.poison(n_users, np.random.default_rng(int(seed)))
                poison = plan.deliver(poison, (int(seed),))
                with stage("collect.accumulate"):
                    accumulator.update(poison)
            states.append((piece.group_index, accumulator.state_dict()))
        return states


@dataclass(frozen=True)
class CollectionRound:
    """The parent's side of one round: its tasks and the merge of their states."""

    client: Any
    groups: Tuple[Tuple[int, int], ...]
    tasks: List[ShardTask]
    n_workers: int | None

    def merge(self, shard_states: Sequence[Sequence[Tuple[int, dict]]]) -> list:
        """One accumulator per group, with every shard's states folded in."""
        accumulators = [
            self.client.group(index, *counts).accumulator(0)
            for index, counts in enumerate(self.groups)
        ]
        for states in shard_states:
            for index, state in states:
                accumulator = accumulators[index]
                accumulator.merge(type(accumulator).from_state(state))
        return accumulators


@contextmanager
def collection_round(
    client: Any,
    values: np.ndarray,
    n_byzantine: int,
    rng: np.random.Generator,
    n_shards: int,
    n_workers: int | None,
    block_size: int,
) -> Iterator[CollectionRound]:
    """Open one round's shard values, draw its plan and build its tasks.

    Without ``client.assign`` the users form one group: the normal users
    holding ``values`` (not copied unless the round is pooled), then
    ``n_byzantine`` Byzantine ones, and the plan is ``rng``'s only draw.
    With it, ``client.assign(rng, values, n_byzantine, out=buffer)`` first
    writes the values group after group into an unfilled buffer and returns
    the groups' normal and Byzantine head-counts.  Leaving the block
    releases the values (a shared-memory segment when the round is pooled).
    """
    n_shards = check_integer(n_shards, "n_shards", minimum=1)
    if client.assign is None:
        buffer = ShardValues.holding(values, n_workers, n_shards)
    else:
        buffer = ShardValues(values.size, values.dtype, n_workers, n_shards)
    with buffer:
        if client.assign is None:
            counts = [values.size], [n_byzantine]
        else:
            counts = client.assign(rng, values, n_byzantine, out=buffer.array)
        plan = build_shard_plan(
            *counts, n_shards=n_shards, rng=rng, block_size=block_size
        )
        groups = tuple(zip(plan.normal_counts, plan.byzantine_counts))
        handle = buffer.slice(0, values.size)
        # pool workers run in their own processes, so the parent's active
        # backend travels with the task
        backend = get_backend().name
        tasks = [
            ShardTask(client, groups, tuple(pieces), handle, plan.block_size, backend)
            for pieces in plan.shards()
        ]
        yield CollectionRound(client, groups, tasks, buffer.n_workers)


def category_inputs(
    mechanism: Any,
    normal_categories: np.ndarray,
    poisoned_categories: Sequence[int],
    n_byzantine: int,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """A categorical round's normal categories, targets and Byzantine count.

    Refuses bad input in the parent, where it raises once, rather than in a
    shard worker, whose failure the resilient pool would retry: categories
    or (when there are Byzantine users) targets outside the mechanism's
    domain raise :class:`~repro.ldp.base.MechanismError`.  Targets may be
    any sequence, numpy arrays included.
    """
    normal = np.asarray(normal_categories, dtype=int).ravel()
    targets = np.asarray(list(poisoned_categories), dtype=int)
    n_byzantine = check_integer(n_byzantine, "n_byzantine", minimum=0)
    if n_byzantine and not targets.size:
        raise ValueError("poisoned_categories must be provided when n_byzantine > 0")
    mechanism.check_categories(normal)
    if n_byzantine:
        mechanism.check_categories(targets)
    return normal, targets, n_byzantine


__all__ = [
    "LEAF_REPORTS",
    "CollectionRound",
    "ShardTask",
    "category_inputs",
    "collect_shard",
    "collection_round",
]
