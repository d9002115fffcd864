"""Deterministic shard plans for parallel collection.

A collection round over millions of users is map-reducible by construction:
every accumulator in :mod:`repro.collect.accumulators` carries an associative
``merge()``, so disjoint slices of the report stream can be accumulated
independently and folded back together.  What makes the *parallel* execution
deterministic is the seeding scheme captured here:

* each group's user range is cut into fixed-size **blocks** of
  ``block_size`` users, and one independent seed is pre-drawn per block from
  the master generator, in canonical (group-major, normal-before-byzantine)
  order — one draw, mirroring the engine's pre-drawn seed matrix;
* a **shard** is a contiguous run of whole blocks
  (``numpy.array_split`` over the block index), so every block's reports
  depend only on its own seed and its users' values, never on which shard or
  worker processed it.

Because the blocks — not the shards — own the randomness, the merged
statistics are bit-identical at **any** shard count and any worker count:
``n_shards`` and the process-pool size are pure execution details, on the
same footing as the engine's ``n_workers``.  Only ``block_size`` is part of
the run's identity (it decides how the per-block generators are consumed).

Shard tasks never carry user values: they carry :class:`ValueSlice` handles
into one :class:`ShardValues` buffer per round, which pooled rounds back with
a shared-memory segment the workers map instead of unpickling value copies.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.resilience.pool import ResilientPool, warn_degraded
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_integer

#: the :class:`~repro.resilience.pool.ResilientPool` seam name for shard
#: dispatch — fault plans target collection shards through this scope
SHARD_POOL_LABEL = "collect.shard"

#: users per seed block — the granularity of the pre-drawn seed stream
DEFAULT_SHARD_BLOCK = 65_536


def _n_blocks(count: int, block_size: int) -> int:
    return -(-count // block_size) if count else 0


@dataclass(frozen=True)
class ShardSlice:
    """One group's share of one shard.

    Attributes
    ----------
    group_index:
        Index of the group this slice belongs to.
    normal_start, normal_stop:
        Contiguous range of the group's normal users covered by this shard
        (indices into the group's normal-value array).
    normal_seeds:
        One seed per normal block in the range, in block order.
    n_byzantine:
        Number of the group's Byzantine users covered by this shard.
    byzantine_seeds:
        One seed per Byzantine block, in block order.
    """

    group_index: int
    normal_start: int
    normal_stop: int
    normal_seeds: Tuple[int, ...]
    n_byzantine: int
    byzantine_seeds: Tuple[int, ...]

    @property
    def n_normal(self) -> int:
        return self.normal_stop - self.normal_start

    @property
    def n_users(self) -> int:
        return self.n_normal + self.n_byzantine


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic split of per-group user ranges into shards.

    Built by :func:`build_shard_plan`; ``shard(s)`` returns the
    :class:`ShardSlice` list a worker needs to process shard ``s``.  The
    pre-drawn block seeds make the merged result independent of ``n_shards``
    and of how the shards are scheduled across workers.
    """

    n_shards: int
    block_size: int
    normal_counts: Tuple[int, ...]
    byzantine_counts: Tuple[int, ...]
    normal_seeds: Tuple[Tuple[int, ...], ...]
    byzantine_seeds: Tuple[Tuple[int, ...], ...]

    @property
    def n_groups(self) -> int:
        return len(self.normal_counts)

    def shard(self, shard_index: int) -> List[ShardSlice]:
        """The per-group slices making up one shard (may be empty)."""
        if not 0 <= shard_index < self.n_shards:
            raise IndexError(
                f"shard index {shard_index} out of range [0, {self.n_shards})"
            )
        slices: List[ShardSlice] = []
        for group in range(self.n_groups):
            normal_blocks = _shard_block_range(
                len(self.normal_seeds[group]), self.n_shards, shard_index
            )
            byz_blocks = _shard_block_range(
                len(self.byzantine_seeds[group]), self.n_shards, shard_index
            )
            n0, n1 = normal_blocks
            b0, b1 = byz_blocks
            normal_start = n0 * self.block_size
            normal_stop = min(self.normal_counts[group], n1 * self.block_size)
            byz_start = b0 * self.block_size
            byz_stop = min(self.byzantine_counts[group], b1 * self.block_size)
            if normal_start >= normal_stop and byz_start >= byz_stop:
                continue
            slices.append(
                ShardSlice(
                    group_index=group,
                    normal_start=normal_start,
                    normal_stop=max(normal_start, normal_stop),
                    normal_seeds=self.normal_seeds[group][n0:n1],
                    n_byzantine=max(0, byz_stop - byz_start),
                    byzantine_seeds=self.byzantine_seeds[group][b0:b1],
                )
            )
        return slices

    def shards(self) -> List[List[ShardSlice]]:
        """All shards, in shard order."""
        return [self.shard(index) for index in range(self.n_shards)]


def _shard_block_range(n_blocks: int, n_shards: int, shard_index: int) -> Tuple[int, int]:
    """Contiguous ``[start, stop)`` block range owned by one shard.

    Matches ``numpy.array_split(arange(n_blocks), n_shards)[shard_index]``:
    the first ``n_blocks % n_shards`` shards take one extra block.
    """
    base, extra = divmod(n_blocks, n_shards)
    start = shard_index * base + min(shard_index, extra)
    stop = start + base + (1 if shard_index < extra else 0)
    return start, stop


def build_shard_plan(
    normal_counts: Sequence[int],
    byzantine_counts: Sequence[int],
    n_shards: int,
    rng: RngLike = None,
    block_size: int = DEFAULT_SHARD_BLOCK,
) -> ShardPlan:
    """Draw the block-seed streams and freeze them into a :class:`ShardPlan`.

    The master generator is consumed exactly once, for a single flat integer
    draw covering every block in canonical order (group 0's normal blocks,
    group 0's Byzantine blocks, group 1's normal blocks, ...), so the plan —
    and hence every downstream report — is a pure function of the generator
    state, ``block_size`` and the group head-counts.
    """
    n_shards = check_integer(n_shards, "n_shards", minimum=1)
    block_size = check_integer(block_size, "block_size", minimum=1)
    normal_counts = tuple(
        check_integer(int(c), "normal count", minimum=0) for c in normal_counts
    )
    byzantine_counts = tuple(
        check_integer(int(c), "byzantine count", minimum=0) for c in byzantine_counts
    )
    if len(normal_counts) != len(byzantine_counts):
        raise ValueError(
            f"normal_counts and byzantine_counts must align, got "
            f"{len(normal_counts)} vs {len(byzantine_counts)} groups"
        )
    rng = ensure_rng(rng)

    block_counts: List[int] = []
    for normal, byzantine in zip(normal_counts, byzantine_counts):
        block_counts.append(_n_blocks(normal, block_size))
        block_counts.append(_n_blocks(byzantine, block_size))
    total_blocks = int(sum(block_counts))
    flat = rng.integers(0, 2**63 - 1, size=total_blocks, dtype=np.int64)

    normal_seeds: List[Tuple[int, ...]] = []
    byzantine_seeds: List[Tuple[int, ...]] = []
    offset = 0
    for index in range(len(normal_counts)):
        n_blocks = block_counts[2 * index]
        normal_seeds.append(tuple(int(s) for s in flat[offset : offset + n_blocks]))
        offset += n_blocks
        n_blocks = block_counts[2 * index + 1]
        byzantine_seeds.append(tuple(int(s) for s in flat[offset : offset + n_blocks]))
        offset += n_blocks

    return ShardPlan(
        n_shards=n_shards,
        block_size=block_size,
        normal_counts=normal_counts,
        byzantine_counts=byzantine_counts,
        normal_seeds=tuple(normal_seeds),
        byzantine_seeds=tuple(byzantine_seeds),
    )


def run_shard_tasks(
    worker: Callable[[Any], Any],
    tasks: Sequence[Any],
    n_workers: int | None,
    pickle_probe: Any = None,
) -> List[Any]:
    """Run shard tasks over the resilient pool harness, in task order.

    The execution harness behind every ``collect_sharded`` path, over
    :class:`repro.resilience.pool.ResilientPool` (seam ``"collect.shard"``).
    Results are identical under any worker count, any retry, any pool
    reincarnation and the serial degradation path — each task is a pure
    function of its pre-drawn block seeds.  ``pickle_probe`` (e.g. the
    round's client) is test-pickled before a pool is started;
    unpicklable configurations and pool failures degrade to serial execution
    with a single warning per run, mirroring the experiment executor.

    A fresh pool is started per call: the intended workload is a handful of
    very large rounds (pool startup is noise next to a 10^7-user round);
    sweeps over many small rounds should parallelise across work units with
    the engine's ``n_workers`` instead.
    """
    return ResilientPool(n_workers, SHARD_POOL_LABEL).run(
        worker, tasks, pickle_probe=pickle_probe
    )


# ----------------------------------------------------------------------
# shard values: one buffer per round, handles in the tasks
# ----------------------------------------------------------------------
#: the tmpfs behind POSIX shared memory on Linux (Docker caps it at 64 MiB
#: by default)
SHM_DIR = "/dev/shm"

_local_ids = itertools.count()

#: buffers this process reads without attaching: its own live ones, plus —
#: in a forked pool worker — the parent's, whose mappings fork inherits
_buffers: Dict[str, np.ndarray] = {}

#: segments a spawned pool worker attached by name; they live as long as
#: the worker, which lives as long as its round's pool
_attached: Dict[str, shared_memory.SharedMemory] = {}

#: unlinked segments still pinned by a view (an exception's traceback can
#: hold one past its round); closed by a later round once the view is gone
_unclosed: List[shared_memory.SharedMemory] = []


@dataclass(frozen=True)
class ValueSlice:
    """A picklable handle on ``length`` values at ``offset`` of a buffer.

    Names a :class:`ShardValues` buffer: a shared-memory segment when the
    round is pooled, a process-local one otherwise.
    """

    buffer: str
    dtype: str
    offset: int
    length: int

    def read(self) -> np.ndarray:
        """The values: a view on the buffer, not a copy."""
        array = _buffers.get(self.buffer)
        if array is None:
            array = _attach(self.buffer, np.dtype(self.dtype))
        return array[self.offset : self.offset + self.length]


def _attach(name: str, dtype: np.dtype) -> np.ndarray:
    segment = _attached.get(name)
    if segment is None:
        segment = _attached[name] = shared_memory.SharedMemory(name=name)
    return _segment_array(segment, segment.size // dtype.itemsize, dtype)


def _segment_array(
    segment: shared_memory.SharedMemory, size: int, dtype: np.dtype
) -> np.ndarray:
    # np.frombuffer holds a buffer export for as long as the array or any
    # view of it lives, so the segment cannot be closed under a view (an
    # np.ndarray(buffer=...) array keeps no export and would dangle)
    return np.frombuffer(segment.buf, dtype=dtype, count=size)


def _shm_free_bytes() -> int | None:
    """Bytes free in :data:`SHM_DIR`, or ``None`` where there is none to check."""
    try:
        fs = os.statvfs(SHM_DIR)
    except OSError:
        return None
    return fs.f_bavail * fs.f_frsize


def _create_segment(nbytes: int) -> shared_memory.SharedMemory | None:
    """A new segment of ``nbytes``, or ``None`` (warned) if none can be had.

    tmpfs allocates a segment's pages on first touch, so a segment larger
    than the free space would be created fine and then kill the process
    with SIGBUS while it is filled; the free space is checked first.
    """
    free = _shm_free_bytes()
    if free is not None and free < nbytes:
        reason = (
            f"{SHM_DIR} has {free / 2**20:.1f} MiB free, the shard values "
            f"need {nbytes / 2**20:.1f} MiB"
        )
    else:
        try:
            return shared_memory.SharedMemory(create=True, size=max(nbytes, 1))
        except OSError as error:
            reason = f"shared memory unavailable ({error})"
    warn_degraded(SHARD_POOL_LABEL, "shared-memory", reason)
    return None


def _close_unpinned() -> None:
    for segment in list(_unclosed):
        try:
            segment.close()
        except BufferError:
            continue
        _unclosed.remove(segment)


class ShardValues:
    """The value array one round's shard tasks read, as a context manager.

    Tasks carry :meth:`slice` handles instead of value arrays, so no task
    pickles values.  Shards that run in-process read :attr:`array` directly.
    When the round's ``n_tasks`` shards go to a process pool of
    ``n_workers``, :attr:`array` lives in one stdlib
    ``multiprocessing.shared_memory`` segment instead: a forked worker
    inherits its mapping, a spawned one attaches by name, and leaving the
    ``with`` block unlinks it however the round ended.  If :data:`SHM_DIR`
    cannot hold the segment, the round degrades to in-process execution
    under the resilient pool's warning, and :attr:`n_workers` becomes 1 —
    pass it on to :func:`run_shard_tasks`.

    The constructor makes an unfilled buffer of ``size`` values;
    :meth:`holding` takes values the caller already has (in-process they
    are used as they are, not copied).
    """

    def __init__(
        self,
        size: int,
        dtype: Any,
        n_workers: int | None,
        n_tasks: int,
        values: np.ndarray | None = None,
    ) -> None:
        self.dtype = np.dtype(dtype)
        self.n_workers = n_workers
        self._segment = None
        if ResilientPool(n_workers, SHARD_POOL_LABEL).pools(n_tasks):
            self._segment = _create_segment(size * self.dtype.itemsize)
            if self._segment is None:
                self.n_workers = 1
        if self._segment is not None:
            self.name = self._segment.name
            self.array = _segment_array(self._segment, size, self.dtype)
            if values is not None:
                self.array[...] = values
        else:
            self.name = f"local-{next(_local_ids)}"
            self.array = np.empty(size, self.dtype) if values is None else values
        _buffers[self.name] = self.array

    @classmethod
    def holding(
        cls, values: np.ndarray, n_workers: int | None, n_tasks: int
    ) -> "ShardValues":
        """A buffer holding ``values`` (1-d)."""
        return cls(values.size, values.dtype, n_workers, n_tasks, values=values)

    def slice(self, start: int, stop: int) -> ValueSlice:
        """A handle on values ``[start, stop)``."""
        return ValueSlice(self.name, self.dtype.str, int(start), int(stop - start))

    def close(self) -> None:
        """Forget the buffer; unlink its segment, if any (idempotent)."""
        _buffers.pop(self.name, None)
        self.array = None
        segment, self._segment = self._segment, None
        if segment is not None:
            segment.unlink()
            _unclosed.append(segment)
        _close_unpinned()

    def __enter__(self) -> "ShardValues":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


__all__ = [
    "DEFAULT_SHARD_BLOCK",
    "SHARD_POOL_LABEL",
    "SHM_DIR",
    "ShardPlan",
    "ShardSlice",
    "ShardValues",
    "ValueSlice",
    "build_shard_plan",
    "run_shard_tasks",
]
