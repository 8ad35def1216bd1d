"""Persistent fork-based worker pool for the sharded scan executor.

The old parallel path forked a fresh ``multiprocessing.Pool`` for every
scan and shipped each shard's result back as one giant pickled list —
all observations materialized worker-side before the first byte crossed
the pipe.  This module replaces both halves:

* **One fork per campaign.**  A :class:`WorkerPool` is created once (by
  the campaign, or per scan for standalone executors) and runs shard
  tasks for any number of scans.  Workers inherit the runner object at
  fork time via module globals — the ``fork`` start method makes the
  parent's address space visible copy-on-write, so nothing large is ever
  pickled through the task pipe; a task is a ``(scan key, shard index,
  batch size)`` triple.
* **Streaming compact batches.**  Workers chunk each shard's
  observations into bounded batches, pack every batch with
  :mod:`repro.scanner.wire`, and push the blobs onto a shared queue
  while the shard is still running downstream shards.  The parent yields
  messages strictly in shard-index order (buffering out-of-order
  shards), which keeps the merge — and therefore the observation stream
  — byte-identical to the serial path.

Per-shard message sequence: zero or more :data:`MSG_BATCH` blobs
followed by exactly one :data:`MSG_METRICS` carrying the shard's
:class:`~repro.scanner.metrics.ShardMetrics` (its ``ipc_bytes`` field
counts the encoded batch bytes that crossed the pipe).  Worker
exceptions travel as :data:`MSG_ERROR` messages and re-raise in the
parent as :class:`WorkerPoolError`.

The pool is agnostic to *how* a shard probes: the runner executes the
staged batch pipeline, whose batch boundaries are per-shard chunks of
``batch_size`` on the serial and pooled paths alike, so the message
stream — and the ``ipc_bytes`` accounting — does not depend on where a
shard ran.
"""

from __future__ import annotations

import multiprocessing
from typing import TYPE_CHECKING, Iterator, Protocol

from repro.scanner.metrics import ShardMetrics
from repro.scanner.wire import encode_observations

if TYPE_CHECKING:
    from repro.scanner.records import ScanObservation

#: Message kinds on the worker→parent queue.
MSG_BATCH = 0
MSG_METRICS = 1
MSG_ERROR = 2

#: One queue message: (scan sequence, shard index, kind, payload).
PoolMessage = tuple[int, int, int, object]


class ShardRunner(Protocol):
    """Worker-side strategy: maps a task to one executed shard."""

    def run_shard(
        self, scan_key: str, shard_index: int, batch_size: int
    ) -> "tuple[Iterator[list[ScanObservation]], ShardMetrics]":
        """Execute one shard of the named scan as a lazy batch stream.

        The metrics object is filled in while the iterator is consumed
        and must be complete once it is exhausted.
        """
        ...


class WorkerPoolError(RuntimeError):
    """A shard task failed inside a worker process."""


# Fork-inheritance plumbing: published immediately before the pool forks,
# cleared immediately after.  Children capture the values at fork time;
# later parent-side reassignment is invisible to them, which is exactly
# the point — the runner must replay per-scan state itself.
_WORKER_RUNNER: "ShardRunner | None" = None
_WORKER_QUEUE: "multiprocessing.queues.SimpleQueue[PoolMessage] | None" = None


def _worker_run_shard(task: "tuple[int, str, int, int]") -> None:
    """Pool task body: run one shard, stream its batches, then metrics."""
    scan_seq, scan_key, shard_index, batch_size = task
    runner, queue = _WORKER_RUNNER, _WORKER_QUEUE
    assert runner is not None and queue is not None
    try:
        batches, metrics = runner.run_shard(scan_key, shard_index, batch_size)
        for batch in batches:
            blob = encode_observations(batch)
            metrics.ipc_bytes += len(blob)
            queue.put((scan_seq, shard_index, MSG_BATCH, blob))
        queue.put((scan_seq, shard_index, MSG_METRICS, metrics))
    except BaseException as exc:  # surfaced parent-side as WorkerPoolError
        queue.put(
            (scan_seq, shard_index, MSG_ERROR, f"{type(exc).__name__}: {exc}")
        )


class WorkerPool:
    """A pool of forked workers that outlives individual scans.

    Construction forks the workers immediately — callers must publish a
    *pristine* runner: per-scan state is reconstructed worker-side by the
    runner (deterministic schedule replay), never re-pushed from the
    parent, because post-fork parent mutations are invisible to children.
    """

    def __init__(self, *, workers: int, runner: ShardRunner) -> None:
        global _WORKER_RUNNER, _WORKER_QUEUE
        if workers < 2:
            raise ValueError(f"WorkerPool needs >= 2 workers, got {workers}")
        context = multiprocessing.get_context("fork")
        self.workers = workers
        self._queue: "multiprocessing.queues.SimpleQueue[PoolMessage]" = (
            context.SimpleQueue()
        )
        self._scan_seq = 0
        self._closed = False
        _WORKER_RUNNER = runner
        _WORKER_QUEUE = self._queue
        try:
            self._pool = context.Pool(processes=workers)
        except BaseException:
            # Forking can fail (resource limits); without an object to
            # close, the queue's pipe descriptors would leak.
            self._queue.close()
            raise
        finally:
            _WORKER_RUNNER = None
            _WORKER_QUEUE = None

    def run_scan(
        self, scan_key: str, *, num_shards: int, batch_size: int
    ) -> "Iterator[tuple[int, int, object]]":
        """Run every shard of one scan; yield messages in shard order.

        Yields ``(shard_index, kind, payload)`` with each shard's batches
        (wire blobs) immediately followed by its metrics, shard 0 first —
        the same deterministic merge order as the serial path.  Batches
        of the head shard are yielded as soon as they arrive, so the
        parent decodes while workers keep probing.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        self._scan_seq += 1
        seq = self._scan_seq
        tasks = [(seq, scan_key, index, batch_size) for index in range(num_shards)]
        result = self._pool.map_async(_worker_run_shard, tasks, chunksize=1)
        # Out-of-order shards park their (kind, payload) messages here
        # until every lower-indexed shard has drained.
        buffered: "dict[int, list[tuple[int, object]]]" = {}
        finished: "set[int]" = set()
        head = 0
        while head < num_shards:
            msg_seq, shard_index, kind, payload = self._queue.get()
            if msg_seq != seq:
                continue  # abandoned predecessor scan draining out
            if kind == MSG_ERROR:
                self.close()
                raise WorkerPoolError(
                    f"shard {shard_index} of scan {scan_key!r} failed: {payload}"
                )
            if shard_index != head:
                buffered.setdefault(shard_index, []).append((kind, payload))
                if kind == MSG_METRICS:
                    finished.add(shard_index)
                continue
            yield shard_index, kind, payload
            if kind != MSG_METRICS:
                continue
            head += 1
            while head < num_shards:
                for pending_kind, pending in buffered.pop(head, []):
                    yield head, pending_kind, pending
                if head not in finished:
                    break
                head += 1
        result.get()

    @property
    def closed(self) -> bool:
        """Whether the pool has shut down (explicitly or after an error)."""
        return self._closed

    def close(self) -> None:
        """Shut the workers down; the pool cannot be reused afterwards."""
        if not self._closed:
            self._closed = True
            try:
                self._pool.terminate()
                self._pool.join()
            finally:
                # The IPC queue holds two pipe descriptors of its own;
                # terminating the workers does not release the parent
                # ends.
                self._queue.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "MSG_BATCH",
    "MSG_ERROR",
    "MSG_METRICS",
    "ShardRunner",
    "WorkerPool",
    "WorkerPoolError",
]
