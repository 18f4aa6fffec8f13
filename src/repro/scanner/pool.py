"""Fork-based worker processes for one parallel scan plan.

A parallel scan plan — one :meth:`~repro.scanner.executor.
ShardedScanExecutor.execute` scan, or one streaming window — forks its
own workers when its messages are first requested and reaps them when
it ends or is abandoned.  The fork therefore happens after every world
event that precedes the plan, so the children probe exactly the world
the serial path would.

* **Fork inheritance.**  Workers inherit the runner object at fork time
  — the ``fork`` start method makes the parent's address space visible
  copy-on-write, so nothing is ever pickled to a worker.  Worker ``w``
  of ``W`` runs shards ``w, w + W, ...`` in order, which is all it needs
  to know.
* **Streaming compact batches.**  Workers chunk each shard's
  observations into bounded batches, pack every batch with
  :mod:`repro.scanner.wire`, and send the blobs down their own pipe
  while the shard is still running.  The parent reads every pipe as
  data arrives and yields messages strictly in shard-index order
  (buffering out-of-order shards), which keeps the merge — and
  therefore the observation stream — byte-identical to the serial path.

Per-shard message sequence: zero or more :data:`MSG_BATCH` blobs
followed by exactly one :data:`MSG_METRICS` carrying the shard's
:class:`~repro.scanner.metrics.ShardMetrics` (its ``ipc_bytes`` field
counts the encoded batch bytes that crossed the pipe).  Worker
exceptions travel as :data:`MSG_ERROR` messages and re-raise in the
parent as :class:`WorkerPoolError`.  A worker that dies before it has
finished its shards (SIGKILL, ``os._exit``) closes its pipe; the parent
reads end-of-file and raises :class:`WorkerPoolError` naming the
unfinished shard and the worker's exit code instead of waiting forever.
Each worker first closes the parent-side pipe ends it inherited at fork,
so once the parent is gone its next send fails and it exits.

The pool is agnostic to *how* a shard probes: the runner executes the
staged batch pipeline and cuts its observations into the same batch
boundaries as the serial path, so the message stream — and the
``ipc_bytes`` accounting — is byte-identical at every worker count.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing.connection import Connection, wait
from typing import TYPE_CHECKING, Iterator, NamedTuple, Protocol

from repro.scanner.metrics import ShardMetrics
from repro.scanner.wire import encode_observations

if TYPE_CHECKING:
    from multiprocessing.process import BaseProcess

    from repro.scanner.records import ScanObservation

#: Message kinds on a worker→parent pipe.
MSG_BATCH = 0
MSG_METRICS = 1
MSG_ERROR = 2

#: Seconds to wait for a worker whose pipe closed to report its exit code.
_EXIT_WAIT = 5.0


class ShardRunner(Protocol):
    """Worker-side strategy: runs one shard of the plan it was built for."""

    def run_shard(
        self, shard_index: int, batch_size: int
    ) -> "tuple[Iterator[list[ScanObservation]], ShardMetrics]":
        """Execute one shard as a lazy batch stream.

        The metrics object is filled in while the iterator is consumed
        and must be complete once it is exhausted.
        """
        ...


class WorkerPoolError(RuntimeError):
    """A shard failed inside a worker process, or its worker died."""


def _worker_main(
    runner: ShardRunner,
    conn: Connection,
    shards: range,
    batch_size: int,
    inherited: "list[Connection]",
) -> None:
    """Worker body: run ``shards`` in order, streaming each to ``conn``.

    ``inherited`` holds the parent's read ends this fork copied: its own
    pipe's and every earlier worker's.  They are closed first: while any
    copy of a pipe's read end stays open, a send never sees a broken
    pipe, so a worker whose parent was killed would block forever once
    its pipe filled.
    """
    for end in inherited:
        end.close()
    try:
        for shard_index in shards:
            batches, metrics = runner.run_shard(shard_index, batch_size)
            for batch in batches:
                blob = encode_observations(batch)
                metrics.ipc_bytes += len(blob)
                conn.send((shard_index, MSG_BATCH, blob))
            conn.send((shard_index, MSG_METRICS, metrics))
    except Exception as exc:  # surfaced parent-side as WorkerPoolError
        conn.send((shard_index, MSG_ERROR, f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


class _Worker(NamedTuple):
    process: "BaseProcess"
    #: Parent's read end of the worker's pipe.
    reader: Connection
    shards: range


class WorkerPool:
    """Forked workers that run every shard of one plan.

    Construction only records the runner.  :meth:`run_scan` forks the
    workers, and they capture the runner — with the rest of the parent's
    address space — as it stands at that moment; parent-side mutations
    after the fork are invisible to them.  The pool serves one run:
    when it ends, fails or is abandoned, the workers are reaped and the
    pool is closed.
    """

    def __init__(self, *, workers: int, runner: ShardRunner) -> None:
        if workers < 2:
            raise ValueError(f"WorkerPool needs >= 2 workers, got {workers}")
        self.workers = workers
        self._runner = runner
        self._workers: "list[_Worker]" = []
        self._closed = False

    def run_scan(
        self, *, num_shards: int, batch_size: int
    ) -> "Iterator[tuple[int, int, object]]":
        """Fork the workers, run every shard; yield messages in shard order.

        Yields ``(shard_index, kind, payload)`` with each shard's batches
        (wire blobs) immediately followed by its metrics, shard 0 first —
        the same deterministic merge order as the serial path.  Batches
        of the head shard are yielded as soon as they arrive, so the
        parent decodes while workers keep probing.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        try:
            self._fork(num_shards, batch_size)
            yield from self._merge(num_shards)
        finally:
            self.close()

    def _fork(self, num_shards: int, batch_size: int) -> None:
        context = multiprocessing.get_context("fork")
        workers = min(self.workers, num_shards)
        for worker_index in range(workers):
            shards = range(worker_index, num_shards, workers)
            reader, writer = context.Pipe(duplex=False)
            try:
                # Forked, so the child inherits these arguments as they
                # are; nothing is pickled.
                process = context.Process(
                    target=_worker_main,
                    args=(
                        self._runner, writer, shards, batch_size,
                        [reader, *(worker.reader for worker in self._workers)],
                    ),
                    daemon=True,
                )
                process.start()
            except BaseException:
                reader.close()
                raise
            finally:
                # The child holds its own copy of the write end; the
                # parent's must go, or a dead child never reads as
                # end-of-file (and later children would inherit it).
                writer.close()
            self._workers.append(_Worker(process, reader, shards))

    def _merge(self, num_shards: int) -> "Iterator[tuple[int, int, object]]":
        readers = {worker.reader: worker for worker in self._workers}
        # Messages not yet yielded, per shard, and the shards whose
        # metrics (their last message) have arrived.
        pending: "dict[int, list[tuple[int, object]]]" = {}
        finished: "set[int]" = set()
        head = 0
        while head < num_shards:
            for reader in wait(list(readers)):
                assert isinstance(reader, Connection)
                try:
                    shard_index, kind, payload = reader.recv()
                except EOFError:
                    self._check_exit(readers.pop(reader), finished)
                    continue
                if kind == MSG_ERROR:
                    raise WorkerPoolError(f"shard {shard_index} failed: {payload}")
                pending.setdefault(shard_index, []).append((kind, payload))
                if kind == MSG_METRICS:
                    finished.add(shard_index)
            while head < num_shards:
                for kind, payload in pending.pop(head, ()):
                    yield head, kind, payload
                if head not in finished:
                    break
                head += 1

    @staticmethod
    def _check_exit(worker: _Worker, finished: "set[int]") -> None:
        """Raise if a worker whose pipe closed left a shard unfinished."""
        for shard_index in worker.shards:
            if shard_index not in finished:
                worker.process.join(_EXIT_WAIT)
                raise WorkerPoolError(
                    f"worker for shard {shard_index} exited with code "
                    f"{worker.process.exitcode} before finishing it"
                )

    def close(self) -> None:
        """Stop and reap the workers; the pool cannot be reused afterwards."""
        self._closed = True
        workers, self._workers = self._workers, []
        for worker in workers:
            worker.process.terminate()
        for worker in workers:
            worker.process.join()
            worker.process.close()
            worker.reader.close()

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
