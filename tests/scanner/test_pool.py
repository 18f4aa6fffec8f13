"""Tests for the fork-based worker pool of one scan plan."""

import ipaddress
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.scanner.metrics import ShardMetrics
from repro.scanner.pool import (
    MSG_BATCH,
    MSG_METRICS,
    WorkerPool,
    WorkerPoolError,
)
from repro.scanner.records import ScanObservation
from repro.scanner.wire import decode_observations
from repro.snmp.engine_id import EngineId

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


def _obs(scan_key, shard_index, row):
    return ScanObservation(
        address=ipaddress.ip_address(
            (hash(scan_key) & 0xFF) << 16 | shard_index << 8 | row
        ),
        recv_time=float(row),
        engine_id=EngineId(b"\x80\x00\x00\x09\x05" + bytes([shard_index, row])),
        engine_boots=shard_index,
        engine_time=row,
        response_count=1,
        wire_bytes=40,
    )


class _SyntheticRunner:
    """Deterministic fake shard runner (captured by workers at fork)."""

    def __init__(self, shard_sizes, fail_shard=None, scan_key="s"):
        self.shard_sizes = shard_sizes
        self.fail_shard = fail_shard
        self.scan_key = scan_key

    def run_shard(self, shard_index, batch_size):
        if shard_index == self.fail_shard:
            raise RuntimeError(f"shard {shard_index} exploded")
        size = self.shard_sizes[shard_index]
        metrics = ShardMetrics(shard_index=shard_index, targets=size)

        def batches():
            batch = []
            for row in range(size):
                batch.append(_obs(self.scan_key, shard_index, row))
                if len(batch) >= batch_size:
                    yield batch
                    batch = []
            if batch:
                yield batch
            metrics.observations = size

        return batches(), metrics


def _drain(pool, num_shards, batch_size):
    observations, metrics = [], []
    for shard_index, kind, payload in pool.run_scan(
        num_shards=num_shards, batch_size=batch_size
    ):
        if kind == MSG_METRICS:
            metrics.append(payload)
        else:
            assert kind == MSG_BATCH
            observations.extend(decode_observations(payload))
    return observations, metrics


def _expected(scan_key, shard_sizes):
    return [
        _obs(scan_key, shard_index, row)
        for shard_index, size in enumerate(shard_sizes)
        for row in range(size)
    ]


class TestWorkerPool:
    def test_messages_arrive_in_shard_order(self):
        sizes = [5, 0, 13, 1, 7, 3]
        runner = _SyntheticRunner(sizes, scan_key="s1")
        with WorkerPool(workers=3, runner=runner) as pool:
            observations, metrics = _drain(pool, len(sizes), 4)
        assert observations == _expected("s1", sizes)
        assert [m.shard_index for m in metrics] == list(range(len(sizes)))
        assert [m.observations for m in metrics] == sizes

    def test_ipc_bytes_counted(self):
        sizes = [8]
        blobs = []
        with WorkerPool(workers=2, runner=_SyntheticRunner(sizes)) as pool:
            for __, kind, payload in pool.run_scan(num_shards=1, batch_size=3):
                if kind == MSG_BATCH:
                    blobs.append(payload)
                else:
                    metrics = payload
        assert blobs
        assert metrics.ipc_bytes == sum(len(blob) for blob in blobs)

    def test_worker_exception_raises_pool_error(self):
        runner = _SyntheticRunner([3, 3, 3], fail_shard=1)
        with WorkerPool(workers=2, runner=runner) as pool:
            with pytest.raises(WorkerPoolError, match="shard 1.*exploded"):
                _drain(pool, 3, 2)
        with pytest.raises(RuntimeError, match="closed"):
            next(pool.run_scan(num_shards=1, batch_size=1))

    def test_one_pool_serves_one_run(self):
        sizes = [2, 2]
        with WorkerPool(workers=2, runner=_SyntheticRunner(sizes)) as pool:
            observations, __ = _drain(pool, len(sizes), 2)
            with pytest.raises(RuntimeError, match="closed"):
                _drain(pool, len(sizes), 2)
        assert observations == _expected("s", sizes)

    def test_more_workers_than_shards(self):
        sizes = [3, 1]
        with WorkerPool(workers=4, runner=_SyntheticRunner(sizes)) as pool:
            observations, metrics = _drain(pool, len(sizes), 2)
        assert observations == _expected("s", sizes)
        assert [m.shard_index for m in metrics] == [0, 1]

    def test_abandoned_run_leaves_no_worker(self):
        before = set(multiprocessing.active_children())
        sizes = [50, 50, 50, 50]
        pool = WorkerPool(workers=2, runner=_SyntheticRunner(sizes))
        stream = pool.run_scan(num_shards=len(sizes), batch_size=2)
        next(stream)  # take one message, then walk away
        stream.close()
        assert set(multiprocessing.active_children()) <= before

    def test_batch_boundaries_match_runner(self):
        sizes = [10]
        with WorkerPool(workers=2, runner=_SyntheticRunner(sizes)) as pool:
            lengths = [
                len(decode_observations(payload))
                for __, kind, payload in pool.run_scan(
                    num_shards=1, batch_size=4
                )
                if kind == MSG_BATCH
            ]
        assert lengths == [4, 4, 2]

    def test_rejects_single_worker(self):
        with pytest.raises(ValueError, match=">= 2"):
            WorkerPool(workers=1, runner=_SyntheticRunner([1]))

    def test_close_is_idempotent(self):
        pool = WorkerPool(workers=2, runner=_SyntheticRunner([1]))
        pool.close()
        pool.close()


class _RecordingContext:
    """The fork context, recording every pipe end the pool opens."""

    def __init__(self, fail_process=None):
        self._real = multiprocessing.get_context("fork")
        self._fail_process = fail_process
        self._processes = 0
        self.connections = []

    def Pipe(self, duplex):
        ends = self._real.Pipe(duplex)
        self.connections.extend(ends)
        return ends

    def Process(self, **kwargs):
        if self._processes == self._fail_process:
            raise OSError("fork failed")
        self._processes += 1
        return self._real.Process(**kwargs)


class TestResourceLifecycle:
    """The leaks RES001 caught: every exit path releases the IPC pipes."""

    @staticmethod
    def _record(monkeypatch, **kwargs):
        context = _RecordingContext(**kwargs)
        monkeypatch.setattr(
            "repro.scanner.pool.multiprocessing.get_context",
            lambda method: context,
        )
        return context

    def test_close_also_closes_the_ipc_queue(self, monkeypatch):
        context = self._record(monkeypatch)
        pool = WorkerPool(workers=2, runner=_SyntheticRunner([50, 50]))
        next(pool.run_scan(num_shards=2, batch_size=2))
        pool.close()
        assert len(context.connections) == 4
        assert all(end.closed for end in context.connections)

    def test_worker_error_shutdown_closes_the_queue(self, monkeypatch):
        context = self._record(monkeypatch)
        runner = _SyntheticRunner([3, 3], fail_shard=0)
        pool = WorkerPool(workers=2, runner=runner)
        with pytest.raises(WorkerPoolError):
            _drain(pool, 2, 2)
        assert len(context.connections) == 4
        assert all(end.closed for end in context.connections)

    def test_fork_failure_closes_the_queue(self, monkeypatch):
        """The second fork fails: the first worker is reaped, and both
        pipes are closed."""
        before = set(multiprocessing.active_children())
        context = self._record(monkeypatch, fail_process=1)
        pool = WorkerPool(workers=2, runner=_SyntheticRunner([1, 1]))
        with pytest.raises(OSError, match="fork failed"):
            _drain(pool, 2, 1)
        assert len(context.connections) == 4
        assert all(end.closed for end in context.connections)
        assert set(multiprocessing.active_children()) <= before


#: A parent whose worker SIGKILLs itself on shard 1 of 3: ``run_scan``
#: must raise rather than wait for shard 1 forever.
_KILLED_WORKER_SCRIPT = textwrap.dedent(
    """
    import os
    import signal

    from repro.scanner.metrics import ShardMetrics
    from repro.scanner.pool import WorkerPool, WorkerPoolError


    class Runner:
        def run_shard(self, shard_index, batch_size):
            if shard_index == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return iter(()), ShardMetrics(shard_index=shard_index, targets=0)


    with WorkerPool(workers=2, runner=Runner()) as pool:
        try:
            list(pool.run_scan(num_shards=3, batch_size=1))
        except WorkerPoolError as exc:
            print(exc)
    """
)


class TestWorkerDeath:
    def test_killed_worker_raises_instead_of_hanging(self):
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        # A session of its own, so that a hang is cleaned up by killing
        # the whole process group, forked workers included.
        child = subprocess.Popen(
            [sys.executable, "-c", _KILLED_WORKER_SCRIPT],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            out, err = child.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("run_scan hung after a worker was SIGKILLed")
        assert child.returncode == 0, err
        assert out.strip() == (
            "worker for shard 1 exited with code -9 before finishing it"
        )


#: A parent that runs a 2-worker scan over endless shards, prints its
#: workers' pids after the first message, then waits to be killed.
_ENDLESS_SCAN_SCRIPT = textwrap.dedent(
    """
    import ipaddress
    import multiprocessing
    import time

    from repro.scanner.metrics import ShardMetrics
    from repro.scanner.pool import WorkerPool
    from repro.scanner.records import ScanObservation
    from repro.snmp.engine_id import EngineId

    OBSERVATION = ScanObservation(
        address=ipaddress.ip_address("192.0.2.1"),
        recv_time=1.0,
        engine_id=EngineId(bytes.fromhex("80000009050102")),
        engine_boots=1,
        engine_time=1,
        response_count=1,
        wire_bytes=40,
    )


    class Endless:
        def run_shard(self, shard_index, batch_size):
            def batches():
                while True:
                    yield [OBSERVATION] * batch_size

            return batches(), ShardMetrics(shard_index=shard_index, targets=0)


    stream = WorkerPool(workers=2, runner=Endless()).run_scan(
        num_shards=2, batch_size=64
    )
    next(stream)
    print(*(child.pid for child in multiprocessing.active_children()),
          flush=True)
    time.sleep(120)
    """
)


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is neither a zombie nor dead."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs Linux /proc"
)
class TestOrphanedWorkers:
    def test_workers_exit_when_their_parent_is_killed(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        with open(tmp_path / "stderr", "w") as stderr:
            # A session of its own, so that whatever outlives the test is
            # killed with the whole process group.
            child = subprocess.Popen(
                [sys.executable, "-c", _ENDLESS_SCAN_SCRIPT],
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
                env=env,
                start_new_session=True,
            )
        try:
            ready, __, __ = select.select([child.stdout], [], [], 30)
            assert ready, "the scan never produced its first message"
            workers = [int(pid) for pid in child.stdout.readline().split()]
            assert len(workers) == 2, (tmp_path / "stderr").read_text()
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline and any(map(_running, workers)):
                time.sleep(0.1)
            assert not [pid for pid in workers if _running(pid)], (
                "workers outlived their SIGKILLed parent"
            )
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait(timeout=30)
            child.stdout.close()
