"""Sharded, streaming scan execution — the engine behind every scan.

Every campaign, targeted re-probe and follow-up scan runs through this
module.  Like the paper's scanner (§3.2–3.3) it sends one probe per
target unless a :class:`RetryPolicy` asks for more, in a seeded shuffle
of the targets, at a fixed rate in virtual time.  On top of that it
provides:

* **Sharding** — the permuted target list is partitioned into a fixed
  number of shards, grouped by *owning device* so that all probes that
  can touch one agent's session state (usmStats counters, load-balancer
  round-robin cursors) land in the same shard;
* **Determinism** — every shard gets its own loss/jitter RNG seeded from
  ``(campaign seed, scan label, shard index)`` via a fabric
  :class:`~repro.net.transport.FabricView`, and agent session state is
  snapshotted before and restored after each shard.  Results are
  therefore byte-identical whether shards run inline, on one worker, or
  on eight;
* **Parallelism** — shards run on a ``fork``-based process pool
  (``workers > 1``) with a serial inline fallback; per-shard results are
  merged in shard order, which keeps the merge deterministic too;
* **Streaming** — observations are yielded in bounded batches so the
  campaign, the filter pipeline and the JSONL exporters never hold a
  full Internet-scale scan in memory.

Every shard runs the staged batch pipeline of
:mod:`repro.scanner.pipeline`; there is no other probe loop.  Its
whole-scan output is frozen as golden digests
(``tests/scanner/test_pipeline_identity.py``), and each batched stage
has a unit-level reference in the per-probe code it stands in for
(``tests/net/test_probe_batch.py``, ``tests/snmp/test_probe_template.py``).
"""

from __future__ import annotations

import hashlib
import ipaddress
import multiprocessing
import time
import zlib
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping

from repro.net.addresses import IPAddress
from repro.net.transport import NetworkFabric
from repro.scanner.metrics import ExecutorMetrics, ShardMetrics
from repro.scanner.pipeline import probe_targets_pipelined
from repro.scanner.pool import MSG_METRICS, WorkerPool
from repro.scanner.records import ScanObservation, ScanResult
from repro.scanner.wire import decode_observations

if TYPE_CHECKING:
    from repro.net.faults import FaultProfile
    from repro.topology.model import Device

#: Default shard count.  Fixed independently of the worker count: the
#: shard plan (and with it every RNG stream) must not change when the
#: same campaign is re-run with more workers.
DEFAULT_NUM_SHARDS = 16

#: Default streaming batch size (observations per yielded batch).
DEFAULT_BATCH_SIZE = 2048

#: Default in-flight window of the staged batch pipeline (probes encoded,
#: injected and decoded per stage pass).  Large enough to amortize
#: per-stage dispatch, small enough that streaming consumers see output
#: well before a shard finishes.
DEFAULT_WINDOW = 512

#: Probe rate of a scan that names none (§3.2: 5 kpps for IPv4).
DEFAULT_RATE_PPS = 5000.0

#: Source addresses of the paper's probers: one well-connected server per
#: address family, probing from one fixed UDP port.
SOURCE_V4 = ipaddress.ip_address("203.0.113.77")
SOURCE_V6 = ipaddress.ip_address("2001:db8:5ca0::77")
SOURCE_PORT = 39321

#: Root of every scan's target shuffle, mixed with the scan label.
SHUFFLE_SEED = 0xC0FFEE

#: Default targets per planning window when streaming
#: (``execute_stream``).  Large enough that per-window shard-plan
#: and pool-setup costs amortize, small enough that a lazy topology's
#: resident device set stays a tiny fraction of the world.
DEFAULT_TARGET_WINDOW = 65536


@dataclass(frozen=True)
class RetryPolicy:
    """Per-probe fault tolerance of the scan hot loop.

    ``max_retries`` bounds how many *additional* probes a target gets
    when the first one yields no parseable reply.  ``timeout`` (virtual
    seconds) discards replies arriving later than ``send + timeout`` —
    ``None`` disables the deadline entirely, which is the legacy
    behaviour.  Retries are spaced ``timeout + backoff_base *
    backoff_factor**attempt`` apart in virtual time (exponential
    backoff, so rate-limited targets see widening gaps).

    ``breaker_threshold`` is the dead-target circuit breaker: after that
    many *consecutive* unanswered probes to one device, later probes to
    the same device keep their single initial packet (the ethical
    one-probe contract) but stop being retried.  ``0`` disables it.

    Everything here is deterministic: retry schedules are pure functions
    of the shard's own probe outcomes, so any worker count produces
    byte-identical results.
    """

    max_retries: int = 0
    timeout: "float | None" = None
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    breaker_threshold: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.breaker_threshold < 0:
            raise ValueError(
                f"breaker_threshold must be >= 0, got {self.breaker_threshold}"
            )
        if self.max_retries and self.timeout is None:
            raise ValueError("retries require a timeout to schedule around")

    def retry_send_time(self, send_time: float, attempt: int) -> float:
        """Virtual send slot of retry number ``attempt`` (1-based)."""
        return send_time + self.timeout + self.backoff_base * (
            self.backoff_factor ** (attempt - 1)
        )


@dataclass(frozen=True)
class ExecutionOptions:
    """The one execution-knob bundle, from the facade to the executor.

    Every way to shape *how* a campaign executes — worker processes,
    shard/batch/window geometry, retries, stage profiling, fault
    injection and link loss — without touching *what* it measures.
    :class:`~repro.api.Session`, ``run_campaign``,
    :class:`~repro.scanner.campaign.ScanCampaign`,
    :class:`ShardedScanExecutor` and the CLI (whose flag defaults are
    these fields') take this object, never flat keywords (API002).

    ``workers`` counts OS processes: ``0``/``1`` runs all shards inline
    (the serial fallback, also used where ``fork`` is unavailable).  The
    default ``retry`` policy sends exactly one probe per target, as the
    paper's scanner does.  ``workers``, ``window`` and ``batch_size``
    shape execution only: the golden rows of
    ``tests/scanner/test_pipeline_identity.py`` that vary them must
    reproduce the chaos row's digest.  ``num_shards`` and
    ``target_window`` are part of the deterministic result geometry.
    """

    workers: int = 1
    num_shards: int = DEFAULT_NUM_SHARDS
    batch_size: int = DEFAULT_BATCH_SIZE
    #: In-flight probes per pipeline stage pass.
    window: int = DEFAULT_WINDOW
    retry: RetryPolicy = RetryPolicy()
    #: Collect per-stage timings (encode / fabric / agent / decode) into
    #: the shard metrics.  Off by default: the timers cost real time in
    #: the probe hot loop.  Never affects scan *results*.
    profile: bool = False
    fault_profile: "FaultProfile | str | None" = None
    #: Per-link probe/reply loss of the campaign fabric.
    loss_probability: float = 0.02
    #: Targets per planning window on the streaming path
    #: (:meth:`ShardedScanExecutor.execute_stream`, which lazy-world
    #: campaigns use); never affects ``execute()``.
    target_window: int = DEFAULT_TARGET_WINDOW

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.target_window < 1:
            raise ValueError(
                f"target_window must be >= 1, got {self.target_window}"
            )


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a scan: permuted targets plus its RNG seed.

    ``items`` are ``(global_index, target)`` pairs — the global index
    preserves each probe's msg_id and virtual send slot from the full
    permutation, so shard composition never changes wire contents.
    ``device_ids`` are the owners whose agent state the shard snapshots.
    """

    index: int
    seed: int
    items: tuple[tuple[int, IPAddress], ...]
    device_ids: tuple[int, ...]


def shard_seed(base_seed: int, label: str, shard_index: int) -> int:
    """Stable 64-bit per-shard RNG seed from the campaign determinism root."""
    digest = hashlib.sha256(f"{base_seed}:{label}:{shard_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


#: Memoized shuffle orders.  The planning permutation is a pure function
#: of ``(shuffle seed ^ label digest, target count)`` and the same key
#: recurs constantly — every scan of a repeated campaign, every rep of a
#: benchmark, every worker count of an identity gate — so the O(n)
#: Python-level Fisher-Yates runs once per key, not once per plan.  The
#: cached order is read-only by construction (planning only iterates it).
_PERMUTATION_CACHE: "dict[tuple[int, int], array]" = {}
_PERMUTATION_CACHE_MAX = 16


def _permutation(key: int, count: int) -> "array":
    """Memoized Fisher-Yates order for one ``(shuffle key, length)``.

    Streaming campaigns re-plan the same window geometry for every
    window of every scan, so the shuffle — a pure function of the key
    and length — is cached.  Entries are stored as C ``array``s rather
    than int lists: a 65536-slot permutation costs 512 KB instead of
    ~2.5 MB of boxed integers, keeping the memo invisible next to the
    residency window.
    """
    import random

    cache_key = (key, count)
    order = _PERMUTATION_CACHE.get(cache_key)
    if order is None:
        shuffled = list(range(count))
        random.Random(key).shuffle(shuffled)
        order = array("l", shuffled)
        # A memo of pure functions: every process derives identical
        # entries from (key, count), so fork-pool sharing cannot skew
        # results.
        if len(_PERMUTATION_CACHE) >= _PERMUTATION_CACHE_MAX:
            del _PERMUTATION_CACHE[next(iter(_PERMUTATION_CACHE))]  # repro-lint: disable=DET002
        _PERMUTATION_CACHE[cache_key] = order  # repro-lint: disable=DET002
    return order


def plan_shards(
    targets: "list[IPAddress]",
    *,
    label: str,
    num_shards: int,
    seed: int,
    shuffle_seed: int,
    owner_of: "Callable[[IPAddress], int | None]",
    base_index: int = 0,
    owners: "list[int | None] | None" = None,
) -> list[ShardSpec]:
    """Partition a target list into deterministic shards.

    Targets are permuted exactly like :class:`ZmapScanner` (so probe
    ``msg_id``/send-time assignment is comparable), then routed to
    ``owner_device_id % num_shards``.  Addresses with no owning device
    (closed or unassigned — they can never answer or consume RNG) are
    spread by address hash.

    ``base_index`` offsets the global probe indices: the streaming path
    plans one window at a time but every probe must keep the msg_id and
    virtual send slot it would have had in a single whole-scan plan.

    ``owners`` optionally carries the pre-resolved owner of each target,
    aligned with ``targets`` in *input* order — callers with a batch
    ownership view (array arithmetic over a stream plan, a C-speed dict
    sweep) resolve whole windows at once instead of paying a Python call
    per target.  Ownership is a pure function during planning, so the
    plan is byte-identical either way.
    """
    count = len(targets)
    # Permute positions, not targets: Fisher-Yates depends only on the
    # sequence length and seed, so shuffling the index array yields the
    # exact historical permutation while ownership resolves in input
    # order (sorted address order — the cache-friendly order).
    order = _permutation(shuffle_seed ^ zlib.crc32(label.encode()), count)
    if owners is None:
        # Bound-method fast path: for dict-backed ownership this sweep
        # runs entirely at C speed.
        owners = list(map(owner_of, targets))
    elif len(owners) != count:
        raise ValueError(
            f"owners carries {len(owners)} entries for {count} targets"
        )
    buckets: list[list[tuple[int, IPAddress]]] = [[] for __ in range(num_shards)]
    appends = [bucket.append for bucket in buckets]
    # Shard membership of *devices* is permutation-independent, so the
    # per-shard owner sets come from one C-speed dedup over the owners
    # column instead of a set-add per target in the hot loop below.
    owner_sets: list[set[int]] = [set() for __ in range(num_shards)]
    for device_id in set(owners):
        if device_id is not None:
            owner_sets[device_id % num_shards].add(device_id)
    permuted = zip(
        map(targets.__getitem__, order), map(owners.__getitem__, order)
    )
    for position, pair in enumerate(permuted, start=base_index):
        target, device_id = pair
        if device_id is None:
            shard = int(target) % num_shards
        else:
            shard = device_id % num_shards
        appends[shard]((position, target))
    return [
        ShardSpec(
            index=i,
            seed=shard_seed(seed, label, i),
            items=tuple(buckets[i]),
            device_ids=tuple(sorted(owner_sets[i])),
        )
        for i in range(num_shards)
    ]


# -- agent session-state isolation ------------------------------------------


def _snapshot_device(device: "Device") -> tuple:
    """Capture the mutable SNMP session state probes can perturb."""
    agent = device.agent
    pool = device.agent_pool
    # Pool-less devices are the overwhelmingly common case and this runs
    # once per device per shard, so build their snapshot without the
    # list/generator machinery.
    if pool is None:
        return (
            None,
            (
                (
                    agent.boot_time,
                    agent.engine_boots,
                    agent.stats_unknown_engine_ids,
                    agent.stats_unknown_user_names,
                    agent.stats_wrong_digests,
                    agent.handled_count,
                ),
            ),
        )
    return (
        pool._rr_counter,
        tuple(
            (
                a.boot_time,
                a.engine_boots,
                a.stats_unknown_engine_ids,
                a.stats_unknown_user_names,
                a.stats_wrong_digests,
                a.handled_count,
            )
            for a in [agent, *pool.backends]
        ),
    )


def _restore_device(device: "Device", snapshot: tuple) -> None:
    rr_counter, agent_states = snapshot
    agents = [device.agent]
    if device.agent_pool is not None:
        device.agent_pool._rr_counter = rr_counter
        agents.extend(device.agent_pool.backends)
    for agent, state in zip(agents, agent_states):
        (
            agent.boot_time,
            agent.engine_boots,
            agent.stats_unknown_engine_ids,
            agent.stats_unknown_user_names,
            agent.stats_wrong_digests,
            agent.handled_count,
        ) = state


# -- per-scan wire parameters -------------------------------------------------


@dataclass(frozen=True)
class _ScanParams:
    """Everything a shard runner needs besides the shard itself."""

    label: str
    ip_version: int
    start_time: float
    interval: float
    source: IPAddress
    source_port: int


def _scan_params(
    label: str, ip_version: int, start_time: float, rate_pps: "float | None"
) -> _ScanParams:
    """One scan's parameters: its family's prober, at ``rate_pps``."""
    return _ScanParams(
        label=label,
        ip_version=ip_version,
        start_time=start_time,
        interval=1.0 / (DEFAULT_RATE_PPS if rate_pps is None else rate_pps),
        source=SOURCE_V4 if ip_version == 4 else SOURCE_V6,
        source_port=SOURCE_PORT,
    )


class ScanExecution:
    """Handle over one sharded scan: a batch stream plus its metrics.

    ``batches()`` (or ``observations()``) may be consumed once; metrics
    finalize when the stream is exhausted.  ``result()`` drains the
    stream into a materialized :class:`ScanResult`.
    """

    def __init__(
        self,
        executor: "ShardedScanExecutor",
        plan: list[ShardSpec],
        params: _ScanParams,
        total_targets: int,
    ) -> None:
        self._executor = executor
        self._plan = plan
        self._params = params
        self._consumed = False
        self.total_targets = total_targets
        self.label = params.label
        self.ip_version = params.ip_version
        self.started_at = params.start_time
        #: Virtual completion time: one send slot per target.
        self.finished_at = params.start_time + total_targets * params.interval
        self.metrics = ExecutorMetrics(
            label=params.label,
            workers=self._executor.effective_workers,
            num_shards=len(plan),
            batch_size=self._executor.options.batch_size,
        )

    def batches(self) -> Iterator[list[ScanObservation]]:
        """Yield observation batches in deterministic shard order."""
        if self._consumed:
            raise RuntimeError("a ScanExecution stream can only be consumed once")
        self._consumed = True
        return self._executor._stream(self._plan, self._params, self.metrics)

    def observations(self) -> Iterator[ScanObservation]:
        """Flattened view over :meth:`batches`."""
        for batch in self.batches():
            yield from batch

    def result(self) -> ScanResult:
        """Drain the stream into a materialized :class:`ScanResult`."""
        return _materialize(self, self.batches())


class StreamingScanExecution:
    """Handle over a windowed scan driven by a target *iterator*.

    The target stream is consumed one planning window at a time: each
    window is shard-planned with its global probe indices preserved
    (``plan_shards(..., base_index=...)``), executed serially or on
    workers forked for that window alone, and its observations yielded
    before the next window's targets are even pulled.  Nothing —
    not the executor, not a lazy topology's device cache — ever holds
    more than one window of state, which is what makes a 10M-address
    campaign constant-memory.

    ``total_targets`` and ``finished_at`` are unknown until the stream
    is exhausted (``None`` before that); :meth:`result` drains first, so
    it always reports both.
    """

    def __init__(
        self,
        executor: "ShardedScanExecutor",
        targets: "Iterable[IPAddress]",
        params: _ScanParams,
    ) -> None:
        self._executor = executor
        self._targets = targets
        self._params = params
        self._consumed = False
        self.label = params.label
        self.ip_version = params.ip_version
        self.started_at = params.start_time
        self.total_targets: "int | None" = None
        self.finished_at: "float | None" = None
        self.metrics = ExecutorMetrics(
            label=params.label,
            workers=executor.effective_workers,
            num_shards=executor.options.num_shards,
            batch_size=executor.options.batch_size,
        )

    def batches(self) -> Iterator[list[ScanObservation]]:
        """Yield observation batches window by window, shard order within."""
        if self._consumed:
            raise RuntimeError(
                "a StreamingScanExecution stream can only be consumed once"
            )
        self._consumed = True
        return self._stream_windows()

    def _stream_windows(self) -> Iterator[list[ScanObservation]]:
        executor = self._executor
        params = self._params
        metrics = self.metrics
        ip_version = params.ip_version
        started = time.perf_counter()
        base_index = 0
        window_index = 0
        target_iter = iter(self._targets)
        try:
            while True:
                chunk = list(islice(target_iter, executor.options.target_window))
                if not chunk:
                    break
                plan_started = time.perf_counter()
                for target in chunk:
                    if target.version != ip_version:
                        raise ValueError(
                            f"target {target} does not match scan family "
                            f"IPv{ip_version}"
                        )
                # Per-window plan label: distinct shard RNG seeds and
                # shuffle permutations per window, like distinct scans.
                plan = plan_shards(
                    chunk,
                    label=f"{params.label}@{window_index}",
                    num_shards=executor.options.num_shards,
                    seed=executor.seed,
                    shuffle_seed=SHUFFLE_SEED,
                    owner_of=executor._owner_of,
                    base_index=base_index,
                    owners=(
                        None
                        if executor._owner_of_batch is None
                        else executor._owner_of_batch(chunk)
                    ),
                )
                metrics.plan_time += time.perf_counter() - plan_started
                yield from executor._stream_plan(plan, params, metrics)
                base_index += len(chunk)
                window_index += 1
            self.total_targets = base_index
            self.finished_at = params.start_time + base_index * params.interval
        finally:
            metrics.wall_time = time.perf_counter() - started

    def observations(self) -> Iterator[ScanObservation]:
        """Flattened view over :meth:`batches`."""
        for batch in self.batches():
            yield from batch

    def result(self) -> ScanResult:
        """Drain the stream into a materialized :class:`ScanResult`."""
        return _materialize(self, self.batches())


def _materialize(
    execution: "ScanExecution | StreamingScanExecution",
    batches: "Iterable[list[ScanObservation]]",
) -> ScanResult:
    """Drain ``batches`` — ``execution``'s stream, or a wrapper over it
    such as a campaign's teed :class:`ScanStream` view — into a
    :class:`ScanResult`."""
    scan = ScanResult(
        label=execution.label,
        ip_version=execution.ip_version,
        started_at=execution.started_at,
    )
    metrics = execution.metrics
    for batch in batches:
        ingest_started = time.perf_counter()
        scan.add_batch(batch)
        metrics.ingest_time += time.perf_counter() - ingest_started
    # Known once the stream is exhausted, even for a target iterator.
    assert execution.finished_at is not None
    scan.finished_at = execution.finished_at
    scan.targets_probed = metrics.probes_sent
    scan.probe_bytes_sent = metrics.probe_bytes
    scan.reply_bytes_received = metrics.reply_bytes
    return scan


class _ExecutorShardRunner:
    """Worker-side runner: one executor's plan, captured at fork time.

    Published via :class:`~repro.scanner.pool.WorkerPool` fork
    inheritance, so a worker needs nothing but shard indices.
    """

    def __init__(
        self,
        executor: "ShardedScanExecutor",
        plan: "list[ShardSpec]",
        params: _ScanParams,
    ) -> None:
        self._executor = executor
        self._plan = plan
        self._params = params

    def run_shard(
        self, shard_index: int, batch_size: int
    ) -> "tuple[Iterator[list[ScanObservation]], ShardMetrics]":
        return self._executor.stream_shard(
            self._plan[shard_index], self._params, batch_size
        )


class ShardedScanExecutor:
    """Partitioned, optionally parallel SNMPv3 discovery scanner.

    The executor owns no topology — it probes whatever is bound on the
    ``fabric`` — but needs the live ``owner_of`` view (address → device
    id) to co-locate each device's addresses in one shard, and the
    ``devices`` registry to snapshot/restore agent session state around
    shard execution.  Both come from the campaign, as does ``seed``, the
    determinism root of every shard plan (campaigns pass
    ``topology.seed``); ``options`` shapes execution.
    """

    def __init__(
        self,
        *,
        fabric: NetworkFabric,
        devices: "Mapping[int, Device]",
        owner_of: "Callable[[IPAddress], int | None] | None" = None,
        options: "ExecutionOptions | None" = None,
        seed: int = 0,
        owner_of_batch: "Callable[[list[IPAddress]], list[int | None]] | None" = None,
        snapshot_filter: "Callable[[tuple[int, ...]], list[int]] | None" = None,
    ) -> None:
        self._fabric = fabric
        self._devices = devices
        self._owner_of = owner_of or (lambda address: None)
        # Optional batch ownership view: resolves a whole planning window
        # in one call (plan arithmetic / C-speed dict sweep) instead of
        # one Python call per target.  Must agree with ``owner_of``
        # pointwise — the shard plan is built from whichever is present.
        self._owner_of_batch = owner_of_batch
        # Optional snapshot narrowing: returns the subset of a shard's
        # owner ids whose agent state probing can actually touch.  A
        # device the fabric can never deliver to (SNMP closed on every
        # interface) keeps virgin agent state through the shard, so its
        # snapshot/restore pair is a no-op — but materializing it to
        # take that no-op snapshot is the dominant cost of a streamed
        # shard.  Byte-identity holds as long as the filter only drops
        # devices that cannot answer.
        self._snapshot_filter = snapshot_filter
        self.options = options or ExecutionOptions()
        self.seed = seed

    @property
    def effective_workers(self) -> int:
        """Worker processes actually used (serial fallback collapses to 1)."""
        if self.options.workers <= 1:
            return 1
        if "fork" not in multiprocessing.get_all_start_methods():
            return 1
        return self.options.workers

    # -- public ------------------------------------------------------------

    def execute(
        self,
        targets: "list[IPAddress]",
        *,
        label: str,
        ip_version: int,
        start_time: float,
        rate_pps: "float | None" = None,
    ) -> ScanExecution:
        """Plan a scan and return its (lazily evaluated) execution handle."""
        for target in targets:
            if target.version != ip_version:
                raise ValueError(
                    f"target {target} does not match scan family IPv{ip_version}"
                )
        params = _scan_params(label, ip_version, start_time, rate_pps)
        plan_started = time.perf_counter()
        plan = plan_shards(
            targets,
            label=label,
            num_shards=self.options.num_shards,
            seed=self.seed,
            shuffle_seed=SHUFFLE_SEED,
            owner_of=self._owner_of,
            owners=(
                None
                if self._owner_of_batch is None
                else self._owner_of_batch(targets)
            ),
        )
        execution = ScanExecution(self, plan, params, total_targets=len(targets))
        execution.metrics.plan_time = time.perf_counter() - plan_started
        return execution

    def execute_stream(
        self,
        targets: "Iterable[IPAddress]",
        *,
        label: str,
        ip_version: int,
        start_time: float,
        rate_pps: "float | None" = None,
    ) -> StreamingScanExecution:
        """Plan-as-you-go scan over a target *iterator* (constant memory).

        Unlike :meth:`execute`, targets are never materialized as one
        list: they are pulled in ``options.target_window``-sized windows,
        each planned and probed before the next is read.  Probe
        ``msg_id``/send-slot assignment follows the target stream's
        global order, so the output for a given target sequence is
        independent of the window size's effect on *memory* (each window
        is planned as its own permutation, like a sequence of scans).
        """
        params = _scan_params(label, ip_version, start_time, rate_pps)
        return StreamingScanExecution(self, targets, params)

    def scan(
        self,
        targets: "list[IPAddress]",
        label: str,
        ip_version: int,
        start_time: float,
        rate_pps: "float | None" = None,
    ) -> ScanResult:
        """One scan of ``targets``: :meth:`execute`, drained into a result."""
        return self.execute(
            targets,
            label=label,
            ip_version=ip_version,
            start_time=start_time,
            rate_pps=rate_pps,
        ).result()

    # -- execution ---------------------------------------------------------

    def _stream(
        self,
        plan: list[ShardSpec],
        params: _ScanParams,
        metrics: ExecutorMetrics,
    ) -> Iterator[list[ScanObservation]]:
        started = time.perf_counter()
        try:
            yield from self._stream_plan(plan, params, metrics)
        finally:
            # Finalized even when the consumer abandons the stream early
            # (pipeline short-circuit, partial export): wall_time must
            # reflect the time actually spent, never stay zero.
            metrics.wall_time = time.perf_counter() - started

    def _stream_plan(
        self,
        plan: list[ShardSpec],
        params: _ScanParams,
        metrics: ExecutorMetrics,
    ) -> Iterator[list[ScanObservation]]:
        """One plan's shards in shard order, inline or on its own workers.

        A parallel plan forks its workers here, when its first batch is
        requested, so they probe the world as it stands after every
        event that precedes the plan — exactly what the inline path
        probes.  The workers are reaped when the plan ends or its
        stream is closed.
        """
        batch_size = self.options.batch_size
        if self.effective_workers <= 1:
            for spec in plan:
                batches, shard = self.stream_shard(spec, params, batch_size)
                for batch in batches:
                    metrics.peak_batch = max(metrics.peak_batch, len(batch))
                    yield batch
                metrics.add_shard(shard)
            return
        with WorkerPool(
            workers=self.effective_workers,
            runner=_ExecutorShardRunner(self, plan, params),
        ) as pool:
            messages = pool.run_scan(num_shards=len(plan), batch_size=batch_size)
            for __, kind, payload in messages:
                if kind == MSG_METRICS:
                    assert isinstance(payload, ShardMetrics)
                    metrics.add_shard(payload)
                else:
                    assert isinstance(payload, bytes)
                    batch = decode_observations(payload)
                    metrics.peak_batch = max(metrics.peak_batch, len(batch))
                    yield batch

    def stream_shard(
        self, spec: ShardSpec, params: _ScanParams, batch_size: int
    ) -> "tuple[Iterator[list[ScanObservation]], ShardMetrics]":
        """One shard as a lazy batch stream plus its metrics record.

        The metrics object is filled in while the stream is consumed and
        complete once it is exhausted.  Batch boundaries are per-shard
        chunks of ``batch_size``, identical on the serial and pooled
        paths — the worker pool ships these exact batches over the pipe.
        """
        shard = ShardMetrics(shard_index=spec.index, targets=len(spec.items))

        def batches() -> Iterator[list[ScanObservation]]:
            batch: list[ScanObservation] = []
            for observation in self._probe_shard(spec, params, shard):
                batch.append(observation)
                if len(batch) >= batch_size:
                    yield batch
                    batch = []
            if batch:
                yield batch

        return batches(), shard

    def _probe_shard(
        self, spec: ShardSpec, params: _ScanParams, shard: ShardMetrics
    ) -> Iterator[ScanObservation]:
        """Run one shard against a shard-local fabric view.

        Agent session state touched by this shard is restored afterwards,
        so results never depend on which process — or in what order —
        other shards ran.

        With a non-default :class:`RetryPolicy`, each target may be
        probed up to ``1 + max_retries`` times: replies arriving past the
        per-probe timeout are discarded (and counted), an unparseable
        reply triggers another attempt, and a device that stays dead for
        ``breaker_threshold`` consecutive targets stops earning retries.
        The retry schedule is a pure function of the shard's own probe
        outcomes, preserving byte-identity across worker counts.

        Observations are yielded as they are made by the staged pipeline
        of :mod:`repro.scanner.pipeline`.  The shard's fabric view counts
        into ``shard`` as it delivers, and the pipeline adds its counters
        and (profile mode) stage seconds; ``observations`` and
        ``wall_time`` are set on exhaustion.
        """
        shard_started = time.perf_counter()
        options = self.options
        view = self._fabric.shard_view(
            spec.seed, stats=shard, timed=options.profile
        )
        device_ids: "Iterable[int]" = spec.device_ids
        if self._snapshot_filter is not None:
            device_ids = self._snapshot_filter(spec.device_ids)
        snapshots = [
            (device, _snapshot_device(device))
            for device in (self._devices[d] for d in device_ids)
        ]
        yielded = 0
        produce = probe_targets_pipelined(
            view, spec, params, options.retry, options.window,
            self._owner_of, shard, options.profile,
        )
        try:
            for observation in produce:
                yielded += 1
                yield observation
        finally:
            for device, snapshot in snapshots:
                _restore_device(device, snapshot)
        shard.observations = yielded
        shard.wall_time = time.perf_counter() - shard_started


__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_NUM_SHARDS",
    "DEFAULT_TARGET_WINDOW",
    "DEFAULT_WINDOW",
    "ExecutionOptions",
    "RetryPolicy",
    "ScanExecution",
    "ShardSpec",
    "ShardedScanExecutor",
    "StreamingScanExecution",
    "plan_shards",
    "shard_seed",
]
