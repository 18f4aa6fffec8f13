"""Tests for the sharded, streaming scan executor."""

import ipaddress
import multiprocessing
import pickle

import pytest

from repro.net.transport import NetworkFabric
from repro.scanner.campaign import SCAN_LABELS, ScanCampaign
from repro.scanner.executor import (
    ExecutionOptions,
    RetryPolicy,
    ShardedScanExecutor,
    plan_shards,
    shard_seed,
)
from repro.snmp.agent import AgentBehavior
from repro.snmp.messages import build_discovery_probe, encode_discovery_probe
from repro.topology.config import TopologyConfig
from repro.topology.generator import build_topology


def _run_campaign(**options):
    cfg = TopologyConfig.tiny(seed=21)
    topo = build_topology(cfg)
    campaign = ScanCampaign(
        topology=topo, config=cfg, options=ExecutionOptions(**options)
    )
    return topo, campaign


def _scan_fingerprint(scan):
    return (
        scan.observations,
        scan.multi_responders,
        scan.targets_probed,
        scan.probe_bytes_sent,
        scan.reply_bytes_received,
        scan.started_at,
        scan.finished_at,
    )


@pytest.fixture(scope="module")
def serial_result():
    __, campaign = _run_campaign(workers=1)
    return campaign.run()


@pytest.fixture(scope="module")
def parallel_result():
    __, campaign = _run_campaign(workers=4)
    return campaign.run()


class TestDeterminism:
    def test_worker_count_does_not_change_results(
        self, serial_result, parallel_result
    ):
        """The tentpole contract: 1-worker and 4-worker runs are identical."""
        assert set(parallel_result.scans) == set(SCAN_LABELS)
        for label in SCAN_LABELS:
            assert _scan_fingerprint(parallel_result.scans[label]) == \
                _scan_fingerprint(serial_result.scans[label]), label

    def test_pool_ipc_beats_per_observation_pickle(
        self, serial_result, parallel_result
    ):
        """Workers ship a whole campaign in columnar blobs at least 3x
        smaller than pickling each of its observations on its own."""
        ipc_bytes = sum(m.ipc_bytes for m in parallel_result.metrics.values())
        pickled = sum(
            len(pickle.dumps(obs))
            for scan in serial_result.scans.values()
            for obs in scan.observations.values()
        )
        assert ipc_bytes > 0
        assert ipc_bytes * 3 <= pickled, (ipc_bytes, pickled)

    def test_rerun_is_reproducible(self, serial_result):
        __, campaign = _run_campaign(workers=1)
        again = campaign.run()
        for label in SCAN_LABELS:
            assert again.scans[label].observations == \
                serial_result.scans[label].observations

    def test_metrics_cover_all_probes(self, serial_result):
        __, campaign = _run_campaign(workers=1)
        result = campaign.run()
        for label, metrics in result.metrics.items():
            scan = result.scans[label]
            assert metrics.probes_sent == metrics.targets == scan.targets_probed
            assert metrics.observations == len(scan.observations)
            assert len(metrics.shards) == metrics.num_shards


class TestStreaming:
    def test_stream_matches_materialized(self, serial_result):
        __, campaign = _run_campaign(workers=1)
        streamed = {}
        for stream in campaign.run_streaming():
            observations = {}
            for batch in stream.batches():
                for obs in batch:
                    observations.setdefault(obs.address, obs)
            streamed[stream.label] = observations
        for label in SCAN_LABELS:
            assert streamed[label] == serial_result.scans[label].observations

    def test_batches_respect_batch_size(self):
        __, campaign = _run_campaign(workers=1, batch_size=50)
        stream = next(campaign.run_streaming())
        sizes = [len(batch) for batch in stream.batches()]
        assert sizes
        assert max(sizes) <= 50
        assert stream.execution.metrics.peak_batch <= 50

    def test_stream_consumed_once(self):
        __, campaign = _run_campaign(workers=1)
        stream = next(campaign.run_streaming())
        list(stream.batches())
        with pytest.raises(RuntimeError):
            stream.batches()


class TestWallTimeFinalization:
    def test_abandoned_stream_still_records_wall_time(self):
        """Regression: breaking out of a stream early (pipeline
        short-circuit, partial export) must still finalize wall_time."""
        __, campaign = _run_campaign(workers=1, batch_size=10)
        stream = next(campaign.run_streaming())
        batches = stream.batches()
        next(batches)  # consume one batch, then walk away
        batches.close()
        assert stream.execution.metrics.wall_time > 0.0

    def test_abandoned_parallel_stream_still_records_wall_time(self):
        __, campaign = _run_campaign(workers=2, batch_size=10)
        stream = next(campaign.run_streaming())
        batches = stream.batches()
        next(batches)
        batches.close()
        assert stream.execution.metrics.wall_time > 0.0


class TestOnePoolLifetime:
    """Each parallel scan forks its own workers after the scan's events."""

    @staticmethod
    def _scans_with_world_changed_after_v6_1(workers):
        """A caller poisons 25 open agents between streams v6-1 and v6-2."""
        topo, campaign = _run_campaign(workers=workers)
        scans, unparsed = {}, {}
        for stream in campaign.run_streaming():
            scans[stream.label] = stream.result()
            unparsed[stream.label] = stream.execution.metrics.unparsed
            if stream.label == "v6-1":
                open_devices = [d for d in topo.devices.values() if d.snmp_open]
                for device in open_devices[:25]:
                    device.agent.behavior = AgentBehavior(garbage_reports=True)
        return scans, unparsed

    def test_workers_see_the_world_as_changed_between_streams(self):
        serial, unparsed = self._scans_with_world_changed_after_v6_1(1)
        pooled, __ = self._scans_with_world_changed_after_v6_1(2)
        assert unparsed["v6-1"] == 0 and unparsed["v4-1"] > 0
        for label in SCAN_LABELS:
            assert _scan_fingerprint(pooled[label]) == \
                _scan_fingerprint(serial[label]), label

    def test_abandoned_parallel_stream_leaves_no_worker(self):
        before = set(multiprocessing.active_children())
        __, campaign = _run_campaign(workers=2, batch_size=10)
        streams = campaign.run_streaming()
        batches = next(streams).batches()
        next(batches)
        batches.close()
        assert set(multiprocessing.active_children()) <= before
        streams.close()


class TestBatchBoundaries:
    def _batch_lengths(self, **kwargs):
        __, campaign = _run_campaign(**kwargs)
        stream = next(campaign.run_streaming())
        return [len(batch) for batch in stream.batches()], stream.execution

    def test_batch_size_one(self):
        lengths, execution = self._batch_lengths(workers=1, batch_size=1)
        assert lengths and set(lengths) == {1}
        assert execution.metrics.peak_batch == 1
        assert sum(lengths) == execution.metrics.observations

    def test_batch_larger_than_any_shard(self):
        """A huge batch_size degenerates to one batch per non-empty shard."""
        lengths, execution = self._batch_lengths(workers=1, batch_size=10**6)
        nonempty = [
            s.observations for s in execution.metrics.shards if s.observations
        ]
        assert lengths == nonempty
        assert execution.metrics.peak_batch == max(nonempty)

    def test_batches_never_span_shards(self):
        """peak_batch accounting across shard boundaries: a shard's tail
        remainder flushes before the next shard starts a fresh batch."""
        lengths, execution = self._batch_lengths(workers=1, batch_size=7)
        per_shard = [
            s.observations for s in execution.metrics.shards if s.observations
        ]
        expected = []
        for count in per_shard:
            expected.extend([7] * (count // 7))
            if count % 7:
                expected.append(count % 7)
        assert lengths == expected

    @pytest.mark.parametrize("batch_size", [1, 7, 10**6])
    def test_worker_count_invariant_boundaries(self, batch_size):
        serial, __ = self._batch_lengths(workers=1, batch_size=batch_size)
        pooled, __ = self._batch_lengths(workers=4, batch_size=batch_size)
        assert serial == pooled


class TestStateIsolation:
    def test_executor_scan_leaves_agent_state_pristine(self):
        topo, campaign = _run_campaign(workers=1)
        campaign._bind_initial()
        before = {
            d.device_id: (
                d.agent.engine_boots,
                d.agent.stats_unknown_engine_ids,
                None if d.agent_pool is None else d.agent_pool._rr_counter,
            )
            for d in topo.devices.values()
        }
        executor = campaign._make_executor()
        targets = sorted(topo.all_addresses(4), key=int)
        executor.scan(targets, label="probe", ip_version=4, start_time=0.0)
        after = {
            d.device_id: (
                d.agent.engine_boots,
                d.agent.stats_unknown_engine_ids,
                None if d.agent_pool is None else d.agent_pool._rr_counter,
            )
            for d in topo.devices.values()
        }
        assert after == before


class TestShardPlan:
    def test_plan_is_deterministic(self):
        topo, campaign = _run_campaign()
        campaign._bind_initial()
        targets = sorted(topo.all_addresses(4), key=int)
        owner = lambda a: (d := topo.device_of_address(a)) and d.device_id
        kwargs = dict(label="v4-1", num_shards=16, seed=21,
                      shuffle_seed=0xABCD, owner_of=owner)
        assert plan_shards(targets, **kwargs) == plan_shards(targets, **kwargs)

    def test_device_addresses_colocated(self):
        topo, campaign = _run_campaign()
        targets = sorted(topo.all_addresses(4), key=int)
        owner = lambda a: (d := topo.device_of_address(a)) and d.device_id
        plan = plan_shards(targets, label="v4-1", num_shards=8, seed=21,
                           shuffle_seed=0xABCD, owner_of=owner)
        shard_of_device = {}
        for spec in plan:
            for __, target in spec.items:
                device_id = owner(target)
                if device_id is None:
                    continue
                assert shard_of_device.setdefault(device_id, spec.index) == \
                    spec.index
        # All targets present exactly once.
        planned = [t for spec in plan for __, t in spec.items]
        assert sorted(planned, key=int) == targets

    def test_shard_seeds_distinct(self):
        seeds = {shard_seed(21, "v4-1", i) for i in range(64)}
        assert len(seeds) == 64
        assert shard_seed(21, "v4-1", 0) != shard_seed(21, "v4-2", 0)

    def test_mismatched_family_rejected(self):
        topo, campaign = _run_campaign()
        targets = sorted(topo.all_addresses(4), key=int)
        executor = campaign._make_executor()
        with pytest.raises(ValueError):
            executor.execute(targets, label="x", ip_version=6, start_time=0.0)


class TestRetryPolicy:
    def test_retries_require_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            RetryPolicy(max_retries=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"timeout": 0.0},
            {"backoff_base": -0.1},
            {"backoff_factor": 0.5},
            {"breaker_threshold": -1},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_exponential_backoff_schedule(self):
        policy = RetryPolicy(
            max_retries=3, timeout=2.0, backoff_base=0.5, backoff_factor=2.0
        )
        assert policy.retry_send_time(10.0, 1) == 10.0 + 2.0 + 0.5
        assert policy.retry_send_time(10.0, 2) == 10.0 + 2.0 + 1.0
        assert policy.retry_send_time(10.0, 3) == 10.0 + 2.0 + 2.0


class _FakeDevice:
    """Just enough of Device for snapshot/restore: an agent, no pool."""

    def __init__(self, agent):
        self.agent = agent
        self.agent_pool = None


class TestCircuitBreaker:
    def _dead_executor(self, retry):
        from repro.net.mac import MacAddress
        from repro.snmp.agent import SnmpAgent
        from repro.snmp.engine_id import EngineId

        agent = SnmpAgent(
            engine_id=EngineId.from_mac(9, MacAddress("00:00:0c:00:00:01"))
        )
        # Nothing is bound on the fabric: the device is dead to probes.
        return ShardedScanExecutor(
            fabric=NetworkFabric(seed=3),
            devices={1: _FakeDevice(agent)},
            owner_of=lambda address: 1,
            options=ExecutionOptions(num_shards=1, retry=retry),
        )

    def test_breaker_stops_retrying_dead_device(self):
        executor = self._dead_executor(
            RetryPolicy(max_retries=3, timeout=1.0, breaker_threshold=2)
        )
        targets = [ipaddress.ip_address(f"192.0.2.{i}") for i in range(1, 6)]
        execution = executor.execute(
            targets, label="dead", ip_version=4, start_time=0.0
        )
        list(execution.batches())
        [shard] = execution.metrics.shards
        # First two targets earn full retries; once the streak reaches the
        # threshold the remaining three get their single ethical probe.
        assert shard.breaker_tripped == 1
        assert shard.retries == 2 * 3
        assert shard.probes_sent == 2 * (1 + 3) + 3 * 1

    def test_no_breaker_retries_every_target(self):
        executor = self._dead_executor(
            RetryPolicy(max_retries=3, timeout=1.0, breaker_threshold=0)
        )
        targets = [ipaddress.ip_address(f"192.0.2.{i}") for i in range(1, 6)]
        execution = executor.execute(
            targets, label="dead", ip_version=4, start_time=0.0
        )
        list(execution.batches())
        [shard] = execution.metrics.shards
        assert shard.breaker_tripped == 0
        assert shard.probes_sent == 5 * (1 + 3)


class TestFaultsAndRetries:
    RETRY = RetryPolicy(max_retries=2, timeout=1.5)

    def test_default_policy_reproduces_legacy_engine(self, serial_result):
        """retry=RetryPolicy() must not shift a single RNG draw."""
        __, campaign = _run_campaign(workers=1, retry=RetryPolicy())
        result = campaign.run()
        for label in SCAN_LABELS:
            assert _scan_fingerprint(result.scans[label]) == \
                _scan_fingerprint(serial_result.scans[label]), label

    def test_faulted_run_is_worker_count_invariant(self):
        """Tentpole contract under fire: faults + retries stay
        byte-identical across worker counts."""
        kwargs = dict(fault_profile="chaos", retry=self.RETRY, num_shards=8)
        __, serial = _run_campaign(workers=1, **kwargs)
        __, parallel = _run_campaign(workers=4, **kwargs)
        serial_scans, parallel_scans = serial.run(), parallel.run()
        for label in SCAN_LABELS:
            assert _scan_fingerprint(parallel_scans.scans[label]) == \
                _scan_fingerprint(serial_scans.scans[label]), label

    def test_retries_recover_lost_replies(self):
        plain_kwargs = dict(loss_probability=0.25, workers=1)
        __, no_retry = _run_campaign(**plain_kwargs)
        __, with_retry = _run_campaign(retry=self.RETRY, **plain_kwargs)
        lossy = no_retry.run().scans["v4-1"]
        recovered = with_retry.run().scans["v4-1"]
        assert len(recovered.observations) > len(lossy.observations)

    def test_retry_metrics_populated(self):
        __, campaign = _run_campaign(
            loss_probability=0.25, workers=1, retry=self.RETRY
        )
        result = campaign.run()
        assert sum(m.retries for m in result.metrics.values()) > 0

    def test_fault_counters_reach_metrics(self):
        __, campaign = _run_campaign(
            workers=1, fault_profile="chaos", retry=self.RETRY
        )
        result = campaign.run()
        total = sum(m.faults_injected for m in result.metrics.values())
        assert total > 0

    def test_scan_totals_are_the_sums_of_its_shards(self):
        """Every total a reader takes from a scan's metrics equals the
        sum of its shards' counters, through the pool's pipe too."""
        __, campaign = _run_campaign(
            workers=2, fault_profile="chaos", retry=self.RETRY, profile=True
        )
        same_name = (
            "targets", "probes_sent", "replies", "observations", "retries",
            "timed_out", "unparsed", "breaker_tripped", "probe_bytes",
            "reply_bytes", "ipc_bytes", "encode_time", "fabric_time",
            "agent_time", "decode_time",
        )
        derived = {
            "losses": lambda s: s.dropped_loss + s.dropped_reply_loss,
            "rate_limited": lambda s: s.dropped_rate_limited,
            "faults_injected": lambda s: (
                s.duplicated + s.reordered + s.truncated + s.corrupted
            ),
        }
        for label, metrics in campaign.run().metrics.items():
            shards = metrics.shards
            for name in same_name:
                want = sum(getattr(shard, name) for shard in shards)
                assert getattr(metrics, name) == want, (label, name)
            for name, of_shard in derived.items():
                want = sum(map(of_shard, shards))
                assert getattr(metrics, name) == want, (label, name)

    def test_rate_limiter_visible_in_metrics(self):
        from repro.net.faults import FaultProfile, RateLimit

        # A bucket this starved cannot refill between a probe and its
        # retry, so every retry to a live-but-lossy target is policed.
        profile = FaultProfile(
            name="starved", rate_limit=RateLimit(rate=0.01, burst=1)
        )
        __, campaign = _run_campaign(
            workers=1,
            loss_probability=0.25,
            fault_profile=profile,
            retry=RetryPolicy(max_retries=1, timeout=0.5),
        )
        result = campaign.run()
        assert sum(m.rate_limited for m in result.metrics.values()) > 0

    def test_adversarial_agents_never_crash_a_shard(self):
        """Garbage replies are counted and skipped, not fatal."""
        topo, campaign = _run_campaign(workers=2, retry=self.RETRY)
        poisoned = 0
        for device in topo.devices.values():
            if device.snmp_open and poisoned < 25:
                device.agent.behavior = AgentBehavior(garbage_reports=True)
                poisoned += 1
        result = campaign.run()
        assert poisoned == 25
        assert sum(m.unparsed for m in result.metrics.values()) > 0
        summaries = [m.summary() for m in result.metrics.values()]
        assert any("unparsed" in line for line in summaries)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [{"num_shards": 0}, {"batch_size": 0}, {"workers": -1},
         {"window": 0}, {"target_window": 0}],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionOptions(**kwargs)


class TestFastProbeEncoder:
    @pytest.mark.parametrize("msg_id", [1, 2, 127, 128, 255, 256, 65535,
                                        2**20, 2**31 - 1])
    def test_matches_message_object_encoding(self, msg_id):
        assert encode_discovery_probe(msg_id) == \
            build_discovery_probe(msg_id).encode()

    def test_request_id_override(self):
        fast = encode_discovery_probe(7, request_id=42)
        slow = build_discovery_probe(7, request_id=42).encode()
        assert fast == slow
