"""Determinism contract: segment bytes never depend on the ingest path."""

from repro.scanner.campaign import ScanCampaign
from repro.scanner.executor import ExecutionOptions
from repro.store import Store
from repro.store.segment import segment_fingerprint
from repro.topology.config import TopologyConfig
from repro.topology.generator import build_topology


def ingest_campaign(root, *, seed, workers, streaming=False):
    """Run one tiny campaign into a fresh store; return its fingerprint."""
    cfg = TopologyConfig.tiny(seed=seed)
    topo = build_topology(cfg)
    campaign = ScanCampaign(
        topology=topo, config=cfg, options=ExecutionOptions(workers=workers)
    )
    store = Store(root=root)
    if streaming:
        for stream in campaign.run_streaming():
            store.ingest_stream(stream, round_id=1)
    else:
        store.ingest_campaign(campaign.run(), round_id=1)
    paths = [
        path
        for round_id in store.rounds()
        for label in store.labels(round_id)
        for path in store.segment_paths(round_id, label)
    ]
    return store, segment_fingerprint(paths)


class TestWorkerCountInvariance:
    def test_serial_vs_two_workers_byte_identical(self, tmp_path):
        """Same config + seed -> byte-identical segments at any worker count."""
        __, fp_serial = ingest_campaign(tmp_path / "serial", seed=33, workers=1)
        __, fp_pool = ingest_campaign(tmp_path / "pool", seed=33, workers=2)
        assert fp_serial == fp_pool

    def test_different_seed_differs(self, tmp_path):
        __, fp_a = ingest_campaign(tmp_path / "a", seed=33, workers=1)
        __, fp_b = ingest_campaign(tmp_path / "b", seed=34, workers=1)
        assert fp_a != fp_b


class TestIngestPathInvariance:
    def test_result_vs_stream_byte_identical(self, tmp_path):
        """Batch ingest and streaming ingest write identical segments."""
        store_r, fp_result = ingest_campaign(
            tmp_path / "result", seed=21, workers=1
        )
        store_s, fp_stream = ingest_campaign(
            tmp_path / "stream", seed=21, workers=1, streaming=True
        )
        assert fp_result == fp_stream
        # The streamed path back-fills targets_probed from metrics.
        for label in store_r.labels(1):
            assert (
                store_r.scan_info(1, label)["targets_probed"]
                == store_s.scan_info(1, label)["targets_probed"]
            )

    def test_segment_rows_change_bytes_not_answers(self, tmp_path):
        """Part sizing is a layout knob: bytes differ, answers don't."""
        cfg = TopologyConfig.tiny(seed=21)
        topo = build_topology(cfg)
        result = ScanCampaign(topology=topo, config=cfg).run()

        big = Store(root=tmp_path / "big")
        small = Store(root=tmp_path / "small", segment_rows=8)
        big.ingest_campaign(result, round_id=1)
        small.ingest_campaign(result, round_id=1)

        assert [s.observation for s in big.observations()] == [
            s.observation for s in small.observations()
        ]
        for label in big.labels(1):
            assert (
                big.scan_result(1, label).observations
                == small.scan_result(1, label).observations
            )
