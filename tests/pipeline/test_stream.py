"""Streaming pipeline equivalence: run_stream must match run exactly."""

import pytest

from repro.pipeline.filters import FILTER_NAMES, FilterPipeline
from repro.pipeline.records import merge_scan_pair, merge_scan_stream
from repro.scanner.campaign import ScanCampaign
from repro.topology.config import TopologyConfig
from repro.topology.generator import build_topology


@pytest.fixture(scope="module")
def scan_pairs():
    cfg = TopologyConfig.tiny(seed=21)
    topo = build_topology(cfg)
    result = ScanCampaign(topology=topo, config=cfg).run()
    return {v: result.scan_pair(v) for v in (4, 6)}


class TestMergeStream:
    @pytest.mark.parametrize("version", [4, 6])
    def test_matches_materialized_merge(self, scan_pairs, version):
        first, second = scan_pairs[version]
        expected, non_overlap = merge_scan_pair(first, second)
        stream = merge_scan_stream(iter(first), iter(second))
        merged = sorted(stream, key=lambda m: int(m.address))
        assert merged == expected
        assert stream.non_overlapping == non_overlap
        assert stream.input_first == first.responsive_count
        assert stream.input_second == second.responsive_count

    def test_duplicate_addresses_keep_first(self, scan_pairs):
        first, second = scan_pairs[4]
        obs = list(first)[:3]
        stream = merge_scan_stream(obs + obs, list(second))
        list(stream)
        assert stream.input_first == 3


class TestRunStreamEquivalence:
    @pytest.mark.parametrize("version", [4, 6])
    def test_identical_valid_and_stats(self, scan_pairs, version):
        first, second = scan_pairs[version]
        materialized = FilterPipeline().run(first, second)
        streamed = FilterPipeline().run_stream(iter(first), iter(second))
        assert streamed.valid == materialized.valid
        assert streamed.stats == materialized.stats

    @pytest.mark.parametrize("skipped", FILTER_NAMES)
    def test_equivalent_under_every_ablation(self, scan_pairs, skipped):
        first, second = scan_pairs[4]
        materialized = FilterPipeline(skip={skipped}).run(first, second)
        streamed = FilterPipeline(skip={skipped}).run_stream(
            iter(first), iter(second)
        )
        assert streamed.valid == materialized.valid
        assert streamed.stats == materialized.stats
