"""Profile mode: stage timers that never change what a scan sees.

``ExecutionOptions(profile=True)`` times each shard's probe stages
(encode, fabric transit, agent handling, decode).  The timers must not
move one observation or counter: a profiled campaign reproduces the
golden digest of ``tests/scanner/test_pipeline_identity.py``, inline
and with its shard records sent through the worker pool's pipe.  A
profiled scan reports every stage; an unprofiled one reports none.
"""

from __future__ import annotations

import pytest

from repro.scanner.campaign import ScanCampaign
from repro.scanner.executor import ExecutionOptions
from repro.topology.config import TopologyConfig
from repro.topology.generator import TopologyGenerator
from tests.scanner.test_pipeline_identity import (
    DIVISOR,
    GOLDEN,
    ROWS,
    SEED,
    campaign_digest,
)

STAGES = ("encode_time", "fabric_time", "agent_time", "decode_time")


def run_campaign(row: str, *, profile: bool, workers: int = 1):
    """One golden-row campaign (4 shards, batch size 16) at ``profile``."""
    topology = TopologyGenerator(
        config=TopologyConfig(seed=SEED, scale_divisor=DIVISOR)
    ).build()
    return ScanCampaign(
        topology=topology,
        options=ExecutionOptions(
            workers=workers,
            num_shards=4,
            batch_size=16,
            profile=profile,
            **ROWS[row],
        ),
    ).run()


@pytest.fixture(scope="module")
def profiled():
    return run_campaign("fault-free", profile=True)


@pytest.fixture(scope="module")
def unprofiled():
    return run_campaign("fault-free", profile=False)


def test_profiling_moves_no_output(profiled, unprofiled):
    digest = campaign_digest(unprofiled)[0]
    assert digest == GOLDEN["fault-free"]
    assert campaign_digest(profiled)[0] == digest


@pytest.mark.parametrize(
    ("row", "workers"), [("fault-free", 2), ("retries", 1), ("retries", 2)]
)
def test_profiling_moves_no_output_per_path(row, workers):
    """Two workers send the timed shard records through the pool's pipe;
    the retries row times the per-target path's stages."""
    result = run_campaign(row, profile=True, workers=workers)
    assert campaign_digest(result)[0] == GOLDEN[row]
    for metrics in result.metrics.values():
        assert all(getattr(metrics, stage) > 0 for stage in STAGES)


def test_profiled_scan_times_every_stage(profiled):
    assert len(profiled.metrics) == 4
    for label, metrics in profiled.metrics.items():
        for stage in STAGES:
            assert getattr(metrics, stage) > 0, (label, stage)
        for shard in metrics.shards:
            staged = sum(getattr(shard, stage) for stage in STAGES)
            assert staged <= shard.wall_time, (label, shard.shard_index)
        assert "\n  stages: encode " in metrics.summary()
        assert "\n  edges: plan " in metrics.summary()


def test_unprofiled_scan_times_no_stage(unprofiled):
    for label, metrics in unprofiled.metrics.items():
        for stage in STAGES:
            assert getattr(metrics, stage) == 0, (label, stage)
            assert all(getattr(s, stage) == 0 for s in metrics.shards)
        assert "stages:" not in metrics.summary()
        assert "edges:" not in metrics.summary()
