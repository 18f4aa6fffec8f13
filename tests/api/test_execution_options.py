"""The consolidated :class:`ExecutionOptions` surface on the facade.

One blessed object carries every execution knob; the flat keyword
aliases it replaced are gone.  These tests pin the contract:
options-first construction is silent, flat execution kwargs are
rejected, defaults are documented, and per-round overrides work without
touching the session's own options.
"""

from __future__ import annotations

import warnings

import pytest

import repro
from repro.api import ExecutionOptions, Session
from repro.scanner import ExecutionOptions as scanner_reexport
from repro.scanner.campaign import ScanCampaign
from repro.scanner.executor import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_NUM_SHARDS,
    DEFAULT_TARGET_WINDOW,
    DEFAULT_WINDOW,
    RetryPolicy,
)
from repro.topology.config import TopologyConfig
from repro.topology.generator import TopologyGenerator

SCALE = 4000.0


def test_options_object_is_the_facade_export():
    assert repro.ExecutionOptions is ExecutionOptions
    assert scanner_reexport is ExecutionOptions


def test_session_accepts_options_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        session = Session(
            scale=SCALE, options=ExecutionOptions(workers=1, batch_size=8)
        )
    assert session.options.workers == 1
    assert session.options.batch_size == 8


def test_flat_execution_kwargs_are_gone():
    topology = TopologyGenerator(
        config=TopologyConfig(seed=9, scale_divisor=SCALE)
    ).build()
    with pytest.raises(TypeError, match="workers"):
        Session(scale=SCALE, workers=1)
    with pytest.raises(TypeError, match="workers"):
        ScanCampaign(topology=topology, workers=1)
    with pytest.raises(TypeError, match="loss_probability"):
        ScanCampaign(topology=topology, loss_probability=0.0)


def test_mixing_options_and_flat_kwargs_is_an_error():
    with pytest.raises(TypeError, match="workers"):
        Session(scale=SCALE, options=ExecutionOptions(workers=1), workers=2)
    with pytest.raises(TypeError, match="fault_profile"):
        Session(scale=SCALE, options=ExecutionOptions(), fault_profile="chaos")


def test_campaign_rejects_mixed_styles_too():
    topology = TopologyGenerator(
        config=TopologyConfig(seed=9, scale_divisor=SCALE)
    ).build()
    with pytest.raises(TypeError, match="workers"):
        ScanCampaign(
            topology=topology, options=ExecutionOptions(workers=1), workers=2
        )


def test_options_carry_documented_defaults():
    options = ExecutionOptions(workers=2)
    assert options.workers == 2
    assert options.num_shards == DEFAULT_NUM_SHARDS
    assert options.batch_size == DEFAULT_BATCH_SIZE
    assert options.window == DEFAULT_WINDOW
    assert options.target_window == DEFAULT_TARGET_WINDOW
    assert options.retry == RetryPolicy()
    assert options.fault_profile is None
    assert options.loss_probability == 0.02


def test_campaign_executor_takes_the_options_and_the_topology_seed():
    topology = TopologyGenerator(
        config=TopologyConfig(seed=9, scale_divisor=SCALE)
    ).build()
    options = ExecutionOptions(workers=2)
    executor = ScanCampaign(topology=topology, options=options)._make_executor()
    assert executor.options is options
    assert executor.seed == topology.seed == 9


def test_run_campaign_accepts_a_per_round_override():
    session = Session(scale=SCALE)
    result = session.run_campaign(
        options=ExecutionOptions(workers=1, num_shards=2)
    )
    assert {m.num_shards for m in result.metrics.values()} == {2}
    assert session.options == ExecutionOptions()  # session default untouched


def test_session_and_override_produce_identical_observations():
    def fingerprint(result):
        return {
            label: sorted(
                (str(o.address), o.recv_time, o.engine_boots, o.engine_time)
                for o in scan.observations.values()
            )
            for label, scan in result.scans.items()
        }

    via_session = Session(
        scale=SCALE, options=ExecutionOptions(workers=1)
    ).run_campaign()
    via_override = Session(scale=SCALE).run_campaign(
        options=ExecutionOptions(workers=1)
    )
    assert fingerprint(via_session) == fingerprint(via_override)
