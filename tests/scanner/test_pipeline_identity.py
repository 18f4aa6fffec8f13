"""Golden scan digests for the one probe loop, the staged pipeline.

Each row freezes one campaign's whole output as a sha256 digest: every
observation (address, recv time, engine triplet, reply count, wire
bytes), every scan aggregate and every shard counter.  The rows cover
the fault profiles, the generated topology's adversarial personalities,
retry and timeout policies and the circuit breaker.  The digests were
blessed at a commit that still carried the historical per-probe loop,
which produced the same digest as the staged pipeline for every row.
Rows that change only execution geometry (worker count, stage window,
IPC batch size) must reproduce the chaos row.

Each substitution the pipeline makes for that loop keeps its own
unit-level reference: batched delivery against per-datagram delivery
(``tests/net/test_probe_batch.py``), and the probe template, the
structural Report matcher and the hinted agent handler against the
generic encoder, parser and handler (``tests/snmp/test_probe_template.py``).

A digest is re-blessed only by a change that means to move scan output,
and that change says which rows moved and why — the convention of
``tests/pipeline/test_golden_filters.py``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.scanner.campaign import ScanCampaign
from repro.scanner.executor import DEFAULT_WINDOW, ExecutionOptions, RetryPolicy
from repro.topology.config import TopologyConfig
from repro.topology.generator import TopologyGenerator, build_topology

#: Small but adversarial-rich world: chaos-profile sweeps still hit
#: garbage/malformed/amplifying/rebooting agents and load balancers.
DIVISOR = 4000.0
SEED = 1177

COUNTER_FIELDS = (
    "targets", "probes_sent", "replies", "observations",
    "dropped_loss", "dropped_reply_loss", "dropped_no_endpoint",
    "dropped_rate_limited", "retries", "timed_out", "unparsed",
    "breaker_tripped", "duplicated", "reordered", "truncated",
    "corrupted", "probe_bytes", "reply_bytes",
)

#: Campaign shape per golden row, on top of 4 shards and batch size 16.
ROWS = {
    "fault-free": {},
    "conformance": {"fault_profile": "conformance"},
    # One probe per address never empties the token bucket, so this row
    # equals the fault-free one; "rate-limited-retries" drains it.
    "rate-limited": {"fault_profile": "rate-limited"},
    "chaos": {"fault_profile": "chaos"},
    "retries": {"retry": RetryPolicy(max_retries=2, timeout=1.0)},
    "breaker": {
        "fault_profile": "chaos",
        "retry": RetryPolicy(max_retries=2, timeout=0.5, breaker_threshold=2),
    },
    "rate-limited-retries": {
        "fault_profile": "rate-limited",
        "retry": RetryPolicy(max_retries=3, timeout=0.1, backoff_base=0.1),
    },
    "timeout": {"retry": RetryPolicy(timeout=0.1)},
}

#: ``campaign_digest`` of each row, blessed where the per-probe loop and
#: the staged pipeline gave the same digest.
GOLDEN = {
    "fault-free": "370d880c9e13d00049d002e5d5bbe7b7df87eec919dec7770384600115178367",
    "conformance": "4ffe2595da09f69c8bb8dd0d98ed88137b4f5835036697c4d9e4d5e0793cba1c",
    "rate-limited": "370d880c9e13d00049d002e5d5bbe7b7df87eec919dec7770384600115178367",
    "chaos": "7b6765b1d1617b959ca7957488b0863312006fa99e8daac95db5ce6940218ac5",
    "retries": "d80cb093cf5d0f002ff3fd95c329d59e2ca11746579945b3953f1d02ee9dae00",
    "breaker": "da80964fe23e6ea2572fc18c53adbd62aadde28eb00c6e5896de7ea0b56b788d",
    "rate-limited-retries": "5855d1d8b8705821c34a1b722f261e7c4a8f373bd44516ce2bb17e530e7f4ce2",
    "timeout": "918aab11c1ee19bf5b1fb7e417ece64bd37fcb3a1c75130eab5c4e7d94627bf1",
}

#: Two default campaigns in a row over one 1/1000, seed-7 topology: the
#: second inherits the reboots the first applied to the shared agents.
TWO_ROUNDS = (
    "0ee0c2fc498658e10f2c49b7e38acc59e6bbe601a8a0da52452c807664e3bb02",
    "7d3925ef04a151fe242edf05330eb223e5a6d229366ae4f680624d057da8b33c",
)


def campaign_digest(result) -> "tuple[str, dict[str, list[tuple]]]":
    """sha256 over every observation, scan aggregate and shard counter,
    plus the per-shard counters themselves."""
    fingerprint = []
    for label in sorted(result.scans):
        scan = result.scans[label]
        for observation in scan.observations.values():
            fingerprint.append((
                label,
                str(observation.address),
                observation.recv_time,
                None if observation.engine_id is None else observation.engine_id.raw,
                observation.engine_boots,
                observation.engine_time,
                observation.response_count,
                observation.wire_bytes,
            ))
        fingerprint.append((
            label, scan.targets_probed, scan.probe_bytes_sent,
            scan.reply_bytes_received, tuple(sorted(
                (str(a), n) for a, n in scan.multi_responders.items()
            )),
        ))
    counters = {
        label: [
            tuple(getattr(shard, f) for f in COUNTER_FIELDS)
            for shard in sorted(metrics.shards, key=lambda s: s.shard_index)
        ]
        for label, metrics in sorted(result.metrics.items())
    }
    digest = hashlib.sha256(repr((fingerprint, counters)).encode()).hexdigest()
    return digest, counters


def run_campaign(*, window=DEFAULT_WINDOW, workers=1, fault_profile=None,
                 retry=RetryPolicy(), num_shards=4, batch_size=16):
    topology = TopologyGenerator(
        config=TopologyConfig(seed=SEED, scale_divisor=DIVISOR)
    ).build()
    campaign = ScanCampaign(
        topology=topology,
        options=ExecutionOptions(
            workers=workers,
            num_shards=num_shards,
            batch_size=batch_size,
            window=window,
            fault_profile=fault_profile,
            retry=retry,
        ),
    )
    return campaign_digest(campaign.run())


def total(counters, field: str) -> int:
    index = COUNTER_FIELDS.index(field)
    return sum(shard[index] for shards in counters.values() for shard in shards)


def assert_golden(row: str, **geometry) -> "dict[str, list[tuple]]":
    digest, counters = run_campaign(**ROWS[row], **geometry)
    assert digest == GOLDEN[row], row
    return counters


@pytest.mark.parametrize(
    "fault_profile", [None, "conformance", "rate-limited", "chaos"]
)
def test_identity_across_fault_profiles(fault_profile):
    assert_golden(fault_profile or "fault-free")


def test_identity_with_two_workers_under_chaos():
    assert_golden("chaos", workers=2)


def test_identity_with_retries():
    assert_golden("retries")


def test_identity_with_retries_and_breaker_under_chaos():
    """Chaos loss rates trip the circuit breaker mid-shard."""
    assert total(assert_golden("breaker"), "breaker_tripped") > 0


@pytest.mark.parametrize("workers", [1, 2])
def test_identity_with_retries_under_rate_limiting(workers):
    """Retries spaced 0.1 s apart drain the token bucket, and its 0.1 s
    timeout discards late replies."""
    counters = assert_golden("rate-limited-retries", workers=workers)
    assert total(counters, "dropped_rate_limited") > 0
    assert total(counters, "timed_out") > 0


def test_identity_with_timeout_and_no_retries():
    """The window-staged path's timeout filter, which retries bypass."""
    assert total(assert_golden("timeout"), "timed_out") > 0


@pytest.mark.parametrize("window", [1, 7, 100_000])
def test_identity_is_window_invariant(window):
    """window=1 degenerates to per-probe staging; 100k exceeds every
    shard (one mega-batch); 7 leaves ragged final windows."""
    assert_golden("chaos", window=window)


def test_identity_with_batch_size_one():
    """batch_size=1 streams observations one per IPC batch."""
    assert_golden("chaos", batch_size=1)


def test_two_rounds_over_one_topology():
    """Reboots and agent state carried from one campaign into the next
    show up in the second round's digest, never as drift from it."""
    config = TopologyConfig.paper_scale(divisor=1000.0, seed=7)
    topology = build_topology(config)
    digests = tuple(
        campaign_digest(
            ScanCampaign(
                topology=topology, config=config,
                options=ExecutionOptions(workers=1),
            ).run()
        )[0]
        for __ in range(2)
    )
    assert digests[0] != digests[1]
    assert digests == TWO_ROUNDS
