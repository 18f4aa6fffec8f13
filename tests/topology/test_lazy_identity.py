"""Golden digests for the lazy streamed world.

A :class:`~repro.topology.lazy.LazyTopology` derives every device from
``(seed, slot)`` at probe time.  Each golden row freezes one of its
campaigns (every observation, scan aggregate and shard counter), its
device population or its AS objects as a sha256 digest.  The digests
were blessed at a commit that could still build the streamed layout
eagerly, where the eager world gave the same digest as the lazy view on
every row, so they stand in for that deleted build: at every worker
count, under every fault profile, across adversarial personalities,
with retry policies and with a residency cap that forces re-derivation.
Rows that change only the worker count must reproduce their one-worker
row.  The property tests hold derivation a pure function of
``(seed, slot)``: any order, any number of times, on any number of
views, reproduces the in-order view the device digest pins.

A digest is re-blessed only by a change that means to move the streamed
world, and that change says which rows moved and why.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.scanner.campaign import ScanCampaign
from repro.scanner.executor import ExecutionOptions, RetryPolicy
from repro.topology.config import TopologyConfig
from repro.topology.lazy import LazyTopology

#: Small but adversarial-rich world (same sizing as the pipeline
#: identity suite): chaos sweeps still hit every personality.
DIVISOR = 4000.0
SEED = 1177

COUNTER_FIELDS = (
    "targets", "probes_sent", "replies", "observations",
    "dropped_loss", "dropped_reply_loss", "dropped_no_endpoint",
    "dropped_rate_limited", "retries", "timed_out", "unparsed",
    "breaker_tripped", "duplicated", "reordered", "truncated",
    "corrupted", "probe_bytes", "reply_bytes",
)

#: Digest of each golden row, blessed where the lazy view and the eagerly
#: built streamed world gave the same digest.
GOLDEN = {
    "fault-free": "4357af0314aa8c6f460f77f507eb8855fd3b58acb47c123f787f7e43dfde1f8b",
    "chaos": "178a23893cab89f4e4b475df3491677f8715e12504dfde79e84367b9c646c43e",
    "conformance": "4a3e7b4f3723dd1621ffbb6aca91b99d7dee2c921100f6f724eeb66dde600058",
    "adversarial-retries": "54b8941c8d336bb771281f2a04b7e9c4d7ac6ec3ba5b7bfe48567ca53761162b",
    # Blessed at 17e38ed against the lazy world alone (by then the eager
    # streamed build was gone): the staged path's timeout filter, which
    # no other lazy row exercises.
    "timeout": "84468185ccdcee42869befa6676623be2fdf4a11db38900d1c5ad358aab1a7b4",
    "devices": "2ec5b602176d97586e0b2393ba3fec5e537c3b0cdeff7910d7b19777a745cf55",
    "ases": "a74c68b75f4fbf7905ee72b2ba49516cce30d98221b0287e7e31c1835c1fd78d",
}


def make_config(seed: int = SEED, **overrides) -> TopologyConfig:
    return TopologyConfig(
        seed=seed, scale_divisor=DIVISOR, layout="streamed", **overrides
    )


def digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def device_fingerprint(device) -> tuple:
    """Every field a scan outcome can depend on, as one comparable tuple."""
    agent = device.agent
    return (
        device.device_id,
        device.device_type,
        device.vendor,
        device.asn,
        device.region,
        device.snmp_open,
        device.dhcp_pool,
        device.reboot_between_scans,
        device.nat_gateway,
        agent.engine_id.raw,
        agent.engine_boots,
        agent.boot_time,
        tuple(
            (
                str(interface.address),
                interface.snmp_reachable,
                None if interface.mac is None else str(interface.mac),
            )
            for interface in device.interfaces
        ),
    )


def as_fingerprints(topology) -> list:
    return [
        (asn, asys.region, str(asys.ipv4_prefix), str(asys.ipv6_prefix),
         asys.router_open_rate)
        for asn, asys in sorted(topology.ases.items())
    ]


def campaign_digest(topology, config, **options_kw) -> str:
    """Run the four-scan campaign; digest every observation, scan
    aggregate and shard counter."""
    campaign = ScanCampaign(
        topology=topology, config=config,
        options=ExecutionOptions(**options_kw),
    )
    result = campaign.run()
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
    return digest((fingerprint, counters))


def lazy_campaign_digest(config=None, **options_kw) -> str:
    config = config or make_config()
    return campaign_digest(LazyTopology(config=config), config, **options_kw)


# -- campaign rows (the acceptance gate) ----------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("fault_profile", [None, "chaos"])
def test_campaign_identity_across_workers_and_faults(workers, fault_profile):
    row = "fault-free" if fault_profile is None else fault_profile
    got = lazy_campaign_digest(workers=workers, fault_profile=fault_profile)
    assert got == GOLDEN[row], (row, workers)


def test_campaign_identity_with_adversarial_agents_and_retries():
    """Stateful adversarial personalities + retry breakers + chaos loss,
    with a residency cap low enough to force eviction and re-derivation
    mid-campaign — the hardest case for lazy state reconstruction."""
    config = make_config(adversarial_frac=0.15)
    retry = RetryPolicy(max_retries=2, timeout=1.5, breaker_threshold=3)
    lazy = LazyTopology(config=config, max_resident=512)
    got = campaign_digest(lazy, config, fault_profile="chaos", retry=retry)
    assert got == GOLDEN["adversarial-retries"]
    # The cap genuinely bit: the materialized working set exceeded the
    # residency cap (so eviction and re-derivation happened mid-campaign)
    # while residency stayed O(cap) (the topology's residency cache plus
    # one shard's answering devices).  Derivations stay *below* the
    # device count because only devices a probe reaches are derived.
    assert lazy.peak_resident <= 2 * lazy.max_resident
    assert lazy.derivations > lazy.max_resident


@pytest.mark.parametrize("workers", [1, 2])
def test_campaign_identity_with_a_timeout_and_no_retries(workers):
    """A deadline without retries keeps the window-staged path and its
    timeout filter: late replies are dropped and counted per shard."""
    got = lazy_campaign_digest(workers=workers, retry=RetryPolicy(timeout=0.1))
    assert got == GOLDEN["timeout"], workers


def test_campaign_identity_under_conformance_profile():
    assert lazy_campaign_digest(fault_profile="conformance") == \
        GOLDEN["conformance"]


# -- device-level identity ------------------------------------------------------


@pytest.fixture(scope="module")
def lazy_world():
    return LazyTopology(config=make_config())


@pytest.fixture(scope="module")
def in_order(lazy_world) -> dict:
    """``device id -> device_fingerprint``, derived in id order."""
    return {
        device_id: device_fingerprint(lazy_world.devices[device_id])
        for device_id in range(1, lazy_world.device_count + 1)
    }


def test_every_device_derives_identically(in_order):
    assert digest(list(in_order.values())) == GOLDEN["devices"]


def test_as_objects_match(lazy_world):
    assert digest(as_fingerprints(lazy_world)) == GOLDEN["ases"]


def test_owner_of_matches_eager_ownership(lazy_world):
    """Every interface address of every derived device is owned by that
    device — the map an eager world indexes its ground truth by."""
    checked = 0
    for device_id in range(1, lazy_world.device_count + 1):
        for interface in lazy_world.devices[device_id].interfaces:
            assert lazy_world.owner_of(interface.address) == device_id
            checked += 1
    assert checked > lazy_world.device_count


# -- property tests: derivation is a pure function of (seed, slot) --------------


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=200), min_size=1,
                max_size=40))
def test_derivation_is_order_independent(in_order, ids):
    """Deriving any sample of devices, in any order, with repeats, on a
    fresh lazy view reproduces the in-order view exactly."""
    fresh = LazyTopology(config=make_config())
    for device_id in ids:
        assert device_fingerprint(fresh.devices[device_id]) == \
            in_order[device_id]


@settings(max_examples=10, deadline=None)
@given(st.randoms(use_true_random=False))
def test_full_shuffled_sweep_matches_eager(in_order, rng):
    fresh = LazyTopology(config=make_config())
    ids = list(in_order)
    rng.shuffle(ids)
    for device_id in ids:
        assert device_fingerprint(fresh.devices[device_id]) == \
            in_order[device_id]


def test_repeated_derivation_is_stable(lazy_world):
    first = device_fingerprint(lazy_world.devices[1])
    # While referenced, lookups return the same canonical object.
    assert lazy_world.devices[1] is lazy_world.devices[1]
    assert device_fingerprint(lazy_world.devices[1]) == first


def test_different_seeds_give_different_engine_ids():
    """Satellite check: the seed really keys the derivation.  Compared
    slot by slot, essentially every device changes engine ID when the
    seed moves by one.  (Address-derived engine-ID formats sit on the
    seed-independent address plan, so a few same-slot coincidences are
    tolerated; wholesale agreement would be a mixing bug.)"""
    world_a = LazyTopology(config=make_config(seed=SEED))
    world_b = LazyTopology(config=make_config(seed=SEED + 1))
    total = world_a.device_count
    assert world_b.device_count == total
    unchanged = sum(
        world_a.devices[i].agent.engine_id.raw
        == world_b.devices[i].agent.engine_id.raw
        for i in world_a.devices
    )
    assert unchanged / total < 0.02


def test_interleaved_derivation_across_two_views_agrees():
    """Two independent lazy views over the same seed agree device by
    device even when their derivation orders interleave arbitrarily."""
    rng = random.Random(99)
    view_a = LazyTopology(config=make_config())
    view_b = LazyTopology(config=make_config())
    ids = list(range(1, view_a.device_count + 1))
    sample = rng.sample(ids, min(80, len(ids)))
    for device_id in sample:
        if rng.random() < 0.5:
            first, second = view_a, view_b
        else:
            first, second = view_b, view_a
        fp_first = device_fingerprint(first.devices[device_id])
        fp_second = device_fingerprint(second.devices[device_id])
        assert fp_first == fp_second
