"""Load-balancer drift between scans: round-robin VIPs flip engine IDs.

The executor restores every probed agent after its shard, so probing
alone never carries a VIP's round-robin cursor from one scan into the
next.  What moves the cursor between scans is everyone else's traffic,
modelled by the pure function :func:`~repro.topology.lazy.lb_cursor`
and applied at each scan start next to the inter-scan reboots.  A
round-robin pool can therefore answer the two IPv4 scans from different
backends — the signal the middlebox experiment's burst triage starts
from — in both world modes.  The lazy world's flipped set is frozen as a
digest, blessed where an eagerly built streamed world flipped exactly
the same VIPs.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.scanner.campaign import ScanCampaign
from repro.snmp.loadbalancer import BalancingPolicy
from repro.topology.config import TopologyConfig
from repro.topology.generator import build_topology
from repro.topology.lazy import LazyTopology

SEED = 1177
WORLDS = ("sequential", "lazy")

#: sha256 over the sorted addresses of the lazy world's flipped VIPs.
LAZY_FLIPS = "7e65065223bce6dbae19e2688c1b48ae6d07b0634d1896315750d2ab75f18697"


def make_config(layout: str) -> TopologyConfig:
    # Load balancers oversampled so a tiny world holds dozens of
    # answering round-robin VIPs.
    return TopologyConfig(
        seed=SEED, scale_divisor=4000, layout=layout, lb_frac_of_servers=0.5
    )


def vips_of(topology) -> dict:
    """Answering VIP address -> its device."""
    return {
        interface.address: device
        for device in topology.devices.values()
        if device.agent_pool is not None and device.snmp_open
        for interface in device.interfaces
    }


def run_world(world: str):
    """(VIP map, campaign result) for one world mode.

    The lazy world's VIPs are read off a second view of it, so deriving
    them leaves the campaign's view untouched.
    """
    if world == "lazy":
        config = make_config("streamed")
        return vips_of(LazyTopology(config=config)), ScanCampaign(
            topology=LazyTopology(config=config)
        ).run()
    topology = build_topology(make_config(world))
    return vips_of(topology), ScanCampaign(topology=topology).run()


def flips_digest(flips: set) -> str:
    addresses = sorted(flips, key=int)
    return hashlib.sha256(repr([str(a) for a in addresses]).encode()).hexdigest()


def flipped(vips: dict, result) -> set:
    """VIP addresses whose parsed engine ID differs between v4-1 and v4-2."""
    first, second = result.scan_pair(4)
    out = set()
    for address in vips:
        one = first.observations.get(address)
        two = second.observations.get(address)
        if one is None or two is None:
            continue
        if one.engine_id is None or two.engine_id is None:
            continue
        if one.engine_id != two.engine_id:
            out.add(address)
    return out


@pytest.fixture(scope="module")
def worlds() -> dict:
    return {world: run_world(world) for world in WORLDS}


@pytest.mark.parametrize("world", WORLDS)
def test_round_robin_vips_flip_between_v4_scans(world, worlds):
    vips, result = worlds[world]
    flips = flipped(vips, result)
    assert flips, f"no VIP flipped engine IDs in the {world} world"
    # Source-hash pools pin one vantage point to one backend: never a flip.
    assert all(
        vips[address].agent_pool.policy is BalancingPolicy.ROUND_ROBIN
        for address in flips
    )


def test_lazy_world_flips_exactly_like_eager_streamed(worlds):
    lazy = flipped(*worlds["lazy"])
    assert lazy
    assert flips_digest(lazy) == LAZY_FLIPS


@pytest.mark.parametrize("world", WORLDS)
def test_each_scan_answers_from_the_drifted_backend(world, worlds):
    from repro.topology.lazy import lb_cursor

    vips, result = worlds[world]
    checked = 0
    for label in ("v4-1", "v4-2"):
        scan = result.scans[label]
        for address, device in vips.items():
            pool = device.agent_pool
            observation = scan.observations.get(address)
            if pool.policy is not BalancingPolicy.ROUND_ROBIN or observation is None:
                continue
            cursor = lb_cursor(SEED, device.device_id, scan.started_at)
            expected = pool.backends[cursor % len(pool.backends)].engine_id
            assert observation.engine_id == expected, (label, address)
            checked += 1
    assert checked


def test_lb_cursor_is_a_pure_function():
    from repro.topology.lazy import lb_cursor

    state = random.getstate()
    value = lb_cursor(SEED, 42, 1618531200.0)
    assert random.getstate() == state  # draws from no shared RNG
    assert all(lb_cursor(SEED, 42, 1618531200.0) == value for _ in range(3))
    assert value >= 0
    # Every input matters: another device, time or seed is another draw.
    assert lb_cursor(SEED, 43, 1618531200.0) != value
    assert lb_cursor(SEED, 42, 1619049600.0) != value
    assert lb_cursor(SEED + 1, 42, 1618531200.0) != value
