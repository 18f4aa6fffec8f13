"""``inject_probe_batch`` is byte-identical to sequential ``inject``.

The batch-staged scan pipeline rides on one guarantee: delivering a
window of probes through :meth:`FabricView.inject_probe_batch` consumes
the same RNG draws, bumps the same counters and produces the same reply
bytes at the same arrival times as injecting the probes one
:class:`Datagram` at a time.  These tests pin that equivalence across
every adversarial agent personality, fault profile, and fabric feature
(ACLs, per-address link profiles, unbound targets, load balancers), and
whether each probe's handler is bound on the fabric or handed in
aligned with the probes, as a lazy world's shard resolves them.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.net.addresses import parse_ip
from repro.net.packet import Datagram
from repro.net.transport import AccessControlList, LinkProfile, NetworkFabric
from repro.snmp.agent import AgentBehavior, SnmpAgent
from repro.snmp.constants import SNMP_PORT
from repro.snmp.engine_id import EngineId
from repro.snmp.loadbalancer import AgentPool, BalancingPolicy
from repro.snmp.messages import DiscoveryProbeTemplate, encode_discovery_probe

SOURCE = parse_ip("203.0.113.77")
SPORT = 39321

PERSONALITIES = {
    "default": AgentBehavior(),
    "garbage": AgentBehavior(garbage_reports=True),
    "malformed": AgentBehavior(malformed=True),
    "amplifying": AgentBehavior(amplification_count=3),
    "rebooting": AgentBehavior(reboot_after_handles=2),
    "slow": AgentBehavior(response_delay=0.75),
    "v3-dark": AgentBehavior(v3_enabled=False),
    "zero-time": AgentBehavior(report_zero_time=True),
}


def engine_id(tag: int) -> EngineId:
    return EngineId(bytes([0x80, 0, 0, 9, 3, 0, 0, 0, 0, 0, tag]))


def build_fabric(fault_profile: "str | None", balancer: "str | None" = None,
                 handlers: "dict | None" = None):
    """One deterministic fabric + agent set; call twice for twin copies.

    With ``handlers``, each endpoint's handler goes into that dict
    instead of being bound; ACLs and link profiles are set either way.
    """
    fabric = NetworkFabric(
        seed=0xFAB,
        default_profile=LinkProfile(
            loss_probability=0.08, base_latency=0.08, jitter=0.04
        ),
        fault_profile=fault_profile,
    )

    def attach(address, handler):
        if handlers is None:
            fabric.bind(address, "udp", SNMP_PORT, handler)
        else:
            handlers[address] = handler

    targets = []
    for index, behavior in enumerate(PERSONALITIES.values()):
        address = parse_ip(f"198.51.100.{index + 1}")
        agent = SnmpAgent(
            engine_id=engine_id(index + 1), boot_time=-1000.0, behavior=behavior
        )
        attach(address, agent.handle_datagram)
        targets.append(address)
    # A slow-lossy link profile on one address exercises the per-target
    # profile lookup inside the batch loop.
    fabric.set_profile(
        targets[0], LinkProfile(loss_probability=0.3, base_latency=0.5, jitter=0.2)
    )
    # A firewalled address and an unbound one: both must consume zero
    # RNG draws on either path.
    acl_address = parse_ip("198.51.100.200")
    agent = SnmpAgent(engine_id=engine_id(0xC8), boot_time=-5.0)
    attach(acl_address, agent.handle_datagram)
    fabric.set_acl(acl_address, AccessControlList(blocked_ports=frozenset({SNMP_PORT})))
    targets.append(acl_address)
    targets.append(parse_ip("198.51.100.201"))  # unbound
    if balancer is not None:
        pool_address = parse_ip("198.51.100.150")
        pool = AgentPool(
            backends=[
                SnmpAgent(engine_id=engine_id(0xA0 + n), boot_time=-60.0)
                for n in range(3)
            ],
            policy=BalancingPolicy[balancer],
        )
        attach(pool_address, pool.handle_datagram)
        targets.append(pool_address)
    return fabric, targets


def probe_plan(targets: list, rounds: int = 3):
    """(target, payload, send_time, msg_id) tuples, several per target."""
    plan = []
    for sweep in range(rounds):
        for offset, target in enumerate(targets):
            msg_id = sweep * len(targets) + offset + 1
            plan.append(
                (target, encode_discovery_probe(msg_id), 1000.0 + msg_id * 0.01, msg_id)
            )
    return plan


def deliver_sequentially(fabric, plan):
    view = fabric.shard_view(seed=42)
    replies = []
    for target, payload, send_time, _msg_id in plan:
        datagram = Datagram(
            src=SOURCE, dst=target, sport=SPORT, dport=SNMP_PORT,
            payload=payload, sent_at=send_time,
        )
        replies.append([
            (reply.payload, arrival, reply.wire_size)
            for reply, arrival in view.inject(datagram, send_time)
        ])
    return replies, view.stats


def deliver_batched(fabric, plan, with_hints: bool, handlers=None):
    view = fabric.shard_view(seed=42)
    replies = view.inject_probe_batch(
        SOURCE,
        SPORT,
        SNMP_PORT,
        [target for target, *_ in plan],
        [payload for _, payload, *_ in plan],
        [send_time for *_, send_time, _ in plan],
        [msg_id for *_, msg_id in plan] if with_hints else None,
        handlers=(
            None
            if handlers is None
            else [handlers.get(target) for target, *_ in plan]
        ),
    )
    return replies, view.stats


def batch_twins(fault_profile, balancer=None):
    """Batch-side fabrics with bound endpoints, then with handed-in ones."""
    for handlers in (None, {}):
        fabric, _ = build_fabric(fault_profile, balancer, handlers)
        yield fabric, handlers


@pytest.mark.parametrize("fault_profile", [None, "conformance", "rate-limited", "chaos"])
@pytest.mark.parametrize("with_hints", [True, False])
def test_batch_equals_sequential_across_personalities(fault_profile, with_hints):
    fabric_a, targets = build_fabric(fault_profile)
    plan = probe_plan(targets)
    sequential, stats_a = deliver_sequentially(fabric_a, plan)
    for fabric_b, handlers in batch_twins(fault_profile):
        batched, stats_b = deliver_batched(fabric_b, plan, with_hints, handlers)
        assert batched == sequential, handlers is not None
        assert stats_b == stats_a, handlers is not None


@pytest.mark.parametrize("policy", ["ROUND_ROBIN", "SOURCE_HASH"])
def test_batch_preserves_load_balancer_scheduling(policy):
    fabric_a, targets = build_fabric("chaos", balancer=policy)
    plan = probe_plan(targets)
    sequential, stats_a = deliver_sequentially(fabric_a, plan)
    for fabric_b, handlers in batch_twins("chaos", balancer=policy):
        batched, stats_b = deliver_batched(
            fabric_b, plan, with_hints=True, handlers=handlers
        )
        assert batched == sequential, handlers is not None
        assert stats_b == stats_a, handlers is not None


def test_single_probe_batches_match_too():
    """Batch size 1 is the retry path's delivery unit."""
    fabric_a, targets = build_fabric("chaos")
    fabric_b, _ = build_fabric("chaos")
    plan = probe_plan(targets, rounds=1)
    sequential, stats_a = deliver_sequentially(fabric_a, plan)
    view = fabric_b.shard_view(seed=42)
    batched = [
        view.inject_probe_batch(
            SOURCE, SPORT, SNMP_PORT, [target], [payload], [send_time], [msg_id]
        )[0]
        for target, payload, send_time, msg_id in plan
    ]
    assert batched == sequential
    assert view.stats == stats_a


def test_corrupted_probes_fall_back_to_the_full_parser():
    """Under chaos some probes corrupt in flight; the hinted fast path
    must not answer for them (the wire bytes no longer match the hint)."""
    fabric, targets = build_fabric("chaos")
    plan = probe_plan(targets, rounds=6)
    view = fabric.shard_view(seed=42)
    view.inject_probe_batch(
        SOURCE, SPORT, SNMP_PORT,
        [t for t, *_ in plan],
        [p for _, p, *_ in plan],
        [s for *_, s, _ in plan],
        [m for *_, m in plan],
    )
    assert view.stats.corrupted > 0  # the scenario actually exercised it


def test_mutating_the_fault_profile_resets_cleanly():
    """A fabric whose fault profile changes between batches keeps the
    twin-run equivalence (bucket state is cleared on profile swap)."""
    fabric_a, targets = build_fabric("rate-limited")
    fabric_b, _ = build_fabric("rate-limited")
    plan = probe_plan(targets)
    for fabric in (fabric_a, fabric_b):
        fabric.set_fault_profile("chaos")
    sequential, stats_a = deliver_sequentially(fabric_a, plan)
    batched, stats_b = deliver_batched(fabric_b, plan, with_hints=True)
    assert batched == sequential
    assert stats_b == stats_a


def test_stats_are_flushed_even_when_a_handler_raises():
    class Boom(Exception):
        pass

    def exploding_handler(datagram, now):
        raise Boom

    fabric = NetworkFabric(seed=1)
    address = parse_ip("198.51.100.1")
    fabric.bind(address, "udp", SNMP_PORT, exploding_handler)
    view = fabric.shard_view(seed=7)
    with pytest.raises(Boom):
        view.inject_probe_batch(
            SOURCE, SPORT, SNMP_PORT, [address],
            [encode_discovery_probe(1)], [0.0], [1],
        )
    assert view.stats.injected == 1
    assert view.stats.delivered == 1


def test_response_delay_read_per_delivery():
    """``response_delay`` must be read fresh per delivery — an agent that
    slows down mid-scan shifts later arrivals on both paths alike."""
    def build():
        fabric = NetworkFabric(seed=3)
        address = parse_ip("198.51.100.9")
        agent = SnmpAgent(engine_id=engine_id(9), boot_time=-100.0)
        fabric.bind(address, "udp", SNMP_PORT, agent.handle_datagram)
        return fabric, address, agent

    plan_times = [10.0, 20.0, 30.0]
    arrivals = {}
    for mode in ("sequential", "batched"):
        fabric, address, agent = build()
        view = fabric.shard_view(seed=5)
        collected = []
        for index, send_time in enumerate(plan_times):
            if index == 1:
                agent.behavior = dataclasses.replace(
                    agent.behavior, response_delay=2.5
                )
            if mode == "sequential":
                datagram = Datagram(
                    src=SOURCE, dst=address, sport=SPORT, dport=SNMP_PORT,
                    payload=encode_discovery_probe(index + 1), sent_at=send_time,
                )
                collected.append([a for _, a in view.inject(datagram, send_time)])
            else:
                replies = view.inject_probe_batch(
                    SOURCE, SPORT, SNMP_PORT, [address],
                    [encode_discovery_probe(index + 1)], [send_time], [index + 1],
                )[0]
                collected.append([a for _, a, _ in replies])
        arrivals[mode] = collected
    assert arrivals["batched"] == arrivals["sequential"]
    # The delay actually moved the later arrivals.
    flat = [a for sub in arrivals["batched"] for a in sub]
    assert any(arrival >= 22.0 for arrival in flat)


#: Msg ids on each side of every INTEGER width boundary a probe can use.
WIDTH_BOUNDARIES = (1, 127, 128, 32767, 32768, 8388607, 8388608, 2**31 - 1)


@pytest.mark.parametrize("source, target", [
    (SOURCE, parse_ip("192.0.2.9")),
    (parse_ip("2001:db8:5ca0::77"), parse_ip("2001:db8::9")),
])
def test_counted_unanswered_probes_match_delivered_ones(source, target):
    """A probe that nothing answers may be counted instead of delivered:
    the template's size of the probe is its rendered length, and
    counting it books what delivering it books, IP and UDP headers
    included, for every INTEGER width of the msg id."""
    template = DiscoveryProbeTemplate()
    for msg_id in WIDTH_BOUNDARIES:
        payload = DiscoveryProbeTemplate().render(msg_id)
        assert template.probe_size(msg_id) == len(payload), msg_id
        fabric = NetworkFabric(seed=1)
        delivered = fabric.shard_view(seed=2)
        assert delivered.inject_probe_batch(
            source, SPORT, SNMP_PORT, [target], [payload], [0.0], [msg_id],
        ) == [[]]
        counted = fabric.shard_view(seed=2)
        counted.count_unanswered(
            target.version, 1, template.probe_size(msg_id)
        )
        assert counted.stats == delivered.stats, msg_id
        assert counted.stats.dropped_no_endpoint == 1
