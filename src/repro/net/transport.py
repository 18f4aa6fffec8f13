"""Simulated network fabric.

The fabric stands in for the live Internet: endpoints (SNMP agents, TCP
stacks, ICMP responders) are *bound* to ``(address, protocol, port)`` keys
and probes are *injected* with a virtual send timestamp.  The fabric
applies, in order:

1. firewall access-control lists (the paper notes some routers sit behind
   ACLs that drop packets to well-known ports — those devices never
   answer),
2. an optional per-address token-bucket rate limiter (control-plane
   policing, from the attached :class:`~repro.net.faults.FaultProfile`),
3. independent packet loss on the forward and return path,
4. a latency model (base propagation plus jitter),
5. optional injected faults — probe/reply corruption, reply truncation,
   duplication and reordering (see :mod:`repro.net.faults`),

and then hands the datagram to the bound handler, collecting zero or more
replies.  Everything is driven by a seeded :class:`random.Random`, so a
scan over a given topology is fully reproducible — including its faults.
With no fault profile attached the fault branch draws no random numbers
at all, so legacy RNG streams are preserved bit-for-bit.

Time is virtual: callers pass ``now`` (seconds since the simulation epoch)
and receive replies tagged with their arrival time.  There is no real
sleeping anywhere, which keeps Internet-scale-shaped experiments fast.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.net.addresses import IPAddress
from repro.net.faults import (
    FaultProfile,
    TokenBucket,
    corrupt_payload,
    resolve_fault_profile,
    truncate_payload,
)
from repro.net.packet import Datagram

#: A bound endpoint: receives the datagram and the virtual receive time,
#: returns reply payloads (possibly empty, possibly several for buggy
#: amplifying implementations).
Handler = Callable[[Datagram, float], "Iterable[bytes]"]


@dataclass
class AccessControlList:
    """A firewall rule set protecting an endpoint.

    ``blocked_ports`` drops any datagram to those destination ports;
    ``allow_sources`` (when non-empty) drops datagrams from any source not
    listed.  This models the "segregated management network" posture the
    paper recommends: a device with SNMP reachable only from inside never
    shows up in an Internet-wide scan.
    """

    blocked_ports: frozenset[int] = frozenset()
    allow_sources: frozenset[IPAddress] = frozenset()

    def permits(self, datagram: Datagram) -> bool:
        """Return ``True`` when the datagram passes the ACL."""
        if datagram.dport in self.blocked_ports:
            return False
        if self.allow_sources and datagram.src not in self.allow_sources:
            return False
        return True


@dataclass
class LinkProfile:
    """Per-endpoint path characteristics."""

    loss_probability: float = 0.0
    base_latency: float = 0.05
    jitter: float = 0.02


@dataclass
class FabricStats:
    """Counters the fabric keeps for observability and tests.

    The forward path is exactly accounted:
    ``injected == dropped_no_endpoint + dropped_acl + dropped_rate_limited
    + dropped_loss + delivered``.  Reply-path losses are counted
    separately in ``dropped_reply_loss`` (historically they were folded
    into ``dropped_loss``, which broke the forward-path invariant).
    Fault counters (``duplicated``/``reordered``/``truncated``/
    ``corrupted``) stay zero unless a fault profile is attached, and
    ``agent_time`` stays zero unless a timed :class:`FabricView` adds
    the real seconds its bound handlers ran.
    """

    injected: int = 0
    dropped_no_endpoint: int = 0
    dropped_acl: int = 0
    dropped_rate_limited: int = 0
    dropped_loss: int = 0
    dropped_reply_loss: int = 0
    delivered: int = 0
    replies: int = 0
    reply_bytes: int = 0
    probe_bytes: int = 0
    duplicated: int = 0
    reordered: int = 0
    truncated: int = 0
    corrupted: int = 0
    agent_time: float = 0.0


class NetworkFabric:
    """The simulated Internet's delivery plane.

    >>> fabric = NetworkFabric(seed=7)
    >>> import ipaddress
    >>> addr = ipaddress.ip_address("192.0.2.1")
    >>> fabric.bind(addr, "udp", 161, lambda dg, now: [b"pong:" + dg.payload])
    >>> probe = Datagram(ipaddress.ip_address("198.51.100.9"), addr, 40000, 161, b"ping")
    >>> [(reply.payload, round(t, 3)) for reply, t in fabric.inject(probe, now=1.0)]
    [(b'pong:ping', ...)]
    """

    def __init__(
        self,
        seed: int = 0,
        default_profile: "LinkProfile | None" = None,
        fault_profile: "FaultProfile | str | None" = None,
    ) -> None:
        self._rng = random.Random(seed)
        self._endpoints: dict[tuple[IPAddress, str, int], Handler] = {}
        self._acls: dict[IPAddress, AccessControlList] = {}
        self._profiles: dict[IPAddress, LinkProfile] = {}
        self._default_profile = default_profile or LinkProfile()
        self._fault_profile = resolve_fault_profile(fault_profile)
        self._buckets: dict[IPAddress, TokenBucket] = {}
        # Combined per-address delivery records, built lazily per
        # (protocol, port) and invalidated by any wiring change.  The
        # batch path pays one address hash per probe instead of three
        # (endpoint, ACL, link profile).
        self._delivery_indexes: "dict[tuple[str, int], dict[IPAddress, tuple[Handler, AccessControlList | None, LinkProfile]]]" = {}
        self._resolver: "Callable[[IPAddress, str, int], Handler | None] | None" = None
        self.stats = FabricStats()

    # -- wiring -----------------------------------------------------------

    def bind(self, address: IPAddress, protocol: str, port: int, handler: Handler) -> None:
        """Bind ``handler`` to ``(address, protocol, port)``.

        Binding the same key twice is an error: the topology generator must
        never assign one address to two devices.
        """
        key = (address, protocol, port)
        if key in self._endpoints:
            raise ValueError(f"endpoint already bound: {key}")
        self._endpoints[key] = handler
        # Maintain any built index in place: churn rebinds a few thousand
        # addresses between scans, and a full O(endpoints) rebuild per
        # wiring change would dominate the campaign's non-probe edges.
        index = self._delivery_indexes.get((protocol, port))
        if index is not None:
            index[address] = (
                handler,
                self._acls.get(address),
                self._profiles.get(address, self._default_profile),
            )

    def unbind(self, address: IPAddress, protocol: str, port: int) -> None:
        """Remove a binding (used to model CPE address churn between scans)."""
        if self._endpoints.pop((address, protocol, port), None) is not None:
            index = self._delivery_indexes.get((protocol, port))
            if index is not None:
                index.pop(address, None)

    def is_bound(self, address: IPAddress, protocol: str, port: int) -> bool:
        """Return whether an endpoint is currently bound to the key."""
        return (address, protocol, port) in self._endpoints

    def set_acl(self, address: IPAddress, acl: AccessControlList) -> None:
        """Attach a firewall ACL in front of every port of ``address``."""
        self._acls[address] = acl
        for index in self._delivery_indexes.values():
            entry = index.get(address)
            if entry is not None:
                index[address] = (entry[0], acl, entry[2])

    def set_profile(self, address: IPAddress, profile: LinkProfile) -> None:
        """Attach per-address path characteristics."""
        self._profiles[address] = profile
        for index in self._delivery_indexes.values():
            entry = index.get(address)
            if entry is not None:
                index[address] = (entry[0], entry[1], profile)

    def set_resolver(
        self, resolver: "Callable[[IPAddress, str, int], Handler | None] | None"
    ) -> None:
        """Install a fallback endpoint resolver for lazy topologies.

        When a probe reaches ``(address, protocol, port)`` with no bound
        endpoint, the resolver is consulted; returning a handler delivers
        the probe exactly as if the endpoint had been bound up front,
        returning ``None`` drops it as unbound.  The fabric never caches
        resolved handlers — the resolver owns residency policy — so a
        streaming campaign's memory stays bounded by its own cache.
        """
        self._resolver = resolver
        self._delivery_indexes.clear()

    def _delivery_index(
        self, protocol: str, port: int
    ) -> "dict[IPAddress, tuple[Handler, AccessControlList | None, LinkProfile]]":
        """The combined ``address -> (handler, acl, profile)`` map for one
        ``(protocol, port)``, built on first use after any wiring change."""
        key = (protocol, port)
        index = self._delivery_indexes.get(key)
        if index is None:
            # ACLs and shaped profiles cover a handful of addresses while
            # endpoints number in the tens of thousands: seed every entry
            # with the defaults, then overlay the two sparse maps, instead
            # of probing both per endpoint.
            default_profile = self._default_profile
            index = {
                address: (handler, None, default_profile)
                for (address, proto, bound_port), handler in self._endpoints.items()
                if proto == protocol and bound_port == port
            }
            for address, acl in self._acls.items():
                entry = index.get(address)
                if entry is not None:
                    index[address] = (entry[0], acl, entry[2])
            for address, profile in self._profiles.items():
                entry = index.get(address)
                if entry is not None:
                    index[address] = (entry[0], entry[1], profile)
            self._delivery_indexes[key] = index
        return index

    def set_fault_profile(self, profile: "FaultProfile | str | None") -> None:
        """Attach (or clear) the fabric-wide fault-injection profile.

        Applies to the fabric's own :meth:`inject` path and to every
        :class:`FabricView` created afterwards; rate-limiter bucket state
        is reset so token counts never straddle a profile change.
        """
        self._fault_profile = resolve_fault_profile(profile)
        self._buckets.clear()

    @property
    def fault_profile(self) -> "FaultProfile | None":
        """The active fault profile (``None`` when nothing is injected)."""
        return self._fault_profile

    # -- delivery ---------------------------------------------------------

    def inject(
        self, datagram: Datagram, now: float, protocol: str = "udp"
    ) -> list[tuple[Datagram, float]]:
        """Deliver a probe and return ``(reply, arrival_time)`` pairs.

        A probe that is firewalled, rate-limited, lost, or unanswered
        returns an empty list — indistinguishable outcomes, exactly as on
        the real Internet.
        """
        return self._deliver(
            datagram, now, protocol, self._rng, self.stats, self._buckets
        )

    def _deliver(
        self,
        datagram: Datagram,
        now: float,
        protocol: str,
        rng: random.Random,
        stats: FabricStats,
        buckets: "dict[IPAddress, TokenBucket]",
        timed: bool = False,
    ) -> list[tuple[Datagram, float]]:
        """Delivery core, parameterized on the RNG, stats and bucket sinks.

        Probes to unbound or firewalled endpoints never consume random
        numbers — shard views rely on that so an address's loss/jitter
        stream depends only on the probes its shard actually delivers.
        The same discipline extends to faults: with no profile attached
        this path draws exactly the legacy RNG sequence, and the rate
        limiter itself is RNG-free (virtual-time token buckets).
        """
        stats.injected += 1
        stats.probe_bytes += datagram.wire_size
        handler = self._endpoints.get((datagram.dst, protocol, datagram.dport))
        if handler is None and self._resolver is not None:
            handler = self._resolver(datagram.dst, protocol, datagram.dport)
        if handler is None:
            stats.dropped_no_endpoint += 1
            return []
        acl = self._acls.get(datagram.dst)
        if acl is not None and not acl.permits(datagram):
            stats.dropped_acl += 1
            return []
        faults = self._fault_profile
        if faults is not None and faults.rate_limit is not None:
            bucket = buckets.get(datagram.dst)
            if bucket is None:
                bucket = buckets[datagram.dst] = TokenBucket(faults.rate_limit, now)
            if not bucket.admit(now):
                stats.dropped_rate_limited += 1
                return []
        profile = self._profiles.get(datagram.dst, self._default_profile)
        if rng.random() < profile.loss_probability:
            stats.dropped_loss += 1
            return []
        forward_delay = profile.base_latency / 2 + rng.random() * profile.jitter / 2
        arrival = now + forward_delay
        if (
            faults is not None
            and faults.corrupt_probability
            and rng.random() < faults.corrupt_probability
        ):
            datagram = dataclasses.replace(
                datagram, payload=corrupt_payload(rng, datagram.payload)
            )
            stats.corrupted += 1
        stats.delivered += 1
        # Agents may declare themselves slow responders; the bound-method
        # handler exposes its owner, whose response_delay stretches every
        # reply past the normal path latency.
        extra_delay = getattr(getattr(handler, "__self__", None), "response_delay", 0.0)
        replies: list[tuple[Datagram, float]] = []
        if not timed:
            payloads = handler(datagram, arrival)
        else:
            handler_started = time.perf_counter()
            payloads = list(handler(datagram, arrival))
            stats.agent_time += time.perf_counter() - handler_started
        for payload in payloads:
            copies = 1
            if (
                faults is not None
                and faults.duplicate_probability
                and rng.random() < faults.duplicate_probability
            ):
                copies = 2
                stats.duplicated += 1
            for __ in range(copies):
                if rng.random() < profile.loss_probability:
                    stats.dropped_reply_loss += 1
                    continue
                reply_payload = payload
                if faults is not None and faults.mutates_replies:
                    if (
                        faults.truncate_probability
                        and rng.random() < faults.truncate_probability
                    ):
                        reply_payload = truncate_payload(rng, reply_payload)
                        stats.truncated += 1
                    if (
                        faults.corrupt_probability
                        and rng.random() < faults.corrupt_probability
                    ):
                        reply_payload = corrupt_payload(rng, reply_payload)
                        stats.corrupted += 1
                return_delay = (
                    profile.base_latency / 2 + rng.random() * profile.jitter / 2
                )
                reply = datagram.reply(reply_payload, sent_at=arrival)
                replies.append((reply, arrival + extra_delay + return_delay))
                stats.replies += 1
                stats.reply_bytes += reply.wire_size
        if (
            faults is not None
            and faults.reorder_probability
            and len(replies) > 1
            and rng.random() < faults.reorder_probability
        ):
            replies.reverse()
            stats.reordered += 1
        return replies

    def _deliver_probe_batch(
        self,
        source: IPAddress,
        sport: int,
        dport: int,
        targets: "list[IPAddress]",
        payloads: "list[bytes]",
        send_times: "list[float]",
        msg_ids: "list[int] | None",
        rng: random.Random,
        stats: FabricStats,
        buckets: "dict[IPAddress, TokenBucket]",
        timed: bool = False,
        protocol: str = "udp",
    ) -> "list[list[tuple[bytes, float, int]]]":
        """Deliver a window of same-source probes in one staged pass.

        Returns one ``(payload, arrival_time, wire_size)`` reply list per
        probe, aligned with the inputs.  The outcome is byte- and
        RNG-draw-identical to calling :meth:`_deliver` once per probe in
        order — per-probe loss/jitter/fault draws happen in exactly the
        legacy sequence against the same per-address link profiles — but
        the per-packet costs (endpoint/profile lookups, fault-profile
        field reads, :class:`~repro.net.packet.Datagram` construction and
        stats increments) are hoisted out of the loop or batch-flushed.

        ``msg_ids`` carries the executor's per-probe msg/request-id hints:
        when the fabric delivers a probe *unmodified* to a bound
        ``handle_datagram`` whose owner exposes ``handle_discovery``, the
        agent is invoked through that hinted entry point and the datagram
        is never materialized.  Corrupted probes, ACL-checked targets and
        foreign handlers fall back to the legacy handler call.
        """
        delivery = self._delivery_index(protocol, dport)
        resolver = self._resolver
        default_profile = self._default_profile
        faults = self._fault_profile
        rand = rng.random
        header_size = (20 if source.version == 4 else 40) + 8
        if faults is not None:
            rate_limit = faults.rate_limit
            duplicate_p = faults.duplicate_probability
            reorder_p = faults.reorder_probability
            truncate_p = faults.truncate_probability
            corrupt_p = faults.corrupt_probability
            mutates_replies = faults.mutates_replies
        else:
            rate_limit = None
            duplicate_p = reorder_p = truncate_p = corrupt_p = 0.0
            mutates_replies = False
        # Per-handler owner resolution (bound-method introspection) is
        # invariant across a scan, so resolve each handler object once.
        owners: "dict[int, tuple[object, Callable[..., Iterable[bytes]] | None]]" = {}
        injected = no_endpoint = acl_dropped = rate_dropped = loss_dropped = 0
        probe_bytes = corrupted = delivered = duplicated = 0
        reply_loss = truncated = reordered = reply_count = reply_bytes = 0
        out: "list[list[tuple[bytes, float, int]]]" = []
        append_out = out.append
        try:
            for index, target in enumerate(targets):
                payload = payloads[index]
                now = send_times[index]
                injected += 1
                probe_bytes += header_size + len(payload)
                entry = delivery.get(target)
                if entry is None:
                    if resolver is not None:
                        resolved = resolver(target, protocol, dport)
                        if resolved is not None:
                            entry = (
                                resolved,
                                self._acls.get(target),
                                self._profiles.get(target, default_profile),
                            )
                    if entry is None:
                        no_endpoint += 1
                        append_out([])
                        continue
                handler, acl, profile = entry
                if acl is not None and not acl.permits(
                    Datagram(
                        src=source, dst=target, sport=sport, dport=dport,
                        payload=payload, sent_at=now,
                    )
                ):
                    acl_dropped += 1
                    append_out([])
                    continue
                if rate_limit is not None:
                    bucket = buckets.get(target)
                    if bucket is None:
                        bucket = buckets[target] = TokenBucket(rate_limit, now)
                    if not bucket.admit(now):
                        rate_dropped += 1
                        append_out([])
                        continue
                loss_probability = profile.loss_probability
                if rand() < loss_probability:
                    loss_dropped += 1
                    append_out([])
                    continue
                # Parenthesized to match _deliver's ``now + forward_delay``
                # float-addition order bit for bit.
                arrival = now + (
                    profile.base_latency / 2 + rand() * profile.jitter / 2
                )
                probe_intact = True
                if corrupt_p and rand() < corrupt_p:
                    payload = corrupt_payload(rng, payload)
                    corrupted += 1
                    probe_intact = False
                delivered += 1
                entry = owners.get(id(handler))
                if entry is None:
                    owner = getattr(handler, "__self__", None)
                    fast = (
                        getattr(owner, "handle_discovery", None)
                        if owner is not None
                        and getattr(handler, "__name__", "") == "handle_datagram"
                        else None
                    )
                    entry = owners[id(handler)] = (owner, fast)
                owner, fast = entry
                extra_delay = getattr(owner, "response_delay", 0.0)
                if fast is not None and probe_intact and msg_ids is not None:
                    msg_id = msg_ids[index]
                    if not timed:
                        payloads_out = fast(payload, msg_id, msg_id, arrival, source)
                    else:
                        handler_started = time.perf_counter()
                        payloads_out = list(
                            fast(payload, msg_id, msg_id, arrival, source)
                        )
                        stats.agent_time += time.perf_counter() - handler_started
                else:
                    datagram = Datagram(
                        src=source, dst=target, sport=sport, dport=dport,
                        payload=payload, sent_at=now,
                    )
                    if not timed:
                        payloads_out = handler(datagram, arrival)
                    else:
                        handler_started = time.perf_counter()
                        payloads_out = list(handler(datagram, arrival))
                        stats.agent_time += time.perf_counter() - handler_started
                replies: "list[tuple[bytes, float, int]]" = []
                append_reply = replies.append
                for reply_payload in payloads_out:
                    copies = 1
                    if duplicate_p and rand() < duplicate_p:
                        copies = 2
                        duplicated += 1
                    for __ in range(copies):
                        if rand() < loss_probability:
                            reply_loss += 1
                            continue
                        final_payload = reply_payload
                        if mutates_replies:
                            if truncate_p and rand() < truncate_p:
                                final_payload = truncate_payload(rng, final_payload)
                                truncated += 1
                            if corrupt_p and rand() < corrupt_p:
                                final_payload = corrupt_payload(rng, final_payload)
                                corrupted += 1
                        return_delay = (
                            profile.base_latency / 2 + rand() * profile.jitter / 2
                        )
                        wire_size = header_size + len(final_payload)
                        append_reply(
                            (final_payload, arrival + extra_delay + return_delay,
                             wire_size)
                        )
                        reply_count += 1
                        reply_bytes += wire_size
                if reorder_p and len(replies) > 1 and rand() < reorder_p:
                    replies.reverse()
                    reordered += 1
                append_out(replies)
        finally:
            stats.injected += injected
            stats.dropped_no_endpoint += no_endpoint
            stats.dropped_acl += acl_dropped
            stats.dropped_rate_limited += rate_dropped
            stats.dropped_loss += loss_dropped
            stats.dropped_reply_loss += reply_loss
            stats.delivered += delivered
            stats.replies += reply_count
            stats.reply_bytes += reply_bytes
            stats.probe_bytes += probe_bytes
            stats.duplicated += duplicated
            stats.reordered += reordered
            stats.truncated += truncated
            stats.corrupted += corrupted
        return out

    def shard_view(
        self,
        seed: int,
        stats: "FabricStats | None" = None,
        timed: bool = False,
    ) -> "FabricView":
        """A delivery view with its own RNG and stats over shared bindings.

        The sharded executor gives every shard a view seeded from
        ``(campaign seed, scan label, shard index)`` so loss and jitter
        outcomes are a pure function of the shard's own probe sequence —
        independent of how shards are spread over worker processes.
        The view counts into ``stats`` (the shard's own metrics record;
        a fresh :class:`FabricStats` when omitted).  A ``timed`` view
        (profile mode) also adds the wall-clock seconds its bound
        handlers run to ``stats.agent_time``.
        """
        return FabricView(self, seed, stats, timed)

    @property
    def endpoint_count(self) -> int:
        """Number of bound endpoints."""
        return len(self._endpoints)


class FabricView:
    """A shard-local window onto a :class:`NetworkFabric`.

    Shares the parent's endpoint bindings, ACLs, link profiles and fault
    profile but owns its loss/jitter RNG, its :class:`FabricStats` and its
    rate-limiter bucket state, so concurrent shards never contend on (or
    perturb) the parent's random stream or token counts.  Device-grouped
    sharding guarantees every address is only ever probed through one
    view, which keeps shard-local buckets equivalent to global ones.
    Created via :meth:`NetworkFabric.shard_view`.
    """

    def __init__(
        self,
        fabric: NetworkFabric,
        seed: int,
        stats: "FabricStats | None" = None,
        timed: bool = False,
    ) -> None:
        self._fabric = fabric
        self._rng = random.Random(seed)
        self._buckets: dict[IPAddress, TokenBucket] = {}
        self.stats = FabricStats() if stats is None else stats
        self.timed = timed

    def inject(
        self, datagram: Datagram, now: float, protocol: str = "udp"
    ) -> list[tuple[Datagram, float]]:
        """Deliver a probe through the parent fabric with shard-local RNG."""
        return self._fabric._deliver(
            datagram, now, protocol, self._rng, self.stats, self._buckets,
            self.timed,
        )

    def inject_probe_batch(
        self,
        source: IPAddress,
        sport: int,
        dport: int,
        targets: "list[IPAddress]",
        payloads: "list[bytes]",
        send_times: "list[float]",
        msg_ids: "list[int] | None" = None,
        protocol: str = "udp",
    ) -> "list[list[tuple[bytes, float, int]]]":
        """Deliver a window of probes with shard-local RNG in one pass.

        See :meth:`NetworkFabric._deliver_probe_batch`; outcomes are
        draw-for-draw identical to injecting each probe individually.
        """
        return self._fabric._deliver_probe_batch(
            source, sport, dport, targets, payloads, send_times, msg_ids,
            self._rng, self.stats, self._buckets, self.timed, protocol,
        )
