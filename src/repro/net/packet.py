"""Datagram model for the simulated fabric.

The scanner and the simulated agents exchange :class:`Datagram` objects:
a UDP 4-tuple plus an opaque payload and the simulated send time.  Sizes
are computed the way the paper reports them (UDP payload length plus the
28-byte IPv4 or 48-byte IPv6+UDP header overhead) so the traffic-volume
numbers of §4.1.1 can be reproduced.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass

from repro.net.addresses import IPAddress

_IPV4_HEADER = 20
_IPV6_HEADER = 40
_UDP_HEADER = 8


def header_size(version: int) -> int:
    """IP plus UDP header bytes of a datagram of IP ``version``."""
    return (_IPV4_HEADER if version == 4 else _IPV6_HEADER) + _UDP_HEADER


@dataclass(frozen=True)
class Datagram:
    """A UDP datagram in flight on the simulated fabric."""

    src: IPAddress
    dst: IPAddress
    sport: int
    dport: int
    payload: bytes
    sent_at: float = 0.0
    ttl: int = 64

    def __post_init__(self) -> None:
        if self.src.version != self.dst.version:
            raise ValueError(
                f"address family mismatch: {self.src} -> {self.dst}"
            )
        for port, name in ((self.sport, "sport"), (self.dport, "dport")):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"{name} out of range: {port}")

    @property
    def version(self) -> int:
        """IP version of the datagram (4 or 6)."""
        return self.src.version

    @property
    def wire_size(self) -> int:
        """On-the-wire packet size in bytes including IP and UDP headers."""
        return header_size(self.version) + len(self.payload)

    def reply(self, payload: bytes, sent_at: "float | None" = None, ttl: int = 64) -> "Datagram":
        """Build the response datagram with src/dst and ports swapped."""
        return Datagram(
            src=self.dst,
            dst=self.src,
            sport=self.dport,
            dport=self.sport,
            payload=payload,
            sent_at=self.sent_at if sent_at is None else sent_at,
            ttl=ttl,
        )


def make_datagram(
    src: "IPAddress | str",
    dst: "IPAddress | str",
    sport: int,
    dport: int,
    payload: bytes,
    sent_at: float = 0.0,
) -> Datagram:
    """Convenience constructor accepting address strings."""
    if isinstance(src, str):
        src = ipaddress.ip_address(src)
    if isinstance(dst, str):
        dst = ipaddress.ip_address(dst)
    return Datagram(src=src, dst=dst, sport=sport, dport=dport, payload=payload, sent_at=sent_at)
