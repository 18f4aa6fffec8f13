"""MIDAR-style IPv4 alias resolution (§5.3 comparator).

MIDAR (Keys et al., 2013) infers IPv4 aliases from the 16-bit IP-ID
counter that many router stacks share across interfaces, using velocity
estimation plus the Monotonic Bounds Test.  This module instantiates the
generic counter machinery with MIDAR's parameters: 16-bit modulus, ICMP
echo probing, and the realistic limitations the paper leans on —

* only ~a third of devices use a shared sequential counter at all
  (random or zero IP-IDs carry no alias signal);
* fast counters can wrap between samples, losing targets;
* unanswered ICMP hides further devices.

Those limitations are why the paper finds MIDAR and SNMPv3 alias sets
*complementary* rather than nested.
"""

from __future__ import annotations

from repro.alias.ipid import CounterAliasResolver, CounterOracle
from repro.alias.sets import AliasSets
from repro.net.addresses import IPAddress
from repro.topology.model import DeviceType, Topology

#: The IPv4 identification field is 16 bits.
IP_ID_MODULUS = 1 << 16


class MidarResolver:
    """Run MIDAR-style resolution over IPv4 candidate addresses."""

    def __init__(self, *, topology: "Topology", seed: int = 0x41DA2) -> None:
        self._oracle = CounterOracle(
            topology,
            modulus=IP_ID_MODULUS,
            rate_scale=1.0,
            responsive_prob={
                DeviceType.ROUTER: 0.65,
                DeviceType.SERVER: 0.60,
                DeviceType.CPE: 0.45,
                DeviceType.IOT: 0.40,
            },
            seed=seed,
        )
        self._engine = CounterAliasResolver(
            oracle=self._oracle,
            technique="midar",
            estimation_probes=5,
            estimation_spacing=10.0,
            pair_probes=4,
        )

    def resolve(self, candidates: "list[IPAddress]") -> AliasSets:
        """Infer alias sets among IPv4 candidates."""
        v4 = [a for a in candidates if a.version == 4]
        return self._engine.resolve(v4)
