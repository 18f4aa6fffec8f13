#!/usr/bin/env python3
"""Security-audit view: what an attacker (or auditor) learns from SNMPv3.

The §8 discussion from the defender's seat.  For one simulated network,
this script shows everything an unauthenticated Internet-side observer
extracts with a single UDP packet per address:

* which devices exist (alias sets collapse the address plan);
* their vendors (target CVE selection);
* their uptime (unpatched boxes);
* which IPs amplify (one request triggering many identical replies —
  a reflection-attack primitive);
* the brute-force angle: with the engine ID in hand, USM password
  guessing becomes an offline dictionary attack.
"""

import time
from collections import Counter

from repro import ExperimentContext, TopologyConfig
from repro.snmp.usm import AuthProtocol, localized_key_from_password
from repro.topology import timeline


def main() -> None:
    config = TopologyConfig.paper_scale(divisor=200)
    print("scanning the simulated Internet...")
    ctx = ExperimentContext.create(config)

    # Pick the network with the most fingerprinted routers.
    target_asn = max(ctx.router_vendor_by_as, key=lambda a: len(ctx.router_vendor_by_as[a]))
    asys = ctx.topology.ases[target_asn]
    print(f"\nauditing {asys.name} ({asys.region.value}, prefix {asys.ipv4_prefix})")

    exposed = [
        (group, verdict)
        for group, verdict in ctx.device_vendors
        if ctx.as_of_set(group) == target_asn
    ]
    print(f"  devices exposed via SNMPv3: {len(exposed)}")
    vendor_counts = Counter(v.vendor for __, v in exposed)
    print(f"  vendor breakdown: {dict(vendor_counts.most_common(5))}")

    stale = 0
    for group, __ in exposed:
        record = next(
            (ctx.record_by_address[a] for a in group if a in ctx.record_by_address), None
        )
        if record is not None:
            uptime_days = (timeline.REFERENCE_TIME - record.last_reboot_time) / 86400
            if uptime_days > 365:
                stale += 1
    print(f"  devices running >1 year without reboot (likely unpatched): {stale}")

    scan1, __ = ctx.campaign.scan_pair(4)
    amplifiers = sorted(scan1.multi_responders.items(), key=lambda kv: -kv[1])[:5]
    print(f"\namplifying responders (one probe -> many replies): "
          f"{len(scan1.multi_responders)} total")
    for address, count in amplifiers:
        print(f"  {address}  replied {count}x")

    # The offline brute-force angle (§8): key localization is the slow
    # step, and it only depends on (password guess, engine ID) — both of
    # which the attacker now has offline.
    engine_id = next(iter(ctx.valid_v4)).engine_id.raw
    print("\noffline dictionary attack against one disclosed engine ID:")
    guesses = ["password", "admin123", "snmpv3-secret", "correct horse"]
    started = time.perf_counter()
    for guess in guesses:
        localized_key_from_password(guess, engine_id, AuthProtocol.HMAC_SHA1_96)
    per_guess = (time.perf_counter() - started) / len(guesses)
    print(f"  {per_guess * 1000:.1f} ms per guess, fully offline — no further "
          f"packets to the target needed")


if __name__ == "__main__":
    main()
