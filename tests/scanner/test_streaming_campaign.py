"""Streaming (windowed, constant-memory) campaigns over the lazy world.

The streamed campaign path never materializes a scan's target list: the
executor pulls targets through planning windows, and on a lazy topology
it resolves each window once while planning it.  A probe nothing
answers is only counted, and a shard derives only the devices its
probes reach.  These tests pin the properties that make that safe:

* the full four-scan campaign — including the inter-scan reboot window
  and per-family DHCP churn — matches its golden digest (the churn
  scheduling regression), and replays byte for byte over fresh worlds;
* results match their golden digest at every planning-window size and
  are worker-invariant at a fixed window (the window, like the shard
  count, is part of the deterministic result geometry);
* the residency cap genuinely bounds live devices while changing nothing,
  and peak RSS stays flat while a lazy campaign's targets grow tenfold;
* a scan derives only devices that answer its family, and the residency
  cache serves the second scan of a pair;
* only answering probes are encoded and delivered, unless a retry
  policy needs the others;
* ground truth on lazy campaigns is queried from the topology
  (``result.bindings`` stays empty by contract).

Each digest was blessed at a commit that could still build the streamed
layout eagerly, where the eager world's campaign gave the same digest as
the lazy one.  A digest is re-blessed only by a change that means to
move the streamed world's scans, and that change says which rows moved.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from repro.net.transport import FabricView
from repro.scanner.campaign import SCAN_LABELS, ScanCampaign
from repro.scanner.executor import ExecutionOptions, RetryPolicy
from repro.snmp.messages import DiscoveryProbeTemplate
from repro.topology import lazy as lazy_module
from repro.topology.config import TopologyConfig
from repro.topology.lazy import LazyTopology
from repro.topology.model import DeviceType

DIVISOR = 4000.0
SEED = 1177

#: ``scans_digest`` of each campaign row, blessed where the lazy view and
#: the eagerly built streamed world gave the same digest.
GOLDEN = {
    "default": "6b54b49fe804e164b7be8226c27a4ec7e900e90a3d474930e3619ee69e1dbf4a",
    "window-64": "1fe45c9ee5c710eae662633f0f46fb60eefb30ca5c09d400a60d62c0a8d84a27",
    "window-512": "cc58720e4e0731ef22379ae7cd2df585e78979a4860c00e862327ba52d25b7d7",
    # One window holds every scan here, as at the default 65536.
    "window-100000": "6b54b49fe804e164b7be8226c27a4ec7e900e90a3d474930e3619ee69e1dbf4a",
    # max_resident=512, target_window=2048
    "residency-cap": "6038aadf14368d36009ccb1bfd86dd01fa974878a5a32031b1ac294bbcbd9557",
    # The default campaign at seed 1189, where IPv6 churn moves addresses.
    "seed-1189": "74437749b4c8a67d5d188005e011531e1e865d6bacf586a1cb6ca57c0384de47",
}


def make_config(seed: int = SEED, **overrides) -> TopologyConfig:
    return TopologyConfig(
        seed=seed, scale_divisor=DIVISOR, layout="streamed", **overrides
    )


def run_streamed(topology, config, **options_kw):
    campaign = ScanCampaign(
        topology=topology, config=config,
        options=ExecutionOptions(**options_kw),
    )
    return campaign.run()


def scans_fingerprint(result):
    fingerprint = []
    for label in sorted(result.scans):
        scan = result.scans[label]
        fingerprint.append((
            label, scan.targets_probed, scan.probe_bytes_sent,
            scan.reply_bytes_received,
        ))
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
    return fingerprint


def scans_digest(result) -> str:
    return hashlib.sha256(repr(scans_fingerprint(result)).encode()).hexdigest()


@pytest.fixture(scope="module")
def lazy_run():
    """A default lazy campaign: ``(topology, result)``."""
    config = make_config()
    lazy = LazyTopology(config=config)
    return lazy, run_streamed(lazy, config)


# -- churn / reboot scheduling regression ---------------------------------------


def test_multi_scan_family_is_byte_identical_lazy_vs_eager(lazy_run):
    """The whole campaign — both rounds of both families, with reboots
    applied in the inter-scan window and churn active for round two —
    matches the digest the eager world shared, observation for
    observation."""
    __, result = lazy_run
    assert scans_digest(result) == GOLDEN["default"]


def test_fresh_worlds_replay_byte_identically():
    """A world is a pure function of its seed: campaigns over freshly
    built worlds in one process reproduce the golden campaign and each
    other byte for byte."""
    config = make_config()
    digests = [
        scans_digest(run_streamed(LazyTopology(config=config), config))
        for __ in range(2)
    ]
    assert digests == [GOLDEN["default"]] * 2


def moved_and_rebooted(result, version: int) -> "tuple[int, int]":
    """Addresses of one family whose second scan answered with another
    engine ID, and those whose boot counter moved instead."""
    moved = 0
    rebooted = 0
    first, second = result.scan_pair(version)
    for address, observation in first.observations.items():
        after = second.observations.get(address)
        if after is None or observation.engine_id is None:
            continue
        if after.engine_id is not None and (
            after.engine_id.raw != observation.engine_id.raw
        ):
            moved += 1
        elif (
            after.engine_boots is not None
            and observation.engine_boots is not None
            and after.engine_boots > observation.engine_boots
        ):
            rebooted += 1
    return moved, rebooted


def test_campaign_genuinely_churns_and_reboots(lazy_run):
    """Guard the regression test's power: round two must actually differ
    from round one (addresses changed hands, boot counters moved) —
    otherwise the golden digest proves nothing about scheduling."""
    __, result = lazy_run
    counts = [moved_and_rebooted(result, version) for version in (4, 6)]
    assert sum(moved for moved, __ in counts) > 0
    assert sum(rebooted for __, rebooted in counts) > 0


def test_ipv6_churn_matches_its_golden_digest():
    """No IPv6 address changes hands at ``SEED`` (this small world
    rotates none), so the rows above would miss a broken IPv6 churn;
    at seed 1189 both families' second scans see moved addresses."""
    config = make_config(seed=1189)
    result = run_streamed(LazyTopology(config=config), config)
    assert scans_digest(result) == GOLDEN["seed-1189"]
    assert moved_and_rebooted(result, 6)[0] > 0
    assert moved_and_rebooted(result, 4)[0] > 0


# -- window / worker geometry ---------------------------------------------------
#
# The planning-window size is part of the deterministic result geometry
# (each window is shard-planned independently, so it keys the fault
# streams the way the shard count does).  The contract is therefore NOT
# window invariance but a golden digest at every window size, plus worker
# invariance at a fixed window.


@pytest.mark.parametrize("target_window", [64, 512, 100_000])
def test_lazy_matches_eager_at_every_window_size(target_window):
    """64 forces many ragged windows; 100k exceeds every scan (one
    window); each matches the digest lazy and eager shared."""
    config = make_config()
    result = run_streamed(
        LazyTopology(config=config), config, target_window=target_window
    )
    assert scans_digest(result) == GOLDEN[f"window-{target_window}"]


def test_lazy_results_are_worker_invariant_at_fixed_window():
    config = make_config()
    serial = run_streamed(
        LazyTopology(config=config), config, workers=1, target_window=4096
    )
    pooled = run_streamed(
        LazyTopology(config=config), config, workers=2, target_window=4096
    )
    assert scans_fingerprint(pooled) == scans_fingerprint(serial)


# -- constant-memory contract ---------------------------------------------------


def test_residency_cap_bounds_live_devices():
    config = make_config()
    lazy = LazyTopology(config=config, max_resident=512)
    assert lazy.device_count > 512  # the cap must actually bite
    result = run_streamed(lazy, config, target_window=2048)
    assert scans_digest(result) == GOLDEN["residency-cap"]
    # The topology's residency cache honours the cap, and a shard holds
    # only the devices its probes reach, so residency is O(cap), never
    # O(world).
    assert lazy.peak_resident <= 2 * lazy.max_resident
    assert lazy.peak_resident < lazy.device_count
    # Eviction forced re-derivation (the materialized working set
    # exceeded the cap); correctness came from purity, not from keeping
    # state alive.
    assert lazy.derivations > lazy.max_resident


def test_scans_derive_only_answering_devices_and_reuse_the_cache(monkeypatch):
    """Each scan derives only SNMP-open devices with a reachable
    interface of its family — a device no probe reaches costs nothing —
    and the residency cache, which sees each device once per shard,
    serves the second scan of a pair.  Load balancers are exempt from
    the first check: their membership record has no cheap prefix, so
    the hitlist walk derives them whole."""
    config = TopologyConfig.streamed(divisor=1000.0, seed=2021)
    lazy = LazyTopology(config=config, max_resident=512)
    assert lazy.device_count > 2 * lazy.max_resident
    derived: "dict[str, list[tuple]]" = {label: [] for label in SCAN_LABELS}
    scanning: "list[str]" = []
    real_derive = lazy_module.derive_device

    def recording_derive(*args, **kwargs):
        device = real_derive(*args, **kwargs)
        # Facts only: holding the device would keep it resident.
        derived[scanning[-1]].append((
            device.device_id,
            device.device_type,
            device.snmp_open,
            {i.version for i in device.interfaces if i.snmp_reachable},
        ))
        return device

    monkeypatch.setattr(lazy_module, "derive_device", recording_derive)
    campaign = ScanCampaign(
        topology=lazy, config=config, options=ExecutionOptions()
    )
    for stream in campaign.run_streaming():
        scanning.append(stream.label)
        for __ in stream.batches():
            pass
    for label in SCAN_LABELS:
        version = int(label[1])
        assert derived[label], label
        for device_id, device_type, snmp_open, families in derived[label]:
            if device_type is DeviceType.LOAD_BALANCER:
                continue
            assert snmp_open and version in families, (label, device_id)
    counts = {label: len(derived[label]) for label in SCAN_LABELS}
    assert counts["v6-2"] <= counts["v6-1"] // 2, counts
    assert counts["v4-2"] < counts["v4-1"], counts


def _count_encoded_and_delivered(monkeypatch, config, **options_kw):
    """Run one lazy campaign; per scan, its metrics and the targets the
    probe encoder and the fabric each received."""
    received = {"rendered": 0, "delivered": 0}
    render_batch = DiscoveryProbeTemplate.render_batch
    inject_probe_batch = FabricView.inject_probe_batch

    def counting_render(self, msg_ids):
        received["rendered"] += len(msg_ids)
        return render_batch(self, msg_ids)

    def counting_inject(self, source, sport, dport, targets, *args, **kwargs):
        received["delivered"] += len(targets)
        return inject_probe_batch(
            self, source, sport, dport, targets, *args, **kwargs
        )

    monkeypatch.setattr(DiscoveryProbeTemplate, "render_batch", counting_render)
    monkeypatch.setattr(FabricView, "inject_probe_batch", counting_inject)
    campaign = ScanCampaign(
        topology=LazyTopology(config=config), config=config,
        options=ExecutionOptions(**options_kw),
    )
    scans = []
    for stream in campaign.run_streaming():
        before = dict(received)
        for __ in stream.batches():
            pass
        scans.append((
            stream.execution.metrics,
            received["rendered"] - before["rendered"],
            received["delivered"] - before["delivered"],
        ))
    return scans


def test_probes_nothing_answers_are_neither_encoded_nor_delivered(monkeypatch):
    """Planning tallies a lazy probe that nothing answers: the encoder
    renders, and the fabric receives, exactly each scan's answering
    probes, while every probe still counts as sent and, unanswered, as
    dropped for want of an endpoint."""
    scans = _count_encoded_and_delivered(monkeypatch, make_config())
    for metrics, rendered, delivered in scans:
        answering = sum(
            shard.injected - shard.dropped_no_endpoint
            for shard in metrics.shards
        )
        assert 0 < answering < metrics.probes_sent, metrics.label
        assert rendered == answering, metrics.label
        assert delivered == answering, metrics.label
        assert metrics.probes_sent == metrics.targets, metrics.label


def test_retry_policies_still_deliver_every_target(monkeypatch):
    """Retries re-probe an unanswered target and feed its device's
    breaker, so under the adversarial-retries policy every probe, first
    or retried, reaches the fabric."""
    scans = _count_encoded_and_delivered(
        monkeypatch, make_config(adversarial_frac=0.15),
        fault_profile="chaos",
        retry=RetryPolicy(max_retries=2, timeout=1.5, breaker_threshold=3),
    )
    for metrics, __, delivered in scans:
        assert metrics.retries > 0, metrics.label
        assert delivered == metrics.probes_sent, metrics.label
        assert metrics.probes_sent == metrics.targets + metrics.retries


#: One lazy campaign in a fresh interpreter, so its peak RSS is that
#: campaign's alone.  The peak is the kernel's VmHWM for the process, not
#: ``ru_maxrss``: Linux carries ``ru_maxrss`` across ``execve``, so a
#: child of a large pytest process would report its parent's peak.  The
#: window is smaller than the small tier, so both tiers run many windows
#: and the ratio measures growth, not the one-window state.
_RSS_CHILD = r"""
import json, re, sys
from repro.scanner.campaign import ScanCampaign
from repro.scanner.executor import ExecutionOptions
from repro.topology.config import TopologyConfig
from repro.topology.lazy import LazyTopology

config = TopologyConfig.streamed(divisor=float(sys.argv[1]), seed=2021)
topology = LazyTopology(config=config, max_resident=512)
campaign = ScanCampaign(
    topology=topology, config=config,
    options=ExecutionOptions(target_window=4096),
)
probes = 0
for stream in campaign.run_streaming():
    for batch in stream.batches():
        pass
    probes += stream.execution.metrics.probes_sent
with open("/proc/self/status") as status:
    peak_kb = int(re.search(r"VmHWM:\s+(\d+) kB", status.read()).group(1))
print(json.dumps({
    "targets_probed": probes,
    "peak_rss_kb": peak_kb,
    "device_count": topology.device_count,
    "peak_resident": topology.peak_resident,
    "max_resident": topology.max_resident,
}))
"""


def _measure_lazy_campaign(divisor: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, str(divisor)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def test_peak_rss_stays_flat_across_a_tenfold_lazy_campaign():
    """A lazy campaign's memory is a function of its residency window,
    not of the address space: ~19k then ~194k targets, each tier in its
    own process."""
    small, big = (_measure_lazy_campaign(d) for d in (4000.0, 400.0))
    for tier in (small, big):
        assert tier["peak_resident"] <= 2 * tier["max_resident"], tier
        if tier["device_count"] > 2 * tier["max_resident"]:
            assert tier["peak_resident"] < tier["device_count"], tier
        assert tier["peak_rss_kb"] / 1024.0 <= 512, tier
    growth = big["targets_probed"] / small["targets_probed"]
    rss_ratio = big["peak_rss_kb"] / small["peak_rss_kb"]
    assert growth > 5, "tiers must differ enough to prove anything"
    assert rss_ratio < 1.5, (
        f"peak RSS grew {rss_ratio:.2f}x over a {growth:.1f}x target growth"
    )


def test_streaming_never_prebinds_the_fabric():
    """Before the first scan a lazy campaign has touched no devices at
    all; after it, only what the probes demanded."""
    config = make_config()
    lazy = LazyTopology(config=config)
    campaign = ScanCampaign(
        topology=lazy, config=config, options=ExecutionOptions()
    )
    assert lazy.derivations == 0
    campaign.run()
    assert lazy.derivations > 0


# -- ground-truth surface -------------------------------------------------------


def test_lazy_bindings_empty_but_queryable(lazy_run):
    """Lazy campaigns leave per-scan ``result.bindings`` empty by
    contract; the topology answers ownership queries instead, and the
    device it binds to each address answered that address's last scan."""
    lazy, result = lazy_run
    assert set(result.bindings) == set(SCAN_LABELS)
    assert all(not snapshot for snapshot in result.bindings.values())
    # v4-2 is the campaign's last scan (the v4 inter-scan gap is six
    # days to IPv6's one), so the world now holds both churn rounds.
    checked = 0
    for address, observation in result.scans["v4-2"].observations.items():
        if observation.engine_id is None:
            continue
        device = lazy.binding_of(address)
        assert device is not None, address
        agents = (
            [device.agent]
            if device.agent_pool is None
            else device.agent_pool.backends
        )
        assert observation.engine_id.raw in {
            agent.engine_id.raw for agent in agents
        }, address
        checked += 1
    assert checked
