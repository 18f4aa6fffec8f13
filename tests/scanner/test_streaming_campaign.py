"""Streaming (windowed, constant-memory) campaigns over streamed worlds.

The streamed campaign path never materializes a scan's target list: the
executor pulls targets through planning windows, and on a lazy topology
devices come into existence only when the fabric resolver first needs
them.  These tests pin the properties that make that safe:

* the full four-scan campaign — including the inter-scan reboot window
  and per-family DHCP churn — is byte-identical between a lazy view and
  the eagerly built streamed world (the churn scheduling regression),
  and replays byte for byte over fresh worlds of either kind;
* results are lazy/eager-identical at every planning-window size and
  worker-invariant at a fixed window (the window, like the shard count,
  is part of the deterministic result geometry);
* the residency cap genuinely bounds live devices while changing nothing,
  and peak RSS stays flat while a lazy campaign's targets grow tenfold;
* ground truth on lazy campaigns is queried from the topology
  (``result.bindings`` stays empty by contract).
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.scanner.campaign import ScanCampaign
from repro.scanner.executor import ExecutionOptions
from repro.topology.config import TopologyConfig
from repro.topology.generator import build_topology
from repro.topology.lazy import LazyTopology

DIVISOR = 4000.0
SEED = 1177


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


@pytest.fixture(scope="module")
def eager_result():
    config = make_config()
    return run_streamed(build_topology(config), config)


@pytest.fixture(scope="module")
def eager_fingerprint(eager_result):
    return scans_fingerprint(eager_result)


# -- churn / reboot scheduling regression ---------------------------------------


def test_multi_scan_family_is_byte_identical_lazy_vs_eager(eager_fingerprint):
    """The whole campaign — both rounds of both families, with reboots
    applied in the inter-scan window and churn active for round two —
    matches the eager world observation for observation."""
    config = make_config()
    lazy_result = run_streamed(LazyTopology(config=config), config)
    assert scans_fingerprint(lazy_result) == eager_fingerprint


def test_fresh_worlds_replay_byte_identically(eager_fingerprint):
    """A world is a pure function of its seed: campaigns over freshly
    built worlds in one process, eager and lazy, reproduce the first
    eager campaign and each other byte for byte."""
    config = make_config()
    eager_again = run_streamed(build_topology(config), config)
    lazy = [run_streamed(LazyTopology(config=config), config) for _ in range(2)]
    assert scans_fingerprint(eager_again) == eager_fingerprint
    assert scans_fingerprint(lazy[0]) == scans_fingerprint(lazy[1])
    assert scans_fingerprint(lazy[1]) == eager_fingerprint


def test_campaign_genuinely_churns_and_reboots(eager_result):
    """Guard the regression test's power: round two must actually differ
    from round one (addresses changed hands, boot counters moved) —
    otherwise the byte-identity above proves nothing about scheduling."""
    moved = 0
    rebooted = 0
    for version in (4, 6):
        first, second = (
            eager_result.scans[f"v{version}-1"],
            eager_result.scans[f"v{version}-2"],
        )
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
    assert moved > 0
    assert rebooted > 0


# -- window / worker geometry ---------------------------------------------------
#
# The planning-window size is part of the deterministic result geometry
# (each window is shard-planned independently, so it keys the fault
# streams the way the shard count does).  The contract is therefore NOT
# window invariance but lazy/eager identity at every window size, plus
# worker invariance at a fixed window.


@pytest.mark.parametrize("target_window", [64, 512, 100_000])
def test_lazy_matches_eager_at_every_window_size(target_window):
    """64 forces many ragged windows; 100k exceeds every scan (one
    window); lazy and eager never diverge at any of them."""
    config = make_config()
    lazy_result = run_streamed(
        LazyTopology(config=config), config, target_window=target_window
    )
    eager = run_streamed(
        build_topology(config), config, target_window=target_window
    )
    assert scans_fingerprint(lazy_result) == scans_fingerprint(eager)


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
    eager = run_streamed(build_topology(config), config, target_window=2048)
    assert scans_fingerprint(result) == scans_fingerprint(eager)
    # Two strong-reference pools each honour the cap (the topology's
    # recent-derivation window and the campaign's resolved-handler
    # cache), so residency is bounded by twice the knob — O(cap), never
    # O(world).
    assert lazy.peak_resident <= 2 * lazy.max_resident
    assert lazy.peak_resident < lazy.device_count
    # Eviction forced re-derivation (the materialized working set
    # exceeded the cap); correctness came from purity, not from keeping
    # state alive.  Derivations stay below the device count because the
    # snapshot filter keeps closed devices from ever materializing.
    assert lazy.derivations > lazy.max_resident


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


def test_lazy_bindings_empty_but_queryable(eager_result):
    """Lazy campaigns leave per-scan ``result.bindings`` empty by
    contract; the topology answers ownership queries instead, and agrees
    with the eager campaign's recorded final bindings."""
    config = make_config()
    lazy = LazyTopology(config=config)
    result = run_streamed(lazy, config)
    assert set(result.bindings) == set(eager_result.bindings)
    assert all(not snapshot for snapshot in result.bindings.values())
    # v4-2 is the campaign's last scan (the v4 inter-scan gap is six
    # days to IPv6's one), so its snapshot has both churn rounds applied.
    final = eager_result.bindings["v4-2"]
    assert final
    for address, device_id in list(final.items())[:500]:
        assert lazy.owner_of(address) == device_id


def test_streamed_campaign_still_populates_eager_bindings(eager_result):
    for label, scan in eager_result.scans.items():
        bound = set(eager_result.bindings[label])
        assert bound
        assert set(scan.observations) <= bound
