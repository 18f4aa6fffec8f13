"""Differential conformance: fault-injected retrying scans must converge.

The harness runs the same four-scan campaign twice over one topology:

* **baseline** — loss-free, fault-free, single probe per target: the
  ground-truth measurement;
* **faulted** — 10% packet loss plus the ``"conformance"`` fault profile
  (duplication, reordering, per-address rate limiting — *delivery* noise
  only, content is never altered), with bounded retries to claw the
  answers back.

The contract: after the filter pipeline and alias resolution, the two
campaigns describe the *same Internet*.  Raw observation sets (on stable
content keys — receive times legitimately shift under retries), filtered
record sets and alias sets must all be equal.

Two populations are excluded from the comparisons, both for the same
reason — their *reported identity legitimately depends on when (or how
often) they are probed*, which is exactly what fault injection perturbs:

* **load-balancer VIPs** — the
  :class:`~repro.snmp.loadbalancer.AgentPool` answers with whichever
  backend the round-robin cursor points at, so a retried probe (one
  extra handled request) gets a different engine ID than the baseline's
  single probe;
* **threshold-borderline responders** — devices whose baseline
  inter-scan reboot-time delta sits within a guard band of the
  10-second "inconsistent reboot time" cut-off.  Engine time is
  reported in whole seconds, so shifting a probe by a retry delay moves
  the derived last-reboot time by up to ±1s per scan; a delta of 9.7s
  vs 10.2s is measurement noise, not a different router.  The same
  quantization applies to alias resolution's 20-second reboot-time
  bins, so addresses whose baseline last-reboot lands within the guard
  band of a bin boundary are excluded too.

Both exclusion sets are computed from ground truth / the baseline run
alone (never from the faulted run), so the comparison cannot mask a
real regression in the faulted path.

The faulted campaign runs serially; a dedicated test proves it
byte-identical at 2 and 4 workers, so the convergence holds at 1, 2 and
4 workers alike.
"""

import pytest

from repro.alias.snmpv3 import resolve_aliases
from repro.pipeline.filters import FilterPipeline
from repro.scanner.campaign import SCAN_LABELS, ScanCampaign
from repro.scanner.executor import ExecutionOptions, RetryPolicy
from repro.topology.config import TopologyConfig
from repro.topology.generator import build_topology

SEED = 33
FAULTED_WORKERS = 1

#: Residual per-target failure after 6 retries at 10% loss per path is
#: ~0.19^7 ≈ 9e-6 — and the run is deterministic per seed, so "converged
#: at this seed" is a stable property, not a flaky one.
RETRY = RetryPolicy(max_retries=6, timeout=2.0)


def _run_campaign(**options):
    config = TopologyConfig.tiny(seed=SEED)
    topology = build_topology(config)
    return ScanCampaign(
        topology=topology, config=config, options=ExecutionOptions(**options)
    ).run()


@pytest.fixture(scope="module")
def vips():
    """Ground-truth load-balancer VIP addresses (excluded everywhere)."""
    topology = build_topology(TopologyConfig.tiny(seed=SEED))
    return {
        interface.address
        for device in topology.devices.values()
        if device.agent_pool is not None
        for interface in device.interfaces
    }


#: Guard band around the reboot-time filter threshold: per-scan engine
#: times quantize to whole seconds, so probe-time shifts move the
#: inter-scan delta by up to ~2s.
REBOOT_GUARD_BAND = 2.0


@pytest.fixture(scope="module")
def baseline():
    return _run_campaign(loss_probability=0.0, workers=1)


def _baseline_reboot_pairs(baseline):
    for version in (4, 6):
        first, second = baseline.scan_pair(version)
        for address, obs_1 in first.observations.items():
            obs_2 = second.observations.get(address)
            if obs_2 is None or obs_1.engine_id is None or obs_2.engine_id is None:
                continue
            yield address, obs_1.last_reboot_time, obs_2.last_reboot_time


@pytest.fixture(scope="module")
def excluded(baseline, vips):
    """VIPs plus threshold-borderline responders (see module docstring)."""
    from repro.pipeline.filters import DEFAULT_REBOOT_THRESHOLD

    out = set(vips)
    for address, reboot_1, reboot_2 in _baseline_reboot_pairs(baseline):
        if abs(abs(reboot_2 - reboot_1) - DEFAULT_REBOOT_THRESHOLD) \
                <= REBOOT_GUARD_BAND:
            out.add(address)
    return out


@pytest.fixture(scope="module")
def alias_excluded(baseline, excluded):
    """``excluded`` plus bin-boundary responders, for the alias stage only.

    Alias resolution bins last-reboot times into 20-second buckets; the
    generated topology boots many devices at round timestamps, so a large
    slice of the population sits within quantization range of a bucket
    edge.  Those edges only matter to binning — the raw and filtered
    comparisons keep the full population.
    """

    def near_bin_boundary(last_reboot):
        distance = last_reboot % 20.0
        return min(distance, 20.0 - distance) <= REBOOT_GUARD_BAND

    out = set(excluded)
    for address, reboot_1, reboot_2 in _baseline_reboot_pairs(baseline):
        if near_bin_boundary(reboot_1) or near_bin_boundary(reboot_2):
            out.add(address)
    return out


@pytest.fixture(scope="module")
def faulted():
    return _run_campaign(
        loss_probability=0.1,
        fault_profile="conformance",
        retry=RETRY,
        workers=FAULTED_WORKERS,
    )


def _stable_keys(scan, vips):
    """Content-only view of a scan: what the target *said*, not when.

    Receive times (and therefore engine times) shift under retries, and
    duplication inflates response counts — none of that is identity.
    """
    return {
        address: (
            None if obs.engine_id is None else obs.engine_id.raw,
            obs.engine_boots,
        )
        for address, obs in scan.observations.items()
        if address not in vips
    }


def _filtered_views(result, vips):
    pipeline = FilterPipeline()
    views = {}
    for version in (4, 6):
        valid = pipeline.run(*result.scan_pair(version)).valid
        views[version] = {
            r.address: r.engine_id.raw for r in valid if r.address not in vips
        }
    return views


class TestConvergence:
    def test_raw_observation_sets_converge(self, baseline, faulted, vips):
        for label in SCAN_LABELS:
            assert _stable_keys(faulted.scans[label], vips) == \
                _stable_keys(baseline.scans[label], vips), label

    def test_filtered_record_sets_converge(self, baseline, faulted, excluded):
        base_views = _filtered_views(baseline, excluded)
        fault_views = _filtered_views(faulted, excluded)
        for version in (4, 6):
            assert fault_views[version] == base_views[version], f"IPv{version}"

    def test_alias_sets_converge(self, baseline, faulted, alias_excluded):
        pipeline = FilterPipeline()
        for version in (4, 6):
            base_sets = resolve_aliases([
                r for r in pipeline.run(*baseline.scan_pair(version)).valid
                if r.address not in alias_excluded
            ])
            fault_sets = resolve_aliases([
                r for r in pipeline.run(*faulted.scan_pair(version)).valid
                if r.address not in alias_excluded
            ])
            assert set(fault_sets.sets) == set(base_sets.sets), f"IPv{version}"
            assert base_sets.sets, f"IPv{version} comparison is vacuous"


class TestHarnessIsNotVacuous:
    def test_exclusions_are_a_small_minority(self, baseline, excluded,
                                             alias_excluded):
        responsive = {
            address
            for label in SCAN_LABELS
            for address in baseline.scans[label].observations
        }
        assert len(excluded & responsive) < 0.1 * len(responsive)
        # The alias stage tolerates a bigger cut (bin-edge clustering),
        # but the compared population must stay substantial.
        assert len(responsive - alias_excluded) > 1000

    def test_faults_actually_fired(self, faulted):
        retries = sum(m.retries for m in faulted.metrics.values())
        duplicated = sum(
            s.duplicated for m in faulted.metrics.values() for s in m.shards
        )
        losses = sum(m.losses for m in faulted.metrics.values())
        assert retries > 0
        assert duplicated > 0
        assert losses > 0

    def test_baseline_is_clean(self, baseline):
        assert sum(m.retries for m in baseline.metrics.values()) == 0
        assert sum(m.losses for m in baseline.metrics.values()) == 0
        assert sum(m.faults_injected for m in baseline.metrics.values()) == 0

    def test_single_probe_would_not_converge(self, baseline):
        """Without retries the faulted campaign loses targets — the
        convergence above is earned by the retry machinery."""
        crippled = _run_campaign(
            loss_probability=0.1, fault_profile="conformance", workers=1
        )
        for label in SCAN_LABELS:
            assert len(crippled.scans[label].observations) < \
                len(baseline.scans[label].observations), label


class TestWorkerInvariance:
    @pytest.mark.parametrize("other_workers", [2, 4])
    def test_faulted_run_identical_across_worker_counts(
        self, faulted, other_workers
    ):
        other = _run_campaign(
            loss_probability=0.1,
            fault_profile="conformance",
            retry=RETRY,
            workers=other_workers,
        )
        for label in SCAN_LABELS:
            assert other.scans[label].observations == \
                faulted.scans[label].observations, label
