"""Extension experiments beyond the paper's evaluation.

* :func:`middlebox_experiment` — the §9 future work ("inferring NAT and
  load balancers in the wild"), made concrete: mine NAT gateways from the
  engine IDs the §4.4 pipeline discards, and find load-balanced VIPs via
  burst re-probing, scored against simulator ground truth;
* :func:`longitudinal_experiment` — the §6.3 promise ("we are currently
  launching more campaigns and will continue monitoring"): repeat the
  campaign at later dates and measure engine-ID persistence, device churn
  and the evolution of the uptime distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.context import ExperimentContext
from repro.fingerprint.middlebox import MiddleboxDetector, MiddleboxReport
from repro.scanner.campaign import ScanCampaign
from repro.topology import timeline


# -- §9 future work: middleboxes --------------------------------------------------


@dataclass(frozen=True)
class MiddleboxExperiment:
    """Detection results plus the populations involved."""

    report: MiddleboxReport
    observations_mined: int
    lb_candidates_probed: int

    @property
    def nats_found(self) -> int:
        return len(self.report.nats)

    @property
    def lbs_found(self) -> int:
        return len(self.report.load_balancers)


def middlebox_experiment(ctx: ExperimentContext) -> MiddleboxExperiment:
    """Run NAT mining + LB burst-probing on the campaign's observations.

    The LB burst is restricted to addresses whose scan-pair responses
    already looked suspicious (engine ID flips between the scans) plus a
    sample of stable responders — the triage a real measurement would do
    instead of bursting the whole Internet.
    """
    scan1_v4, scan2_v4 = ctx.campaign.scan_pair(4)
    scan1_v6, __ = ctx.campaign.scan_pair(6)
    observations = list(scan1_v4.observations.values()) + list(
        scan1_v6.observations.values()
    )

    # Triage: flip-between-scans candidates first, then every 20th stable
    # responder as a control group.
    flip_candidates = []
    stable_sample = []
    for index, (address, obs1) in enumerate(sorted(
        scan1_v4.observations.items(), key=lambda kv: int(kv[0])
    )):
        obs2 = scan2_v4.observations.get(address)
        if obs2 is None or obs1.engine_id is None or obs2.engine_id is None:
            continue
        if obs1.engine_id.raw != obs2.engine_id.raw:
            flip_candidates.append(address)
        elif index % 20 == 0:
            stable_sample.append(address)
    candidates = flip_candidates + stable_sample

    detector = MiddleboxDetector(ctx.topology)
    report = detector.run(observations, lb_candidates=candidates)
    return MiddleboxExperiment(
        report=report,
        observations_mined=len(observations),
        lb_candidates_probed=len(candidates),
    )


# -- §6.3 monitoring: longitudinal campaigns ------------------------------------------


@dataclass(frozen=True)
class LongitudinalSnapshot:
    """One follow-up scan, months after the original campaign."""

    label: str
    offset_days: float
    responsive: int
    persistent_engine_ids: int    # same engine ID as the original scan
    changed_engine_ids: int       # address now shows a different engine ID
    new_addresses: int            # responsive now, silent originally
    gone_addresses: int           # responsive originally, silent now
    median_uptime_days: float

    @property
    def persistence_fraction(self) -> float:
        compared = self.persistent_engine_ids + self.changed_engine_ids
        if compared == 0:
            return 1.0
        return self.persistent_engine_ids / compared


@dataclass
class LongitudinalExperiment:
    """Engine-ID persistence over follow-up campaigns."""

    snapshots: list[LongitudinalSnapshot] = field(default_factory=list)


def longitudinal_experiment(
    ctx: ExperimentContext,
    offsets_days: "tuple[float, ...]" = (30.0, 90.0, 180.0),
) -> LongitudinalExperiment:
    """Re-scan the same Internet at later dates.

    Devices keep running (uptimes grow), a fraction reboot in between
    (boots increment), DHCP-pool devices re-address — but engine IDs
    persist across all of it, which is precisely why the paper calls the
    engine ID a *strong, persistent* identifier.

    The follow-ups are targeted scans of one campaign over the same
    world, so they see the campaign's link model and its scheduled
    reboots.
    """
    campaign = ScanCampaign(topology=ctx.topology, config=ctx.config)
    targets = sorted(ctx.topology.all_addresses(4), key=int)
    base_scan, __ = ctx.campaign.scan_pair(4)
    baseline = {
        address: obs.engine_id.raw
        for address, obs in base_scan.observations.items()
        if obs.engine_id is not None and obs.engine_id.raw
    }

    result = LongitudinalExperiment()
    for offset in offsets_days:
        start = timeline.SCAN1_V4_START + offset * timeline.SECONDS_PER_DAY
        scan = campaign.run_targeted(
            targets,
            label=f"follow-up+{offset:g}d",
            ip_version=4,
            start_time=start,
        )
        persistent = 0
        changed = 0
        new = 0
        uptimes = []
        for address, obs in scan.observations.items():
            if obs.engine_id is None or not obs.engine_id.raw:
                continue
            if obs.engine_time > 0:
                uptimes.append((obs.recv_time - obs.last_reboot_time) / 86_400)
            original = baseline.get(address)
            if original is None:
                new += 1
            elif original == obs.engine_id.raw:
                persistent += 1
            else:
                changed += 1
        gone = sum(1 for address in baseline if address not in scan.observations)
        uptimes.sort()
        result.snapshots.append(
            LongitudinalSnapshot(
                label=scan.label,
                offset_days=offset,
                responsive=scan.responsive_count,
                persistent_engine_ids=persistent,
                changed_engine_ids=changed,
                new_addresses=new,
                gone_addresses=gone,
                median_uptime_days=uptimes[len(uptimes) // 2] if uptimes else 0.0,
            )
        )
    return result
