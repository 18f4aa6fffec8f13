"""Tests for the extension experiments (middlebox inference, monitoring)."""

import pytest

from repro.experiments.extensions import longitudinal_experiment, middlebox_experiment
from repro.scanner.campaign import ScanCampaign
from repro.topology import timeline


class TestMiddleboxExperiment:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return middlebox_experiment(ctx)

    def test_nat_mining(self, result):
        assert result.nats_found > 0
        assert result.report.nat_precision == 1.0
        assert result.report.nat_recall > 0.4

    def test_lb_burst(self, result):
        assert result.report.lb_precision == 1.0
        # Triage catches round-robin pools; source-hash pools can hide.
        assert 0.3 < result.report.lb_recall <= 1.0

    def test_triage_is_selective(self, result, ctx):
        scan1, __ = ctx.campaign.scan_pair(4)
        assert result.lb_candidates_probed < scan1.responsive_count


class TestLongitudinalExperiment:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return longitudinal_experiment(ctx, offsets_days=(30.0, 180.0))

    def test_snapshots_in_order(self, result):
        assert [s.offset_days for s in result.snapshots] == [30.0, 180.0]

    def test_engine_ids_persistent(self, result):
        """The property the whole technique rests on: the identifier does
        not drift over months."""
        for snapshot in result.snapshots:
            assert snapshot.persistence_fraction > 0.99

    def test_population_roughly_stable(self, result):
        for snapshot in result.snapshots:
            churn = snapshot.new_addresses + snapshot.gone_addresses
            assert churn < 0.2 * snapshot.responsive

    def test_uptime_grows_between_snapshots(self, result):
        first, second = result.snapshots
        assert second.median_uptime_days > first.median_uptime_days + 100

    def test_follow_ups_see_scheduled_reboots(self, ctx, monkeypatch):
        """Every device scheduled to reboot during the campaign has done so
        by the +30 d follow-up.  The hour allows for agent clock skew,
        which shifts an inferred reboot time by a few seconds."""
        scans = []
        run_targeted = ScanCampaign.run_targeted

        def capture(campaign, *args, **kwargs):
            scan = run_targeted(campaign, *args, **kwargs)
            scans.append(scan)
            return scan

        monkeypatch.setattr(ScanCampaign, "run_targeted", capture)
        longitudinal_experiment(ctx, offsets_days=(30.0,))
        (scan,) = scans
        owners = ctx.topology.address_owners()
        floor = timeline.SCAN1_V6_START - 3600.0
        late = set()
        rebooting = set()
        for address, obs in scan.observations.items():
            device = ctx.topology.devices[owners[address]]
            if obs.engine_id is None or not device.reboot_between_scans:
                continue
            rebooting.add(device.device_id)
            if obs.last_reboot_time < floor:
                late.add(device.device_id)
        assert rebooting
        assert not late, f"{len(late)} of {len(rebooting)} devices"
