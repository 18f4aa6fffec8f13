"""Unit tests for the shared ExperimentContext plumbing."""

import pytest

from repro.api import Session
from repro.experiments import ExperimentContext
from repro.topology.config import TopologyConfig


class TestContextCaching:
    def test_cached_properties_are_stable(self, ctx):
        assert ctx.alias_dual is ctx.alias_dual
        assert ctx.router_sets is ctx.router_sets
        assert ctx.record_by_address is ctx.record_by_address

    def test_valid_records_match_pipeline(self, ctx):
        assert len(ctx.valid_v4) == ctx.pipeline_v4.stats.valid_count
        assert len(ctx.valid_v6) == ctx.pipeline_v6.stats.valid_count

    def test_record_index_covers_both_families(self, ctx):
        versions = {a.version for a in ctx.record_by_address}
        assert versions == {4, 6}

    def test_merged_views_cached(self, ctx):
        assert ctx.merged_v4 is ctx.merged_v4
        assert len(ctx.merged_v4) > 0


class TestRouterTagging:
    def test_router_sets_subset_of_dual(self, ctx):
        dual_ids = {id(g) for g in ctx.alias_dual.sets}
        assert all(id(g) in dual_ids for g in ctx.router_sets.sets)

    def test_is_router_set_consistency(self, ctx):
        for group in ctx.router_sets.sets[:50]:
            assert ctx.is_router_set(group)

    def test_responsive_router_ips_within_dataset(self, ctx):
        assert ctx.responsive_router_ips_v4 <= set(ctx.datasets.union_v4)


class TestAsAttribution:
    def test_as_of_set_matches_ground_truth(self, ctx):
        checked = 0
        for group in ctx.alias_dual.sets[:100]:
            asn = ctx.as_of_set(group)
            if asn is None:
                continue
            device = ctx.topology.device_of_address(next(iter(group)))
            if device is not None:
                assert asn == device.asn
                checked += 1
        assert checked > 50

    def test_as_tie_goes_to_the_smaller_asn(self, ctx):
        """A set split evenly between two ASes belongs to the smaller
        ASN, whatever order the frozenset iterates in."""
        first_address = {}
        for device in ctx.topology.devices.values():
            if device.addresses:
                first_address.setdefault(device.asn, device.addresses[0])
        asns = sorted(first_address)
        assert len(asns) > 40
        for low, high in zip(asns[:20], asns[-20:]):
            pair = frozenset({first_address[low], first_address[high]})
            assert ctx.as_of_set(pair) == low

    def test_as_of_empty_counts(self, ctx):
        import ipaddress

        unknown = frozenset({ipaddress.ip_address("203.0.113.199")})
        assert ctx.as_of_set(unknown) is None


class TestVendorViews:
    def test_device_vendor_count_matches_sets(self, ctx):
        assert len(ctx.device_vendors) == ctx.alias_dual.count

    def test_router_vendor_count_matches_router_sets(self, ctx):
        assert len(ctx.router_vendors) == ctx.router_sets.count

    def test_router_reboots_one_per_set(self, ctx):
        assert len(ctx.router_last_reboots) <= ctx.router_sets.count

    def test_verdicts_are_the_sessions(self, ctx):
        """Figures 11 and 12 read the session's one set of verdicts."""
        assert ctx.device_vendors is ctx.session.device_vendors
        verdicts = {id(g): v for g, v in ctx.device_vendors}
        assert [g for g, __ in ctx.router_vendors] == ctx.router_sets.sets
        assert all(v is verdicts[id(g)] for g, v in ctx.router_vendors)


class TestCustomPipeline:
    def test_custom_pipeline_threads_through(self):
        def context(threshold):
            return ExperimentContext(Session(
                config=TopologyConfig.tiny(seed=19), reboot_threshold=threshold
            ))

        loose, strict = context(120.0), context(2.0)
        assert len(loose.valid_v4) > len(strict.valid_v4)
        assert loose.pipeline_v4.stats.removed["inconsistent-reboot-time"] < \
            strict.pipeline_v4.stats.removed["inconsistent-reboot-time"]


class TestWorldKinds:
    def test_streamed_config_is_rejected(self):
        with pytest.raises(ValueError, match="LazyTopology"):
            ExperimentContext.create(TopologyConfig.streamed(divisor=4000, seed=3))
