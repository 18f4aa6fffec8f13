"""Unit tests for the topology generator."""


import pytest

from repro.net.addresses import is_routable_ipv4
from repro.oui.registry import default_registry
from repro.snmp.engine_id import EngineIdFormat
from repro.topology.config import TopologyConfig
from repro.topology.generator import _poisson, build_topology
from repro.topology.model import DeviceType, Region


@pytest.fixture(scope="module")
def topo():
    return build_topology(TopologyConfig.tiny(seed=77))


class TestDeterminism:
    def test_same_seed_same_topology(self):
        a = build_topology(TopologyConfig.tiny(seed=5))
        b = build_topology(TopologyConfig.tiny(seed=5))
        assert a.device_count == b.device_count
        for device_id in list(a.devices)[:50]:
            da, db = a.devices[device_id], b.devices[device_id]
            assert da.vendor == db.vendor
            assert da.engine_id.raw == db.engine_id.raw
            assert [i.address for i in da.interfaces] == [i.address for i in db.interfaces]

    def test_different_seed_differs(self):
        a = build_topology(TopologyConfig.tiny(seed=5))
        b = build_topology(TopologyConfig.tiny(seed=6))
        assert any(
            a.devices[i].engine_id.raw != b.devices[i].engine_id.raw
            for i in list(a.devices)[:50]
            if i in b.devices
        )

    def test_streamed_config_is_left_to_the_lazy_topology(self):
        with pytest.raises(ValueError, match="LazyTopology"):
            build_topology(TopologyConfig.streamed(divisor=4000, seed=77))


class TestPopulation:
    def test_counts_near_config(self, topo):
        cfg = TopologyConfig.tiny(seed=77)
        assert topo.router_count == cfg.n_routers
        n_lbs = round(cfg.n_servers * cfg.lb_frac_of_servers)
        expected = cfg.n_routers + cfg.n_servers + cfg.n_cpe + n_lbs
        assert abs(topo.device_count - expected) <= 2

    def test_every_as_has_at_least_one_router(self, topo):
        for asys in topo.ases.values():
            routers = [
                d for d in topo.devices_in_as(asys.asn)
                if d.device_type is DeviceType.ROUTER
            ]
            assert routers, f"AS{asys.asn} has no routers"

    def test_all_regions_present(self, topo):
        regions = {a.region for a in topo.ases.values()}
        assert regions == set(Region)

    def test_device_as_assignment_consistent(self, topo):
        for asys in topo.ases.values():
            for device_id in asys.device_ids:
                assert topo.devices[device_id].asn == asys.asn


class TestAddressing:
    def test_addresses_unique(self, topo):
        seen = set()
        for device in topo.devices.values():
            for interface in device.interfaces:
                assert interface.address not in seen
                seen.add(interface.address)

    def test_addresses_inside_as_prefix(self, topo):
        for asys in topo.ases.values():
            for device_id in asys.device_ids:
                for interface in topo.devices[device_id].interfaces:
                    prefix = asys.ipv4_prefix if interface.version == 4 else asys.ipv6_prefix
                    assert interface.address in prefix

    def test_v4_addresses_globally_routable(self, topo):
        for address in topo.all_addresses(4):
            assert is_routable_ipv4(address)

    def test_device_of_address_ground_truth(self, topo):
        device = next(iter(topo.devices.values()))
        for interface in device.interfaces:
            assert topo.device_of_address(interface.address) is device


class TestEngineIds:
    def test_mac_engine_ids_match_interface_mac(self, topo):
        for device in topo.devices.values():
            eid = device.engine_id
            if eid.format is EngineIdFormat.MAC and eid.mac.value != 0 \
                    and not eid.mac.packed.startswith(b"\xa0"):
                macs = {i.mac for i in device.interfaces if i.mac is not None}
                shared_models = False
                if eid.mac not in macs:
                    # Shared/cloned engine IDs are the exception.
                    shared_models = True
                assert eid.mac in macs or shared_models

    def test_net_snmp_devices_use_net_snmp_format(self, topo):
        for device in topo.devices.values():
            if device.vendor != "Net-SNMP":
                continue
            if device.engine_id.data[:1] in (b"\xa0", b"\xa1"):
                continue  # promiscuous factory-default population
            assert device.engine_id.format is EngineIdFormat.NET_SNMP

    def test_shared_bug_population_exists(self):
        cfg = TopologyConfig.tiny(seed=3)
        cfg.cisco_shared_bug_frac = 0.5
        topo = build_topology(cfg)
        bug = bytes.fromhex("8000000903000000000000")
        count = sum(1 for d in topo.devices.values() if d.engine_id.raw == bug)
        assert count > 10

    def test_engine_ids_mostly_unique(self, topo):
        raws = [d.engine_id.raw for d in topo.devices.values()]
        # Shared-bug/cloned populations are bounded; uniqueness dominates.
        assert len(set(raws)) > 0.9 * len(raws)


class TestQuirkPopulations:
    def test_quirk_fractions_materialize(self):
        cfg = TopologyConfig(seed=11, scale_divisor=200.0)
        topo = build_topology(cfg)
        devices = list(topo.devices.values())
        zero_time = sum(1 for d in devices if d.agent.behavior.report_zero_time)
        amplifiers = sum(1 for d in devices if d.agent.behavior.amplification_count > 1)
        future = sum(1 for d in devices if d.agent.behavior.future_time_offset > 0)
        reboots = sum(1 for d in devices if d.reboot_between_scans)
        n = len(devices)
        assert 0.03 < zero_time / n < 0.11
        assert amplifiers >= 1
        assert future >= 1
        assert 0.06 < reboots / n < 0.20

    def test_uptime_distribution_matches_mixture(self, topo):
        from repro.topology import timeline

        uptimes = [
            (timeline.SCAN1_V4_START - d.agent.boot_time) / 86400
            for d in topo.devices.values()
            if not d.reboot_between_scans
        ]
        n = len(uptimes)
        month = sum(1 for u in uptimes if u <= 30) / n
        over_year = sum(1 for u in uptimes if u > 365) / n
        assert 0.10 < month < 0.26
        assert 0.18 < over_year < 0.40

    def test_router_clocks_tighter_than_cpe(self, topo):
        router_skews = [
            abs(d.agent.behavior.clock_skew)
            for d in topo.devices.values()
            if d.device_type is DeviceType.ROUTER
        ]
        cpe_skews = [
            abs(d.agent.behavior.clock_skew)
            for d in topo.devices.values()
            if d.device_type is DeviceType.CPE
        ]
        assert sum(router_skews) / len(router_skews) < sum(cpe_skews) / len(cpe_skews)


class TestVendorMix:
    def test_router_vendor_ordering(self, topo):
        counts = topo.vendor_counts(DeviceType.ROUTER)
        assert counts["Cisco"] == max(counts.values())
        assert counts.get("Huawei", 0) > counts.get("Brocade", 0)

    def test_na_region_has_no_huawei_routers(self, topo):
        for device in topo.routers():
            if device.region is Region.NA:
                assert device.vendor != "Huawei"

    def test_all_router_vendors_in_registry_or_software(self, topo):
        registry = default_registry()
        from repro.oui.enterprise import has_enterprise_number

        for device in topo.routers():
            assert has_enterprise_number(device.vendor) or registry.vendors()


class TestPoisson:
    def test_zero_lambda(self):
        import random

        assert _poisson(random.Random(1), 0.0) == 0

    def test_small_lambda_mean(self):
        import random

        rng = random.Random(2)
        samples = [_poisson(rng, 3.0) for __ in range(2000)]
        assert 2.8 < sum(samples) / len(samples) < 3.2

    def test_large_lambda_gaussian_branch(self):
        import random

        rng = random.Random(3)
        samples = [_poisson(rng, 100.0) for __ in range(500)]
        assert 95 < sum(samples) / len(samples) < 105
