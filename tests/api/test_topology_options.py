"""The TopologyOptions bundle on the Session facade."""

import pytest

from repro.api import Session, TopologyOptions
from repro.scanner.campaign import ScanCampaign
from repro.topology import LazyTopology, Topology
from repro.topology.config import TopologyConfig
from repro.topology.datasets import dump_topology_file


class TestValidation:
    def test_topology_file_conflicts_with_lazy(self):
        with pytest.raises(ValueError, match="cannot be combined"):
            TopologyOptions(topology_file="x.txt", lazy=True)

    def test_max_resident_requires_lazy(self):
        with pytest.raises(ValueError, match="max_resident"):
            TopologyOptions(max_resident=1024)

    @pytest.mark.parametrize("max_resident", [0, 511])
    def test_max_resident_below_the_floor_is_rejected(self, max_resident):
        config = TopologyConfig.streamed(divisor=4000, seed=3)
        with pytest.raises(ValueError, match="at least 512"):
            LazyTopology(config=config, max_resident=max_resident)
        session = Session(
            config=config,
            topology=TopologyOptions(lazy=True, max_resident=max_resident),
        )
        with pytest.raises(ValueError, match="at least 512"):
            session.topology


class TestSessionDispatch:
    def test_default_builds_sequential_eagerly(self):
        session = Session(scale=4000, seed=3)
        assert session.config.layout == "sequential"
        assert isinstance(session.topology, Topology)

    def test_lazy_builds_lazy_view_and_flips_layout(self):
        session = Session(
            scale=4000, seed=3,
            topology=TopologyOptions(lazy=True, max_resident=600),
        )
        assert session.config.layout == "streamed"
        topology = session.topology
        assert isinstance(topology, LazyTopology)
        assert topology.max_resident == 600
        assert topology.derivations == 0  # nothing built yet

    def test_streamed_config_builds_lazy_view(self):
        config = TopologyConfig.streamed(divisor=4000, seed=3)
        topology = Session(config=config).topology
        assert isinstance(topology, LazyTopology)
        assert topology.config == config
        assert topology.derivations == 0

    def test_topology_file_loads_described_world(self, tmp_path):
        donor = Session(scale=4000, seed=3).topology
        path = tmp_path / "topo.txt"
        dump_topology_file(donor, str(path))
        session = Session(seed=3, topology=TopologyOptions(topology_file=path))
        loaded = session.topology
        assert loaded.layout == "file"
        assert sorted(loaded.devices) == sorted(donor.devices)

    def test_lazy_session_campaign_matches_streamed_session(self):
        """``lazy=True`` and a streamed config both give the campaign a
        direct ``ScanCampaign`` runs over a ``LazyTopology``."""

        def fingerprint(result):
            return [
                (
                    label,
                    sorted(
                        (str(o.address), o.recv_time,
                         None if o.engine_id is None else o.engine_id.raw,
                         o.engine_boots, o.engine_time)
                        for o in scan.observations.values()
                    ),
                )
                for label, scan in sorted(result.scans.items())
            ]

        config = TopologyConfig.streamed(divisor=4000, seed=3)
        direct = fingerprint(
            ScanCampaign(topology=LazyTopology(config=config)).run()
        )
        assert direct
        lazy_session = Session(
            scale=4000, seed=3, topology=TopologyOptions(lazy=True)
        )
        assert fingerprint(lazy_session.run_campaign()) == direct
        assert fingerprint(Session(config=config).run_campaign()) == direct
