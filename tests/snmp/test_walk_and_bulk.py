"""Tests for GETNEXT walks, GETBULK, and the interfaces table."""

import pytest

from repro.asn1.oid import Oid
from repro.net.mac import MacAddress
from repro.snmp.agent import SnmpAgent, UsmUser
from repro.snmp.client import SnmpClient
from repro.snmp.engine_id import EngineId
from repro.snmp.iftable import (
    COLUMN_IF_DESCR,
    COLUMN_IF_PHYS_ADDRESS,
    InterfaceEntry,
    OID_IF_NUMBER,
    OID_IF_TABLE_ENTRY,
    parse_if_table,
    populate_if_table,
)
from repro.snmp.mib import build_system_mib
from repro.snmp.usm import AuthProtocol

USER = UsmUser(b"admin", AuthProtocol.HMAC_SHA1_96, "walk-bulk-secret")

MACS = [MacAddress(f"00:00:0c:77:00:{i:02x}") for i in range(1, 5)]


@pytest.fixture
def agent():
    agent = SnmpAgent(
        engine_id=EngineId.from_mac(9, MACS[0]),
        boot_time=0.0,
        engine_boots=1,
        users=(USER,),
        mib=build_system_mib("lab router", "r1", Oid("1.3.6.1.4.1.9.1.1"),
                             lambda: 0.0),
    )
    populate_if_table(
        agent.mib,
        [
            InterfaceEntry(index=i + 1, descr=f"GigabitEthernet0/{i}", mac=mac)
            for i, mac in enumerate(MACS)
        ],
    )
    return agent


class TestWalk:
    def test_walk_if_table(self, agent):
        rows = SnmpClient(agent=agent).walk_v3_auth(USER, OID_IF_TABLE_ENTRY)
        # 4 interfaces x 5 columns.
        assert len(rows) == 20
        assert all(OID_IF_TABLE_ENTRY.is_prefix_of(oid) for oid, __ in rows)

    def test_walk_stops_at_subtree_boundary(self, agent):
        rows = SnmpClient(agent=agent).walk_v3_auth(USER, Oid("1.3.6.1.2.1.1"))
        names = [oid for oid, __ in rows]
        assert all(Oid("1.3.6.1.2.1.1").is_prefix_of(oid) for oid in names)
        assert len(rows) == 7  # the system group

    def test_walk_respects_limit(self, agent):
        rows = SnmpClient(agent=agent).walk_v3_auth(USER, Oid("1.3.6.1"), limit=3)
        assert len(rows) == 3

    def test_get_next_single_step(self, agent):
        entry = SnmpClient(agent=agent).get_next_v3_auth(USER, Oid("1.3.6.1.2.1.1.1"))
        assert entry is not None
        oid, value = entry
        assert oid == Oid("1.3.6.1.2.1.1.1.0")
        assert value == b"lab router"


class TestGetBulk:
    def test_bulk_pulls_repetitions(self, agent):
        rows = SnmpClient(agent=agent).get_bulk_v3_auth(
            USER, [OID_IF_TABLE_ENTRY.child(COLUMN_IF_DESCR)], max_repetitions=3
        )
        assert len(rows) == 3
        assert rows[0][1] == b"GigabitEthernet0/0"

    def test_bulk_stops_when_exhausted(self, agent):
        rows = SnmpClient(agent=agent).get_bulk_v3_auth(
            USER, [OID_IF_TABLE_ENTRY.child(COLUMN_IF_PHYS_ADDRESS, 3)],
            max_repetitions=500,
        )
        # Only one more phys-address row plus whatever follows in the MIB.
        assert rows  # never infinite

    def test_bulk_non_repeaters(self, agent):
        rows = SnmpClient(agent=agent).get_bulk_v3_auth(
            USER,
            [Oid("1.3.6.1.2.1.1.4"), OID_IF_TABLE_ENTRY.child(COLUMN_IF_DESCR)],
            max_repetitions=2,
            non_repeaters=1,
        )
        # 1 non-repeater row + 2 repetitions of the repeater.
        assert len(rows) == 3
        assert rows[0][0] == Oid("1.3.6.1.2.1.1.4.0")

    def test_bulk_v2c(self, agent):
        from repro.snmp import constants, pdu as pdu_mod
        from repro.snmp.messages import CommunityMessage

        agent.communities.add(b"public")
        request = CommunityMessage(
            version=constants.VERSION_2C,
            community=b"public",
            pdu=pdu_mod.Pdu(
                tag=constants.TAG_GET_BULK_REQUEST,
                request_id=9,
                error_status=0,
                error_index=4,
                varbinds=(pdu_mod.VarBind(OID_IF_TABLE_ENTRY.child(COLUMN_IF_DESCR)),),
            ),
        )
        replies = agent.handle(request.encode(), 0.0)
        reply = CommunityMessage.decode(replies[0])
        assert len(reply.pdu.varbinds) == 4


class TestIfTable:
    def test_if_number(self, agent):
        assert SnmpClient(agent=agent).get_v3_auth(USER, OID_IF_NUMBER) == 4

    def test_parse_if_table_groups_rows(self, agent):
        rows = SnmpClient(agent=agent).walk_v3_auth(USER, OID_IF_TABLE_ENTRY)
        table = parse_if_table(rows)
        assert set(table) == {1, 2, 3, 4}
        assert table[2][COLUMN_IF_DESCR] == b"GigabitEthernet0/1"

    def test_engine_mac_matches_first_interface_row(self, agent):
        """The lab cross-check, done purely in-protocol: the engine ID's
        MAC equals ifPhysAddress of the first ifTable row."""
        client = SnmpClient(agent=agent)
        discovery = client.discover(now=0.0)
        engine_mac = EngineId(discovery.engine_id).mac
        rows = client.walk_v3_auth(USER, OID_IF_TABLE_ENTRY)
        table = parse_if_table(rows)
        first_row_mac = MacAddress(table[1][COLUMN_IF_PHYS_ADDRESS])
        assert engine_mac == first_row_mac

    def test_parse_ignores_foreign_oids(self):
        table = parse_if_table([(Oid("1.3.6.1.2.1.1.1.0"), b"x")])
        assert table == {}
