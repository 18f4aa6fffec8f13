"""Unit tests for the SNMP agent's protocol behaviour."""

import pytest

from repro.asn1.oid import Oid
from repro.net.mac import MacAddress
from repro.snmp import constants
from repro.snmp.agent import AgentBehavior, SnmpAgent, UsmUser
from repro.snmp.client import SnmpClient
from repro.snmp.engine_id import EngineId
from repro.snmp.messages import SnmpV3Message, build_discovery_probe
from repro.snmp.mib import build_system_mib
from repro.snmp.usm import AuthProtocol

ENGINE = EngineId.from_mac(9, MacAddress("00:00:0c:01:02:03"))


def make_agent(**kwargs):
    defaults = dict(engine_id=ENGINE, boot_time=1000.0, engine_boots=5)
    defaults.update(kwargs)
    agent = SnmpAgent(**defaults)
    if agent.mib is not None and len(agent.mib) == 0:
        agent.mib = build_system_mib(
            "Test Router", "r1", Oid("1.3.6.1.4.1.9.1.1"), lambda: agent.boot_time
        )
    return agent


class TestDiscovery:
    def test_discovery_returns_engine_triple(self):
        agent = make_agent()
        result = SnmpClient(agent=agent).discover(now=1500.0)
        assert result.engine_id == ENGINE.raw
        assert result.engine_boots == 5
        assert result.engine_time == 500

    def test_discovery_counts_usm_stat(self):
        agent = make_agent()
        client = SnmpClient(agent=agent)
        client.discover(now=0.0)
        client.discover(now=1.0)
        assert agent.stats_unknown_engine_ids == 2

    def test_discovery_reply_is_report(self):
        agent = make_agent()
        replies = agent.handle(build_discovery_probe(1).encode(), now=1500.0)
        message = SnmpV3Message.decode(replies[0])
        assert message.scoped_pdu.pdu.is_report
        assert message.scoped_pdu.pdu.varbinds[0].name == constants.OID_USM_STATS_UNKNOWN_ENGINE_IDS

    def test_non_reportable_discovery_ignored(self):
        agent = make_agent()
        probe = build_discovery_probe(1)
        from dataclasses import replace

        silent = replace(probe, flags=0)
        assert agent.handle(silent.encode(), now=0.0) == []

    def test_garbage_ignored(self):
        assert make_agent().handle(b"\xde\xad\xbe\xef", now=0.0) == []

    def test_v3_disabled_silent(self):
        agent = make_agent(behavior=AgentBehavior(v3_enabled=False))
        assert SnmpClient(agent=agent).discover(now=0.0) is None


class TestEngineTime:
    def test_reboot_resets_time_and_bumps_boots(self):
        agent = make_agent()
        agent.reboot(now=2000.0)
        assert agent.engine_boots == 6
        assert agent.engine_time(2100.0) == 100

    def test_clock_skew_applied(self):
        agent = make_agent(behavior=AgentBehavior(clock_skew=0.01))
        assert agent.engine_time(1000.0 + 10000.0) == 10100

    def test_zero_time_behavior(self):
        agent = make_agent(behavior=AgentBehavior(report_zero_time=True))
        result = SnmpClient(agent=agent).discover(now=5000.0)
        assert result.engine_time == 0
        assert result.engine_boots == 0

    def test_future_time_offset(self):
        agent = make_agent(behavior=AgentBehavior(future_time_offset=10**9))
        assert agent.engine_time(1500.0) == 500 + 10**9

    def test_time_never_negative(self):
        agent = make_agent(boot_time=5000.0)
        assert agent.engine_time(100.0) == 0

    def test_time_resolution_quantizes(self):
        agent = make_agent(behavior=AgentBehavior(time_resolution=10))
        assert agent.engine_time(1000.0 + 57.0) == 50


class TestBehaviorQuirks:
    def test_amplification(self):
        agent = make_agent(behavior=AgentBehavior(amplification_count=48))
        replies = agent.handle(build_discovery_probe(1).encode(), now=0.0)
        assert len(replies) == 48
        assert len(set(replies)) == 1  # identical copies, as the paper observed

    def test_malformed_reply_unparseable(self):
        from repro.asn1 import ber
        from repro.snmp.messages import parse_discovery_response

        agent = make_agent(behavior=AgentBehavior(malformed=True))
        replies = agent.handle(build_discovery_probe(1).encode(), now=0.0)
        assert len(replies) == 1
        with pytest.raises(ber.BerDecodeError):
            parse_discovery_response(replies[0])

    def test_empty_engine_id_reply(self):
        agent = make_agent(behavior=AgentBehavior(report_empty_engine_id=True))
        result = SnmpClient(agent=agent).discover(now=0.0)
        assert result.engine_id == b""

    def test_v3_enabled_by_community(self):
        """The Cisco lab finding: configuring only a v2c community makes
        the agent answer v3 discovery."""
        behavior = AgentBehavior(v3_enabled=False, v3_enabled_by_community=True)
        without_community = make_agent(behavior=behavior)
        assert SnmpClient(agent=without_community).discover(now=0.0) is None
        with_community = make_agent(behavior=behavior, communities=(b"pass123",))
        assert SnmpClient(agent=with_community).discover(now=0.0) is not None


class TestCommunityAccess:
    def test_correct_community_answers(self):
        agent = make_agent(communities=(b"public",))
        value = SnmpClient(agent=agent).get_v2c(b"public", constants.OID_SYS_DESCR)
        assert value == b"Test Router"

    def test_wrong_community_silent(self):
        agent = make_agent(communities=(b"public",))
        assert SnmpClient(agent=agent).get_v2c(b"secret", constants.OID_SYS_DESCR) is None

    def test_v2c_disabled(self):
        agent = make_agent(
            communities=(b"public",), behavior=AgentBehavior(v2c_enabled=False)
        )
        assert SnmpClient(agent=agent).get_v2c(b"public", constants.OID_SYS_DESCR) is None

    def test_unknown_oid_error(self):
        agent = make_agent(communities=(b"public",))
        assert SnmpClient(agent=agent).get_v2c(b"public", Oid("1.3.6.1.99")) is None


class TestV3Queries:
    USER = UsmUser(b"admin", AuthProtocol.HMAC_SHA1_96, "correct horse battery")

    def test_unknown_user_leaks_engine_id(self):
        """§6.2.1: the Report rejecting an unknown user still carries the
        engine ID — the core information leak."""
        agent = make_agent()
        value, engine_id = SnmpClient(agent=agent).get_v3_noauth(
            b"noAuthUser", constants.OID_SYS_DESCR
        )
        assert value is None
        assert engine_id == ENGINE.raw
        assert agent.stats_unknown_user_names == 1

    def test_authenticated_get(self):
        agent = make_agent(users=(self.USER,))
        value = SnmpClient(agent=agent).get_v3_auth(self.USER, constants.OID_SYS_DESCR, now=1500.0)
        assert value == b"Test Router"

    def test_wrong_password_rejected(self):
        agent = make_agent(users=(self.USER,))
        impostor = UsmUser(b"admin", AuthProtocol.HMAC_SHA1_96, "wrong password")
        assert SnmpClient(agent=agent).get_v3_auth(impostor, constants.OID_SYS_DESCR) is None
        assert agent.stats_wrong_digests == 1

    def test_md5_auth_also_works(self):
        user = UsmUser(b"md5user", AuthProtocol.HMAC_MD5_96, "another secret")
        agent = make_agent(users=(user,))
        assert SnmpClient(agent=agent).get_v3_auth(user, constants.OID_SYS_DESCR) == b"Test Router"

    def test_sysuptime_tracks_boot_time(self):
        from repro.snmp.pdu import TimeTicks

        agent = make_agent(users=(self.USER,))
        value = SnmpClient(agent=agent).get_v3_auth(self.USER, constants.OID_SYS_UPTIME, now=1060.0)
        assert isinstance(value, TimeTicks)
        assert int(value) == 6000  # 60 s in hundredths
