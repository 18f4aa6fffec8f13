"""Tests for the authPriv security level (RFC 3826 AES privacy)."""

import pytest

from repro.asn1.oid import Oid
from repro.net.mac import MacAddress
from repro.snmp.agent import SnmpAgent, UsmUser
from repro.snmp.client import SnmpClient
from repro.snmp.constants import OID_SYS_DESCR
from repro.snmp.engine_id import EngineId
from repro.snmp.mib import build_system_mib
from repro.snmp.usm import (
    AuthProtocol,
    aes_privacy_iv,
    decrypt_scoped_pdu,
    encrypt_scoped_pdu,
    privacy_key_from_password,
)

USER = UsmUser(
    b"secops", AuthProtocol.HMAC_SHA1_96, "auth-pass-123",
    priv_password="priv-pass-456",
)


def make_agent():
    return SnmpAgent(
        engine_id=EngineId.from_mac(9, MacAddress("00:00:0c:42:42:01")),
        boot_time=0.0,
        engine_boots=3,
        users=(USER,),
        mib=build_system_mib("secure router", "r1", Oid("1.3.6.1.4.1.9.1.1"),
                             lambda: 0.0),
    )


class TestPrivPrimitives:
    ENGINE = b"\x80\x00\x00\x09\x03\x00\x00\x0c\x42\x42\x01"

    def test_privacy_key_is_16_bytes(self):
        key = privacy_key_from_password("pw", self.ENGINE, AuthProtocol.HMAC_SHA1_96)
        assert len(key) == 16

    def test_iv_layout(self):
        iv = aes_privacy_iv(engine_boots=0x01020304, engine_time=0x0A0B0C0D,
                            salt=b"SALTSALT")
        assert iv == bytes.fromhex("01020304" "0a0b0c0d") + b"SALTSALT"

    def test_bad_salt_rejected(self):
        with pytest.raises(ValueError):
            aes_privacy_iv(1, 2, b"short")

    def test_scoped_pdu_roundtrip(self):
        key = privacy_key_from_password("pw", self.ENGINE, AuthProtocol.HMAC_SHA1_96)
        plaintext = b"\x30\x10" + bytes(16)
        ciphertext = encrypt_scoped_pdu(key, 3, 999, b"\x00" * 8, plaintext)
        assert ciphertext != plaintext
        assert decrypt_scoped_pdu(key, 3, 999, b"\x00" * 8, ciphertext) == plaintext

    def test_salt_changes_ciphertext(self):
        key = privacy_key_from_password("pw", self.ENGINE, AuthProtocol.HMAC_SHA1_96)
        a = encrypt_scoped_pdu(key, 3, 999, b"\x00" * 8, b"payload-bytes")
        b = encrypt_scoped_pdu(key, 3, 999, b"\x01" * 8, b"payload-bytes")
        assert a != b


class TestAuthPrivExchange:
    def test_priv_get(self):
        client = SnmpClient(agent=make_agent())
        assert client.get_v3_priv(USER, OID_SYS_DESCR, now=50.0) == b"secure router"

    def test_payload_not_visible_on_the_wire(self):
        """An eavesdropper sees ciphertext, not the OID/value."""
        agent = make_agent()
        captured = []
        original = agent.handle

        def tap(payload, now):
            captured.append(payload)
            replies = original(payload, now)
            captured.extend(replies)
            return replies

        agent.handle = tap
        SnmpClient(agent=agent).get_v3_priv(USER, OID_SYS_DESCR, now=50.0)
        # The discovery exchange is plaintext; the GET and its response
        # must not contain the sysDescr value or its OID bytes.
        from repro.asn1 import ber

        oid_bytes = ber.encode_oid(OID_SYS_DESCR)
        data_frames = captured[2:]  # skip discovery probe + report
        assert data_frames
        for frame in data_frames:
            assert b"secure router" not in frame
            assert oid_bytes not in frame

    def test_wrong_priv_password_gets_nothing(self):
        agent = make_agent()
        impostor = UsmUser(b"secops", AuthProtocol.HMAC_SHA1_96, "auth-pass-123",
                           priv_password="wrong-priv")
        value = SnmpClient(agent=agent).get_v3_priv(impostor, OID_SYS_DESCR, now=50.0)
        assert value is None

    def test_priv_requires_configured_user(self):
        agent = make_agent()
        no_priv = UsmUser(b"plain", AuthProtocol.HMAC_SHA1_96, "auth-pass-123")
        with pytest.raises(ValueError):
            SnmpClient(agent=agent).get_v3_priv(no_priv, OID_SYS_DESCR)

    def test_agent_without_priv_user_rejects_encrypted(self):
        plain_user = UsmUser(b"plain", AuthProtocol.HMAC_SHA1_96, "pass-one-two")
        agent = SnmpAgent(
            engine_id=EngineId.from_mac(9, MacAddress("00:00:0c:42:42:02")),
            boot_time=0.0, engine_boots=1, users=(plain_user,),
            mib=build_system_mib("r", "r", Oid("1.3.6.1.4.1.9.1.1"), lambda: 0.0),
        )
        pretend = UsmUser(b"plain", AuthProtocol.HMAC_SHA1_96, "pass-one-two",
                          priv_password="whatever")
        assert SnmpClient(agent=agent).get_v3_priv(pretend, OID_SYS_DESCR) is None

    def test_md5_authpriv(self):
        user = UsmUser(b"md5sec", AuthProtocol.HMAC_MD5_96, "md5-auth-pw",
                       priv_password="md5-priv-pw")
        agent = SnmpAgent(
            engine_id=EngineId.from_mac(9, MacAddress("00:00:0c:42:42:03")),
            boot_time=0.0, engine_boots=1, users=(user,),
            mib=build_system_mib("r", "r", Oid("1.3.6.1.4.1.9.1.1"), lambda: 0.0),
        )
        assert SnmpClient(agent=agent).get_v3_priv(user, OID_SYS_DESCR) == b"r"

    def test_discovery_still_leaks_engine_id_despite_priv(self):
        """The paper's core point survives full encryption: discovery is,
        by design, unauthenticated and unencrypted."""
        agent = make_agent()
        result = SnmpClient(agent=agent).discover(now=5.0)
        assert result is not None
        assert result.engine_id == agent.engine_id.raw
