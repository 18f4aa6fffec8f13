"""The manager (client) side of SNMP.

Two use cases:

* **Discovery** — what the Internet-wide scanner sends: one unauthenticated
  synchronization request, parse the Report;
* **Lab queries** — the §6.2.1 validation runs v2c community GETs and v3
  authenticated GETs against lab agents, comparing sysDescr and observing
  that discovery works with only a community string configured.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.asn1 import ber
from repro.asn1.oid import Oid
from repro.snmp import constants, pdu as pdu_mod
from repro.snmp.agent import SnmpAgent, UsmUser
from repro.snmp.messages import (
    CommunityMessage,
    ScopedPdu,
    SnmpV3Message,
    UsmSecurityParameters,
    build_discovery_probe,
    parse_discovery_response,
)
from repro.snmp.pdu import VarValue
from repro.snmp.usm import (
    compute_mac,
    decrypt_scoped_pdu,
    encrypt_scoped_pdu,
    localized_key_from_password,
    privacy_key_from_password,
)

_ZEROED_MAC = b"\x00" * 12


@dataclass(frozen=True)
class DiscoveryResult:
    """What one discovery exchange yields."""

    engine_id: bytes
    engine_boots: int
    engine_time: int


class SnmpClient:
    """A direct (in-process) SNMP manager for lab experiments.

    ``agent`` is queried synchronously; ``now`` advances under caller
    control so uptime-sensitive tests are deterministic.
    """

    def __init__(self, *, agent: "SnmpAgent") -> None:
        self._agent = agent
        self._msg_ids = itertools.count(1)

    # -- discovery -------------------------------------------------------------

    def discover(self, now: float) -> "DiscoveryResult | None":
        """Run the unauthenticated synchronization exchange."""
        probe = build_discovery_probe(next(self._msg_ids))
        replies = self._agent.handle(probe.encode(), now)
        if not replies:
            return None
        try:
            parsed = parse_discovery_response(replies[0])
        except ber.BerDecodeError:
            return None
        return DiscoveryResult(
            engine_id=parsed.engine_id,
            engine_boots=parsed.engine_boots,
            engine_time=parsed.engine_time,
        )

    # -- v2c -------------------------------------------------------------------

    def get_v2c(self, community: bytes, oid: Oid, now: float = 0.0) -> "VarValue | None":
        """Community GET; returns the value or ``None`` on error/silence."""
        request = CommunityMessage(
            version=constants.VERSION_2C,
            community=community,
            pdu=pdu_mod.get_request(next(self._msg_ids), oid),
        )
        replies = self._agent.handle(request.encode(), now)
        if not replies:
            return None
        try:
            reply = CommunityMessage.decode(replies[0])
        except ber.BerDecodeError:
            return None
        if reply.pdu.error_status != constants.ERR_NO_ERROR or not reply.pdu.varbinds:
            return None
        return reply.pdu.varbinds[0].value

    # -- v3 --------------------------------------------------------------------

    def get_v3_noauth(
        self, user_name: bytes, oid: Oid, now: float = 0.0
    ) -> "tuple[VarValue | None, bytes | None]":
        """Unauthenticated v3 GET with a (probably unknown) user name.

        Mirrors the lab experiment: even when the agent rejects the user,
        the Report it sends back leaks the engine ID.  Returns
        ``(value_or_None, engine_id_or_None)``.
        """
        discovery = self.discover(now)
        if discovery is None:
            return None, None
        message = SnmpV3Message(
            msg_id=next(self._msg_ids),
            flags=constants.FLAG_REPORTABLE,
            security=UsmSecurityParameters(
                engine_id=discovery.engine_id,
                engine_boots=discovery.engine_boots,
                engine_time=discovery.engine_time,
                user_name=user_name,
            ),
            scoped_pdu=ScopedPdu(
                context_engine_id=discovery.engine_id,
                context_name=b"",
                pdu=pdu_mod.get_request(next(self._msg_ids), oid),
            ),
        )
        replies = self._agent.handle(message.encode(), now)
        if not replies:
            return None, None
        try:
            reply = SnmpV3Message.decode(replies[0])
        except ber.BerDecodeError:
            # Adversarial agents answer with garbage; no data, no engine ID.
            return None, None
        if reply.scoped_pdu is not None and reply.scoped_pdu.pdu.is_response:
            value = reply.scoped_pdu.pdu.varbinds[0].value if reply.scoped_pdu.pdu.varbinds else None
            return value, reply.security.engine_id
        # A Report: no data, but the engine ID is still disclosed.
        return None, reply.security.engine_id

    def get_next_v3_auth(
        self, user: UsmUser, oid: Oid, now: float = 0.0
    ) -> "tuple[Oid, VarValue] | None":
        """Authenticated GETNEXT: the (oid, value) following ``oid``."""
        reply = self._authenticated_request(
            user, pdu_mod.Pdu(tag=constants.TAG_GET_NEXT_REQUEST,
                              request_id=next(self._msg_ids),
                              varbinds=(pdu_mod.VarBind(oid),)),
            now,
        )
        if reply is None or not reply.varbinds:
            return None
        varbind = reply.varbinds[0]
        return varbind.name, varbind.value

    def get_bulk_v3_auth(
        self,
        user: UsmUser,
        oids: "list[Oid]",
        max_repetitions: int = 10,
        non_repeaters: int = 0,
        now: float = 0.0,
    ) -> "list[tuple[Oid, VarValue]]":
        """Authenticated GETBULK over one or more columns."""
        request = pdu_mod.Pdu(
            tag=constants.TAG_GET_BULK_REQUEST,
            request_id=next(self._msg_ids),
            error_status=non_repeaters,
            error_index=max_repetitions,
            varbinds=tuple(pdu_mod.VarBind(oid) for oid in oids),
        )
        reply = self._authenticated_request(user, request, now)
        if reply is None:
            return []
        return [(vb.name, vb.value) for vb in reply.varbinds]

    def walk_v3_auth(
        self, user: UsmUser, prefix: Oid, now: float = 0.0, limit: int = 10_000
    ) -> "list[tuple[Oid, VarValue]]":
        """Authenticated subtree walk via repeated GETNEXT."""
        rows: list[tuple[Oid, VarValue]] = []
        cursor = prefix
        for __ in range(limit):
            entry = self.get_next_v3_auth(user, cursor, now)
            if entry is None or not prefix.is_prefix_of(entry[0]):
                break
            rows.append(entry)
            cursor = entry[0]
        return rows

    def get_v3_auth(
        self,
        user: UsmUser,
        oid: Oid,
        now: float = 0.0,
    ) -> "VarValue | None":
        """Authenticated (authNoPriv) v3 GET."""
        reply = self._authenticated_request(
            user, pdu_mod.get_request(next(self._msg_ids), oid), now
        )
        if reply is None or not reply.varbinds:
            return None
        return reply.varbinds[0].value

    def get_v3_priv(
        self, user: UsmUser, oid: Oid, now: float = 0.0
    ) -> "VarValue | None":
        """Fully protected (authPriv) GET: HMAC-authenticated and
        AES-128-CFB encrypted per RFC 3826."""
        if not user.has_privacy:
            raise ValueError("user has no privacy password configured")
        reply = self._authenticated_request(
            user, pdu_mod.get_request(next(self._msg_ids), oid), now, encrypt=True
        )
        if reply is None or not reply.varbinds:
            return None
        return reply.varbinds[0].value

    def _authenticated_request(
        self, user: UsmUser, request_pdu: pdu_mod.Pdu, now: float,
        encrypt: bool = False,
    ) -> "pdu_mod.Pdu | None":
        """Discovery + (encrypt) + sign + send; returns the Response PDU."""
        discovery = self.discover(now)
        if discovery is None:
            return None
        scoped = ScopedPdu(
            context_engine_id=discovery.engine_id,
            context_name=b"",
            pdu=request_pdu,
        )
        flags = constants.FLAG_REPORTABLE | constants.FLAG_AUTH
        priv_key = None
        if encrypt:
            flags |= constants.FLAG_PRIV
            self._salt = getattr(self, "_salt", 0) + 1
            salt = self._salt.to_bytes(8, "big")
            priv_key = privacy_key_from_password(
                user.priv_password, discovery.engine_id, user.auth_protocol
            )
            ciphertext = encrypt_scoped_pdu(
                priv_key, discovery.engine_boots, discovery.engine_time,
                salt, scoped.encode(),
            )
            message = SnmpV3Message(
                msg_id=next(self._msg_ids),
                flags=flags,
                security=UsmSecurityParameters(
                    engine_id=discovery.engine_id,
                    engine_boots=discovery.engine_boots,
                    engine_time=discovery.engine_time,
                    user_name=user.name,
                    auth_params=_ZEROED_MAC,
                    priv_params=salt,
                ),
                encrypted_pdu=ciphertext,
            )
        else:
            message = SnmpV3Message(
                msg_id=next(self._msg_ids),
                flags=flags,
                security=UsmSecurityParameters(
                    engine_id=discovery.engine_id,
                    engine_boots=discovery.engine_boots,
                    engine_time=discovery.engine_time,
                    user_name=user.name,
                    auth_params=_ZEROED_MAC,
                ),
                scoped_pdu=scoped,
            )
        blob = message.encode()
        key = localized_key_from_password(
            user.password, discovery.engine_id, user.auth_protocol
        )
        mac = compute_mac(key, blob, user.auth_protocol)
        signed = blob.replace(_ZEROED_MAC, mac, 1)
        replies = self._agent.handle(signed, now)
        if not replies:
            return None
        try:
            reply = SnmpV3Message.decode(replies[0])
        except ber.BerDecodeError:
            return None
        if reply.is_encrypted:
            if priv_key is None or len(reply.security.priv_params) != 8:
                return None
            try:
                plaintext = decrypt_scoped_pdu(
                    priv_key,
                    reply.security.engine_boots,
                    reply.security.engine_time,
                    reply.security.priv_params,
                    reply.encrypted_pdu or b"",
                )
                reply_scoped, __ = ScopedPdu.decode(plaintext, 0)
            except ber.BerDecodeError:
                return None
        else:
            reply_scoped = reply.scoped_pdu
        if reply_scoped is None or not reply_scoped.pdu.is_response:
            return None
        if reply_scoped.pdu.error_status != constants.ERR_NO_ERROR:
            return None
        return reply_scoped.pdu
