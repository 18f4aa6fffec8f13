"""The SNMP agent: a stateful SNMP engine with vendor behaviour profiles.

Each simulated device runs one :class:`SnmpAgent`.  The agent implements
the three protocol personalities the paper's experiments need:

* **SNMPv3 discovery** — an incoming message with an empty
  ``msgAuthoritativeEngineID`` gets a Report PDU carrying the engine ID,
  boots and (possibly clock-skewed) engine time.  This is the unsolicited
  synchronization exchange of §2.2;
* **SNMPv3 authenticated GET** — for lab validation (§6.2.1): a request
  naming an unknown user yields a ``usmStatsUnknownUserNames`` Report
  (which *still* carries the engine ID, exactly the behaviour the paper
  observed on Cisco IOS); a correctly authenticated request is answered
  from the MIB;
* **SNMPv1/v2c community GET** — community-string checked, answered from
  the MIB.

Behaviour quirks found in the wild are modelled explicitly via
:class:`AgentBehavior`: the Cisco-style *v2c-implies-v3* default, the
shared-engine-ID firmware bug (CSCts87275), response amplification, zero
or future engine times, and malformed replies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.asn1 import ber
from repro.asn1.oid import Oid
from repro.net.packet import Datagram
from repro.snmp import constants, pdu as pdu_mod
from repro.snmp.engine_id import EngineId
from repro.snmp.messages import (
    CommunityMessage,
    DiscoveryReportTemplate,
    ScopedPdu,
    SnmpV3Message,
    UsmSecurityParameters,
    match_discovery_probe,
    peek_version,
)
from repro.snmp.mib import Mib
from repro.snmp.usm import (
    AuthProtocol,
    compute_mac,
    decrypt_scoped_pdu,
    encrypt_scoped_pdu,
    localized_key_from_password,
    privacy_key_from_password,
)

_ZEROED_MAC = b"\x00" * 12


@dataclass(frozen=True)
class UsmUser:
    """A configured USM user.

    ``priv_password`` upgrades the user to the authPriv security level
    (AES-128-CFB privacy per RFC 3826); without it the user operates at
    authNoPriv.
    """

    name: bytes
    auth_protocol: AuthProtocol
    password: str
    priv_password: "str | None" = None

    @property
    def has_privacy(self) -> bool:
        return self.priv_password is not None


@dataclass(frozen=True)
class AgentBehavior:
    """Vendor/implementation quirks, all off by default.

    ``amplification_count > 1`` reproduces the §8 observation of identical
    repeated replies.  ``report_zero_time`` models agents whose engine
    time/boots are always zero.  ``future_time_offset`` adds a constant to
    the reported engine time, pushing the derived last-reboot time before
    the epoch (the "engine time in the future" filter input).
    ``clock_skew`` is a relative drift rate applied to engine time; real
    routers keep it tiny, CPE/server clocks drift more.  ``malformed``
    makes the agent answer with a syntactically broken payload.
    ``v3_enabled_by_community`` reproduces the lab finding that merely
    configuring a v2c read community silently enables v3 discovery.

    The remaining knobs are *adversarial personalities* for hardening the
    scan path (they model broken firmware seen by Internet-wide scans):
    ``garbage_reports`` replaces every reply with deterministically
    garbled (non-BER) bytes; ``engine_id_pad_to`` pads (or truncates) the
    reported engine ID to a fixed length, producing oversized (> 32
    octets) or undersized (< 5 octets) identifiers; ``response_delay``
    stretches every reply by a fixed number of virtual seconds (a slow
    responder, tripping per-probe timeouts); ``reboot_after_handles``
    reboots the SNMP engine mid-scan after every N handled requests.
    """

    amplification_count: int = 1
    report_zero_time: bool = False
    report_empty_engine_id: bool = False
    future_time_offset: int = 0
    clock_skew: float = 0.0
    malformed: bool = False
    v2c_enabled: bool = True
    v3_enabled: bool = True
    v3_enabled_by_community: bool = False
    time_resolution: int = 1
    garbage_reports: bool = False
    engine_id_pad_to: int = 0
    response_delay: float = 0.0
    reboot_after_handles: int = 0


class SnmpAgent:
    """A single SNMP engine bound to one device.

    The agent is deliberately transport-agnostic: :meth:`handle` takes the
    raw UDP payload and the virtual receive time and returns reply
    payloads.  The simulated fabric adapts it to :class:`Datagram`.
    Arguments are keyword-only.
    """

    def __init__(
        self,
        *,
        engine_id: EngineId,
        boot_time: float = 0.0,
        engine_boots: int = 1,
        behavior: "AgentBehavior | None" = None,
        communities: "tuple[bytes, ...]" = (),
        users: "tuple[UsmUser, ...]" = (),
        mib: "Mib | None" = None,
    ) -> None:
        self.engine_id = engine_id
        self.boot_time = boot_time
        self.engine_boots = engine_boots
        self.behavior = behavior or AgentBehavior()
        self.communities = set(communities)
        self.users = {user.name: user for user in users}
        self.mib = mib or Mib()
        # usmStats counters the agent maintains.
        self.stats_unknown_engine_ids = 0
        self.stats_unknown_user_names = 0
        self.stats_wrong_digests = 0
        # Requests handled since boot (drives reboot_after_handles).
        self.handled_count = 0
        # Cached discovery Report template (the scan-reply fast path);
        # rebuilt whenever the reported engine ID or boots counter moves.
        self._report_template: "DiscoveryReportTemplate | None" = None

    # -- lifecycle -----------------------------------------------------------

    def reboot(self, now: float) -> None:
        """Restart the SNMP engine: bump boots, reset engine time."""
        self.engine_boots += 1
        self.boot_time = now

    def engine_time(self, now: float) -> int:
        """Seconds since last boot, as the (possibly skewed) agent reports it.

        Per RFC 3414 §2.2.2, the engine-time counter is capped at
        2^31 - 1; when it would overflow, the engine increments its boots
        counter and restarts the clock — modelled lazily here so agents
        with decade-long uptimes stay protocol-conformant.
        """
        if self.behavior.report_zero_time:
            return 0
        elapsed = max(0.0, now - self.boot_time)
        skewed = elapsed * (1.0 + self.behavior.clock_skew)
        value = int(skewed) + self.behavior.future_time_offset
        while value > constants.ENGINE_TIME_MAX and not self.behavior.future_time_offset:
            self.engine_boots += 1
            self.boot_time += constants.ENGINE_TIME_MAX + 1
            elapsed = max(0.0, now - self.boot_time)
            value = int(elapsed * (1.0 + self.behavior.clock_skew))
        resolution = max(1, self.behavior.time_resolution)
        return (value // resolution) * resolution

    @property
    def response_delay(self) -> float:
        """Extra virtual seconds this agent takes to produce any reply.

        The fabric reads this off the bound handler's owner and adds it to
        every reply's arrival time — a slow responder whose answers can
        overrun the executor's per-probe timeout.
        """
        return self.behavior.response_delay

    @property
    def v3_active(self) -> bool:
        """Whether v3 answers discovery — directly enabled, or implicitly via
        a configured community string (the Cisco lab finding)."""
        if self.behavior.v3_enabled:
            return True
        return self.behavior.v3_enabled_by_community and bool(self.communities)

    # -- datagram entry point --------------------------------------------------

    def handle_datagram(self, datagram: Datagram, now: float) -> list[bytes]:
        """Fabric adapter: dispatch on the payload."""
        return self.handle(datagram.payload, now)

    def handle(self, payload: bytes, now: float) -> list[bytes]:
        """Process one SNMP datagram payload; return zero or more replies."""
        try:
            version = peek_version(payload)
        except ber.BerDecodeError:
            return []
        self.handled_count += 1
        if (
            self.behavior.reboot_after_handles
            and self.handled_count % self.behavior.reboot_after_handles == 0
        ):
            # Mid-scan reboot: boots bump and engine time resets *before*
            # this request is answered, exactly like a crashing engine
            # that restarts under probe load.
            self.reboot(now)
        if version in (constants.VERSION_1, constants.VERSION_2C):
            reply = self._handle_community(payload)
        elif version == constants.VERSION_3:
            reply = self._handle_v3(payload, now)
        else:
            reply = None
        if reply is None:
            return []
        return self._finalize_reply(reply)

    def handle_discovery(
        self,
        payload: bytes,
        msg_id: int,
        request_id: int,
        now: float,
        source: "object | None" = None,
    ) -> list[bytes]:
        """Hinted entry point for a verbatim, uncorrupted discovery probe.

        The batch probe pipeline already knows the msg/request ids it
        encoded into ``payload``, so when the fault fabric delivers the
        packet unmodified the agent can skip ``peek_version`` and
        :func:`match_discovery_probe` entirely.  Behaviour — handled-count
        accounting, mid-scan reboots, v3 gating, usmStats, adversarial
        reply mangling — is identical to :meth:`handle`; ``source`` is
        unused here and exists for signature parity with
        :meth:`repro.snmp.loadbalancer.AgentPool.handle_discovery`.
        """
        self.handled_count += 1
        behavior = self.behavior
        if (
            behavior.reboot_after_handles
            and self.handled_count % behavior.reboot_after_handles == 0
        ):
            self.reboot(now)
        if not self.v3_active:
            return []
        return self._finalize_reply(
            self._fast_discovery_report((msg_id, request_id), now)
        )

    def _finalize_reply(self, reply: bytes) -> list[bytes]:
        """Apply the adversarial reply personalities and amplification."""
        if self.behavior.garbage_reports:
            # Deterministically garbled: same length, every byte inverted —
            # never valid BER, but clearly "a response arrived".
            reply = bytes(b ^ 0xFF for b in reply)
        elif self.behavior.malformed:
            # Truncate mid-TLV: parseable as "a response arrived" but the
            # engine ID cannot be extracted.
            return [reply[: max(4, len(reply) // 3)]]
        return [reply] * max(1, self.behavior.amplification_count)

    # -- v1 / v2c ---------------------------------------------------------------

    def _handle_community(self, payload: bytes) -> "bytes | None":
        if not self.behavior.v2c_enabled or not self.communities:
            return None
        try:
            message = CommunityMessage.decode(payload)
        except ber.BerDecodeError:
            return None
        if message.community not in self.communities:
            # Wrong community: silence, as real agents do.
            return None
        if message.pdu.tag == constants.TAG_GET_REQUEST:
            varbinds, error_status, error_index = self._resolve(message.pdu.varbinds, 0.0)
        elif message.pdu.tag == constants.TAG_GET_NEXT_REQUEST:
            varbinds, error_status, error_index = self._resolve_next(message.pdu.varbinds, 0.0)
        elif (message.pdu.tag == constants.TAG_GET_BULK_REQUEST
              and message.version == constants.VERSION_2C):
            varbinds, error_status, error_index = self._resolve_bulk(message.pdu, 0.0)
        else:
            return None
        reply = CommunityMessage(
            version=message.version,
            community=message.community,
            pdu=pdu_mod.response(
                message.pdu.request_id, varbinds, error_status, error_index
            ),
        )
        return reply.encode()

    # -- v3 ----------------------------------------------------------------------

    def _handle_v3(self, payload: bytes, now: float) -> "bytes | None":
        if not self.v3_active:
            return None
        probe = match_discovery_probe(payload)
        if probe is not None:
            return self._fast_discovery_report(probe, now)
        try:
            message = SnmpV3Message.decode(payload)
        except ber.BerDecodeError:
            return None
        if message.security_model != constants.SECURITY_MODEL_USM:
            return None
        if not message.security.engine_id:
            # Discovery: the unauthenticated synchronization exchange.
            if not message.is_reportable:
                return None
            self.stats_unknown_engine_ids += 1
            return self._report(
                message,
                constants.OID_USM_STATS_UNKNOWN_ENGINE_IDS,
                self.stats_unknown_engine_ids,
                now,
            )
        if message.security.engine_id != self._reported_engine_id():
            # Wrong engine ID: also answered with unknownEngineIDs.
            self.stats_unknown_engine_ids += 1
            return self._report(
                message,
                constants.OID_USM_STATS_UNKNOWN_ENGINE_IDS,
                self.stats_unknown_engine_ids,
                now,
            )
        user = self.users.get(message.security.user_name)
        if user is None:
            # The lab observation: unknown user, but the Report still
            # carries the real engine ID.
            self.stats_unknown_user_names += 1
            return self._report(
                message,
                constants.OID_USM_STATS_UNKNOWN_USER_NAMES,
                self.stats_unknown_user_names,
                now,
            )
        if message.is_authenticated:
            if not self._verify_auth(payload, message, user):
                self.stats_wrong_digests += 1
                return self._report(
                    message,
                    constants.OID_USM_STATS_WRONG_DIGESTS,
                    self.stats_wrong_digests,
                    now,
                )
        scoped = message.scoped_pdu
        if message.is_encrypted:
            if not user.has_privacy or len(message.security.priv_params) != 8:
                return None
            priv_key = privacy_key_from_password(
                user.priv_password, self._reported_engine_id(), user.auth_protocol
            )
            try:
                plaintext = decrypt_scoped_pdu(
                    priv_key,
                    message.security.engine_boots,
                    message.security.engine_time,
                    message.security.priv_params,
                    message.encrypted_pdu or b"",
                )
                scoped, __ = ScopedPdu.decode(plaintext, 0)
            except ber.BerDecodeError:
                # Garbled ciphertext: decryption error report.
                return self._report(
                    message,
                    constants.OID_USM_STATS_DECRYPTION_ERRORS,
                    1,
                    now,
                )
        if scoped is None:
            return None
        request = scoped.pdu
        if request.tag == constants.TAG_GET_REQUEST:
            varbinds, error_status, error_index = self._resolve(request.varbinds, now)
        elif request.tag == constants.TAG_GET_NEXT_REQUEST:
            varbinds, error_status, error_index = self._resolve_next(request.varbinds, now)
        elif request.tag == constants.TAG_GET_BULK_REQUEST:
            varbinds, error_status, error_index = self._resolve_bulk(request, now)
        else:
            return None
        response_pdu = pdu_mod.response(request.request_id, varbinds, error_status, error_index)
        response_scoped = ScopedPdu(
            context_engine_id=self._reported_engine_id(),
            context_name=b"",
            pdu=response_pdu,
        )
        boots = self.engine_boots
        etime = self.engine_time(now)
        if message.is_encrypted:
            salt = self._next_salt()
            priv_key = privacy_key_from_password(
                user.priv_password, self._reported_engine_id(), user.auth_protocol
            )
            ciphertext = encrypt_scoped_pdu(
                priv_key, boots, etime, salt, response_scoped.encode()
            )
            reply = SnmpV3Message(
                msg_id=message.msg_id,
                flags=message.flags & ~constants.FLAG_REPORTABLE,
                security=UsmSecurityParameters(
                    engine_id=self._reported_engine_id(),
                    engine_boots=boots,
                    engine_time=etime,
                    user_name=message.security.user_name,
                    priv_params=salt,
                ),
                encrypted_pdu=ciphertext,
            )
        else:
            reply = SnmpV3Message(
                msg_id=message.msg_id,
                flags=message.flags & ~constants.FLAG_REPORTABLE,
                security=UsmSecurityParameters(
                    engine_id=self._reported_engine_id(),
                    engine_boots=boots,
                    engine_time=etime,
                    user_name=message.security.user_name,
                ),
                scoped_pdu=response_scoped,
            )
        if message.is_authenticated:
            return _sign_message(reply, self.users[message.security.user_name])
        return reply.encode()

    def _next_salt(self) -> bytes:
        """Monotonic 64-bit privacy salt (RFC 3826 §3.1.1.1)."""
        self._salt_counter = getattr(self, "_salt_counter", 0) + 1
        return self._salt_counter.to_bytes(8, "big")

    def _reported_engine_id(self) -> bytes:
        if self.behavior.report_empty_engine_id:
            return b""
        raw = self.engine_id.raw
        pad_to = self.behavior.engine_id_pad_to
        if pad_to > 0:
            # Oversized (zero-padded past 32 octets) or undersized
            # (truncated below the RFC 3411 minimum) engine IDs, as
            # non-conforming firmware ships them.
            return raw[:pad_to].ljust(pad_to, b"\x00")
        return raw

    def _fast_discovery_report(self, probe: "tuple[int, int]", now: float) -> bytes:
        """Answer a structurally matched discovery probe from the cached
        Report template, splicing in only the per-probe integers.

        Byte-identical to decoding the probe and running :meth:`_report`
        (the property test in ``tests/snmp/test_report_fast_path.py``
        asserts it), but skips the full BER decode and the message-object
        re-encode — the two hottest allocations of an Internet-wide scan.
        """
        self.stats_unknown_engine_ids += 1
        # Boots must be read *before* engine_time(): an overflowing engine
        # time lazily bumps the boots counter, and the slow path evaluates
        # the boots keyword argument first.
        boots = 0 if self.behavior.report_zero_time else self.engine_boots
        engine_time = self.engine_time(now)
        engine_id = self._reported_engine_id()
        template = self._report_template
        if (
            template is None
            or template.engine_id != engine_id
            or template.engine_boots != boots
        ):
            template = DiscoveryReportTemplate(engine_id, boots)
            self._report_template = template
        msg_id, request_id = probe
        return template.render(
            msg_id=msg_id,
            request_id=request_id,
            engine_time=engine_time,
            counter_value=self.stats_unknown_engine_ids,
        )

    def _report(
        self, request: SnmpV3Message, counter_oid: Oid, counter_value: int, now: float
    ) -> bytes:
        request_id = (
            request.scoped_pdu.pdu.request_id if request.scoped_pdu is not None else request.msg_id
        )
        report_pdu = pdu_mod.report(request_id, counter_oid, counter_value)
        reply = SnmpV3Message(
            msg_id=request.msg_id,
            flags=0,
            security=UsmSecurityParameters(
                engine_id=self._reported_engine_id(),
                engine_boots=0 if self.behavior.report_zero_time else self.engine_boots,
                engine_time=self.engine_time(now),
            ),
            scoped_pdu=ScopedPdu(
                context_engine_id=self._reported_engine_id(),
                context_name=b"",
                pdu=report_pdu,
            ),
        )
        return reply.encode()

    # -- MIB access ------------------------------------------------------------

    def _resolve(
        self, varbinds: "tuple[pdu_mod.VarBind, ...]", now: float
    ) -> "tuple[tuple[pdu_mod.VarBind, ...], int, int]":
        resolved = []
        for index, varbind in enumerate(varbinds, start=1):
            value = self.mib.get(varbind.name, now)
            if value is None:
                return tuple(varbinds), constants.ERR_NO_SUCH_NAME, index
            resolved.append(pdu_mod.VarBind(varbind.name, value))
        return tuple(resolved), constants.ERR_NO_ERROR, 0

    def _resolve_next(
        self, varbinds: "tuple[pdu_mod.VarBind, ...]", now: float
    ) -> "tuple[tuple[pdu_mod.VarBind, ...], int, int]":
        resolved = []
        for index, varbind in enumerate(varbinds, start=1):
            entry = self.mib.get_next(varbind.name, now)
            if entry is None:
                return tuple(varbinds), constants.ERR_NO_SUCH_NAME, index
            resolved.append(pdu_mod.VarBind(entry[0], entry[1]))
        return tuple(resolved), constants.ERR_NO_ERROR, 0

    def _resolve_bulk(
        self, request: pdu_mod.Pdu, now: float
    ) -> "tuple[tuple[pdu_mod.VarBind, ...], int, int]":
        """GetBulk (RFC 3416 §4.2.3): the PDU's error-status field carries
        non-repeaters, error-index carries max-repetitions.  Exhausted
        columns simply stop producing rows (endOfMibView simplified)."""
        non_repeaters = max(0, request.error_status)
        max_repetitions = max(0, request.error_index)
        resolved: list[pdu_mod.VarBind] = []
        for varbind in request.varbinds[:non_repeaters]:
            entry = self.mib.get_next(varbind.name, now)
            if entry is not None:
                resolved.append(pdu_mod.VarBind(entry[0], entry[1]))
        repeaters = list(request.varbinds[non_repeaters:])
        cursors = [vb.name for vb in repeaters]
        for __ in range(max_repetitions):
            advanced = False
            for i, cursor in enumerate(cursors):
                if cursor is None:
                    continue
                entry = self.mib.get_next(cursor, now)
                if entry is None:
                    cursors[i] = None
                    continue
                resolved.append(pdu_mod.VarBind(entry[0], entry[1]))
                cursors[i] = entry[0]
                advanced = True
            if not advanced:
                break
        return tuple(resolved), constants.ERR_NO_ERROR, 0

    # -- authentication ----------------------------------------------------------

    def _verify_auth(self, payload: bytes, message: SnmpV3Message, user: UsmUser) -> bool:
        received = message.security.auth_params
        if len(received) != len(_ZEROED_MAC):
            return False
        zeroed = payload.replace(received, _ZEROED_MAC, 1)
        key = localized_key_from_password(
            user.password, self._reported_engine_id(), user.auth_protocol
        )
        expected = compute_mac(key, zeroed, user.auth_protocol)
        return expected == received


def _sign_message(message: SnmpV3Message, user: UsmUser) -> bytes:
    """Serialize with a zeroed MAC field, compute HMAC, splice it in."""
    placeholder = replace(
        message, security=replace(message.security, auth_params=_ZEROED_MAC)
    )
    blob = placeholder.encode()
    key = localized_key_from_password(
        user.password, message.security.engine_id, user.auth_protocol
    )
    mac = compute_mac(key, blob, user.auth_protocol)
    return blob.replace(_ZEROED_MAC, mac, 1)
