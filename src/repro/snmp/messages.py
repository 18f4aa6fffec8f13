"""SNMP message framing: v1/v2c community messages and SNMPv3 (RFC 3412).

The SNMPv3 message the scanner sends — the *unsolicited synchronization
request* of the paper's Figure 2 — is a regular v3 GET with:

* an **empty** ``msgAuthoritativeEngineID``,
* zero ``msgAuthoritativeEngineBoots`` / ``msgAuthoritativeEngineTime``,
* an empty user name and no authentication/privacy parameters,
* the *reportable* flag set, so the agent answers with a Report PDU.

The agent's Report (Figure 3) carries its real engine ID, boots and time
in the security parameters — that triple is everything the paper's
measurement machinery consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.asn1 import ber
from repro.snmp import constants
from repro.snmp.pdu import Pdu


@dataclass(frozen=True)
class UsmSecurityParameters:
    """The UsmSecurityParameters SEQUENCE (RFC 3414 §2.4)."""

    engine_id: bytes = b""
    engine_boots: int = 0
    engine_time: int = 0
    user_name: bytes = b""
    auth_params: bytes = b""
    priv_params: bytes = b""

    def encode(self) -> bytes:
        body = ber.encode_sequence(
            ber.encode_octet_string(self.engine_id),
            ber.encode_integer(self.engine_boots),
            ber.encode_integer(self.engine_time),
            ber.encode_octet_string(self.user_name),
            ber.encode_octet_string(self.auth_params),
            ber.encode_octet_string(self.priv_params),
        )
        return body

    @classmethod
    def decode(cls, buf: bytes) -> "UsmSecurityParameters":
        content, end = ber.decode_sequence(buf, 0)
        if end != len(buf):
            raise ber.BerDecodeError("trailing bytes after UsmSecurityParameters")
        engine_id, pos = ber.decode_octet_string(content, 0)
        engine_boots, pos = ber.decode_integer(content, pos)
        engine_time, pos = ber.decode_integer(content, pos)
        user_name, pos = ber.decode_octet_string(content, pos)
        auth_params, pos = ber.decode_octet_string(content, pos)
        priv_params, pos = ber.decode_octet_string(content, pos)
        if pos != len(content):
            raise ber.BerDecodeError("trailing bytes inside UsmSecurityParameters")
        return cls(
            engine_id=engine_id,
            engine_boots=engine_boots,
            engine_time=engine_time,
            user_name=user_name,
            auth_params=auth_params,
            priv_params=priv_params,
        )


@dataclass(frozen=True)
class ScopedPdu:
    """A plaintext scoped PDU (RFC 3412 §6.8)."""

    context_engine_id: bytes
    context_name: bytes
    pdu: Pdu

    def encode(self) -> bytes:
        return ber.encode_sequence(
            ber.encode_octet_string(self.context_engine_id),
            ber.encode_octet_string(self.context_name),
            self.pdu.encode(),
        )

    @classmethod
    def decode(cls, buf: bytes, offset: int) -> tuple["ScopedPdu", int]:
        content, next_offset = ber.decode_sequence(buf, offset)
        context_engine_id, pos = ber.decode_octet_string(content, 0)
        context_name, pos = ber.decode_octet_string(content, pos)
        pdu, pos = Pdu.decode(content, pos)
        if pos != len(content):
            raise ber.BerDecodeError("trailing bytes inside ScopedPDU")
        return cls(context_engine_id, context_name, pdu), next_offset


@dataclass(frozen=True)
class SnmpV3Message:
    """A complete SNMPv3 message.

    ``scoped_pdu`` carries the plaintext payload; when the priv flag is
    set the payload travels as ``encrypted_pdu`` ciphertext instead
    (AES-128-CFB per RFC 3826 — see :mod:`repro.snmp.usm`).  The
    discovery exchange the paper measures is always plaintext.
    """

    msg_id: int
    max_size: int = constants.DEFAULT_MAX_SIZE
    flags: int = constants.FLAG_REPORTABLE
    security_model: int = constants.SECURITY_MODEL_USM
    security: UsmSecurityParameters = field(default_factory=UsmSecurityParameters)
    scoped_pdu: "ScopedPdu | None" = None
    #: Ciphertext of the scoped PDU when the priv flag is set.
    encrypted_pdu: "bytes | None" = None

    @property
    def is_reportable(self) -> bool:
        return bool(self.flags & constants.FLAG_REPORTABLE)

    @property
    def is_authenticated(self) -> bool:
        return bool(self.flags & constants.FLAG_AUTH)

    @property
    def is_encrypted(self) -> bool:
        return bool(self.flags & constants.FLAG_PRIV)

    def encode(self) -> bytes:
        if self.is_encrypted:
            if self.encrypted_pdu is None:
                raise ValueError("priv flag set but no encrypted PDU present")
            msg_data = ber.encode_octet_string(self.encrypted_pdu)
        else:
            if self.scoped_pdu is None:
                raise ValueError("cannot encode a message without a scoped PDU")
            msg_data = self.scoped_pdu.encode()
        global_data = ber.encode_sequence(
            ber.encode_integer(self.msg_id),
            ber.encode_integer(self.max_size),
            ber.encode_octet_string(bytes([self.flags])),
            ber.encode_integer(self.security_model),
        )
        return ber.encode_sequence(
            ber.encode_integer(constants.VERSION_3),
            global_data,
            ber.encode_octet_string(self.security.encode()),
            msg_data,
        )

    @classmethod
    def decode(cls, buf: bytes) -> "SnmpV3Message":
        content, end = ber.decode_sequence(buf, 0)
        if end != len(buf):
            raise ber.BerDecodeError("trailing bytes after SNMPv3 message")
        version, pos = ber.decode_integer(content, 0)
        if version != constants.VERSION_3:
            raise ber.BerDecodeError(f"not an SNMPv3 message (version={version})")
        global_data, pos = ber.decode_sequence(content, pos)
        msg_id, gpos = ber.decode_integer(global_data, 0)
        max_size, gpos = ber.decode_integer(global_data, gpos)
        flags_octets, gpos = ber.decode_octet_string(global_data, gpos)
        if len(flags_octets) != 1:
            raise ber.BerDecodeError("msgFlags must be a single octet")
        security_model, gpos = ber.decode_integer(global_data, gpos)
        if gpos != len(global_data):
            raise ber.BerDecodeError("trailing bytes inside msgGlobalData")
        security_blob, pos = ber.decode_octet_string(content, pos)
        security = UsmSecurityParameters.decode(security_blob)
        flags = flags_octets[0]
        scoped_pdu = None
        encrypted_pdu = None
        if flags & constants.FLAG_PRIV:
            encrypted_pdu, pos = ber.decode_octet_string(content, pos)
        else:
            scoped_pdu, pos = ScopedPdu.decode(content, pos)
        if pos != len(content):
            raise ber.BerDecodeError("trailing bytes after ScopedPDU")
        return cls(
            msg_id=msg_id,
            max_size=max_size,
            flags=flags,
            security_model=security_model,
            security=security,
            scoped_pdu=scoped_pdu,
            encrypted_pdu=encrypted_pdu,
        )


@dataclass(frozen=True)
class CommunityMessage:
    """An SNMPv1 or v2c message: version, community string, PDU."""

    version: int
    community: bytes
    pdu: Pdu

    def __post_init__(self) -> None:
        if self.version not in (constants.VERSION_1, constants.VERSION_2C):
            raise ValueError(f"community messages are v1/v2c only, got {self.version}")

    def encode(self) -> bytes:
        return ber.encode_sequence(
            ber.encode_integer(self.version),
            ber.encode_octet_string(self.community),
            self.pdu.encode(),
        )

    @classmethod
    def decode(cls, buf: bytes) -> "CommunityMessage":
        content, end = ber.decode_sequence(buf, 0)
        if end != len(buf):
            raise ber.BerDecodeError("trailing bytes after community message")
        version, pos = ber.decode_integer(content, 0)
        community, pos = ber.decode_octet_string(content, pos)
        pdu, pos = Pdu.decode(content, pos)
        if pos != len(content):
            raise ber.BerDecodeError("trailing bytes after PDU")
        return cls(version=version, community=community, pdu=pdu)


def peek_version(buf: bytes) -> int:
    """Return the msgVersion of a raw SNMP datagram without a full parse."""
    content, __ = ber.decode_sequence(buf, 0)
    version, __ = ber.decode_integer(content, 0)
    return version


def build_discovery_probe(msg_id: int, request_id: "int | None" = None) -> SnmpV3Message:
    """Build the unsolicited synchronization request of Figure 2.

    Empty engine ID, zero boots/time, empty user, reportable flag set, and
    a GET PDU with an empty varbind list inside a scoped PDU with empty
    context.  This is the exact single packet the scanner sends per target.
    """
    pdu = Pdu(
        tag=constants.TAG_GET_REQUEST,
        request_id=msg_id if request_id is None else request_id,
    )
    return SnmpV3Message(
        msg_id=msg_id,
        flags=constants.FLAG_REPORTABLE,
        scoped_pdu=ScopedPdu(context_engine_id=b"", context_name=b"", pdu=pdu),
    )


# Constant fragments of the discovery probe.  Everything except the two
# msg_id/request_id INTEGERs is identical across probes, so the sharded
# executor's hot loop can assemble the wire bytes from four joins instead
# of building and encoding the full message object graph per target.
_PROBE_VERSION = ber.encode_integer(constants.VERSION_3)
_PROBE_GLOBAL_TAIL = (
    ber.encode_integer(constants.DEFAULT_MAX_SIZE)
    + ber.encode_octet_string(bytes([constants.FLAG_REPORTABLE]))
    + ber.encode_integer(constants.SECURITY_MODEL_USM)
)
_PROBE_SECURITY = ber.encode_octet_string(UsmSecurityParameters().encode())
_PROBE_EMPTY_OCTETS = ber.encode_octet_string(b"")
_PROBE_PDU_TAIL = (
    ber.encode_integer(0) + ber.encode_integer(0) + ber.encode_sequence()
)


def encode_discovery_probe(msg_id: int, request_id: "int | None" = None) -> bytes:
    """Encode the Figure 2 probe directly to wire bytes.

    Byte-identical to ``build_discovery_probe(msg_id).encode()`` but an
    order of magnitude cheaper — the scan executor calls this once per
    target.
    """
    msg_id_tlv = ber.encode_integer(msg_id)
    request_tlv = (
        msg_id_tlv if request_id is None else ber.encode_integer(request_id)
    )
    pdu = ber.encode_tlv(
        constants.TAG_GET_REQUEST, request_tlv + _PROBE_PDU_TAIL
    )
    scoped_pdu = ber.encode_sequence(
        _PROBE_EMPTY_OCTETS, _PROBE_EMPTY_OCTETS, pdu
    )
    global_data = ber.encode_sequence(msg_id_tlv + _PROBE_GLOBAL_TAIL)
    return ber.encode_sequence(
        _PROBE_VERSION, global_data, _PROBE_SECURITY, scoped_pdu
    )


class DiscoveryProbeTemplate:
    """Probe-side counterpart of :class:`DiscoveryReportTemplate`.

    Every discovery probe the scanner sends is identical except for the
    msg_id/request_id INTEGER, which appears twice (the executor always
    uses ``request_id == msg_id``).  For a given INTEGER TLV width the
    rest of the packet — including every enclosing length octet — is a
    fixed three-fragment frame ``prefix | tlv | mid | tlv | tail``.  The
    template derives those fragments analytically per width, verifies
    them against :func:`encode_discovery_probe` once, then renders whole
    windows of probes with a single join per probe.

    Instances are cheap and unshared: the sharded executor builds one per
    shard run and one per shard plan, so fork-pool workers never mutate
    common state.
    """

    __slots__ = ("_frames", "_sizes")

    def __init__(self) -> None:
        self._frames: "dict[int, tuple[bytes, bytes, bytes]]" = {}
        self._sizes: "dict[int, int]" = {}

    def _build_frame(
        self, msg_id: int, tlv: bytes
    ) -> "tuple[bytes, bytes, bytes]":
        """Derive and self-verify the frame for ``tlv``'s width class."""
        width = len(tlv)
        pdu_len = width + len(_PROBE_PDU_TAIL)
        pdu_header = bytes([constants.TAG_GET_REQUEST]) + ber.encode_length(pdu_len)
        scoped_len = 2 * len(_PROBE_EMPTY_OCTETS) + len(pdu_header) + pdu_len
        scoped_header = bytes([ber.TAG_SEQUENCE]) + ber.encode_length(scoped_len)
        global_len = width + len(_PROBE_GLOBAL_TAIL)
        global_header = bytes([ber.TAG_SEQUENCE]) + ber.encode_length(global_len)
        message_len = (
            len(_PROBE_VERSION)
            + len(global_header)
            + global_len
            + len(_PROBE_SECURITY)
            + len(scoped_header)
            + scoped_len
        )
        prefix = (
            bytes([ber.TAG_SEQUENCE])
            + ber.encode_length(message_len)
            + _PROBE_VERSION
            + global_header
        )
        mid = (
            _PROBE_GLOBAL_TAIL
            + _PROBE_SECURITY
            + scoped_header
            + _PROBE_EMPTY_OCTETS
            + _PROBE_EMPTY_OCTETS
            + pdu_header
        )
        frame = (prefix, mid, _PROBE_PDU_TAIL)
        rendered = b"".join((prefix, tlv, mid, tlv, _PROBE_PDU_TAIL))
        if rendered != encode_discovery_probe(msg_id):
            raise AssertionError(
                f"probe template drifted from encode_discovery_probe "
                f"for INTEGER width {width}"
            )
        self._frames[width] = frame
        return frame

    def render(self, msg_id: int) -> bytes:
        """Encode one probe; byte-identical to ``encode_discovery_probe``."""
        tlv = ber.encode_integer(msg_id)
        frame = self._frames.get(len(tlv))
        if frame is None:
            frame = self._build_frame(msg_id, tlv)
        prefix, mid, tail = frame
        return b"".join((prefix, tlv, mid, tlv, tail))

    def probe_size(self, msg_id: int) -> int:
        """Byte length of the probe carrying ``msg_id``, without rendering it.

        The frame of the msg id's INTEGER width fixes every byte but the
        two INTEGER TLVs, and for a non-negative msg id that width
        depends only on its bit length, so each bit length is measured
        once, on its frame.
        """
        bits = msg_id.bit_length()
        size = self._sizes.get(bits)
        if size is None:
            tlv = ber.encode_integer(msg_id)
            frame = self._frames.get(len(tlv))
            if frame is None:
                frame = self._build_frame(msg_id, tlv)
            size = self._sizes[bits] = sum(map(len, frame)) + 2 * len(tlv)
        return size

    def render_batch(self, msg_ids: "Sequence[int]") -> "list[bytes]":
        """Encode a window of probes in one vectorized pass."""
        frames = self._frames
        tlvs = ber.encode_integer_batch(msg_ids)
        join = b"".join
        out: "list[bytes]" = []
        append = out.append
        for index, tlv in enumerate(tlvs):
            frame = frames.get(len(tlv))
            if frame is None:
                frame = self._build_frame(msg_ids[index], tlv)
            append(join((frame[0], tlv, frame[1], tlv, frame[2])))
        return out


def match_discovery_probe(payload: bytes) -> "tuple[int, int] | None":
    """Structurally match a Figure 2 discovery probe without a full decode.

    Returns ``(msg_id, request_id)`` when ``payload`` is byte-for-byte an
    :func:`encode_discovery_probe` output — the only SNMPv3 packet the
    scanner ever sends — and ``None`` otherwise.  Agents use a successful
    match to take the cached report-template fast path; any mismatch
    (hand-crafted packets, corrupted probes) falls back to the full
    decoder, so observable behaviour never diverges.
    """
    try:
        content, end = ber.decode_sequence(payload, 0)
        if end != len(payload) or not content.startswith(_PROBE_VERSION):
            return None
        pos = len(_PROBE_VERSION)
        global_data, pos = ber.decode_sequence(content, pos)
        msg_id, gpos = ber.decode_integer(global_data, 0)
        if global_data[gpos:] != _PROBE_GLOBAL_TAIL:
            return None
        if content[pos : pos + len(_PROBE_SECURITY)] != _PROBE_SECURITY:
            return None
        pos += len(_PROBE_SECURITY)
        scoped, spos = ber.decode_sequence(content, pos)
        if spos != len(content):
            return None
        contexts = _PROBE_EMPTY_OCTETS + _PROBE_EMPTY_OCTETS
        if not scoped.startswith(contexts):
            return None
        pdu_body, ppos = ber.expect_tag(
            scoped, len(contexts), constants.TAG_GET_REQUEST, "GetRequest"
        )
        if ppos != len(scoped):
            return None
        request_id, rpos = ber.decode_integer(pdu_body, 0)
        if pdu_body[rpos:] != _PROBE_PDU_TAIL:
            return None
    except ber.BerDecodeError:
        return None
    return msg_id, request_id


# Constant fragments of the discovery Report reply (Figure 3).  The reply's
# global data differs from the probe's in one byte (msgFlags 0x00 — not
# reportable, no auth) and its PDU is a Report carrying the
# usmStatsUnknownEngineIDs counter.
_REPORT_GLOBAL_TAIL = (
    ber.encode_integer(constants.DEFAULT_MAX_SIZE)
    + ber.encode_octet_string(b"\x00")
    + ber.encode_integer(constants.SECURITY_MODEL_USM)
)
_REPORT_SECURITY_SUFFIX = _PROBE_EMPTY_OCTETS * 3
_REPORT_COUNTER_OID = ber.encode_oid(constants.OID_USM_STATS_UNKNOWN_ENGINE_IDS)
_REPORT_ERROR_FIELDS = ber.encode_integer(0) + ber.encode_integer(0)


# Shared frame cache for discovery Report rendering.  A frame is keyed
# by the *byte widths* of the six variable TLVs (engine-id OCTET STRING,
# boots / msg-id / request-id / engine-time INTEGERs, Counter32): for one
# width tuple every enclosing length octet is invariant across ALL
# engines, so the cache warms once per shape for an entire topology
# instead of once per (engine, boots) template.  Values are pure
# functions of the key, so sharing across templates cannot leak state.
_REPORT_FRAMES: "dict[tuple[int, int, int, int, int, int], tuple[bytes, bytes, bytes, bytes, bytes]]" = {}


class DiscoveryReportTemplate:
    """Pre-encoded invariant fragments of one agent's discovery Report.

    An engine's ID and boots counter are stable between reboots, so an
    agent answering an Internet-wide scan would re-encode the exact same
    security and scoped-PDU prefixes millions of times.  The template
    freezes those fragments once per ``(engine ID, boots)`` pair and
    :meth:`render` splices in the four per-probe integers (msg id,
    request id, engine time, usmStats counter).  Output is byte-identical
    to the full ``SnmpV3Message.encode`` path — asserted by the property
    test in ``tests/snmp/test_report_fast_path.py``.
    """

    __slots__ = (
        "engine_id",
        "engine_boots",
        "_security_prefix",
        "_scoped_prefix",
        "_eid_os",
        "_boots_tlv",
    )

    def __init__(self, engine_id: bytes, engine_boots: int) -> None:
        self.engine_id = engine_id
        self.engine_boots = engine_boots
        self._eid_os = ber.encode_octet_string(engine_id)
        self._boots_tlv = ber.encode_integer(engine_boots)
        self._security_prefix = self._eid_os + self._boots_tlv
        self._scoped_prefix = self._eid_os + _PROBE_EMPTY_OCTETS

    def _render_slow(
        self, *, msg_id: int, request_id: int, engine_time: int, counter_value: int
    ) -> bytes:
        """Reference encoder: the full bottom-up BER construction."""
        security = ber.encode_octet_string(
            ber.encode_sequence(
                self._security_prefix
                + ber.encode_integer(engine_time)
                + _REPORT_SECURITY_SUFFIX
            )
        )
        varbinds = ber.encode_sequence(
            ber.encode_sequence(
                _REPORT_COUNTER_OID
                + ber.encode_unsigned(counter_value, ber.TAG_COUNTER32)
            )
        )
        report_pdu = ber.encode_tlv(
            constants.TAG_REPORT,
            ber.encode_integer(request_id) + _REPORT_ERROR_FIELDS + varbinds,
        )
        global_data = ber.encode_sequence(
            ber.encode_integer(msg_id) + _REPORT_GLOBAL_TAIL
        )
        return ber.encode_sequence(
            _PROBE_VERSION,
            global_data,
            security,
            ber.encode_sequence(self._scoped_prefix + report_pdu),
        )

    def _build_frame(
        self,
        key: "tuple[int, int, int, int, int, int]",
        reference: bytes,
        parts: "tuple[bytes, bytes, bytes, bytes]",
    ) -> "tuple[bytes, bytes, bytes, bytes, bytes]":
        """Derive and self-verify the shared frame for one width tuple."""
        eid_len, boots_len, mlen, rlen, tlen, clen = key
        vb_inner_len = len(_REPORT_COUNTER_OID) + clen
        vb_inner_hdr = bytes([ber.TAG_SEQUENCE]) + ber.encode_length(vb_inner_len)
        varbinds_len = len(vb_inner_hdr) + vb_inner_len
        varbinds_hdr = bytes([ber.TAG_SEQUENCE]) + ber.encode_length(varbinds_len)
        pdu_len = rlen + len(_REPORT_ERROR_FIELDS) + len(varbinds_hdr) + varbinds_len
        pdu_hdr = bytes([constants.TAG_REPORT]) + ber.encode_length(pdu_len)
        scoped_len = (
            eid_len + len(_PROBE_EMPTY_OCTETS) + len(pdu_hdr) + pdu_len
        )
        scoped_hdr = bytes([ber.TAG_SEQUENCE]) + ber.encode_length(scoped_len)
        sec_seq_len = eid_len + boots_len + tlen + len(_REPORT_SECURITY_SUFFIX)
        sec_seq_hdr = bytes([ber.TAG_SEQUENCE]) + ber.encode_length(sec_seq_len)
        sec_os_len = len(sec_seq_hdr) + sec_seq_len
        sec_os_hdr = bytes([ber.TAG_OCTET_STRING]) + ber.encode_length(sec_os_len)
        global_len = mlen + len(_REPORT_GLOBAL_TAIL)
        global_hdr = bytes([ber.TAG_SEQUENCE]) + ber.encode_length(global_len)
        message_len = (
            len(_PROBE_VERSION)
            + len(global_hdr) + global_len
            + len(sec_os_hdr) + sec_os_len
            + len(scoped_hdr) + scoped_len
        )
        frame = (
            bytes([ber.TAG_SEQUENCE])
            + ber.encode_length(message_len)
            + _PROBE_VERSION
            + global_hdr,
            _REPORT_GLOBAL_TAIL + sec_os_hdr + sec_seq_hdr,
            _REPORT_SECURITY_SUFFIX + scoped_hdr,
            _PROBE_EMPTY_OCTETS + pdu_hdr,
            _REPORT_ERROR_FIELDS + varbinds_hdr + vb_inner_hdr + _REPORT_COUNTER_OID,
        )
        m, r, t, c = parts
        rendered = b"".join((
            frame[0], m, frame[1], self._eid_os, self._boots_tlv, t,
            frame[2], self._eid_os, frame[3], r, frame[4], c,
        ))
        if rendered != reference:
            raise AssertionError(
                f"report template frame drifted from the reference encoder "
                f"for widths {key}"
            )
        # Safe across fork-pool workers: a pure width-keyed cache whose
        # entries are self-verified against the reference encoder above,
        # so independently-warmed caches can never disagree on bytes.
        _REPORT_FRAMES[key] = frame  # repro-lint: disable=DET002
        return frame

    def render(
        self, *, msg_id: int, request_id: int, engine_time: int, counter_value: int
    ) -> bytes:
        """Encode the full Report reply for one probe."""
        m = ber.encode_integer(msg_id)
        r = ber.encode_integer(request_id)
        t = ber.encode_integer(engine_time)
        c = ber.encode_unsigned(counter_value, ber.TAG_COUNTER32)
        eid_os = self._eid_os
        boots_tlv = self._boots_tlv
        key = (len(eid_os), len(boots_tlv), len(m), len(r), len(t), len(c))
        frame = _REPORT_FRAMES.get(key)
        if frame is None:
            reference = self._render_slow(
                msg_id=msg_id, request_id=request_id,
                engine_time=engine_time, counter_value=counter_value,
            )
            frame = self._build_frame(key, reference, (m, r, t, c))
        return b"".join((
            frame[0], m, frame[1], eid_os, boots_tlv, t,
            frame[2], eid_os, frame[3], r, frame[4], c,
        ))


@dataclass(frozen=True)
class DiscoveryReply:
    """The fields of Figure 3 that the measurement pipeline consumes."""

    engine_id: bytes
    engine_boots: int
    engine_time: int
    msg_id: int


def parse_discovery_response(payload: bytes) -> DiscoveryReply:
    """Parse an agent's Report reply to a discovery probe.

    Raises :class:`ber.BerDecodeError` on malformed payloads; the scanner
    records those as invalid responses (they feed the "missing engine ID"
    filter of §4.4).
    """
    message = SnmpV3Message.decode(payload)
    return DiscoveryReply(
        engine_id=message.security.engine_id,
        engine_boots=message.security.engine_boots,
        engine_time=message.security.engine_time,
        msg_id=message.msg_id,
    )


def _tlv_bounds(
    buf: bytes, offset: int, tag: int, limit: int
) -> "tuple[int, int] | None":
    """``(content_start, content_end)`` of the TLV at ``offset``, or ``None``.

    Conservative by design: only short-form and minimal one/two-octet
    long-form lengths are recognized, and the TLV must fit inside
    ``limit``.  Anything unusual returns ``None`` and the caller falls
    back to the full decoder — over-rejection is always safe here.
    """
    if offset + 2 > limit or buf[offset] != tag:
        return None
    length = buf[offset + 1]
    if length < 0x80:
        start = offset + 2
    elif length == 0x81:
        if offset + 3 > limit:
            return None
        length = buf[offset + 2]
        if length < 0x80:
            return None
        start = offset + 3
    elif length == 0x82:
        if offset + 4 > limit:
            return None
        length = (buf[offset + 2] << 8) | buf[offset + 3]
        if length < 0x100:
            return None
        start = offset + 4
    else:
        return None
    end = start + length
    if end > limit:
        return None
    return start, end


def _minimal_int(content: bytes) -> bool:
    """True when ``content`` is a valid minimal INTEGER body (the same
    acceptance as :func:`ber.decode_integer_content`)."""
    if not content:
        return False
    if len(content) > 1 and (
        (content[0] == 0x00 and not content[1] & 0x80)
        or (content[0] == 0xFF and content[1] & 0x80)
    ):
        return False
    return True


def match_discovery_report(payload: bytes) -> "DiscoveryReply | None":
    """Structurally match a template-shaped discovery Report reply.

    The reply-side twin of :func:`match_discovery_probe`: returns the
    :class:`DiscoveryReply` when ``payload`` has exactly the
    :class:`DiscoveryReportTemplate` shape, ``None`` otherwise.  The match
    is *stricter* than :func:`parse_discovery_response` — a successful
    match always agrees with the full decoder, and every rejection (other
    engines' messages, fault-fabric mutations) falls back to it — so the
    batch decode stage reads every reply exactly as the full decoder does
    while skipping the message-object graph for the overwhelmingly common
    unmutated reply.

    This is the scan's single hottest parse (once per reply), so it walks
    TLV header offsets on ``payload`` directly instead of layering the
    :mod:`repro.asn1.ber` helpers, which would copy every nested body.
    """
    size = len(payload)
    outer = _tlv_bounds(payload, 0, ber.TAG_SEQUENCE, size)
    if outer is None or outer[1] != size:
        return None
    pos, end = outer
    version_end = pos + len(_PROBE_VERSION)
    if payload[pos:version_end] != _PROBE_VERSION:
        return None
    global_bounds = _tlv_bounds(payload, version_end, ber.TAG_SEQUENCE, end)
    if global_bounds is None:
        return None
    gpos, gend = global_bounds
    msg_bounds = _tlv_bounds(payload, gpos, ber.TAG_INTEGER, gend)
    if msg_bounds is None:
        return None
    msg_content = payload[msg_bounds[0] : msg_bounds[1]]
    if not _minimal_int(msg_content):
        return None
    if payload[msg_bounds[1] : gend] != _REPORT_GLOBAL_TAIL:
        return None
    sec_os = _tlv_bounds(payload, gend, ber.TAG_OCTET_STRING, end)
    if sec_os is None:
        return None
    sec_seq = _tlv_bounds(payload, sec_os[0], ber.TAG_SEQUENCE, sec_os[1])
    if sec_seq is None or sec_seq[1] != sec_os[1]:
        return None
    spos, send = sec_seq
    eid_bounds = _tlv_bounds(payload, spos, ber.TAG_OCTET_STRING, send)
    if eid_bounds is None:
        return None
    boots_bounds = _tlv_bounds(payload, eid_bounds[1], ber.TAG_INTEGER, send)
    if boots_bounds is None:
        return None
    boots_content = payload[boots_bounds[0] : boots_bounds[1]]
    if not _minimal_int(boots_content):
        return None
    time_bounds = _tlv_bounds(payload, boots_bounds[1], ber.TAG_INTEGER, send)
    if time_bounds is None:
        return None
    time_content = payload[time_bounds[0] : time_bounds[1]]
    if not _minimal_int(time_content):
        return None
    if payload[time_bounds[1] : send] != _REPORT_SECURITY_SUFFIX:
        return None
    scoped = _tlv_bounds(payload, sec_os[1], ber.TAG_SEQUENCE, end)
    if scoped is None or scoped[1] != end:
        return None
    zpos, zend = scoped
    context = _tlv_bounds(payload, zpos, ber.TAG_OCTET_STRING, zend)
    if context is None:
        return None
    name_end = context[1] + len(_PROBE_EMPTY_OCTETS)
    if payload[context[1] : name_end] != _PROBE_EMPTY_OCTETS:
        return None
    pdu = _tlv_bounds(payload, name_end, constants.TAG_REPORT, zend)
    if pdu is None or pdu[1] != zend:
        return None
    ppos, pend = pdu
    request_bounds = _tlv_bounds(payload, ppos, ber.TAG_INTEGER, pend)
    if request_bounds is None:
        return None
    if not _minimal_int(payload[request_bounds[0] : request_bounds[1]]):
        return None
    error_end = request_bounds[1] + len(_REPORT_ERROR_FIELDS)
    if payload[request_bounds[1] : error_end] != _REPORT_ERROR_FIELDS:
        return None
    varbinds = _tlv_bounds(payload, error_end, ber.TAG_SEQUENCE, pend)
    if varbinds is None or varbinds[1] != pend:
        return None
    varbind = _tlv_bounds(payload, varbinds[0], ber.TAG_SEQUENCE, varbinds[1])
    if varbind is None or varbind[1] != varbinds[1]:
        return None
    oid_end = varbind[0] + len(_REPORT_COUNTER_OID)
    if payload[varbind[0] : oid_end] != _REPORT_COUNTER_OID:
        return None
    counter = _tlv_bounds(payload, oid_end, ber.TAG_COUNTER32, varbind[1])
    if counter is None or counter[1] != varbind[1]:
        return None
    if not _minimal_int(payload[counter[0] : counter[1]]):
        return None
    msg_id = int.from_bytes(msg_content, "big", signed=True)
    engine_id = payload[eid_bounds[0] : eid_bounds[1]]
    engine_boots = int.from_bytes(boots_content, "big", signed=True)
    engine_time = int.from_bytes(time_content, "big", signed=True)
    return DiscoveryReply(
        engine_id=engine_id,
        engine_boots=engine_boots,
        engine_time=engine_time,
        msg_id=msg_id,
    )
