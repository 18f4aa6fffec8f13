"""Batch-staged probe pipeline: the sharded scan executor's probe loop.

A per-probe loop pays Python dispatch per *packet*: encode one probe,
build one :class:`~repro.net.packet.Datagram`, walk the fault fabric,
call the agent, fully decode the reply — then start over.  This module
runs one shard's probe work as stages over *windows* of targets
instead; every scan's probes go through it:

1. **encode** — a :class:`~repro.snmp.messages.DiscoveryProbeTemplate`
   renders the whole window's probes in one vectorized BER pass;
2. **inject** — :meth:`FabricView.inject_probe_batch` steps the fault
   fabric and the agents across the window in one call, with per-probe
   msg-id hints so uncorrupted probes reach
   ``SnmpAgent.handle_discovery`` without re-parsing;
3. **decode** — replies are matched with the structural
   :func:`~repro.snmp.messages.match_discovery_report` fast parser,
   falling back to the authoritative full decoder whenever the shape is
   off.

Stage boundaries never change outcomes: every RNG draw, usmStats bump,
reboot, and reply byte happens in per-target order, so results are
byte-identical at every worker count, window and batch size.  Each
stage is tested against the per-probe code it stands in for — batched
delivery against :meth:`FabricView.inject`
(``tests/net/test_probe_batch.py``), the template, the matcher and the
hinted handler against ``encode_discovery_probe``,
``parse_discovery_response`` and ``SnmpAgent.handle``
(``tests/snmp/test_probe_template.py``) — and whole campaigns under
every fault profile, adversarial personality, retry, breaker and
timeout policy are frozen as golden digests
(``tests/scanner/test_pipeline_identity.py``).

A non-zero :class:`~repro.scanner.executor.RetryPolicy` makes a target's
follow-up probes depend on its own reply outcomes, so windows collapse to
per-target sequencing; the encode-template, hinted-inject and
fast-decode savings still apply.

The streaming executor path (``execute_stream`` over a target iterator)
reuses these stages unchanged: each planning window's shards run through
:func:`probe_targets_pipelined` exactly as a whole-scan plan would, and
on lazy topologies the batch inject's endpoint misses fall through to
the fabric's resolver, which derives devices on demand — stage
boundaries still never change outcomes.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterator

from repro.asn1 import ber
from repro.scanner.records import ScanObservation
from repro.snmp.constants import SNMP_PORT
from repro.snmp.engine_id import EngineId
from repro.snmp.messages import (
    DiscoveryProbeTemplate,
    match_discovery_report,
    parse_discovery_response,
)

if TYPE_CHECKING:
    from repro.net.addresses import IPAddress
    from repro.net.transport import FabricView
    from repro.scanner.executor import RetryPolicy, ShardSpec, _ScanParams
    from repro.scanner.metrics import ShardMetrics

    ReplyEntry = tuple[bytes, float, int]


def observe_replies(
    target: "IPAddress", replies: "list[ReplyEntry]"
) -> ScanObservation:
    """Parse the first reply; count the rest (amplification tracking).

    The tuple-based twin of ``ZmapScanner._observe`` — the batch fabric
    hands back ``(payload, arrival, wire_size)`` entries instead of
    materialized datagrams — fronted by the structural Report matcher.
    Output is field-identical for every reply either path can see.
    """
    payload, arrival, wire_size = replies[0]
    parsed = match_discovery_report(payload)
    if parsed is None:
        try:
            parsed = parse_discovery_response(payload)
        except ber.BerDecodeError:
            return ScanObservation(
                address=target,
                recv_time=arrival,
                engine_id=None,
                response_count=len(replies),
                wire_bytes=wire_size,
            )
    return ScanObservation(
        address=target,
        recv_time=arrival,
        engine_id=EngineId(parsed.engine_id),
        engine_boots=parsed.engine_boots,
        engine_time=parsed.engine_time,
        response_count=len(replies),
        wire_bytes=wire_size,
    )


def probe_targets_pipelined(
    view: "FabricView",
    spec: "ShardSpec",
    params: "_ScanParams",
    retry: "RetryPolicy",
    window: int,
    owner_of: "object",
    shard: "ShardMetrics",
    profile: bool,
) -> Iterator[ScanObservation]:
    """Yield one shard's observations through the staged pipeline.

    Counters go to ``shard``; with ``profile`` each stage also adds its
    wall-clock seconds (``encode_time``, ``inject_time``,
    ``decode_time``).
    """
    if retry.max_retries > 0:
        return _probe_targets_retry(
            view, spec, params, retry, owner_of, shard, profile
        )
    return _probe_targets_staged(view, spec, params, retry, window, shard, profile)


def _probe_targets_staged(
    view: "FabricView",
    spec: "ShardSpec",
    params: "_ScanParams",
    retry: "RetryPolicy",
    window: int,
    shard: "ShardMetrics",
    profile: bool,
) -> Iterator[ScanObservation]:
    """Window-staged path: valid whenever no retries are configured.

    Without retries a probe's inputs (payload, send slot) are independent
    of every other probe's outcome and all RNG draws happen inside
    delivery in target order, so encode-all / inject-all / decode-all is
    draw-for-draw identical to probing one target at a time.  The
    timeout filter draws nothing, so it batches freely too.  The golden
    rows without retries (``tests/scanner/test_pipeline_identity.py``)
    pin this path, the ``timeout`` row its timeout filter.
    """
    template = DiscoveryProbeTemplate()
    items = spec.items
    source = params.source
    sport = params.source_port
    start_time = params.start_time
    interval = params.interval
    timeout = retry.timeout
    inject_batch = view.inject_probe_batch
    perf = time.perf_counter
    for base in range(0, len(items), window):
        chunk = items[base : base + window]
        msg_ids = [global_index + 1 for global_index, __ in chunk]
        targets = [target for __, target in chunk]
        send_times = [
            start_time + global_index * interval for global_index, __ in chunk
        ]
        if profile:
            stage_started = perf()
        payloads = template.render_batch(msg_ids)
        if profile:
            shard.encode_time += perf() - stage_started
            stage_started = perf()
        reply_lists = inject_batch(
            source, sport, SNMP_PORT, targets, payloads, send_times, msg_ids
        )
        if profile:
            shard.inject_time += perf() - stage_started
            stage_started = perf()
        observations: "list[ScanObservation]" = []
        append = observations.append
        for index, replies in enumerate(reply_lists):
            if timeout is not None and replies:
                send_time = send_times[index]
                on_time = [
                    entry for entry in replies if entry[1] - send_time <= timeout
                ]
                shard.timed_out += len(replies) - len(on_time)
                replies = on_time
            if not replies:
                continue
            observation = observe_replies(targets[index], replies)
            if observation.engine_id is None:
                shard.unparsed += 1
            append(observation)
        if profile:
            shard.decode_time += perf() - stage_started
        yield from observations


def _probe_targets_retry(
    view: "FabricView",
    spec: "ShardSpec",
    params: "_ScanParams",
    retry: "RetryPolicy",
    owner_of: "object",
    shard: "ShardMetrics",
    profile: bool,
) -> Iterator[ScanObservation]:
    """Per-target path for retry policies.

    A retry's send slot and very existence depend on the target's own
    earlier replies, so targets complete one at a time, each drawing
    from the fabric RNG in target order.  The probe encode (template),
    delivery entry point (hinted single-probe batch) and reply parse
    (fast matcher) are the staged path's byte-identical substitutions;
    the ``retries``, ``breaker`` and ``rate-limited-retries`` golden
    rows (``tests/scanner/test_pipeline_identity.py``) pin the retry,
    circuit-breaker and timeout accounting.
    """
    template = DiscoveryProbeTemplate()
    source = params.source
    sport = params.source_port
    start_time = params.start_time
    interval = params.interval
    timeout = retry.timeout
    inject_batch = view.inject_probe_batch
    perf = time.perf_counter
    dead_streak: dict[object, int] = {}
    for global_index, target in spec.items:
        send_time = start_time + global_index * interval
        msg_id = global_index + 1
        if profile:
            stage_started = perf()
        payload = template.render(msg_id)
        if profile:
            shard.encode_time += perf() - stage_started
        if retry.breaker_threshold:
            breaker_key = owner_of(target)  # type: ignore[operator]
            if breaker_key is None:
                breaker_key = target
            allow_retries = (
                dead_streak.get(breaker_key, 0) < retry.breaker_threshold
            )
        else:
            breaker_key = None
            allow_retries = True
        observation = None
        attempt = 0
        while True:
            if profile:
                stage_started = perf()
            replies = inject_batch(
                source, sport, SNMP_PORT, [target], [payload],
                [send_time], [msg_id],
            )[0]
            if profile:
                shard.inject_time += perf() - stage_started
            if timeout is not None and replies:
                on_time = [
                    entry for entry in replies if entry[1] - send_time <= timeout
                ]
                shard.timed_out += len(replies) - len(on_time)
                replies = on_time
            if replies:
                if profile:
                    stage_started = perf()
                observation = observe_replies(target, replies)
                if profile:
                    shard.decode_time += perf() - stage_started
                if observation.engine_id is not None:
                    break
            if not allow_retries or attempt >= retry.max_retries:
                break
            attempt += 1
            shard.retries += 1
            send_time = retry.retry_send_time(send_time, attempt)
        if observation is not None:
            if observation.engine_id is None:
                shard.unparsed += 1
            yield observation
        if breaker_key is not None:
            if observation is None:
                streak = dead_streak.get(breaker_key, 0) + 1
                dead_streak[breaker_key] = streak
                if streak == retry.breaker_threshold:
                    shard.breaker_tripped += 1
            else:
                dead_streak[breaker_key] = 0


__all__ = [
    "observe_replies",
    "probe_targets_pipelined",
]
