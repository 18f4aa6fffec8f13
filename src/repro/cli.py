"""Command-line interface.

Four subcommands mirror the measurement workflow::

    snmpv3-repro scan    --scale 300 --out runs/demo     # campaign -> JSONL
    snmpv3-repro scan    --workers 4 --stats ...         # sharded engine
    snmpv3-repro scan    --store obs ...                 # + stream into a store
    snmpv3-repro analyze runs/demo                       # filter+alias+census
    snmpv3-repro report  --scale 100 [--quick]           # full paper report
    snmpv3-repro publish --scale 100 --out published     # figure CSVs
    snmpv3-repro store   ingest runs/demo --store obs    # JSONL -> observatory
    snmpv3-repro store   query --store obs --ip 1.2.3.4  # point queries
    snmpv3-repro store   timeline --store obs            # reboots/churn/diffs
    snmpv3-repro store   compact --store obs             # merge segments
    snmpv3-repro serve   --store obs --port 8350         # HTTP query service
    snmpv3-repro schedule --store obs --max-runs 4       # scheduler daemon
    snmpv3-repro lab                                     # §6.2.1 bench run

``scan`` exports the four raw scans; ``analyze`` consumes those files —
so the two stages can run on different machines, the way the paper's
collection and analysis separate.  The ``store`` verbs maintain the
persistent longitudinal observatory (:mod:`repro.store`): rounds of
scans, indexed queries and incremental device timelines.  ``serve`` and
``schedule`` put :mod:`repro.service` on top of a store — a concurrent
HTTP/JSON query service and the deterministic continuous-scan scheduler
daemon.  ``python -m repro`` is equivalent.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from repro.clock import Clock, Stopwatch

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.store import Store

#: Elapsed-time reporting goes through an injectable clock (DET001 bans
#: ambient ``time.time()``); tests may swap in a ``ManualClock``.
DEFAULT_CLOCK: "Clock | None" = None


def _cmd_scan(args: argparse.Namespace) -> int:
    from repro.api import ExecutionOptions, Session, TopologyOptions
    from repro.io import ScanJsonlWriter
    from repro.scanner.executor import RetryPolicy

    # Every flag funnels into the session's two options objects, which
    # validate it before any world is built.
    session = Session(
        scale=args.scale,
        seed=args.seed,
        options=ExecutionOptions(
            workers=args.workers,
            num_shards=args.shards,
            batch_size=args.batch_size,
            window=args.window,
            fault_profile=args.fault_profile,
            retry=RetryPolicy(
                max_retries=args.retries,
                timeout=(
                    1.0 if args.retries and args.timeout is None
                    else args.timeout
                ),
            ),
            profile=args.profile,
            target_window=args.target_window,
        ),
        topology=TopologyOptions(
            lazy=args.lazy,
            max_resident=args.max_resident,
            topology_file=args.topology_file,
        ),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.topology_file:
        print(f"loading topology from {args.topology_file}...")
    elif args.lazy:
        print(f"lazy simulated Internet (1/{args.scale:g} scale, "
              f"seed {args.seed}): devices derived at probe time...")
    else:
        print(f"building simulated Internet (1/{args.scale:g} scale, "
              f"seed {args.seed})...")
    stopwatch = Stopwatch(DEFAULT_CLOCK)
    streams = session.stream_scans()  # builds the world
    store = None
    round_id = None
    if args.store:
        from repro.store import Store

        store = Store(root=args.store)
        round_id = (
            args.store_round
            if args.store_round is not None
            else store.next_round_id()
        )
    summaries = []
    # Streaming export: observation batches go straight from the executor
    # to disk (and into the store when one is attached), so even a
    # full-scale campaign is never materialized.
    for stream in streams:
        path = out / f"scan-{stream.label}.jsonl"
        with ScanJsonlWriter(
            path,
            label=stream.label,
            ip_version=stream.ip_version,
            started_at=stream.started_at,
        ) as writer:
            stream.attach_sink(writer.write_batch)
            if store is not None:
                store.ingest_stream(stream, round_id=round_id)
            else:
                # Drain through the sink so the JSONL write lands in the
                # scan's ingest_time edge metric.
                for _ in stream.batches():
                    pass
            writer.finished_at = stream.execution.finished_at
            writer.targets_probed = stream.execution.metrics.probes_sent
        print(f"  {path}: {writer.records} responsive IPs "
              f"({writer.targets_probed} probed)")
        summaries.append(stream.execution.metrics.summary())
    if store is not None:
        print(f"  store: round {round_id} ingested into {args.store}")
    if args.stats or args.profile:
        for line in summaries:
            print(f"  {line}")
    print(f"done in {stopwatch.elapsed():.1f}s")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.api import Session
    from repro.io import (
        export_alias_sets_csv,
        export_alias_sets_jsonl,
        export_vendor_census_csv,
        iter_scan_jsonl,
    )

    run_dir = Path(args.run_dir)
    paths = {}
    for label in ("v4-1", "v4-2", "v6-1", "v6-2"):
        path = run_dir / f"scan-{label}.jsonl"
        if not path.exists():
            print(f"error: missing {path}", file=sys.stderr)
            return 2
        paths[label] = path

    # Stream each scan pair off disk through the session's pipeline; only
    # the pipeline's own bounded state is ever resident.
    session = Session(reboot_threshold=args.threshold).filter({
        version: (
            iter_scan_jsonl(paths[f"v{version}-1"]),
            iter_scan_jsonl(paths[f"v{version}-2"]),
        )
        for version in (4, 6)
    })
    print(f"valid records: {len(session.valid_v4)} IPv4, "
          f"{len(session.valid_v6)} IPv6")
    for name, count in session.pipeline(4).stats.removed.items():
        if count:
            print(f"  filter {name}: removed {count} (IPv4)")

    dual = session.alias_sets
    print(f"alias sets: {dual.count} devices, "
          f"{dual.non_singleton_count} with multiple addresses")
    export_alias_sets_jsonl(dual, run_dir / "alias-sets.jsonl")
    export_alias_sets_csv(dual, run_dir / "alias-sets.csv")

    census = session.vendor_census()
    export_vendor_census_csv(census, run_dir / "vendor-census.csv")
    print("top vendors: " + ", ".join(f"{v} {c}" for v, c in census[:5]))
    print(f"artifacts written to {run_dir}/")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentContext
    from repro.experiments.report import render_full_report
    from repro.topology.config import TopologyConfig

    config = TopologyConfig.paper_scale(divisor=args.scale, seed=args.seed)
    if args.topology_file:
        print(f"running full reproduction over {args.topology_file}...",
              file=sys.stderr)
    else:
        print(f"running full reproduction (1/{args.scale:g} scale)...",
              file=sys.stderr)
    ctx = ExperimentContext.create(config, topology_file=args.topology_file)
    text = render_full_report(ctx, include_comparators=not args.quick)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_publish(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentContext
    from repro.experiments.publish import publish_all
    from repro.topology.config import TopologyConfig

    config = TopologyConfig.paper_scale(divisor=args.scale, seed=args.seed)
    print(f"running measurement (1/{args.scale:g} scale)...", file=sys.stderr)
    ctx = ExperimentContext.create(config, topology_file=args.topology_file)
    files = publish_all(ctx, args.out)
    print(f"wrote {len(files)} CSV artifacts to {args.out}/")
    return 0


def _store_open(args: argparse.Namespace) -> "Store":
    from repro.store import Store

    return Store(root=args.store)


def _cmd_store_ingest(args: argparse.Namespace) -> int:
    from repro.io import read_scan_header

    store = _store_open(args)
    run_dir = Path(args.run_dir)
    paths = sorted(run_dir.glob("scan-*.jsonl"))
    if not paths:
        print(f"error: no scan-*.jsonl exports in {run_dir}", file=sys.stderr)
        return 2
    round_id = args.round if args.round is not None else store.next_round_id()
    # Ingest in virtual-schedule order so the catalogue reads naturally.
    paths.sort(key=lambda p: read_scan_header(p)["started_at"])
    total = 0
    for path in paths:
        stats = store.import_jsonl(path, round_id=round_id)
        total += stats.rows
        print(f"  {path.name}: {stats.rows} rows -> "
              f"{stats.segments} segment(s), {stats.bytes_written} bytes")
    print(f"round {round_id}: {total} rows from {len(paths)} scans")
    return 0


def _cmd_store_import_jsonl(args: argparse.Namespace) -> int:
    store = _store_open(args)
    round_id = args.round if args.round is not None else store.next_round_id()
    for path in args.files:
        stats = store.import_jsonl(path, round_id=round_id, label=args.label)
        print(f"  {path}: {stats.rows} rows into round {round_id} "
              f"({stats.label})")
    return 0


def _cmd_store_export_jsonl(args: argparse.Namespace) -> int:
    store = _store_open(args)
    records = store.export_jsonl(args.round, args.label, args.out)
    print(f"{args.out}: {records} rows (round {args.round}, {args.label})")
    return 0


def _cmd_store_query(args: argparse.Namespace) -> int:
    import json as _json

    query = _store_open(args).query()
    if args.ip:
        rows = [
            {
                "round": s.round_id,
                "label": s.label,
                "recv_time": s.observation.recv_time,
                "engine_id": (
                    s.observation.engine_id.raw.hex()
                    if s.observation.engine_id is not None
                    else None
                ),
                "engine_boots": s.observation.engine_boots,
                "engine_time": s.observation.engine_time,
            }
            for s in query.history(args.ip)
        ]
        print(_json.dumps({"ip": args.ip, "history": rows}, indent=2))
        return 0
    if args.engine_id:
        ips = [str(a) for a in query.ips_with_engine_id(args.engine_id)]
        print(_json.dumps({"engine_id": args.engine_id, "ips": ips}, indent=2))
        return 0
    census = query.vendor_census()
    print(f"devices: {query.device_count}")
    for vendor, count in census[: args.top]:
        print(f"  {vendor:20s} {count}")
    return 0


def _cmd_store_timeline(args: argparse.Namespace) -> int:
    import json as _json

    query = _store_open(args).query()
    if args.engine_id:
        timeline = query.timeline(args.engine_id)
        if timeline is None:
            print(f"error: engine ID {args.engine_id} not in store",
                  file=sys.stderr)
            return 2
        payload = {
            "engine_id": args.engine_id,
            "rounds_seen": timeline.rounds_seen,
            "sightings": len(timeline.sightings),
            "reboot_events": [
                {
                    "round": e.round_id,
                    "label": e.label,
                    "kind": e.kind,
                    "boots": [e.boots_before, e.boots_after],
                    "reboot_time": e.reboot_time,
                }
                for e in timeline.reboot_events
            ],
            "members": {
                str(rid): sorted(str(a) for a in members)
                for rid, members in timeline.member_history()
            },
        }
        print(_json.dumps(payload, indent=2))
        return 0
    summary = query.timeline_summary()
    if args.json:
        print(_json.dumps(summary, indent=2))
    else:
        print(f"rounds folded: {summary['rounds']}")
        print(f"devices: {summary['devices']}, "
              f"sightings: {summary['sightings']}")
        print(f"reboot events: {summary['reboot_events']} "
              f"({summary['boots_increment_events']} boots-increment, "
              f"{summary['time_regression_events']} engine-time-regression)")
        for diff in summary["diffs"]:
            print(f"  round {diff['prev_round']} -> {diff['next_round']}: "
                  f"+{diff['born']} born, -{diff['died']} died, "
                  f"{diff['moved']} moved")
    return 0


def _cmd_store_compact(args: argparse.Namespace) -> int:
    stats = _store_open(args).compact()
    print(f"compacted {stats.scans_compacted} scans: "
          f"{stats.segments_before} -> {stats.segments_after} segments, "
          f"{stats.bytes_before} -> {stats.bytes_after} bytes")
    return 0


def _cmd_store_stats(args: argparse.Namespace) -> int:
    import json as _json

    store = _store_open(args)
    stats = store.stats()
    stats["timeline"] = store.timelines().summary()
    if args.json:
        print(_json.dumps(stats, indent=2, sort_keys=True))
    else:
        print(f"store at {args.store}: {stats['rounds']} rounds, "
              f"{stats['rows']} rows in {stats['segments']} segments "
              f"({stats['segment_bytes']} bytes, "
              f"{stats['bytes_per_row']:.1f} B/row)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.net.ratelimit import RateLimit
    from repro.service.http import ServiceHttpServer
    from repro.service.query import QueryService

    rate_limit = None
    if args.rate_limit is not None:
        rate_limit = RateLimit(rate=args.rate_limit, burst=args.burst)
    service = QueryService(
        store=args.store,
        cache_entries=args.cache_entries,
        rate_limit=rate_limit,
    )
    server = ServiceHttpServer(
        service=service, host=args.host, port=args.port
    )
    host, port = server.address
    print(f"serving {args.store} on http://{host}:{port}/ "
          f"(endpoints: {', '.join(service.endpoints())})")

    # Serve on a background thread; the main thread parks on an event so
    # the signal handler never has to join the serving loop it runs on.
    stop = threading.Event()

    def _shutdown(signum: int, frame: object) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    server.start()
    try:
        stop.wait()
    finally:
        server.close()
        print("server closed")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    import json as _json
    import signal
    import time as _time

    from repro.api import Session
    from repro.clock import ManualClock, PerfCounterClock
    from repro.service.scheduler import JobSpec

    session = Session(scale=args.scale, seed=args.seed, store=args.store)
    jobs = (
        JobSpec(name="sweep", kind="sweep", period=args.sweep_period,
                jitter=args.jitter),
        JobSpec(name="reprobe", kind="reprobe", period=args.reprobe_period,
                offset=args.sweep_period / 2.0, jitter=args.jitter),
    )
    if args.real:
        scheduler = session.scheduler(
            jobs=jobs, clock=PerfCounterClock(), waiter=_time.sleep
        )
    else:
        scheduler = session.scheduler(jobs=jobs, clock=ManualClock(0.0))

    def _drain(signum: int, frame: object) -> None:
        print("stop requested: draining the in-flight job...",
              file=sys.stderr)
        scheduler.request_stop()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    if scheduler.incomplete_rounds:
        print(f"resume: ignoring incomplete rounds "
              f"{scheduler.incomplete_rounds}", file=sys.stderr)
    runs = scheduler.run(max_runs=args.max_runs)
    run_stream = sys.stderr if args.json else sys.stdout
    for run in runs:
        print(f"  [{run.finished:10.1f}] {run.job} #{run.firing}: "
              f"round {run.round_id}, {run.rows} rows "
              f"({run.targets} targets, {run.skipped_firings} skipped)",
              file=run_stream)
    if args.json:
        print(_json.dumps(scheduler.summary(), indent=2, sort_keys=True))
    return 0


def _cmd_lab(args: argparse.Namespace) -> int:
    from repro.experiments.lab import default_lab, run_lab_experiment

    failures = 0
    for router in default_lab():
        report = run_lab_experiment(router)
        verdicts = {
            "silent before config": not report.answers_before_config,
            "v2c after community": report.v2c_works_after_config,
            "v3 implicitly enabled": report.v3_discovery_after_config,
            "engine ID is MAC": report.engine_id_is_mac,
            "same ID on all interfaces": report.same_engine_id_on_all_interfaces,
            "first-interface MAC": report.engine_mac_is_first_interface,
        }
        print(f"{report.router}:")
        for name, passed in verdicts.items():
            print(f"  [{'ok' if passed else 'FAIL'}] {name}")
            failures += 0 if passed else 1
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snmpv3-repro",
        description="SNMPv3 router-fingerprinting reproduction toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.net.faults import FAULT_PROFILES
    from repro.pipeline.filters import DEFAULT_REBOOT_THRESHOLD
    from repro.scanner.executor import ExecutionOptions
    from repro.topology.lazy import MIN_RESIDENT

    defaults = ExecutionOptions()
    scan = sub.add_parser("scan", help="run the four-scan campaign, export JSONL")
    scan.add_argument("--scale", type=float, default=300.0)
    scan.add_argument("--seed", type=int, default=2021)
    scan.add_argument("--out", default="runs/latest")
    scan.add_argument("--workers", type=int, default=defaults.workers,
                      help="worker processes for the sharded engine "
                           "(default %(default)s)")
    scan.add_argument("--shards", type=int, default=defaults.num_shards,
                      help="shard count (default %(default)s; results are "
                           "worker-count independent at a fixed shard count)")
    scan.add_argument("--batch-size", type=int, default=defaults.batch_size,
                      help="observations per streamed batch "
                           "(default %(default)s)")
    scan.add_argument("--window", type=int, default=defaults.window,
                      help="probes in flight per pipeline stage "
                           "(default %(default)s; results are "
                           "window-invariant)")
    scan.add_argument("--lazy", action="store_true",
                      help="use the streamed layout, which derives every "
                           "device from (seed, address) alone, and derive "
                           "devices on demand during the scan instead of "
                           "materializing the topology (constant memory)")
    scan.add_argument("--max-resident", type=int, default=None,
                      help="with --lazy only: cap on concurrently derived "
                           f"devices, at least {MIN_RESIDENT} (default "
                           "TopologyConfig.stream_max_resident)")
    scan.add_argument("--topology-file", default=None,
                      help="load the topology from an ITDK-style "
                           "description file instead of generating one")
    scan.add_argument("--target-window", type=int,
                      default=defaults.target_window,
                      help="targets planned per streaming window "
                           "(default %(default)s; like --shards, part of "
                           "the deterministic result geometry)")
    scan.add_argument("--fault-profile", default=defaults.fault_profile,
                      choices=sorted(FAULT_PROFILES),
                      help="inject wire faults from a stock profile "
                           "(deterministic per seed)")
    scan.add_argument("--retries", type=int,
                      default=defaults.retry.max_retries,
                      help="extra probes per unanswered target "
                           "(default %(default)s)")
    scan.add_argument("--timeout", type=float, default=None,
                      help="per-probe reply deadline in virtual seconds "
                           "(default 1.0 when --retries is set)")
    scan.add_argument("--store", default=None,
                      help="also stream the campaign into this observatory "
                           "store as one round")
    scan.add_argument("--store-round", type=int, default=None,
                      help="round id for --store (default: next free)")
    scan.add_argument("--stats", action="store_true",
                      help="print per-scan execution metrics")
    scan.add_argument("--profile", action="store_true",
                      help="collect per-stage timings (encode/fabric/agent/"
                           "decode) plus the non-probe campaign edges "
                           "(plan/derive/ingest) into the metrics; "
                           "implies --stats")
    scan.set_defaults(func=_cmd_scan)

    analyze = sub.add_parser("analyze", help="filter + alias + census from exports")
    analyze.add_argument("run_dir")
    analyze.add_argument("--threshold", type=float,
                         default=DEFAULT_REBOOT_THRESHOLD,
                         help="last-reboot consistency threshold in seconds "
                              "(default %(default)s)")
    analyze.set_defaults(func=_cmd_analyze)

    report = sub.add_parser("report", help="full table/figure reproduction")
    report.add_argument("--scale", type=float, default=100.0)
    report.add_argument("--seed", type=int, default=2021)
    report.add_argument("--quick", action="store_true")
    report.add_argument("--out", default=None)
    report.add_argument("--topology-file", default=None,
                        help="evaluate a world loaded from an ITDK-style "
                             "topology description instead of a generated "
                             "one")
    report.set_defaults(func=_cmd_report)

    publish = sub.add_parser(
        "publish", help="export every figure/table series as CSV (snmpv3.io-style)"
    )
    publish.add_argument("--scale", type=float, default=100.0)
    publish.add_argument("--seed", type=int, default=2021)
    publish.add_argument("--out", default="published")
    publish.add_argument("--topology-file", default=None,
                         help="evaluate a world loaded from an ITDK-style "
                              "topology description instead of a generated "
                              "one")
    publish.set_defaults(func=_cmd_publish)

    store = sub.add_parser(
        "store", help="persistent observatory: ingest, query, timelines"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    def _store_parser(name: str, help_text: str) -> argparse.ArgumentParser:
        sub_parser = store_sub.add_parser(name, help=help_text)
        sub_parser.add_argument("--store", required=True,
                                help="store directory (created if missing)")
        return sub_parser

    ingest = _store_parser("ingest", "ingest a scan run directory as one round")
    ingest.add_argument("run_dir", help="directory of scan-*.jsonl exports")
    ingest.add_argument("--round", type=int, default=None,
                        help="round id (default: next free round)")
    ingest.set_defaults(func=_cmd_store_ingest)

    import_jsonl = _store_parser(
        "import-jsonl", "backfill individual JSONL exports into a round"
    )
    import_jsonl.add_argument("files", nargs="+")
    import_jsonl.add_argument("--round", type=int, default=None)
    import_jsonl.add_argument("--label", default=None,
                              help="override the label recorded in the file")
    import_jsonl.set_defaults(func=_cmd_store_import_jsonl)

    export_jsonl = _store_parser(
        "export-jsonl", "write one stored scan back out as JSONL"
    )
    export_jsonl.add_argument("--round", type=int, required=True)
    export_jsonl.add_argument("--label", required=True)
    export_jsonl.add_argument("--out", required=True)
    export_jsonl.set_defaults(func=_cmd_store_export_jsonl)

    store_query = _store_parser("query", "point queries and vendor rollups")
    store_query.add_argument("--ip", default=None,
                             help="observation history of one address")
    store_query.add_argument("--engine-id", default=None,
                             help="addresses that answered with this "
                                  "engine ID (hex)")
    store_query.add_argument("--top", type=int, default=10,
                             help="vendor-census rows to print (default 10)")
    store_query.set_defaults(func=_cmd_store_query)

    store_timeline = _store_parser(
        "timeline", "longitudinal summaries: reboots, churn, alias diffs"
    )
    store_timeline.add_argument("--engine-id", default=None,
                                help="one device's full timeline (hex)")
    store_timeline.add_argument("--json", action="store_true")
    store_timeline.set_defaults(func=_cmd_store_timeline)

    store_compact = _store_parser(
        "compact", "merge segment parts (query answers are invariant)"
    )
    store_compact.set_defaults(func=_cmd_store_compact)

    store_stats = _store_parser("stats", "physical/logical store shape")
    store_stats.add_argument("--json", action="store_true")
    store_stats.set_defaults(func=_cmd_store_stats)

    serve = sub.add_parser(
        "serve", help="HTTP/JSON query service over an observatory store"
    )
    serve.add_argument("--store", required=True,
                       help="store directory to serve")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8350)
    serve.add_argument("--cache-entries", type=int, default=512,
                       help="LRU result-cache capacity (default 512)")
    serve.add_argument("--rate-limit", type=float, default=None,
                       help="per-client requests/second (default: unlimited)")
    serve.add_argument("--burst", type=float, default=8.0,
                       help="per-client burst allowance with --rate-limit")
    serve.set_defaults(func=_cmd_serve)

    schedule = sub.add_parser(
        "schedule", help="run the continuous-scan scheduler over a store"
    )
    schedule.add_argument("--store", required=True,
                          help="store directory (resumed if it exists)")
    schedule.add_argument("--scale", type=float, default=300.0)
    schedule.add_argument("--seed", type=int, default=2021)
    schedule.add_argument("--max-runs", type=int, default=4,
                          help="jobs to execute before exiting (default 4)")
    schedule.add_argument("--sweep-period", type=float, default=86400.0,
                          help="seconds between full sweeps (default 86400)")
    schedule.add_argument("--reprobe-period", type=float, default=21600.0,
                          help="seconds between churn re-probes "
                               "(default 21600)")
    schedule.add_argument("--jitter", type=float, default=60.0,
                          help="max seeded per-firing jitter (default 60)")
    schedule.add_argument("--real", action="store_true",
                          help="pace jobs on the wall clock instead of the "
                               "virtual manual clock")
    schedule.add_argument("--json", action="store_true",
                          help="print the full scheduler summary as JSON")
    schedule.set_defaults(func=_cmd_schedule)

    lab = sub.add_parser("lab", help="run the §6.2.1 lab validation")
    lab.set_defaults(func=_cmd_lab)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
