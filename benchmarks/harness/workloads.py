"""The four benchmark workloads.

Each ``run_<name>`` function sets up, runs its timed operations, checks
every output and returns a :class:`Outcome`.  Sizes are parameters so
the self-tests can run each workload at a tiny scale; ``run.py`` fixes
them.  Every input derives from ``seed``: the world seed, the
observatory's history address and the serve request sequences.

All load comes from this one process over loopback, with at most two
client threads or connections.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import os
import random
import re
import resource
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Iterator

from layers import BOUNDARIES, ENDPOINTS, FILTER_STEPS, layer_metrics
from spans import TRACE_HEADER, Span, Tracer, install, load_spans
from stats import ZipfPicker, percentile, tail_percentile

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Scratch stores, span files and results live inside the checkout.
WORK_DIR = ROOT / ".bench_work"
HERE = Path(__file__).resolve().parent

#: Set-up is repeated at least this many times per run and its median
#: reported.
SETUP_TRIALS = 3
#: Errors kept verbatim per run (the rest are only counted).
MAX_ERRORS = 5


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


@dataclass
class Op:
    """One timed operation (a loop, a campaign, an episode or a request)."""

    seconds: float
    traced: bool
    work: int = 0
    attempted: int = 1
    failed: int = 0
    digest: str = ""
    counters: dict = field(default_factory=dict)
    root: "Span | None" = None
    errors: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one workload run measured, before it is turned into metrics."""

    setup_s: list
    ops: list
    peak_rss_mb: float
    #: Measured seconds of the whole timed phase per tracing mode.
    phase_s: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    setup_digests: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


def run_ops(op: "Callable[[Tracer | None], Op]", *, seconds: float, trace: bool,
            trial: "Callable[[], float]",
            trials: int = SETUP_TRIALS) -> "tuple[list, list, list]":
    """Run ``op`` until ``seconds`` have passed, and at least once.

    A traced run alternates untraced and traced operations, starting
    untraced and ending after a traced one, so the two can be compared
    for the tracing overhead; the boundary wrappers are installed only
    around traced ones.  One set-up ``trial`` runs before each untraced
    operation, and more after the last until there are ``trials``, so
    set-up is sampled across the whole run, not in one burst at its
    start.  Returns (ops, spans, set-up seconds).
    """
    ops: list = []
    setup: list = []
    tracer = Tracer()
    started = time.perf_counter()
    traced = False
    while True:
        if not traced:
            setup.append(trial())
            ops.append(guarded(lambda: op(None), traced=False))
        else:
            uninstall = install(tracer, BOUNDARIES)
            try:
                ops.append(guarded(lambda: op(tracer), traced=True))
            finally:
                uninstall()
        traced = trace and not traced
        if not traced and time.perf_counter() - started >= seconds:
            break
    while len(setup) < trials:
        setup.append(trial())
    return ops, tracer.spans, setup


def guarded(call: "Callable[[], Op]", *, traced: bool) -> Op:
    """Run one operation; an exception fails it instead of the run."""
    started = time.perf_counter()
    try:
        return call()
    except Exception:  # the run must go on and report the failure
        return Op(
            seconds=time.perf_counter() - started,
            traced=traced,
            failed=1,
            errors=[traceback.format_exc(limit=8)],
        )


def import_trial(modules: str) -> float:
    """Seconds for a fresh interpreter to import ``modules``."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import {modules}"],
        cwd=ROOT, env=child_env(), check=True,
    )
    return time.perf_counter() - started


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def open_span(tracer: "Tracer | None", name: str) -> "Span | None":
    return tracer.open(name) if tracer is not None else None


def close_span(tracer: "Tracer | None", span: "Span | None") -> None:
    if tracer is not None and span is not None:
        tracer.close(span)


def exchange(
    conn: http.client.HTTPConnection, path: str, tracer: "Tracer | None"
) -> "tuple[int, object, float]":
    """One GET over a keep-alive connection: (status, JSON body, seconds
    from send to the full body)."""
    span = open_span(tracer, "http.exchange")
    headers = {}
    if span is not None:
        headers[TRACE_HEADER] = f"{span.trace_id} {span.span_id}"
    started = time.perf_counter()
    try:
        conn.request("GET", path, headers=headers)
        response = conn.getresponse()
        body = response.read()
        seconds = time.perf_counter() - started
    finally:
        close_span(tracer, span)
    return response.status, json.loads(body), seconds


def digest_of(value: object) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


# -- paper ------------------------------------------------------------------


def paper_op(seed: int, scale: float, tracer: "Tracer | None") -> Op:
    """One paper loop: fresh session, scan, §4.4 filter, aliases, census."""
    from repro.alias.sets import evaluate_against_truth
    from repro.api import Session

    root = open_span(tracer, "op")
    started = time.perf_counter()
    session = Session(scale=scale, seed=seed)
    session.scan().filter().aliases()
    census = session.vendor_census()
    seconds = time.perf_counter() - started
    close_span(tracer, root)

    errors = []
    funnel = {}
    merged = valid = 0
    removed = {step: 0 for step in FILTER_STEPS}
    for version in (4, 6):
        result = session.pipeline(version)
        stats = result.stats
        overlap = (stats.input_first + stats.input_second - stats.non_overlapping) / 2
        kept = overlap - sum(stats.removed.values())
        if kept != stats.valid_count or len(result.valid) != stats.valid_count:
            errors.append(
                f"IPv{version} funnel: ({stats.input_first} + {stats.input_second}"
                f" - {stats.non_overlapping})/2 - {sum(stats.removed.values())}"
                f" = {kept}, valid = {stats.valid_count}"
            )
        merged += int(overlap)
        valid += stats.valid_count
        for step, count in stats.removed.items():
            removed[step] = removed.get(step, 0) + count
        funnel[version] = [stats.input_first, stats.input_second,
                           stats.non_overlapping, sorted(stats.removed.items()),
                           stats.valid_count]
    campaign = session.campaign
    # The last scan's bindings hold every address's final owner: churn
    # before a family's second scan is the last move that family makes.
    owners = campaign.bindings["v4-2"]
    truth: dict = {}
    for address, device in owners.items():
        truth.setdefault(device, set()).add(address)
    alias_sets = session.alias_sets
    precision = evaluate_against_truth(
        alias_sets, {d: frozenset(a) for d, a in truth.items()}
    ).precision
    if precision != 1.0:
        errors.append(f"alias precision {precision!r} != 1.0")
    if not census:
        errors.append("empty vendor census")
    probes = sum(scan.targets_probed for scan in campaign.scans.values())
    replies = sum(len(scan.observations) for scan in campaign.scans.values())
    digest = digest_of({
        "funnel": funnel,
        "census": census,
        "aliases": sorted(sorted(str(a) for a in group) for group in alias_sets.sets),
    })
    counters = {
        "scanner.probes": probes,
        "scanner.replies": replies,
        "scanner.reply_ratio": replies / probes if probes else 0.0,
        "pipeline.merged": merged,
        "pipeline.valid": valid,
        **{f"pipeline.removed.{step}": count for step, count in removed.items()},
        "alias.sets": alias_sets.count,
        "alias.precision": precision,
    }
    return Op(
        seconds=seconds,
        traced=tracer is not None,
        work=probes,
        failed=1 if errors else 0,
        digest=digest,
        counters=counters,
        root=root,
        errors=errors,
    )


def run_paper(seed: int, *, seconds: float, trace: bool, scale: float,
              setup_trials: int = SETUP_TRIALS) -> Outcome:
    done, spans, setup = run_ops(
        lambda tracer: paper_op(seed, scale, tracer), seconds=seconds, trace=trace,
        trial=lambda: import_trial("repro.api"), trials=setup_trials,
    )
    return Outcome(setup_s=setup, ops=done, peak_rss_mb=peak_rss_mb(), spans=spans)


# -- lazy -------------------------------------------------------------------


def lazy_op(seed: int, divisor: float, max_resident: int,
            tracer: "Tracer | None") -> Op:
    """One streamed campaign over a fresh lazy world, batches discarded."""
    from repro.scanner.campaign import ScanCampaign
    from repro.scanner.executor import ExecutionOptions
    from repro.topology.config import TopologyConfig
    from repro.topology.lazy import LazyTopology

    root = open_span(tracer, "op")
    started = time.perf_counter()
    config = TopologyConfig.streamed(divisor=divisor, seed=seed)
    topology = LazyTopology(config=config, max_resident=max_resident)
    campaign = ScanCampaign(
        topology=topology,
        config=config,
        # Stage timers cost time per probe, so only traced runs pay them.
        options=ExecutionOptions(profile=tracer is not None),
    )
    digest = hashlib.sha256()
    update = digest.update
    executions = []
    for stream in campaign.run_streaming():
        for batch in stream.batches():
            for obs in batch:
                update(obs.address.packed)
                update(obs.engine_id.raw if obs.engine_id is not None else b"-")
                update(b"%d:%d;" % (obs.engine_boots, obs.engine_time))
        executions.append(stream.execution.metrics)
    seconds = time.perf_counter() - started
    close_span(tracer, root)

    errors = []
    if topology.peak_resident > 2 * topology.max_resident:
        errors.append(
            f"peak_resident {topology.peak_resident} > 2 x max_resident "
            f"{topology.max_resident}"
        )
    probes = sum(m.probes_sent for m in executions)
    replies = sum(m.observations for m in executions)
    counters = {
        "topology.derive_s": topology.derive_seconds,
        "topology.derivations_per_device": topology.derivations / topology.device_count,
        "topology.peak_resident": topology.peak_resident,
        "scanner.plan_s": sum(m.plan_time for m in executions),
        "scanner.ingest_s": sum(m.ingest_time for m in executions),
        "scanner.probes": probes,
        "scanner.replies": replies,
        "scanner.reply_ratio": replies / probes if probes else 0.0,
        "asn1.encode_s": sum(m.encode_time for m in executions),
        "net.fabric_s": sum(m.fabric_time for m in executions),
        "snmp.agent_s": sum(m.agent_time for m in executions),
        "snmp.decode_s": sum(m.decode_time for m in executions),
    }
    return Op(
        seconds=seconds,
        traced=tracer is not None,
        work=probes,
        failed=1 if errors else 0,
        digest=digest.hexdigest(),
        counters=counters,
        root=root,
        errors=errors,
    )


def run_lazy(seed: int, *, seconds: float, trace: bool, divisor: float,
             max_resident: int, setup_trials: int = SETUP_TRIALS) -> Outcome:
    done, spans, setup = run_ops(
        lambda tracer: lazy_op(seed, divisor, max_resident, tracer),
        seconds=seconds, trace=trace,
        trial=lambda: import_trial("repro.scanner.campaign, repro.topology.lazy"),
        trials=setup_trials,
    )
    return Outcome(setup_s=setup, ops=done, peak_rss_mb=peak_rss_mb(), spans=spans)


# -- observatory ------------------------------------------------------------


def check_response(endpoint: str, argument: "str | None", value: object) -> "str | None":
    """The output check every served answer must pass (None = passed)."""
    if endpoint == "integrity" and not value.get("consistent"):  # type: ignore[union-attr]
        return f"integrity not consistent: {value}"
    if endpoint == "history":
        if not value:
            return f"history of {argument} is empty"
        wrong = [row["address"] for row in value if row["address"] != argument]  # type: ignore[union-attr]
        if wrong:
            return f"history of {argument} returned rows for {wrong[:3]}"
    return None


def observatory_op(seed: int, scale: float, firings: int,
                   tracer: "Tracer | None") -> Op:
    """One observatory episode over a fresh store: ``firings`` scheduler
    firings, a compaction after each sweep and, after every firing, one
    HTTP refresh of all 13 endpoints over one keep-alive connection."""
    from repro.api import Session
    from repro.clock import ManualClock
    from repro.service.http import ServiceHttpServer
    from repro.service.query import QueryService

    WORK_DIR.mkdir(exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix="observatory-", dir=WORK_DIR)
    session = Session(scale=scale, seed=seed, store=store_dir)
    scheduler = session.scheduler(clock=ManualClock(0.0))
    service = QueryService(store=store_dir)
    server = ServiceHttpServer(service=service)
    server.start()
    conn = http.client.HTTPConnection(*server.address, timeout=120)
    attempted = failed = 0
    errors: list = []
    runs = []
    refresh_s = []
    history_arg = None
    try:
        root = open_span(tracer, "op")
        started = time.perf_counter()
        for firing in range(firings):
            span = open_span(tracer, "scheduler")
            attempted += 1
            run = scheduler.run(max_runs=1)[0]
            runs.append(run)
            if span is not None:
                span.name = f"scheduler.{run.kind}"
            close_span(tracer, span)
            if run.kind == "sweep":
                session.store.compact()
            if history_arg is None and run.kind == "sweep":
                # A deterministic responder of the first sweep.
                responders = sorted(session.campaign.scans["v4-1"].observations, key=int)
                history_arg = str(random.Random(seed).choice(responders))
            refresh = open_span(tracer, "service.refresh")
            refresh_started = time.perf_counter()
            for endpoint in ENDPOINTS:
                argument = {"history": history_arg,
                            "round-summary": str(run.round_id)}.get(endpoint)
                path = f"/v1/{endpoint}" + (f"?arg={argument}" if argument else "")
                attempted += 1
                status, body, _ = exchange(conn, path, tracer)
                problem = (
                    f"{path}: HTTP {status}: {body}" if status != 200
                    else check_response(endpoint, argument, body["value"])
                )
                if endpoint == "rounds" and problem is None and len(body["value"]) != firing + 1:
                    problem = f"rounds lists {len(body['value'])} after {firing + 1} firings"
                if problem is not None:
                    failed += 1
                    errors.append(problem)
            refresh_s.append(time.perf_counter() - refresh_started)
            close_span(tracer, refresh)
        seconds = time.perf_counter() - started
        close_span(tracer, root)
        summary = service.metrics_summary()
        store_stats = session.store.stats()
    finally:
        conn.close()
        server.close()
        shutil.rmtree(store_dir, ignore_errors=True)
    probes = sum(run.targets for run in runs)
    replies = sum(run.rows for run in runs)
    counters = {
        "scanner.probes": probes,
        "scanner.replies": replies,
        "scanner.reply_ratio": replies / probes if probes else 0.0,
        "store.rows_ingested": store_stats["rows"],
        "store.bytes_per_row": store_stats["bytes_per_row"],
        "service.cache_hit_ratio": summary["hit_ratio"],
        **{
            f"service.{name}.p50_ms": entry["p50_ms"]
            for name, entry in summary["endpoints"].items()
        },
    }
    return Op(
        seconds=seconds,
        traced=tracer is not None,
        work=probes,
        attempted=attempted,
        failed=failed,
        digest=digest_of([[r.kind, r.round_id, r.rows, r.targets, r.fingerprint]
                          for r in runs]),
        counters=counters,
        root=root,
        errors=errors,
        details={"refresh_s": refresh_s},
    )


def run_observatory(seed: int, *, seconds: float, trace: bool, scale: float,
                    firings: int, setup_trials: int = SETUP_TRIALS) -> Outcome:
    done, spans, setup = run_ops(
        lambda tracer: observatory_op(seed, scale, firings, tracer),
        seconds=seconds, trace=trace,
        trial=lambda: import_trial("repro.api, repro.service.http, repro.service.query"),
        trials=setup_trials,
    )
    refresh = [s for op in done if not op.traced for s in op.details.get("refresh_s", ())]
    return Outcome(
        setup_s=setup,
        ops=done,
        peak_rss_mb=peak_rss_mb(),
        spans=spans,
        details={"refresh_s": median(refresh) if refresh else None},
    )


# -- serve ------------------------------------------------------------------

#: Endpoints that take no argument (uniform 10% of the serve mix).
ARGLESS = tuple(e for e in ENDPOINTS if e not in ("history", "round-summary"))
ZIPF_EXPONENT = 1.1
SERVE_CLIENTS = 2
_SERVING = re.compile(rb"on http://([^:/]+):(\d+)/")


class ServerChild:
    """``repro.cli serve`` in a child process (optionally under the traced
    launcher), stopped with SIGTERM and always waited for."""

    def __init__(self, store_dir: Path, *, span_path: "Path | None" = None) -> None:
        if span_path is None:
            argv = [sys.executable, "-u", "-m", "repro.cli", "serve"]
        else:
            argv = [sys.executable, "-u", str(HERE / "serve_traced.py"), str(span_path)]
        self.process = subprocess.Popen(
            [*argv, "--store", str(store_dir), "--port", "0"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        )
        try:
            self.host, self.port = self._await_address(timeout=120.0)
            self.get("/healthz")
        except BaseException:
            self.stop()
            raise

    def get(self, path: str) -> object:
        """One GET on a fresh connection; the JSON body of a 200 answer."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            status, body, _ = exchange(conn, path, None)
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"{path} answered {status}: {body}")
        return body

    def _await_address(self, timeout: float) -> "tuple[str, int]":
        assert self.process.stdout is not None
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.process.stdout], [], [], max(0.0, remaining))
            if not ready:
                raise RuntimeError("server did not announce its address in time")
            chunk = os.read(self.process.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError(f"server exited with {self.process.wait()}")
            line += chunk
        found = _SERVING.search(line)
        if found is None:
            raise RuntimeError(f"unexpected server banner {line!r}")
        return found.group(1).decode(), int(found.group(2))

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        found = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(found.group(1)) / 1024.0 if found else 0.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def seed_store(store_dir: Path, seed: int, scale: float, firings: int) -> None:
    """The observatory's firings, run by the ``schedule`` verb."""
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "schedule", "--store", str(store_dir),
         "--scale", str(scale), "--seed", str(seed), "--max-runs", str(firings)],
        cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL,
    )


def store_inputs(store_dir: Path) -> "tuple[str, list, dict]":
    """(segment digest, distinct addresses, round -> label -> rows)."""
    from repro.store.segment import segment_fingerprint
    from repro.store.store import Store

    store = Store(root=store_dir)
    addresses = sorted({s.observation.address for s in store.observations()}, key=int)
    manifest = {
        rid: {label: store.scan_info(rid, label)["rows"] for label in store.labels(rid)}
        for rid in store.rounds()
    }
    return segment_fingerprint(store.segment_paths()).hex(), addresses, manifest


def request_stream(seed: int, client: int, addresses: list,
                   manifest: dict) -> "Iterator[tuple[str, str | None]]":
    """One client's endless, seeded request mix: 80% ``history`` with
    Zipf-ranked addresses, 10% ``round-summary`` of a uniform round, 10%
    uniform over the argument-less endpoints."""
    keys = [str(a) for a in addresses]
    random.Random(seed).shuffle(keys)  # which addresses are hot
    rng = random.Random(seed * 1_000_003 + client)
    picker = ZipfPicker(keys, ZIPF_EXPONENT, rng)
    rounds = sorted(manifest)
    while True:
        draw = rng.random()
        if draw < 0.8:
            yield "history", picker.pick()  # type: ignore[misc]
        elif draw < 0.9:
            yield "round-summary", str(rng.choice(rounds))
        else:
            yield rng.choice(ARGLESS), None


def serve_load(server: ServerChild, seed: int, requests: int, addresses: list,
               manifest: dict, tracer: "Tracer | None",
               clients: int = SERVE_CLIENTS) -> "tuple[list, float]":
    """Closed loop: each client thread holds one keep-alive connection and
    sends the first ``requests`` of its stream, each when the previous
    answer has arrived.  A fixed count, not a fixed duration, keeps the
    cache hit ratio from depending on how fast the server answers.
    Returns (ops, elapsed seconds)."""
    ops: list = []
    lock = threading.Lock()

    def client(index: int) -> None:
        conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
        stream = request_stream(seed, index, addresses, manifest)
        try:
            for endpoint, argument in itertools.islice(stream, requests):
                path = f"/v1/{endpoint}" + (f"?arg={argument}" if argument else "")
                root = open_span(tracer, "op")
                try:
                    status, body, took = exchange(conn, path, tracer)
                except (OSError, http.client.HTTPException, ValueError) as error:
                    close_span(tracer, root)
                    op = Op(seconds=0.0, traced=tracer is not None, failed=1,
                            errors=[f"{path}: {error!r}"])
                    conn.close()
                    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
                else:
                    close_span(tracer, root)
                    problem = (
                        f"{path}: HTTP {status}: {body}" if status != 200
                        else check_response(endpoint, argument, body["value"])
                    )
                    if problem is None and endpoint == "round-summary":
                        rows = {label: scan["rows"]
                                for label, scan in body["value"]["scans"].items()}
                        if rows != manifest[int(argument)]:
                            problem = f"{path}: rows {rows} != manifest {manifest[int(argument)]}"
                    op = Op(seconds=took, traced=tracer is not None, work=1,
                            failed=0 if problem is None else 1, root=root,
                            errors=[] if problem is None else [problem])
                with lock:
                    ops.append(op)
        finally:
            conn.close()

    started = time.perf_counter()
    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return ops, time.perf_counter() - started


def run_serve(seed: int, *, requests: int, trace: bool, scale: float, firings: int,
              setup_trials: int = SETUP_TRIALS) -> Outcome:
    """``requests`` per client; a traced run sends the same first half
    twice, to a fresh plain server and then to a fresh traced one.

    The store is the workload's input: it is seeded once, untimed (the
    observatory times the same firings).  Set-up is starting the server
    on it until ``/healthz`` answers, ``setup_trials`` times; the last
    server started takes the load."""
    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="serve-", dir=WORK_DIR))
    server: "ServerChild | None" = None
    try:
        store_dir = scratch / "store"
        seed_store(store_dir, seed, scale, firings)
        digest, addresses, manifest = store_inputs(store_dir)
        setup = []
        for _ in range(setup_trials):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            server = ServerChild(store_dir)
            setup.append(time.perf_counter() - started)
        assert server is not None
        half = max(1, requests // 2)
        phases = {False: half, True: half} if trace else {False: requests}
        ops: list = []
        spans: list = []
        phase_s = {}
        rss = 0.0
        summary: dict = {}
        for traced, count in phases.items():
            tracer = None
            if traced:
                server.stop()
                span_path = scratch / "server-spans.jsonl"
                server = ServerChild(store_dir, span_path=span_path)
                tracer = Tracer()
            done, elapsed = serve_load(server, seed, count, addresses, manifest, tracer)
            ops.extend(done)
            phase_s[traced] = elapsed
            rss = max(rss, server.peak_rss_mb())
            summary = server.get("/metrics")
            if traced:
                server.stop()
                spans = tracer.spans + load_spans(span_path)
        hit_ratio = summary.get("hit_ratio", 0.0)
        counters = {"service.cache_hit_ratio": hit_ratio, **{
            f"service.{name}.p50_ms": entry["p50_ms"]
            for name, entry in summary.get("endpoints", {}).items()
        }}
        for op in ops:
            if op.traced:
                op.counters = counters
        latencies = [op.seconds * 1e3 for op in ops if not op.traced and not op.failed]
        tail = tail_percentile(len(latencies))
        details = {
            "requests": len(latencies),
            "store_addresses": len(addresses),
            "cache_hit_ratio": hit_ratio,
            "p50_ms": percentile(latencies, 50) if latencies else None,
            "tail_percentile": tail,
            "tail_ms": percentile(latencies, tail) if tail else None,
        }
        return Outcome(
            setup_s=setup,
            ops=ops,
            peak_rss_mb=rss,
            phase_s=phase_s,
            spans=spans,
            setup_digests=[digest],
            details=details,
        )
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(scratch, ignore_errors=True)


def layer_values(outcome: Outcome, overhead_ratio: float) -> dict:
    """Per-layer metrics of an outcome's traced operations."""
    traced = [op for op in outcome.ops if op.traced and op.root is not None]
    return layer_metrics(
        [op.root for op in traced],
        outcome.spans,
        [op.counters for op in traced],
        overhead_ratio,
    )
