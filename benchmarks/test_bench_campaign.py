"""Performance — end-to-end campaign wall time, with identity gates.

``BENCH_pipeline.json`` proved the staged pipeline's scan-phase win;
this benchmark tracks what the user actually waits for: the whole
campaign, planning, derivation and ingest edges included.  Numbers land
in ``BENCH_campaign.json`` at the repo root:

* campaign-wall throughput of the eager sharded campaign at 1/300
  scale, asserted ``>= 3x`` the committed pre-pipeline baseline
  (``BENCH_parallel.json``'s ``probes_per_second_serial`` — the same
  baseline the pipeline bench uses, so the two ratios are comparable);
* the per-scan non-probe edge seconds (plan/derive/ingest) that used to
  hide inside the campaign-vs-scan-phase gap;
* the lazy-vs-eager streamed gap at the ~93k-target tier, asserted
  under ``LAZY_EAGER_GAP_CEILING`` on an end-to-end basis (topology
  build + campaign wall — the time a user actually waits).  The eager
  world front-loads every derivation into its build; comparing
  campaign seconds alone would hand it that work for free.  Campaign-
  only pps is still recorded for both worlds, unasserted;
* the lazy tier gap: end-to-end pps at ~930k targets must stay within
  ``TIER_GAP_CEILING`` of the ~93k tier (the 21k→13k sag, gated).

Identity is part of the contract, not a separate suite: the serial
reps, the multi-worker run, and the lazy and eager streamed worlds must
all produce byte-identical scans before any throughput number is
recorded.

Honesty rules: ``cpu_count`` is recorded; every timed leg runs in a
fresh subprocess so no run is taxed by a predecessor's heap; gap
ratios pair temporally adjacent runs and assert the min over two
mirrored passes, so a host scheduling transition cannot masquerade as
a regression; serial timings are best-of-N
(shared hosts throttle intermittently) with every rep recorded; the
multi-worker run contributes an identity gate always but a timing claim
never (this benchmark asserts serial floors only, so it is safe on a
one-core runner).  ``CAMPAIGN_BENCH_QUICK=1`` (the CI configuration)
drops to two serial reps; ``CAMPAIGN_BENCH_FLOOR_SCALE`` scales the
absolute floors down for non-reference hosts, same precedent as the
pipeline bench.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_campaign.json"
SEED = 2021

QUICK = os.environ.get("CAMPAIGN_BENCH_QUICK") == "1"
SERIAL_REPS = 4 if QUICK else 6
#: Small-tier streamed legs aggregate this many back-to-back campaigns
#: per subprocess so their measurement window lasts tens of seconds,
#: like the big tier's single campaign.  A ~5 s run sits entirely
#: inside one of the host's fast or slow scheduling windows; a ~65 s
#: run averages over them — ratios of the two measure the host's duty
#: cycle, not the code (observed: identical small campaigns swinging
#: 26k-43k pps while big-tier runs held 30k steady).
SMALL_TIER_AGG_REPS = 8 if QUICK else 12

#: Pre-pipeline serial throughput at 1/300 scale, frozen from the last
#: per-probe-loop run of BENCH_parallel.json (campaign wall clock on the
#: reference host) — identical to BENCH_pipeline's committed baseline.
BASELINE_PPS = 15909.0
DIVISOR = 300.0
WALL_RATIO_FLOOR = 3.0
FLOOR_SCALE = float(os.environ.get("CAMPAIGN_BENCH_FLOOR_SCALE", "1.0"))

#: Streamed tiers: divisor -> nominal IPv4 target count.
SMALL_TIER, BIG_TIER = 400.0, 40.0
TIER_LABELS = {SMALL_TIER: "93k", BIG_TIER: "930k"}
#: The lazy world may run at most this factor slower than the eager
#: streamed world end-to-end (build + campaign: lazy amortizes the
#: derivations the eager build pays up front, but each on-demand
#: derivation carries cache/eviction overhead an eager sweep does
#: not), and the big tier at most this factor slower than the small
#: one.  Both scale with CAMPAIGN_BENCH_FLOOR_SCALE inverted — a
#: slower host widens gaps it cannot cause.  The lazy-eager ceiling is
#: a regression gate, not a tight bound: the measured gap is ~1.4x
#: window-matched but the two legs sample the host minutes apart, and
#: scheduling drift alone moves the ratio by ~±0.2x.
LAZY_EAGER_GAP_CEILING = 2.0 / FLOOR_SCALE
TIER_GAP_CEILING = 1.25 / FLOOR_SCALE

_results: dict = {}


#: Eager campaign legs run in fresh subprocesses for the same reason
#: the streamed legs do (below): a timed rep sharing a process with an
#: earlier run measures that run's leftover heap, not the pipeline.
#: Identity travels as a sha256 over the order-normalized scan content,
#: which is exactly what the old in-process dict comparison checked.
_EAGER_CHILD = r"""
import hashlib, json, sys, time
from repro.scanner.campaign import SCAN_LABELS, ScanCampaign
from repro.scanner.executor import ExecutionOptions
from repro.topology.config import TopologyConfig
from repro.topology.generator import build_topology

divisor, seed, workers = float(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
cfg = TopologyConfig.paper_scale(divisor=divisor, seed=seed)
topo = build_topology(cfg)
campaign = ScanCampaign(
    topology=topo, config=cfg, options=ExecutionOptions(workers=workers),
)
started = time.perf_counter()
result = campaign.run()
wall = time.perf_counter() - started
digest = hashlib.sha256()
for label in SCAN_LABELS:
    scan = result.scans[label]
    digest.update(label.encode())
    for key in sorted(scan.observations, key=str):
        obs = scan.observations[key]
        digest.update(repr((
            str(obs.address), obs.recv_time,
            None if obs.engine_id is None else obs.engine_id.raw,
            obs.engine_boots, obs.engine_time,
            obs.response_count, obs.wire_bytes,
        )).encode())
    digest.update(repr((
        scan.targets_probed, scan.probe_bytes_sent,
        scan.reply_bytes_received,
        sorted((str(a), n) for a, n in scan.multi_responders.items()),
    )).encode())
probes = sum(m.probes_sent for m in result.metrics.values())
print(json.dumps({
    "fingerprint": digest.hexdigest(),
    "targets_probed": probes,
    "wall_seconds": round(wall, 3),
    "pps": round(probes / wall),
    "edges_seconds": {
        "plan": round(sum(m.plan_time for m in result.metrics.values()), 4),
        "derive": round(
            sum(m.derive_time for m in result.metrics.values()), 4
        ),
        "ingest": round(
            sum(m.ingest_time for m in result.metrics.values()), 4
        ),
    },
}))
"""


def _run_child(child: str, argv: "list[str]") -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


def _eager_run(*, workers: int) -> dict:
    """Fresh eager campaign at 1/300, one subprocess per run."""
    return _run_child(_EAGER_CHILD, [str(DIVISOR), str(SEED), str(workers)])


#: Each streamed leg runs in a fresh subprocess, same precedent as the
#: scale bench: an in-process sequence lets one leg's heap (the eager
#: small world, prior lazy caches) tax the allocation-heavy probe loop
#: of the next, and the tier gap then measures heap history instead of
#: scaling behaviour.
_STREAMED_CHILD = r"""
import gc, hashlib, json, sys, time
from repro.scanner.campaign import ScanCampaign
from repro.scanner.executor import ExecutionOptions
from repro.topology.config import TopologyConfig
from repro.topology.generator import build_topology
from repro.topology.lazy import LazyTopology

divisor, seed = float(sys.argv[1]), int(sys.argv[2])
lazy = sys.argv[3] == "lazy"
reps = int(sys.argv[4])
digest = hashlib.sha256()
probes = 0
build_seconds = campaign_seconds = 0.0
edges = {"plan": 0.0, "derive": 0.0, "ingest": 0.0}
for rep in range(reps):
    config = TopologyConfig.streamed(divisor=divisor, seed=seed)
    build_started = time.perf_counter()
    topology = (
        LazyTopology(config=config) if lazy else build_topology(config)
    )
    build_seconds += time.perf_counter() - build_started
    campaign = ScanCampaign(
        topology=topology, config=config, options=ExecutionOptions()
    )
    started = time.perf_counter()
    for stream in campaign.run_streaming():
        digest.update(stream.label.encode())
        for batch in stream.batches():
            for obs in batch:
                digest.update(repr((
                    str(obs.address), obs.recv_time,
                    None if obs.engine_id is None else obs.engine_id.raw,
                    obs.engine_boots, obs.engine_time,
                    obs.response_count, obs.wire_bytes,
                )).encode())
        metrics = stream.execution.metrics
        probes += metrics.probes_sent
        edges["plan"] += metrics.plan_time
        edges["derive"] += metrics.derive_time
        edges["ingest"] += metrics.ingest_time
    campaign_seconds += time.perf_counter() - started
    # Untimed: collecting the dead previous world is a harness
    # artifact of re-running campaigns in one process, not a cost any
    # single campaign pays.
    del config, topology, campaign, stream
    gc.collect()
print(json.dumps({
    "fingerprint": digest.hexdigest(),
    "agg_reps": reps,
    "targets_probed": probes,
    "build_seconds": round(build_seconds, 3),
    "campaign_seconds": round(campaign_seconds, 3),
    "pps_campaign": round(probes / campaign_seconds),
    "pps_end_to_end": round(probes / (build_seconds + campaign_seconds)),
    "edges_seconds": {k: round(v, 4) for k, v in edges.items()},
}))
"""


def _streamed_run(divisor: float, *, lazy: bool, reps: int = 1) -> dict:
    """Streamed campaign(s) in a fresh subprocess; fingerprint + timings."""
    return _run_child(_STREAMED_CHILD, [
        str(divisor), str(SEED), "lazy" if lazy else "eager", str(reps),
    ])


def _write_payload():
    payload = {
        "benchmark": "campaign-wall-and-lazy-gap",
        "seed": SEED,
        "quick": QUICK,
        "cpu_count": os.cpu_count() or 1,
        "baseline_source": (
            "BENCH_parallel.json probes_per_second_serial "
            "(pre-pipeline per-probe loop, campaign wall clock)"
        ),
        "baseline_pps_committed": BASELINE_PPS,
        "wall_ratio_floor": WALL_RATIO_FLOOR,
        "floor_scale": FLOOR_SCALE,
        "lazy_eager_gap_ceiling": round(LAZY_EAGER_GAP_CEILING, 3),
        "tier_gap_ceiling": round(TIER_GAP_CEILING, 3),
        "results": dict(sorted(_results.items())),
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def test_bench_campaign_wall_throughput():
    reps = [_eager_run(workers=1) for __ in range(SERIAL_REPS)]
    multi = _eager_run(workers=2)

    # Identity gates first — a fast wrong answer does not count.
    serial = reps[0]
    probes = serial["targets_probed"]
    for rep_index, rep in enumerate(reps):
        assert rep["fingerprint"] == serial["fingerprint"], (
            f"serial rep{rep_index}"
        )
        assert rep["targets_probed"] == probes, rep_index
    assert multi["fingerprint"] == serial["fingerprint"], (
        "serial-vs-multi-worker"
    )
    assert multi["targets_probed"] == probes

    best_rep = max(reps, key=lambda rep: rep["pps"])
    best = best_rep["pps"]
    ratio = best / BASELINE_PPS
    floor = WALL_RATIO_FLOOR * FLOOR_SCALE
    assert ratio >= floor, (
        f"campaign-wall throughput is {best:.0f} pps, {ratio:.2f}x the "
        f"committed {BASELINE_PPS:.0f} pps pre-pipeline baseline "
        f"(floor {floor:.2f}x)"
    )

    _results["campaign_wall"] = {
        "divisor": DIVISOR,
        "targets_probed": probes,
        "reps": SERIAL_REPS,
        "campaign_pps_reps": [rep["pps"] for rep in reps],
        "campaign_pps_best": best,
        "edges_seconds_best_rep": best_rep["edges_seconds"],
        "ratio_vs_baseline": round(ratio, 2),
        "asserted_floor": round(floor, 2),
        "identity": {
            "serial_vs_multi_worker": True,
        },
        "multi_worker_wall_seconds": multi["wall_seconds"],
    }
    print(
        f"\ncampaign wall at 1/{DIVISOR:g}: {best:.0f} pps best of "
        f"{SERIAL_REPS} ({ratio:.2f}x baseline {BASELINE_PPS:.0f})"
    )
    _write_payload()


def test_bench_campaign_lazy_gap():
    # Two passes per measurement, mirrored (A B C / C B A): host
    # throughput drifts on shared machines, and a ratio of two single
    # runs mostly measures which run hit the slow window.  Best-of-two
    # with mirrored order decorrelates the drift (same scheme as the
    # scale bench), and the small-tier legs aggregate
    # SMALL_TIER_AGG_REPS campaigns so every leg's measurement window
    # is tens of seconds — ratios then compare like with like.
    legs = [
        ("lazy_small", SMALL_TIER, True, SMALL_TIER_AGG_REPS),
        ("eager_small", SMALL_TIER, False, SMALL_TIER_AGG_REPS),
        ("lazy_big", BIG_TIER, True, 1),
    ]
    runs: dict = {name: [] for name, __, __lazy, __reps in legs}
    for name, divisor, lazy, reps in legs + legs[::-1]:
        runs[name].append(_streamed_run(divisor, lazy=lazy, reps=reps))
    picked = {}
    for name, reps in runs.items():
        # Identity across reps is free to check and must hold: the same
        # (seed, divisor, laziness) replays the same campaign.
        assert reps[0]["fingerprint"] == reps[1]["fingerprint"], name
        best = min(
            reps,
            key=lambda s: s["build_seconds"] + s["campaign_seconds"],
        )
        picked[name] = {
            **best,
            "runs": len(reps),
            "pps_end_to_end_runs": [r["pps_end_to_end"] for r in reps],
        }
    lazy_small, eager_small, lazy_big = (
        picked["lazy_small"], picked["eager_small"], picked["lazy_big"]
    )

    # Identity gate: the lazy and eager streamed worlds replay the same
    # campaign observation for observation.
    assert lazy_small["fingerprint"] == eager_small["fingerprint"], (
        "lazy-vs-eager streamed campaigns diverged at the "
        f"{TIER_LABELS[SMALL_TIER]} tier"
    )

    def paired_gap(slower: str, faster: str) -> float:
        # Each ratio is computed within one mirrored pass, i.e. from
        # temporally adjacent runs, then the min over passes is
        # asserted: a real regression is in the code and shows up in
        # every scheduling window, so it survives the min, while a
        # host fast/slow transition straddling one pass only inflates
        # that pass's ratio.
        return min(
            runs[faster][i]["pps_end_to_end"]
            / runs[slower][i]["pps_end_to_end"]
            for i in range(len(runs[faster]))
        )

    lazy_eager_gap = paired_gap("lazy_small", "eager_small")
    assert lazy_eager_gap <= LAZY_EAGER_GAP_CEILING, (
        f"lazy campaign runs {lazy_eager_gap:.2f}x slower than eager "
        f"end-to-end (ceiling {LAZY_EAGER_GAP_CEILING:.2f}x)"
    )

    tier_gap = paired_gap("lazy_big", "lazy_small")
    assert tier_gap <= TIER_GAP_CEILING, (
        f"lazy pps sagged {tier_gap:.2f}x from "
        f"{TIER_LABELS[SMALL_TIER]} to {TIER_LABELS[BIG_TIER]} targets "
        f"(ceiling {TIER_GAP_CEILING:.2f}x)"
    )

    _results["lazy_gap"] = {
        "small_tier": {"divisor": SMALL_TIER, "lazy": lazy_small,
                       "eager": eager_small},
        "big_tier": {"divisor": BIG_TIER, "lazy": lazy_big},
        "lazy_vs_eager_gap_end_to_end": round(lazy_eager_gap, 3),
        "tier_gap": round(tier_gap, 3),
        "identity": {"lazy_vs_eager": True},
    }
    print(
        f"\nlazy gap: {TIER_LABELS[SMALL_TIER]} lazy "
        f"{lazy_small['pps_end_to_end']} vs eager "
        f"{eager_small['pps_end_to_end']} pps end-to-end "
        f"(gap {lazy_eager_gap:.2f}x), {TIER_LABELS[BIG_TIER]} lazy "
        f"{lazy_big['pps_end_to_end']} pps (tier gap {tier_gap:.2f}x)"
    )
    _write_payload()
