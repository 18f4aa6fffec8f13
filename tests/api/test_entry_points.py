"""One seed, one scan, on every entry point.

Every way of running the four-scan campaign drives the same sharded
engine, so a seed fixes every observation of every scan whichever entry
point ran it and however its output travelled: materialized, streamed,
run on a worker pool, or exported by the CLI and read back from JSONL.
"""

from __future__ import annotations

import pytest

from repro.api import ExecutionOptions, Session, TopologyOptions
from repro.cli import main as cli_main
from repro.experiments import ExperimentContext
from repro.io import load_scan_jsonl
from repro.scanner.campaign import SCAN_LABELS
from repro.topology.config import TopologyConfig
from repro.topology.datasets import dump_topology_file

SCALE = 1000
SEEDS = (7, 2021)


def observations(scans) -> dict:
    return {label: scans[label].observations for label in SCAN_LABELS}


def via_scan(seed):
    return observations(Session(scale=SCALE, seed=seed).scan().campaign.scans)


def via_stream_scans(seed, tmp_path):
    out = {}
    for stream in Session(scale=SCALE, seed=seed).stream_scans():
        seen: dict = {}
        for observation in stream.observations():
            seen.setdefault(observation.address, observation)
        out[stream.label] = seen
    return out


def via_run_campaign(seed, tmp_path):
    return observations(Session(scale=SCALE, seed=seed).run_campaign().scans)


def via_experiment_context(seed, tmp_path):
    config = TopologyConfig.paper_scale(divisor=SCALE, seed=seed)
    return observations(ExperimentContext.create(config).campaign.scans)


def via_two_workers(seed, tmp_path):
    session = Session(
        scale=SCALE, seed=seed, options=ExecutionOptions(workers=2)
    )
    return observations(session.scan().campaign.scans)


def via_cli_jsonl(seed, tmp_path):
    out_dir = tmp_path / "run"
    argv = ["scan", "--scale", str(SCALE), "--seed", str(seed),
            "--out", str(out_dir)]
    assert cli_main(argv) == 0
    return {
        label: load_scan_jsonl(out_dir / f"scan-{label}.jsonl").observations
        for label in SCAN_LABELS
    }


ENTRY_POINTS = (
    via_stream_scans,
    via_run_campaign,
    via_experiment_context,
    via_two_workers,
    via_cli_jsonl,
)


@pytest.fixture(scope="module")
def reference():
    """``Session.scan()``'s observations per seed, the yardstick."""
    return {seed: via_scan(seed) for seed in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
def test_entry_point_matches_session_scan(entry, seed, reference, tmp_path):
    want = reference[seed]
    got = entry(seed, tmp_path)
    for label in SCAN_LABELS:
        assert want[label], label
        differing = sorted(
            (
                address
                for address in want[label].keys() | got[label].keys()
                if want[label].get(address) != got[label].get(address)
            ),
            key=int,
        )
        assert not differing, (
            f"{entry.__name__} seed {seed} {label}: {len(differing)} addresses "
            f"differ from Session.scan()'s {len(want[label])} observations, "
            f"e.g. {differing[:3]}"
        )


def test_topology_file_entry_points_agree(tmp_path):
    """A world loaded from a topology file scans the same through the
    CLI, a ``Session`` and an ``ExperimentContext``."""
    seed = SEEDS[0]
    path = tmp_path / "topology.txt"
    dump_topology_file(Session(scale=SCALE, seed=seed).topology, str(path))

    session = Session(
        scale=SCALE, seed=seed, topology=TopologyOptions(topology_file=path)
    )
    want = observations(session.scan().campaign.scans)
    config = TopologyConfig.paper_scale(divisor=SCALE, seed=seed)
    context = ExperimentContext.create(config, topology_file=str(path))
    via_context = observations(context.campaign.scans)
    assert session.topology.layout == context.topology.layout == "file"
    out_dir = tmp_path / "run"
    assert cli_main(["scan", "--scale", str(SCALE), "--seed", str(seed),
                     "--topology-file", str(path), "--out", str(out_dir)]) == 0
    for label in SCAN_LABELS:
        assert want[label], label
        assert via_context[label] == want[label], label
        got = load_scan_jsonl(out_dir / f"scan-{label}.jsonl").observations
        assert got == want[label], label
