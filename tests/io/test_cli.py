"""End-to-end tests for the command-line interface."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import Session, TopologyOptions
from repro.cli import build_parser, main
from repro.io import load_scan_jsonl
from repro.scanner.campaign import SCAN_LABELS


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        for argv in (["scan"], ["analyze", "x"], ["report"], ["lab"]):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestScanAnalyzeWorkflow:
    def test_scan_then_analyze(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["scan", "--scale", "1500", "--seed", "3",
                     "--out", str(run_dir)]) == 0
        for label in ("v4-1", "v4-2", "v6-1", "v6-2"):
            assert (run_dir / f"scan-{label}.jsonl").exists()

        assert main(["analyze", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "alias sets" in out
        assert (run_dir / "alias-sets.jsonl").exists()
        assert (run_dir / "alias-sets.csv").exists()
        census = list(csv.reader(
            (run_dir / "vendor-census.csv").read_text().splitlines()
        ))
        assert census[0] == ["vendor", "devices"]
        assert len(census) > 2
        # The exported scans give the session's census, ties included.
        want = Session(scale=1500, seed=3).vendor_census()
        assert census[1:] == [[vendor, str(count)] for vendor, count in want]

    def test_scan_export_is_loadable(self, tmp_path):
        run_dir = tmp_path / "run"
        main(["scan", "--scale", "1500", "--seed", "3", "--out", str(run_dir)])
        header = json.loads(
            (run_dir / "scan-v4-1.jsonl").read_text().splitlines()[0]
        )
        assert header["format"] == "snmpv3-scan"
        assert header["ip_version"] == 4

    def test_analyze_missing_files_fails(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 2
        assert "missing" in capsys.readouterr().err

    def test_analyze_threshold_flag(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        main(["scan", "--scale", "1500", "--seed", "3", "--out", str(run_dir)])
        assert main(["analyze", str(run_dir), "--threshold", "60"]) == 0


@pytest.fixture(scope="module")
def lazy_session_scans():
    """A lazy ``Session``'s observations per scan at 1/4000, seed 5."""
    session = Session(scale=4000, seed=5, topology=TopologyOptions(lazy=True))
    return {
        label: scan.observations
        for label, scan in session.scan().campaign.scans.items()
    }


class TestLazyScan:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_lazy_jsonl_matches_lazy_session(
        self, workers, tmp_path, lazy_session_scans
    ):
        run_dir = tmp_path / "run"
        assert main(["scan", "--lazy", "--scale", "4000", "--seed", "5",
                     "--workers", str(workers), "--out", str(run_dir)]) == 0
        for label in SCAN_LABELS:
            want = lazy_session_scans[label]
            assert want, label
            got = load_scan_jsonl(run_dir / f"scan-{label}.jsonl").observations
            assert got == want, label

    @pytest.mark.parametrize("argv, error, build_started", [
        ("scan --max-resident 600 --scale 4000 --seed 5",
         "max_resident only applies to lazy=True", False),
        ("scan --lazy --max-resident 100 --scale 4000",
         "max_resident must be at least 512, got 100", True),
        ("scan --shards 0 --scale 300", "num_shards must be >= 1, got 0", False),
    ])
    def test_bad_flags_exit_2_before_any_scan(
        self, argv, error, build_started, tmp_path, capsys
    ):
        run_dir = tmp_path / "run"
        assert main([*argv.split(), "--out", str(run_dir)]) == 2
        captured = capsys.readouterr()
        assert f"error: {error}" in captured.err
        assert ("simulated Internet" in captured.out) is build_started
        assert not list(tmp_path.rglob("scan-*.jsonl"))

    def test_layout_flag_is_gone(self, tmp_path, capsys):
        argv = [*"scan --layout streamed --scale 4000".split(),
                "--out", str(tmp_path / "run")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --layout streamed" in \
            capsys.readouterr().err


class TestScanProfile:
    def test_profile_prints_stage_and_edge_lines(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["scan", "--profile", "--scale", "4000", "--seed", "5",
                     "--out", str(run_dir)]) == 0
        out = capsys.readouterr().out
        for label in SCAN_LABELS:
            [summary] = [line for line in out.split("\n  ")
                         if line.startswith(f"{label}: ")]
            assert " probes over 16 shards x 1 worker(s) in " in summary
        assert out.count("\n  stages: encode ") == len(SCAN_LABELS)
        assert out.count("\n  edges: plan ") == len(SCAN_LABELS)


class TestLab:
    def test_lab_passes(self, capsys):
        assert main(["lab"]) == 0
        out = capsys.readouterr().out
        assert "[ok] v3 implicitly enabled" in out
        assert "FAIL" not in out


class TestPublish:
    def test_publish_writes_csvs(self, tmp_path, capsys):
        out_dir = tmp_path / "pub"
        assert main(["publish", "--scale", "1500", "--seed", "3",
                     "--out", str(out_dir)]) == 0
        assert (out_dir / "table1.csv").exists()
        assert (out_dir / "fig12_router_vendors.csv").exists()
        assert "CSV artifacts" in capsys.readouterr().out

    def test_publish_bytes_ignore_the_hash_seed(self, tmp_path):
        """Alias sets are frozensets, whose iteration order follows the
        interpreter's string hashing; no published byte may."""
        src = str(Path(repro.__file__).parents[1])
        trees = []
        for hash_seed in ("1", "2"):
            out_dir = tmp_path / f"hash-seed-{hash_seed}"
            subprocess.run(
                [sys.executable, "-m", "repro.cli", "publish", "--scale",
                 "2000", "--seed", "3", "--out", str(out_dir)],
                env={**os.environ, "PYTHONPATH": src,
                     "PYTHONHASHSEED": hash_seed},
                check=True, capture_output=True, timeout=300,
            )
            trees.append({
                path.relative_to(out_dir).as_posix(): path.read_bytes()
                for path in sorted(out_dir.rglob("*")) if path.is_file()
            })
        assert len(trees[0]) == 22
        assert sorted(trees[0]) == sorted(trees[1])
        for name, data in trees[0].items():
            assert data == trees[1][name], name

    def test_lazy_scan_bytes_ignore_the_hash_seed_and_workers(self, tmp_path):
        """A lazy scan resolves each shard's devices at run time; neither
        the interpreter's string hashing nor the worker count may reach
        a scanned byte."""
        src = str(Path(repro.__file__).parents[1])
        runs = {}
        for workers in ("1", "2"):
            for hash_seed in ("1", "2"):
                out_dir = tmp_path / f"w{workers}-h{hash_seed}"
                subprocess.run(
                    [sys.executable, "-m", "repro.cli", "scan", "--lazy",
                     "--scale", "4000", "--seed", "3", "--workers", workers,
                     "--out", str(out_dir)],
                    env={**os.environ, "PYTHONPATH": src,
                         "PYTHONHASHSEED": hash_seed},
                    check=True, capture_output=True, timeout=300,
                )
                runs[out_dir.name] = {
                    label: (out_dir / f"scan-{label}.jsonl").read_bytes()
                    for label in SCAN_LABELS
                }
        first = runs.pop("w1-h1")
        assert all(first.values())
        for name, files in runs.items():
            for label in SCAN_LABELS:
                assert files[label] == first[label], (name, label)


class TestReport:
    def test_report_to_file(self, tmp_path):
        out_file = tmp_path / "report.txt"
        assert main(["report", "--scale", "1500", "--seed", "3", "--quick",
                     "--out", str(out_file)]) == 0
        text = out_file.read_text()
        assert "Table 1" in text
        assert "Figure 17" in text
