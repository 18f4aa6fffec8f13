"""One benchmark for the paper loop, the lazy tier and the observatory.

Run one workload (the last stdout line is the JSON result)::

    python3 benchmarks/harness/run.py --workload paper --seed 2021 --seconds 20 --trace 0

Run every workload, each in a fresh subprocess, printing each one's
metrics::

    python3 benchmarks/harness/run.py --workload all --trace 0

Compare result files (one JSON object per file or per line)::

    python3 benchmarks/harness/run.py compare --base a.jsonl --head b.jsonl

``--trace 1`` runs the same workload with spans recorded around each
layer's entry points and prints the per-layer metrics instead of the
end-to-end ones.  Results are also written, one line of JSON each, to
``.bench_out/`` at the root of the checkout; traced runs write their
spans there too.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import mean, median

import compare
import layers
import workloads
from spans import dump_spans

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = ROOT / ".bench_out"

#: (name, unit, better); bounds live in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Sizes of each workload.  ``paper``, ``lazy`` and ``observatory`` repeat
#: one identical operation until ``--seconds`` have passed.
PAPER_SCALE = 300.0
LAZY_DIVISOR = 400.0
#: ~14x smaller than the world's 11.7k devices.
LAZY_MAX_RESIDENT = 800
OBSERVATORY_SCALE = 1000.0
OBSERVATORY_FIRINGS = 8
SERVE_SCALE = 1000.0
#: ``serve`` sends a fixed number of requests instead, so that its cache
#: hit ratio does not depend on how fast the server answers: each of the
#: two clients sends ``round(seconds / 0.09)``, 0.09 s being the nominal
#: seconds of one request on the reference host.
SERVE_REQUEST_SECONDS = 0.09

WORKLOADS = ("paper", "lazy", "observatory", "serve")


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def env_block() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "network": "loopback: client and servers on 127.0.0.1 of one host",
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "paper":
        outcome = workloads.run_paper(seed, seconds=seconds, trace=trace, scale=PAPER_SCALE)
    elif name == "lazy":
        outcome = workloads.run_lazy(
            seed, seconds=seconds, trace=trace,
            divisor=LAZY_DIVISOR, max_resident=LAZY_MAX_RESIDENT,
        )
    elif name == "observatory":
        outcome = workloads.run_observatory(
            seed, seconds=seconds, trace=trace,
            scale=OBSERVATORY_SCALE, firings=OBSERVATORY_FIRINGS,
        )
    else:
        outcome = workloads.run_serve(
            seed, requests=max(1, round(seconds / SERVE_REQUEST_SECONDS)), trace=trace,
            scale=SERVE_SCALE, firings=OBSERVATORY_FIRINGS,
        )
    return summarize(name, seed, seconds, trace, outcome)


def summarize(name: str, seed: int, seconds: float, trace: bool,
              outcome: workloads.Outcome) -> dict:
    """Turn a workload outcome into the result record."""
    ops = outcome.ops
    untraced = [op for op in ops if not op.traced]
    passed = [op for op in untraced if not op.failed]
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    errors = [e for op in ops for e in op.errors][: workloads.MAX_ERRORS]
    digests = {op.digest for op in ops if op.digest} | set(outcome.setup_digests)
    if len(digests) > 1:
        errors.append(f"outputs differ between operations of one seed: {sorted(digests)}")

    if name == "serve":
        # Request latencies are bimodal (cache hits vs misses) and the hit
        # ratio sits near 0.5, so their median jumps between the modes;
        # the mean moves smoothly with it.  Median and tail are details.
        wall_s = mean(op.seconds for op in passed) if passed else 0.0
        work_per_s = len(passed) / outcome.phase_s[False]
    else:
        wall_s = median(op.seconds for op in untraced)
        work_per_s = sum(op.work for op in untraced) / sum(op.seconds for op in untraced)
    e2e = {
        "setup_s": median(outcome.setup_s),
        "wall_s": wall_s,
        "work_per_s": work_per_s,
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    units = {n: u for n, u, _ in END_TO_END}
    metrics = {n: {"value": v, "unit": units[n]} for n, v in e2e.items()}
    details = {
        "setup_trials_s": outcome.setup_s,
        "op_seconds": [op.seconds for op in untraced] if name != "serve" else None,
        **outcome.details,
    }
    if trace:
        traced = [op for op in ops if op.traced]
        traced_passed = [op.seconds for op in traced if not op.failed]
        ratio = (
            mean(traced_passed) / mean(op.seconds for op in passed) - 1.0
            if traced_passed and passed else 0.0
        )
        values = workloads.layer_values(outcome, ratio)
        units = {n: u for n, u, _ in layers.PER_LAYER}
        details["end_to_end"] = metrics
        metrics = {n: {"value": values[n], "unit": units[n]} for n, _, _ in layers.PER_LAYER}
        details["traced_op_seconds"] = [op.seconds for op in traced] if name != "serve" else None
    correct = failed == 0 and len(digests) <= 1
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": env_block(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digest": sorted(digests)[0] if len(digests) == 1 else None,
        "metrics": metrics,
        "details": details,
        "spans": outcome.spans,
    }


def write_outputs(result: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    spans = result.pop("spans")
    if spans:
        dump_spans(spans, OUT_DIR / f"spans-{stem}.jsonl")
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(result, sort_keys=True) + "\n", encoding="utf-8")
    return path


def print_result(result: dict) -> None:
    print(f"{result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['attempted']} attempted, {result['failed']} failed, "
          f"digest {result['digest']}")
    for error in result["errors"]:
        print(f"  check failed: {error}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")


def main_run(args: argparse.Namespace) -> int:
    if args.workload == "all":
        return main_all(args)
    try:
        import repro  # noqa: F401  - the program must be in this checkout
    except ImportError as error:
        print(f"error: cannot import the program from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, float(args.seconds), bool(args.trace))
    path = write_outputs(result)
    print_result(result)
    print(f"  result: {path}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }, sort_keys=True))
    return 0 if result["correct"] else 1


def main_all(args: argparse.Namespace) -> int:
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            status = 1
    return status


def main_compare(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("--base", nargs="+", required=True, help="result files of the parent")
    parser.add_argument("--head", nargs="+", required=True, help="result files of the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare.compare(
        compare.load_results(args.base), compare.load_results(args.head), spec
    )
    print(compare.format_rows(rows))
    return 1 if any(row["verdict"] == "worse-than-bound" for row in rows) else 0


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return main_compare(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return main_run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main())
