"""Self-tests of the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/harness``.  The
workload tests call each workload function directly at tiny sizes.
"""

from __future__ import annotations

import json
import random
import sys
import time
import types
from pathlib import Path

import pytest

import compare
import layers
import run
import workloads
from spans import TRACE_HEADER, Span, Tracer, covered_length, install, self_times
from stats import ZipfPicker, percentile, quartiles, tail_percentile


def span(name, span_id, parent, start, end, trace="t"):
    return Span(name=name, span_id=span_id, parent_id=parent, trace_id=trace,
                start=start, end=end)


# -- spans ------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        span("op", "r", None, 0.0, 10.0),
        span("a", "a", "r", 1.0, 4.0),
        span("b", "b", "r", 5.0, 9.0),
        span("a1", "a1", "a", 2.0, 3.0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({"r": 3.0, "a": 2.0, "b": 4.0, "a1": 1.0})


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        span("op", "r", None, 0.0, 10.0),
        # Two server threads overlapping, one running past the parent.
        span("x", "x", "r", 2.0, 6.0),
        span("y", "y", "r", 4.0, 8.0),
        span("z", "z", "r", 9.0, 12.0),
    ]
    assert self_times(spans)["r"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert covered_length([], 0.0, 1.0) == 0.0


def test_tracer_nests_and_shares_trace_ids():
    tracer = Tracer()
    root = tracer.open("op")
    child = tracer.open("child")
    tracer.close(child)
    tracer.close(root)
    remote = tracer.open("http.handle", parent_id=child.span_id, trace_id=root.trace_id)
    tracer.close(remote)
    assert child.parent_id == root.span_id
    assert child.trace_id == root.trace_id == root.span_id
    assert remote.parent_id == child.span_id and remote.trace_id == root.trace_id
    assert tracer.open("next").parent_id is None


def _fake_module():
    module = types.ModuleType("bench_fake_layer")

    class Layer:
        def work(self, value):
            return value * 2

        def stream(self, count):
            yield from range(count)

    class Handler:
        def __init__(self, header):
            self.headers = {TRACE_HEADER: header} if header else {}

        def do_GET(self):
            return "ok"

    module.Layer = Layer
    module.Handler = Handler
    return module


def test_install_wraps_and_restores(monkeypatch):
    module = _fake_module()
    monkeypatch.setitem(sys.modules, module.__name__, module)
    original = module.Layer.work
    tracer = Tracer()
    undo = install(tracer, [
        ("bench_fake_layer:Layer.work", "layer.work", "call"),
        ("bench_fake_layer:Layer.stream", "layer.stream", "iter"),
        ("bench_fake_layer:Handler.do_GET", "http.handle", "http"),
    ])
    layer = module.Layer()
    root = tracer.open("op")
    assert layer.work(21) == 42
    for item in layer.stream(2):
        layer.work(item)  # consumer work between items nests under the stream
    tracer.close(root)
    assert module.Handler(f"{root.trace_id} {root.span_id}").do_GET() == "ok"
    undo()
    assert module.Layer.work is original
    names = {s.name: s for s in tracer.spans}
    stream = names["layer.stream"]
    assert stream.parent_id == root.span_id
    assert sum(s.parent_id == stream.span_id for s in tracer.spans) == 2
    assert names["http.handle"].parent_id == root.span_id
    assert names["http.handle"].trace_id == root.trace_id


def test_boundaries_and_names_match_the_program():
    from repro.pipeline.filters import FILTER_NAMES
    from repro.service.query import ENDPOINTS

    undo = install(Tracer(), layers.BOUNDARIES)
    undo()
    assert layers.FILTER_STEPS == FILTER_NAMES
    assert sorted(layers.ENDPOINTS) == sorted(ENDPOINTS)


# -- statistics -------------------------------------------------------------


def test_percentile_rule_needs_ten_samples_beyond():
    assert tail_percentile(350) == 90.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(99) == 50.0
    assert tail_percentile(1010) == 99.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(19) is None
    values = list(range(1, 11))
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_zipf_picker_is_seeded_and_skewed():
    keys = [f"k{i}" for i in range(1000)]

    def draws(seed):
        picker = ZipfPicker(keys, 1.1, random.Random(seed))
        return [picker.pick() for _ in range(2000)]

    assert draws(5) == draws(5)
    assert draws(5) != draws(6)
    counts = {}
    for key in draws(5):
        counts[key] = counts.get(key, 0) + 1
    assert max(counts, key=counts.get) == "k0"
    assert counts["k0"] > 10 * counts.get("k99", 0)


def test_request_stream_is_seeded():
    addresses = [f"10.0.0.{i}" for i in range(50)]
    manifest = {1: {"v4-1": 5}, 2: {"reprobe-v4": 2}}

    def head(seed, client):
        stream = workloads.request_stream(seed, client, addresses, manifest)
        return [next(stream) for _ in range(200)]

    assert head(1, 0) == head(1, 0)
    assert head(1, 0) != head(1, 1)
    kinds = [endpoint for endpoint, _ in head(1, 0)]
    assert 0.65 < kinds.count("history") / len(kinds) < 0.95


def test_run_ops_repeats_until_time_is_up_and_spreads_setup_trials():
    calls, trials = [], []

    def op(tracer):
        calls.append(tracer is not None)
        time.sleep(0.02)
        return workloads.Op(seconds=0.02, traced=tracer is not None)

    def trial():
        trials.append(len(calls))
        return 0.5

    ops, _, setup = workloads.run_ops(op, seconds=0.0, trace=False, trial=trial, trials=3)
    assert calls == [False] and trials == [0, 1, 1] and setup == [0.5] * 3

    calls.clear(), trials.clear()
    ops, _, setup = workloads.run_ops(op, seconds=0.07, trace=False, trial=trial, trials=3)
    assert 2 <= len(ops) <= 4 and len(setup) == max(3, len(ops))
    assert trials[:len(ops)] == list(range(len(ops)))

    calls.clear(), trials.clear()
    workloads.run_ops(op, seconds=0.0, trace=True, trial=trial, trials=1)
    assert calls == [False, True] and trials == [0]


# -- compare ----------------------------------------------------------------


SPEC = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "store.ingest_s", "unit": "s", "better": "lower"}],
}


def results(values, metric="wall_s", unit="s", trace=0):
    return [{"workload": "w", "trace": trace,
             "metrics": {metric: {"value": v, "unit": unit}}} for v in values]


@pytest.mark.parametrize("base, head, metric, expected", [
    ([10.0, 10.1, 9.9, 10.0], [10.5, 10.4, 10.6, 10.5], "wall_s", "within-bound"),
    ([10.0, 10.1, 9.9, 10.0], [11.5, 11.4, 11.6, 11.5], "wall_s", "worse-than-bound"),
    ([100.0, 101.0, 99.0, 100.0], [85.0, 86.0, 84.0, 85.0], "work_per_s", "worse-than-bound"),
    ([10.0, 14.0, 7.0, 12.0], [11.0, 12.0, 10.0, 11.0], "wall_s", "unresolved"),
    ([10.0, 14.0, 7.0, 12.0], [5.0, 5.1, 4.9, 5.0], "wall_s", "within-bound"),
])
def test_compare_verdicts(base, head, metric, expected):
    unit = "s" if metric == "wall_s" else "1/s"
    rows = compare.compare(results(base, metric, unit), results(head, metric, unit), SPEC)
    assert [row["verdict"] for row in rows] == [expected]


def test_compare_reports_per_layer_without_verdict(tmp_path):
    path = tmp_path / "set.jsonl"
    rows = results([1.0, 2.0], "store.ingest_s", trace=1)
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    loaded = compare.load_results([path])
    assert compare.compare(loaded, loaded, SPEC)[0]["verdict"] == "info"


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    assert spec["paths"] == ["benchmarks/harness"]


# -- workloads at tiny sizes ---------------------------------------------------


def check_result(name, outcome, trace):
    result = run.summarize(name, 7, 1.0, trace, outcome)
    assert result["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["digest"]
    expected = layers.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [n for n, _, _ in expected]
    for name_, value in result["details"].get("end_to_end", result["metrics"]).items():
        assert value["value"] > 0, name_
    if trace:
        assert 0.0 <= result["metrics"]["trace.unaccounted_ratio"]["value"] <= 0.10
    return result


def test_paper_workload():
    outcome = workloads.run_paper(7, seconds=0.0, trace=True, scale=3000.0, setup_trials=1)
    result = check_result("paper", outcome, True)
    metrics = result["metrics"]
    assert metrics["alias.precision"]["value"] == 1.0
    assert metrics["pipeline.valid"]["value"] > 0
    assert metrics["topology.build_s"]["value"] > 0


def test_lazy_workload():
    outcome = workloads.run_lazy(7, seconds=0.0, trace=True, divisor=4000.0,
                                 max_resident=512, setup_trials=1)
    result = check_result("lazy", outcome, True)
    assert result["metrics"]["topology.derive_s"]["value"] > 0
    assert result["metrics"]["net.fabric_s"]["value"] > 0


def test_observatory_workload():
    outcome = workloads.run_observatory(7, seconds=0.0, trace=True, scale=5000.0,
                                        firings=3, setup_trials=1)
    result = check_result("observatory", outcome, True)
    assert result["attempted"] == 2 * (3 + 3 * len(layers.ENDPOINTS))
    assert result["metrics"]["http.overhead_p50_ms"]["value"] > 0


def test_serve_workload():
    outcome = workloads.run_serve(7, requests=12, trace=True, scale=5000.0,
                                  firings=3, setup_trials=2)
    result = check_result("serve", outcome, True)
    assert result["attempted"] == 2 * 2 * 6
    assert result["metrics"]["service.request_self_s"]["value"] > 0
    assert not list(Path(workloads.WORK_DIR).glob("serve-*"))
