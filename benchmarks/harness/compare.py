"""Compare two sets of benchmark results, metric by metric.

For each workload, tracing mode and metric the report gives each side's
median and quartiles.  A metric with a bound (the end-to-end metrics of
``BENCHMARK.json``) is flagged ``worse-than-bound`` when the head median
is worse than the base median by more than the bound, and
``unresolved`` when either side's spread (quartile distance over median)
exceeds the bound, unless every head run reads better than every base
run.  The report decides no claims.
"""

from __future__ import annotations

import json
from pathlib import Path

from stats import quartiles


def load_results(paths: list) -> list:
    """Results from files holding one JSON object or one per line."""
    results = []
    for path in paths:
        text = Path(path).read_text(encoding="utf-8").strip()
        if not text:
            continue
        if text.startswith("{") and "\n" not in text:
            results.append(json.loads(text))
        else:
            results.extend(json.loads(line) for line in text.splitlines() if line.strip())
    return results


def samples(results: list) -> dict:
    """(workload, trace, metric) -> (unit, [values])."""
    table: dict = {}
    for result in results:
        for name, metric in result["metrics"].items():
            key = (result["workload"], int(result["trace"]), name)
            unit, values = table.setdefault(key, (metric["unit"], []))
            values.append(float(metric["value"]))
    return table


def spread(values: list) -> float:
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def verdict(base: list, head: list, better: str, bound: "float | None") -> str:
    if bound is None:
        return "info"
    base_mid = quartiles(base)[1]
    head_mid = quartiles(head)[1]
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (head_mid - base_mid) / abs(base_mid) if base_mid else 0.0
    head_wins_all = (
        max(head) < min(base) if better == "lower" else min(head) > max(base)
    )
    if max(spread(base), spread(head)) > bound and not head_wins_all:
        return "unresolved"
    if worse_by > bound:
        return "worse-than-bound"
    return "within-bound"


def compare(base_results: list, head_results: list, spec: dict) -> list:
    """One row per (workload, trace, metric) present on both sides."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = samples(base_results)
    head = samples(head_results)
    rows = []
    for key in sorted(set(base) & set(head)):
        workload, trace, name = key
        unit, base_values = base[key]
        _, head_values = head[key]
        entry = declared.get(name, {})
        better = entry.get("better", "lower")
        bound = entry.get("bound") if trace == 0 else None
        rows.append({
            "workload": workload,
            "trace": trace,
            "metric": name,
            "unit": unit,
            "better": better,
            "bound": bound,
            "base": quartiles(base_values),
            "base_n": len(base_values),
            "head": quartiles(head_values),
            "head_n": len(head_values),
            "verdict": verdict(base_values, head_values, better, bound),
        })
    return rows


def format_rows(rows: list) -> str:
    lines = [
        f"{'workload':<12} {'t':>1} {'metric':<34} {'unit':<6} "
        f"{'base q1/med/q3 (n)':<34} {'head q1/med/q3 (n)':<34} verdict"
    ]
    for row in rows:
        base = "/".join(f"{v:.4g}" for v in row["base"]) + f" ({row['base_n']})"
        head = "/".join(f"{v:.4g}" for v in row["head"]) + f" ({row['head_n']})"
        lines.append(
            f"{row['workload']:<12} {row['trace']:>1} {row['metric']:<34} "
            f"{row['unit']:<6} {base:<34} {head:<34} {row['verdict']}"
        )
    return "\n".join(lines)
