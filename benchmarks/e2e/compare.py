"""``python -m benchmarks.e2e compare A.json B.json``.

One row per (end-to-end metric, workload): both medians, B over A, the
bound from BENCHMARK.json and a verdict.  Exact counters from the traced
runs that differ are listed apart, as drift: they compare two versions of
one program, not two speeds.  Same seed and scale on both sides, or the
counters differ by construction.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

from .measure import spread


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _values(doc: dict, kind: str) -> dict:
    """``(workload, metric) -> [value per run]``."""
    out = defaultdict(list)
    for run in doc["runs"]:
        for metric, m in run.get(kind, {}).items():
            out[run["workload"], metric].append(m["value"])
    return out


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``better`` / ``same`` / ``worse`` by the medians against the bound;
    ``unresolved`` when either side's own spread exceeds the bound, unless
    every run of one side beats every run of the other."""
    sign = 1.0 if better == "higher" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    if ma == 0:
        return "same" if mb == 0 else "unresolved"
    gain = sign * (mb - ma) / abs(ma)
    if max(spread(a), spread(b)) > bound:
        if min(sign * v for v in b) > max(sign * v for v in a):
            return "better"
        if max(sign * v for v in b) < min(sign * v for v in a):
            return "worse"
        return "unresolved"
    if gain > bound:
        return "better"
    if gain < -bound:
        return "worse"
    return "same"


def rows(a: dict, b: dict, spec: dict) -> list[dict]:
    va, vb = _values(a, "end_to_end"), _values(b, "end_to_end")
    out = []
    for workload in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            key = workload, m["name"]
            if key not in va or key not in vb:
                continue
            ma, mb = statistics.median(va[key]), statistics.median(vb[key])
            out.append({
                "workload": workload, "metric": m["name"], "unit": m["unit"],
                "a": ma, "b": mb, "b_over_a": mb / ma if ma else float("nan"),
                "spread_a": spread(va[key]), "spread_b": spread(vb[key]),
                "bound": m["bound"],
                "verdict": verdict(va[key], vb[key], m["better"], m["bound"]),
            })
    return out


def drift(a: dict, b: dict) -> list[tuple]:
    """Counters of the traced runs that differ between the two files, on
    the workloads whose counts repeat exactly (one caller; with two
    connections the interleaving, hence the batching, differs run to run)."""
    exact = {
        name for name, w in a["context"]["workloads"].items() if w["exact_counters"]
    }

    def counters(doc):
        out = {}
        for run in doc["runs"]:
            if run["workload"] not in exact:
                continue
            for name, value in run.get("per_layer_detail", {}).get("counters", {}).items():
                out.setdefault((run["workload"], name), value)
        return out

    ca, cb = counters(a), counters(b)
    return sorted(
        (w, name, ca[w, name], cb[w, name])
        for (w, name) in ca.keys() & cb.keys() if ca[w, name] != cb[w, name]
    )


def main(path_a: str, path_b: str, spec: dict) -> int:
    a, b = _load(path_a), _load(path_b)
    print(f"A = {path_a}  ({a['context']['git_commit'][:12]}, seed {a['context']['seed']})")
    print(f"B = {path_b}  ({b['context']['git_commit'][:12]}, seed {b['context']['seed']})")
    print(f"{'workload':16s} {'metric':15s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'spread A':>8s} {'spread B':>8s} {'bound':>6s}  verdict")
    table = rows(a, b, spec)
    for r in table:
        print(f"{r['workload']:16s} {r['metric']:15s} {r['a']:12.5g} {r['b']:12.5g} "
              f"{r['b_over_a']:7.3f} {r['spread_a']:8.3f} {r['spread_b']:8.3f} "
              f"{r['bound']:6.2f}  {r['verdict']}")
    moved = drift(a, b)
    if moved:
        print("\ncounter drift (traced runs of the single-caller workloads):")
        for workload, name, x, y in moved:
            print(f"  {workload:16s} {name:40s} {x} -> {y}")
    return 1 if any(r["verdict"] == "worse" for r in table) else 0
