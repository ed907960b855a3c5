"""Command lines: the driver contract (run.py) and ``run`` / ``compare``."""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

from . import compare
from .harness import HERE, ROOT, load_spec, run_context, run_workload
from .workloads import WORKLOADS


def _workroot() -> str:
    """Scratch space inside the checkout (the only place a run may write),
    private to this process."""
    return os.path.join(ROOT, ".bench_e2e", str(os.getpid()))


def _with_units(metrics: dict, declared: list[dict]) -> dict:
    """Exactly the declared metrics, each as ``{"value", "unit"}``; a
    metric the run did not produce is an error, not a silent gap."""
    return {
        d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared
    }


def _print_metrics(workload: str, kind: str, metrics: dict) -> None:
    print(f"== {workload} ({kind})")
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}")


def driver_main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="benchmarks/e2e/run.py")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    p.add_argument("--detail", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    spec = load_spec()
    workroot = _workroot()
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, args.scale, bool(args.trace), workroot
        )
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = _with_units(result["metrics"], declared)
    _print_metrics(args.workload, "traced" if args.trace else "untraced", metrics)
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    if args.detail:  # what ``run`` keeps in its result file
        line["detail"] = result["detail"]
    print(json.dumps(line))
    return 0


def _cmd_run(args) -> int:
    """Every run is a process of its own, made exactly as the driver makes
    it (so peak RSS is that run's and nobody else's)."""
    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    out = {
        "context": run_context(args.seed, args.scale, args.seconds),
        "runs": [],
    }
    failed = 0
    for rep in range(args.repeat):
        for name in names:
            row = {"workload": name, "repeat": rep}
            for trace in (0, 1) if args.traced else (0,):
                child = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--scale", str(args.scale),
                     "--trace", str(trace), "--detail"],
                    stdout=subprocess.PIPE, text=True, check=True,
                )
                *table, last = child.stdout.splitlines()
                print("\n".join(table))
                r = json.loads(last)
                print(f"{'failed_frac':42s} {r['failed'] / r['attempted']:>16.6g} ratio")
                kind = "per_layer" if trace else "end_to_end"
                row[kind] = r["metrics"]
                row[kind + "_detail"] = r["detail"]
                row[kind + "_attempted"] = r["attempted"]
                row[kind + "_failed"] = r["failed"]
                failed += r["failed"]
            out["runs"].append(row)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run workloads and write a result file")
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                   help="one workload (repeatable); default all")
    r.add_argument("--traced", action="store_true",
                   help="also make the traced run (per-layer metrics)")
    r.add_argument("--seconds", type=float, default=float(load_spec()["run_seconds"]))
    r.add_argument("--scale", type=float, default=1.0,
                   help="shrink record counts and windows (self-check uses 0.02)")
    r.add_argument("--repeat", type=int, default=1,
                   help="runs per workload; compare needs several to judge spread")
    r.add_argument("--out", required=True)
    r.set_defaults(fn=_cmd_run)
    c = sub.add_parser("compare", help="compare two result files")
    c.add_argument("a")
    c.add_argument("b")
    c.set_defaults(fn=lambda a: compare.main(a.a, a.b, load_spec()))
    args = p.parse_args(argv)
    return args.fn(args)
