"""The runner: set-up, timed sections, metric assembly.

One call of :func:`run_workload` is one run of one workload, untraced
(the end-to-end metrics) or traced (the per-layer metrics).  The two are
separate runs on purpose: end-to-end numbers never carry a proxy.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
from time import perf_counter

from .measure import (
    Section,
    child_cpu_s,
    child_peak_rss_mb,
    context,
    self_cpu_s,
    self_peak_rss_mb,
)
from .proxies import Spans, summarize
from .workloads import HERE, WORKLOADS, Workload

ROOT = os.path.dirname(os.path.dirname(HERE))

#: set-ups per untraced run; setup_s is their median
SETUP_REPS = 3
#: fewest windows an untraced section runs, however short ``seconds`` is
MIN_WINDOWS = 3
#: windows in the traced section and in the untraced one it is compared with
TRACED_WINDOWS = 3
#: share of a window a workload that warms up runs, unrecorded, first
WARMUP_SHARE = 0.1


#: metrics that read 0 on workloads without a server or a router
OFF_PATH = (
    "serve.protocol.encode_ns_per_op", "serve.protocol.decode_ns_per_op",
    "serve.protocol.bytes_per_op", "serve.batching.inproc_ops_per_s",
    "serve.server.ping_rtt_us_p50", "serve.server.socket_tax",
    "serve.server.cpu_s", "serve.client.cpu_s",
    "shard.one_shard_ratio", "shard.scaling_2",
    "shard.router_cpu_s", "shard.worker_cpu_s",
)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _cpu_s(wl: Workload) -> tuple[float, float]:
    """(generator, children) user+sys seconds so far."""
    return self_cpu_s(), sum(child_cpu_s(pid) for pid in wl.child_pids())


def _set_up(cls, seed: int, scale: float, workroot: str, reps: int):
    """Set the workload up ``reps`` times, keep the last; returns it and
    the set-up times."""
    times, wl = [], None
    for rep in range(reps):
        if wl is not None:
            wl.teardown()
        wl = cls(seed, scale, os.path.join(workroot, f"{cls.name}-{rep}"))
        try:
            t0 = perf_counter()
            wl.setup()
            times.append(perf_counter() - t0)
        except BaseException:
            wl.teardown()
            raise
    return wl, times


def _section(wl: Workload, spans, windows: int, seconds: float = 0.0) -> Section:
    """Warm up, then time at least ``windows`` windows and as many more
    as fit in ``seconds``."""
    sec = Section()
    wl.open(spans)
    try:
        if wl.warmup:
            wl.window(Section(), max(1, int(wl.n_window * WARMUP_SHARE)))
            for log in wl.span_logs():
                log.clear()
        sec.counters_before = wl.counters()
        cpu0 = cpu = _cpu_s(wl)
        deadline = perf_counter() + seconds
        while len(sec.windows) < windows or perf_counter() < deadline:
            t0 = perf_counter()
            done = wl.window(sec, wl.n_window)
            t1 = perf_counter()
            before, cpu = cpu, _cpu_s(wl)
            sec.add_window(done, t1 - t0, sum(cpu) - sum(before))
        sec.cpu_self_s = cpu[0] - cpu0[0]
        sec.cpu_children_s = cpu[1] - cpu0[1]
        sec.counters_after = wl.counters()
        sec.spans = summarize(wl.span_logs())
    finally:
        wl.close()
    return sec


def _delta(sec: Section) -> dict:
    before, after = sec.counters_before, sec.counters_after
    return {k: after[k] - before.get(k, 0) for k in after}


def run_workload(name: str, seed: int, seconds: float, scale: float, trace: bool,
                 workroot: str) -> dict:
    """One run.  Returns ``metrics`` (end-to-end when untraced, per-layer
    when traced), ``attempted``/``failed`` and the detail a result file
    keeps.  Children are reaped and files removed on every path out."""
    cls = WORKLOADS[name]
    gc.collect()
    wl, setup_times = _set_up(cls, seed, scale, workroot, 1 if trace else SETUP_REPS)
    try:
        # inputs live as long as the run: keep the collector from
        # re-walking them inside the timed sections
        gc.collect()
        gc.freeze()
        if trace:
            return _traced_run(wl, workroot)
        return _untraced_run(wl, seconds, setup_times)
    finally:
        wl.teardown()
        gc.unfreeze()


def _untraced_run(wl: Workload, seconds: float, setup_times: list[float]) -> dict:
    sec = _section(wl, None, MIN_WINDOWS, seconds)
    rss = self_peak_rss_mb() + sum(child_peak_rss_mb(p) for p in wl.child_pids())
    extra: dict = {}
    wl.after(sec, extra)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": sec.ops_per_s(),
        **sec.latency_us(),
        "cpu_ms_per_kop": sec.cpu_ms_per_kop(),
        "space_amp": wl.space_bytes() / wl.live_bytes(),
        "peak_rss_mb": rss,
    }
    return {
        "metrics": metrics,
        "attempted": sec.attempted,
        "failed": sec.failed,
        "detail": {
            "windows": len(sec.windows),
            "window_spread": sec.window_spread(),
            "samples": {"read": len(sec.read_ns), "write": len(sec.write_ns)},
            "setup_times_s": setup_times,
            "failed_frac": sec.failed / sec.attempted,
            **extra,
        },
    }


def _span(summary: dict, name: str, field: str) -> float:
    return summary.get(name, {}).get(field, 0.0)


def _traced_run(wl: Workload, workroot: str) -> dict:
    traced = _section(wl, Spans(), TRACED_WINDOWS)
    base = _section(wl, None, TRACED_WINDOWS)
    extra: dict = {}
    wl.after(base, extra)
    d = _delta(traced)
    spans = traced.spans
    get = d.get

    def span_sum(prefix: str, field: str) -> float:
        return sum(row[field] for name, row in spans.items() if name.startswith(prefix))

    lookups = get("buffer.hits", 0) + get("buffer.misses", 0)
    key_ops = sum(get(f"ops.counts.{k}", 0) for k in ("gets", "puts", "deletes"))
    commits = get("wal.commits", 0)
    wal_bytes = get("wal.io.bytes_written", 0)
    user_bytes = max(1, traced.user_bytes)
    batches = get("server.batch.batches", 0)
    calls = get("bench.calls", 0)

    m = {
        "storage.page_reads": get("io.page_reads", 0),
        "storage.page_writes": get("io.page_writes", 0),
        "storage.syscalls": get("io.syscalls", 0) + get("wal.io.syscalls", 0),
        "storage.bytes_written_per_user_byte":
            (get("io.bytes_written", 0) + wal_bytes) / user_bytes,
        "storage.busy_s": span_sum("storage.", "self_s"),
        "storage.read_us_p50": _span(spans, "storage.read_page", "p50_us"),
        "core.buffer.hit_ratio": get("buffer.hits", 0) / lookups if lookups else 0.0,
        "core.buffer.evictions": get("buffer.evictions", 0),
        "core.buffer.writebacks": get("buffer.writebacks", 0),
        "core.table.pages_per_get": lookups / key_ops if key_ops else 0.0,
        "core.table.splits": get("ops.counts.splits", 0),
        "core.table.overflow_pages":
            traced.counters_after.get("space.overflow_pages.in_use", 0),
        "core.table.self_s": span_sum("access.", "self_s"),
        "core.wal.commits": commits,
        "core.wal.fsyncs_per_commit": get("wal.fsyncs", 0) / commits if commits else 0.0,
        "core.wal.bytes_per_user_byte": wal_bytes / user_bytes,
        "core.wal.checkpoints": get("wal.checkpoints", 0),
        "core.wal.checkpoint_pages": get("wal.checkpoint_pages", 0),
        "core.wal.append_busy_s": _span(spans, "core.wal.write_at", "self_s"),
        "core.wal.fsync_busy_s": _span(spans, "core.wal.sync", "self_s"),
        "core.wal.recovery_ms": extra.pop("core.wal.recovery_ms", 0.0),
        "core.wal.lost_acked_writes": extra.pop("core.wal.lost_acked_writes", 0),
        "serve.batching.batches": batches,
        "serve.batching.batch_size_mean":
            get("server.batch.ops", 0) / batches if batches else 0.0,
        "shard.dispatches_per_batch":
            get("sharding.router.dispatches", 0) / calls if calls else 0.0,
        "bench.trace_overhead_frac": 1.0 - traced.ops_per_s() / base.ops_per_s(),
        "bench.window_spread": base.window_spread(),
        # layers this workload's path does not reach
        **dict.fromkeys(OFF_PATH, 0.0),
    }
    if wl.cpu_metrics:
        m.update(zip(wl.cpu_metrics, (traced.cpu_self_s, traced.cpu_children_s)))
    failed, attempted = traced.failed + base.failed, traced.attempted + base.attempted

    rung_dir = os.path.join(workroot, f"{wl.name}-ladder")
    rungs: dict = {}
    try:
        for part in wl.ladders(rung_dir, base.ops_per_s()):
            m.update(part["metrics"])
            rungs.update(part.get("rungs_us_per_op", {}))
            failed += part.get("failed", 0)
            attempted += part.get("attempted", 0)
    finally:
        shutil.rmtree(rung_dir, ignore_errors=True)
    m["bench.failed_frac"] = failed / attempted

    # where the traced section's wall time went: the generator's own
    # share is what no span covers
    wall = traced.wall_s * wl.lanes
    roots = sum(row["self_s"] for row in spans.values())
    breakdown = {name: row["self_s"] for name, row in sorted(spans.items())}
    breakdown["bench.generator"] = wall - roots
    untraced_wall = traced.ops / base.ops_per_s() * wl.lanes
    return {
        "metrics": m,
        "attempted": attempted,
        "failed": failed,
        "detail": {
            "counters": {k: v for k, v in sorted(d.items()) if isinstance(v, int)},
            "spans": spans,
            "self_time_s": breakdown,
            "self_time_vs_untraced_wall": sum(breakdown.values()) / untraced_wall,
            "rungs_us_per_op": rungs,
            "untraced_ops_per_s": base.ops_per_s(),
            "traced_ops_per_s": traced.ops_per_s(),
            **extra,
        },
    }


def run_context(seed: int, scale: float, seconds: float) -> dict:
    ctx = context(ROOT, seed, scale, seconds)
    ctx["workloads"] = {
        name: {
            "table": cls.table,
            "flush_policy": cls.flush_policy,
            # one caller: the program's own counts repeat exactly per seed
            "exact_counters": cls.lanes == 1,
        }
        for name, cls in WORKLOADS.items()
    }
    return ctx
