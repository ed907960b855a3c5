"""Serving-layer benchmark: naive request/response vs pipelined BATCH.

Two arms against one in-process server (loopback TCP, ``concurrent``
table, request coalescer on), each run for both reads and writes:

* **naive** -- 100 simulated clients, each with exactly one request in
  flight: send one GET/PUT, wait for its response, repeat.  The
  dbm-over-a-socket strawman.
* **batch** -- the same 100 clients shipping the same ops as pipelined
  BATCH frames, so the coalescer can feed the engine's bulk paths with
  whole runs at a time.

Clients are *simulated*: one driver thread multiplexes all 100
connections (send everything each client is allowed to have in flight,
then harvest).  That keeps the measurement about the serving stack --
100 real client threads would mostly benchmark GIL contention between
the drivers and the server's event-loop thread.

The acceptance gate of the serving-layer PR: batched GET throughput
must be **>= 3x** naive at 100 clients (the write path is recorded and
floor-gated, but puts are engine-bound -- the coalescer already merges
the naive arm's concurrent singles into shared ``put_many`` batches, a
design win that narrows the write-path ratio).  Both arms run in the
same process on the same server, so the ratio is immune to machine
speed; wall-clock ops/sec and p50/p99 (measured with the package's own
ms histograms) land in ``BENCH_server.json`` for trend-watching.

A connection-scaling sweep (100 -> 1000 simulated clients, one BATCH
each) records how throughput holds as the accept load grows; arms that
would exceed the process fd limit are skipped and recorded as such
rather than silently dropped.
"""

from __future__ import annotations

import resource
import time

from benchmarks.conftest import emit, emit_json
from repro.access.db import db_open
from repro.obs.registry import Histogram
from repro.serve.client import Client
from repro.serve.server import ServerConfig, ServerThread

CLIENTS = 100
OPS_PER_CLIENT = 60
BATCH_SIZE = 20  # ops per BATCH frame in the batch arm
MIN_GET_SPEEDUP = 3.0
#: writes are engine-bound in both arms (see module docstring): the
#: floor only guards against the batch path regressing below naive
MIN_PUT_SPEEDUP = 1.3
SWEEP = (100, 300, 1000)
VALUE = b"v" * 32
PRELOAD = 20_000


def _fd_budget() -> int:
    """Raise the soft fd limit as far as the hard limit allows and
    return how many client connections fit (2 fds each: client+server
    end, both in this process), with headroom for the interpreter."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    want = min(hard, 8192)
    if soft < want:
        try:
            resource.setrlimit(resource.RLIMIT_NOFILE, (want, hard))
            soft = want
        except (ValueError, OSError):
            pass
    return max(16, (soft - 128) // 2)


def _arm_naive(conns, make_op, hist):
    """One op in flight per client: send one frame on every connection,
    harvest every response, repeat."""
    n_rounds = OPS_PER_CLIENT
    t_all = time.perf_counter()
    for rnd in range(n_rounds):
        pending = []
        for j, c in enumerate(conns):
            op = make_op(j, rnd)
            t0 = time.perf_counter()
            pending.append((c, c.send(*op), t0))
        for c, rid, t0 in pending:
            assert c.result(rid) is not None
            hist.observe((time.perf_counter() - t0) * 1e3)
    return time.perf_counter() - t_all


def _arm_batch(conns, make_op, hist):
    """The same ops as pipelined BATCH frames: every frame on the wire
    before the first response is claimed."""
    t_all = time.perf_counter()
    pending = []
    for j, c in enumerate(conns):
        for base in range(0, OPS_PER_CLIENT, BATCH_SIZE):
            ops = [make_op(j, base + i) for i in range(BATCH_SIZE)]
            t0 = time.perf_counter()
            pending.append((c, c.send("batch", ops), t0))
    for c, rid, t0 in pending:
        assert all(v is not None for v in c.result(rid))
        hist.observe((time.perf_counter() - t0) * 1e3)
    return time.perf_counter() - t_all


def _measure(conns, make_naive, make_batch):
    naive_lat = Histogram("naive", unit="ms")
    batch_lat = Histogram("batch", unit="ms")
    total = CLIENTS * OPS_PER_CLIENT
    naive_s = _arm_naive(conns, make_naive, naive_lat)
    batch_s = _arm_batch(conns, make_batch, batch_lat)
    return {
        "naive": {
            "elapsed_s": round(naive_s, 4),
            "ops_per_sec": round(total / naive_s, 1),
            "p50_ms": round(naive_lat.quantile(0.5), 3),
            "p99_ms": round(naive_lat.quantile(0.99), 3),
        },
        "batch": {
            "elapsed_s": round(batch_s, 4),
            "ops_per_sec": round(total / batch_s, 1),
            "frame_p50_ms": round(batch_lat.quantile(0.5), 3),
            "frame_p99_ms": round(batch_lat.quantile(0.99), 3),
        },
        "speedup": round((total / batch_s) / (total / naive_s), 2),
    }


def _sweep_point(port, n_clients, keys):
    """n_clients connections, one GET BATCH each: connect all, ship all
    frames, then harvest -- measures how the accept/coalesce path scales
    with connection count."""
    clients = [Client(port=port) for _ in range(n_clients)]
    try:
        lat = Histogram("sweep", unit="ms")
        t0 = time.perf_counter()
        rids = []
        for j, c in enumerate(clients):
            ops = [
                ("get", keys[(j * BATCH_SIZE + i) % len(keys)])
                for i in range(BATCH_SIZE)
            ]
            rids.append((c, c.send("batch", ops), time.perf_counter()))
        for c, rid, t1 in rids:
            assert all(v is not None for v in c.result(rid))
            lat.observe((time.perf_counter() - t1) * 1e3)
        elapsed = time.perf_counter() - t0
    finally:
        for c in clients:
            c.close()
    ops = n_clients * BATCH_SIZE
    return {
        "clients": n_clients,
        "ops": ops,
        "ops_per_sec": round(ops / elapsed, 1),
        "p99_ms": round(lat.quantile(0.99), 3),
    }


def test_pipelined_batch_vs_naive(workdir):
    # sized so the whole run fits the presized table and the buffer pool:
    # a thrashing cache would benchmark page faults, not the serving stack
    db = db_open(
        f"{workdir}/bench.db", "hash", "c",
        concurrent=True, nelem=80_000, cachesize=1 << 23,
    )
    keys = [b"k%d" % i for i in range(PRELOAD)]
    db.put_many([(k, VALUE) for k in keys])
    for base in range(0, PRELOAD, 512):  # warm the buffer pool
        db.get_many(keys[base : base + 512])

    st = ServerThread(db, ServerConfig(port=0), owns_db=True)
    st.start()
    try:
        conns = [Client(port=st.port) for _ in range(CLIENTS)]
        try:
            reads = _measure(
                conns,
                lambda j, i: ("get", keys[(j * OPS_PER_CLIENT + i) % PRELOAD]),
                lambda j, i: ("get", keys[(j * OPS_PER_CLIENT + i) % PRELOAD]),
            )
            writes = _measure(
                conns,
                lambda j, i: ("put", b"nw-%d-%d" % (j, i), VALUE),
                lambda j, i: ("put", b"bw-%d-%d" % (j, i), VALUE),
            )
        finally:
            for c in conns:
                c.close()

        budget = _fd_budget()
        sweep = []
        for n in SWEEP:
            if n > budget:
                sweep.append({"clients": n, "skipped": f"fd budget {budget}"})
                continue
            sweep.append(_sweep_point(st.port, n, keys))

        coalesce = st.server.registry.as_dict().get("batch", {})
    finally:
        st.stop()

    rows = [
        f"serving layer: {CLIENTS} simulated clients x {OPS_PER_CLIENT} ops "
        f"(batch frames of {BATCH_SIZE})",
        f"{'arm':<12} {'elapsed_s':>10} {'ops_sec':>10} {'p50_ms':>8} {'p99_ms':>8}",
    ]
    for label, arm in (("get/naive", reads["naive"]), ("get/batch", reads["batch"]),
                       ("put/naive", writes["naive"]), ("put/batch", writes["batch"])):
        p50 = arm.get("p50_ms", arm.get("frame_p50_ms"))
        p99 = arm.get("p99_ms", arm.get("frame_p99_ms"))
        rows.append(
            f"{label:<12} {arm['elapsed_s']:>10.3f} {arm['ops_per_sec']:>10.0f} "
            f"{p50:>8.3f} {p99:>8.3f}"
        )
    rows += [
        f"GET speedup: {reads['speedup']:.2f}x (gate: >= {MIN_GET_SPEEDUP}x)",
        f"PUT speedup: {writes['speedup']:.2f}x (floor: >= {MIN_PUT_SPEEDUP}x)",
        "",
        "connection sweep (one GET batch per client):",
    ]
    for point in sweep:
        if "skipped" in point:
            rows.append(f"  {point['clients']:>5} clients  SKIPPED ({point['skipped']})")
        else:
            rows.append(
                f"  {point['clients']:>5} clients  {point['ops_per_sec']:>10.0f} ops/s"
                f"  p99 {point['p99_ms']:.3f} ms"
            )
    emit("server", "\n".join(rows))

    emit_json(
        "server",
        {
            "label": "serve: naive vs pipelined BATCH",
            "context": {
                "clients": CLIENTS,
                "ops_per_client": OPS_PER_CLIENT,
                "batch_size": BATCH_SIZE,
                "preload": PRELOAD,
                "min_get_speedup": MIN_GET_SPEEDUP,
                "min_put_speedup": MIN_PUT_SPEEDUP,
            },
            "get": reads,
            "put": writes,
            "coalescing": coalesce,
            "sweep": sweep,
        },
    )
    assert reads["speedup"] >= MIN_GET_SPEEDUP, (
        f"pipelined BATCH gets only {reads['speedup']:.2f}x naive "
        f"(gate {MIN_GET_SPEEDUP}x)"
    )
    assert writes["speedup"] >= MIN_PUT_SPEEDUP, (
        f"pipelined BATCH puts only {writes['speedup']:.2f}x naive "
        f"(floor {MIN_PUT_SPEEDUP}x)"
    )
