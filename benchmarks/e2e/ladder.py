"""Direct-drive rungs for the layers that have no seam to proxy.

Each rung replays one op stream against one layer's public API alone, so
a layer's tax is the difference between adjacent rungs::

    open_pager -> BufferPool -> HashTable single / batched / bulk
      -> repro.open -> Batcher in-process -> loopback TCP
      -> 1 shard -> 2 shards

The top rung of each ladder is the workload's own untraced section, which
the harness passes in; everything below it is measured here, after the
timed sections, on private copies of the workload's table.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import statistics
from array import array
from collections import deque
from time import perf_counter, perf_counter_ns

import repro
from repro import HashTable
from repro.access.db import db_open
from repro.core.buffer import BufferPool
from repro.serve import protocol as proto
from repro.serve.batching import Batcher
from repro.storage import open_pager

from .measure import Section, percentile

#: largest run handed to ``get_many``/``put_many`` (the server's default)
MAX_BATCH = 512


#: ops one rung runs before the next rung takes its turn on the same ops
LOCKSTEP_CHUNK = MAX_BATCH


class _Single:
    """One call per op, each get checked against a model of the stream."""

    def __init__(self, db) -> None:
        self.db = db
        self.model: dict = {}
        self.get_ns = array("q")
        self.put_ns = array("q")
        self.failed = 0
        self.chunk_s: list[float] = []

    def run(self, ops) -> None:
        get, put, delete = self.db.get, self.db.put, self.db.delete
        model, get_ns, put_ns = self.model, self.get_ns, self.put_ns
        failed = 0
        t_start = perf_counter()
        for kind, key, value in ops:
            if kind == "g":
                t0 = perf_counter_ns()
                got = get(key)
                get_ns.append(perf_counter_ns() - t0)
                if key in model and got != model[key]:
                    failed += 1
            elif kind == "p":
                t0 = perf_counter_ns()
                put(key, value)
                put_ns.append(perf_counter_ns() - t0)
                model[key] = value
            else:
                delete(key)
                model[key] = None
        self.chunk_s.append(perf_counter() - t_start)
        self.failed += failed


class _Batched:
    """The same ops through the ``*_many`` calls: each slice of MAX_BATCH
    ops runs as one ``get_many``, one ``put_many`` and one ``delete_many``
    (gets first, so they see the state the slice started from)."""

    def __init__(self, table) -> None:
        self.db = table
        self.model: dict = {}
        self.failed = 0
        self.chunk_s: list[float] = []

    def run(self, ops) -> None:
        table, model = self.db, self.model
        t_start = perf_counter()
        for at in range(0, len(ops), MAX_BATCH):
            piece = ops[at : at + MAX_BATCH]
            gets = [key for kind, key, _ in piece if kind == "g"]
            puts = [(key, value) for kind, key, value in piece if kind == "p"]
            deletes = [key for kind, key, _ in piece if kind == "d"]
            if gets:
                got = table.get_many(gets)
                self.failed += sum(
                    1 for k, g in zip(gets, got) if k in model and g != model[k]
                )
            if puts:
                table.put_many(puts)
                model.update(puts)
            if deletes:
                table.delete_many(deletes)
                model.update((key, None) for key in deletes)
        self.chunk_s.append(perf_counter() - t_start)


def _speed_ratio(rung, other) -> float:
    """How many times faster ``rung`` ran than ``other``: the median over
    the chunks both replayed, so that a blip which hits one rung's turn at
    one chunk does not pass for a difference between the two."""
    return statistics.median(o / r for r, o in zip(rung.chunk_s, other.chunk_s))


def _lockstep(rungs: list, stream: list) -> None:
    """Advance every rung through the stream a chunk at a time, so that
    drift in the machine's speed lands on all of them alike, and rotate
    who goes first, so that no rung always pays for pulling the chunk's
    keys into the processor's caches."""
    for turn, at in enumerate(range(0, len(stream), LOCKSTEP_CHUNK)):
        ops = stream[at : at + LOCKSTEP_CHUNK]
        first = turn % len(rungs)
        for rung in rungs[first:] + rungs[:first]:
            rung.run(ops)


class _TimedPager:
    """Pager wrapper that adds up the time spent below the buffer pool."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.busy_ns = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _timed(self, fn, *args):
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.busy_ns += perf_counter_ns() - t0

    def read_page(self, pageno):
        return self._timed(self._inner.read_page, pageno)

    def write_page(self, pageno, data):
        return self._timed(self._inner.write_page, pageno, data)

    def write_pages(self, start, data):
        return self._timed(self._inner.write_pages, start, data)


def _capture_buffer_trace(table, stream) -> list:
    """Replay the stream once, untimed, recording through
    ``hooks.subscribe('on_buffer')`` which buffer each op asked the pool
    for; the last buffer a write touched is the one it dirtied."""
    trace: list = []
    table.hooks.subscribe(
        "on_buffer", lambda ev: trace.append([ev["key"], ev["pageno"], False])
    )
    for kind, key, value in stream:
        if kind == "g":
            table.get(key)
        else:
            if kind == "p":
                table.put(key, value)
            else:
                table.delete(key)
            if trace:
                trace[-1][2] = True
    return trace


def _replay_buffer(path: str, bsize: int, cachesize: int, trace, create: bool) -> dict:
    pager = _TimedPager(open_pager(path, pagesize=bsize, create=create))
    pageno_of = {key: pageno for key, pageno, _ in trace}
    pool = BufferPool(pager, bsize, cachesize, pageno_of.__getitem__)
    get, mark_dirty = pool.get, pool.mark_dirty
    t0 = perf_counter_ns()
    for key, _pageno, dirty in trace:
        hdr = get(key)
        if dirty:
            mark_dirty(hdr)
    pool.flush()
    total_ns = perf_counter_ns() - t0
    pager.close()
    gets = max(1, len(trace))
    return {
        "total_s": total_ns / 1e9,
        "storage_s": pager.busy_ns / 1e9,
        "get_ns": (total_ns - pager.busy_ns) / gets,
    }


def engine_ladder(workdir: str, params: dict, records: list, stream: list) -> dict:
    """Storage, buffer, table (single / batched / bulk) and facade rungs
    over ``stream``, each on a private table preloaded with ``records``
    (or created empty with ``params`` when there are none)."""
    os.makedirs(workdir)
    bsize, cachesize = params["bsize"], params["cachesize"]
    create = {k: params[k] for k in ("bsize", "ffactor", "cachesize", "nelem") if k in params}
    items = records or list({k: v for kind, k, v in stream if kind == "p"}.items())

    base = os.path.join(workdir, "bulk.db")
    table = HashTable.create(base, **{**create, "nelem": 1})
    t0 = perf_counter()
    table.bulk_load(items, nelem=len(items))
    table.sync()
    bulk_s = perf_counter() - t0
    table.close()

    def fresh(name: str, opener, maker):
        """A private table in the workload's starting state."""
        path = os.path.join(workdir, name)
        if records:
            shutil.copyfile(base, path)
            return opener(path, cachesize=cachesize)
        return maker(path, **create)

    def engine(name: str):
        return fresh(name, HashTable.open_file, HashTable.create)

    table = engine("capture.db")
    trace = _capture_buffer_trace(table, stream)
    table.close()

    single = _Single(engine("single.db"))
    batched = _Batched(engine("batched.db"))
    facade = _Single(fresh(
        "facade.db",
        lambda path, **kw: repro.open(path, "w", **kw),
        lambda path, **kw: repro.open(path, "n", **kw),
    ))
    rungs = [single, batched, facade]
    try:
        _lockstep(rungs, stream)
    finally:
        for rung in rungs:
            rung.db.close()

    path = os.path.join(workdir, "buffer.db")
    if records:
        shutil.copyfile(base, path)
    buffer = _replay_buffer(path, bsize, cachesize, trace, create=not records)

    n = max(1, len(stream))
    return {
        "failed": single.failed + batched.failed + facade.failed,
        "attempted": 3 * len(stream),
        "metrics": {
            "core.buffer.get_ns": buffer["get_ns"],
            "core.table.get_us_p50": percentile(sorted(single.get_ns), 0.5) / 1e3,
            "core.table.put_us_p50": percentile(sorted(single.put_ns), 0.5) / 1e3,
            "core.table.batch_vs_single": _speed_ratio(batched, single),
            "core.table.bulk_load_ops_per_s": len(items) / bulk_s,
            "access.facade_tax": 1.0 - _speed_ratio(facade, single),
        },
        # microseconds per op of the stream, cumulative from the bottom rung up
        "rungs_us_per_op": {
            "open_pager": buffer["storage_s"] / n * 1e6,
            "BufferPool": buffer["total_s"] / n * 1e6,
            "HashTable.single": sum(single.chunk_s) / n * 1e6,
            "HashTable.batched": sum(batched.chunk_s) / n * 1e6,
            "repro.open": sum(facade.chunk_s) / n * 1e6,
        },
    }


# -- serve ------------------------------------------------------------------------


def _protocol_costs(keys: list[bytes], value: bytes, batch: bool, reps: int) -> dict:
    """Encode and decode cost of the frames one GET exchange needs --
    request and response, single-op or one BATCH of ``len(keys)``."""
    n = len(keys)
    if batch:
        def encode_request():
            return proto.encode_frame(
                proto.OP_BATCH, 7, proto.encode_batch([(proto.OP_GET, k) for k in keys])
            )

        def encode_response():
            return proto.encode_frame(
                proto.ST_OK, 7, proto.encode_batch_results([(proto.ST_OK, value)] * n)
            )

        def decode_request(frame):
            for _op, rid, payload in proto.FrameDecoder().feed(frame):
                proto.decode_batch(payload, rid)

        def decode_response(frame):
            for _st, rid, payload in proto.FrameDecoder().feed(frame):
                proto.decode_batch_results(payload, rid)
    else:
        def encode_request():
            return b"".join(proto.encode_frame(proto.OP_GET, 7, k) for k in keys)

        def encode_response():
            return b"".join(proto.encode_frame(proto.ST_OK, 7, value) for _ in keys)

        def decode_request(frame):
            proto.FrameDecoder().feed(frame)

        decode_response = decode_request

    request, response = encode_request(), encode_response()
    t0 = perf_counter_ns()
    for _ in range(reps):
        encode_request()
        encode_response()
    t1 = perf_counter_ns()
    for _ in range(reps):
        decode_request(request)
        decode_response(response)
    t2 = perf_counter_ns()
    return {
        "serve.protocol.encode_ns_per_op": (t1 - t0) / (reps * n),
        "serve.protocol.decode_ns_per_op": (t2 - t1) / (reps * n),
        "serve.protocol.bytes_per_op": (len(request) + len(response)) / n,
    }


def _batcher_inproc(db, plans: list[list], depth: int) -> float:
    """Drive ``Batcher`` with no socket: one task per connection plan,
    each keeping ``depth`` submissions outstanding.  A plan entry is
    ``(kind, keys, values)``; one key means a single-op submit."""

    async def drive() -> float:
        batcher = Batcher(db, max_batch=MAX_BATCH)
        batcher.start()

        async def connection(plan) -> None:
            pending: deque = deque()
            for kind, keys, values in plan:
                if len(pending) == depth:
                    await pending.popleft()
                if len(keys) == 1:
                    pending.append(batcher.submit(kind, keys[0], values[0]))
                else:
                    pending.append(batcher.submit_run(kind, keys, values))
            while pending:
                await pending.popleft()

        t0 = perf_counter()
        await asyncio.gather(*(connection(plan) for plan in plans))
        seconds = perf_counter() - t0
        await batcher.stop()
        return seconds

    ops = sum(len(keys) for plan in plans for _, keys, _ in plan)
    return ops / asyncio.run(drive())


def serve_ladder(wl, workdir: str, loopback_ops_per_s: float) -> dict:
    """Protocol, in-process coalescer and ping rungs under a served
    workload; ``wl`` supplies the frame plans it sends over the socket."""
    os.makedirs(workdir, exist_ok=True)
    rec = wl.rec
    frame = wl.gets_per_frame
    metrics = _protocol_costs(
        rec.keys[:frame], rec.value(0), batch=frame > 1, reps=max(300, 5000 // frame)
    )

    rtts = []
    for _ in range(300):
        t0 = perf_counter_ns()
        wl.ctl.ping(b"x")
        rtts.append(perf_counter_ns() - t0)
    metrics["serve.server.ping_rtt_us_p50"] = percentile(sorted(rtts), 0.5) / 1e3

    # the in-process rung gets a table of its own in the server's current
    # state: versions live in ``rec``, so load what it says is current
    path = os.path.join(workdir, "inproc.db")
    wl.preload(path)
    db = db_open(
        path, "hash", "w", concurrent=True, durability=wl.table["durability"],
        cachesize=wl.table["cachesize"],
    )
    try:
        rate = _batcher_inproc(db, wl.inproc_plans(), wl.depth)
    finally:
        db.close()
    metrics["serve.batching.inproc_ops_per_s"] = rate
    metrics["serve.server.socket_tax"] = 1.0 - loopback_ops_per_s / rate
    return {"metrics": metrics}


# -- shard ------------------------------------------------------------------------


def shard_ladder(wl, workdir: str, two_shard_ops_per_s: float) -> dict:
    """The same batches in-process and through one shard, under the
    workload's own two-shard section."""
    os.makedirs(workdir, exist_ok=True)
    batches = max(2, wl.n_window // wl.batch)
    rates = {}
    failed = attempted = 0
    for label, shards in (("in_process", None), ("one_shard", 1)):
        db = wl.create(os.path.join(workdir, f"{label}.db"), shards)
        try:
            db.bulk_load(wl.rec.items(), nelem=wl.rec.n)
            sec = Section()
            t0 = perf_counter()
            wl.run_batches(db, sec, 0, batches)
            rates[label] = sec.attempted / (perf_counter() - t0)
            failed += sec.failed
            attempted += sec.attempted
        finally:
            db.close()
    return {
        "failed": failed,
        "attempted": attempted,
        "metrics": {
            "shard.one_shard_ratio": rates["one_shard"] / rates["in_process"],
            "shard.scaling_2": two_shard_ops_per_s / rates["one_shard"],
        },
        "rungs_us_per_op": {
            "in_process batched": 1e6 / rates["in_process"],
            "1 shard": 1e6 / rates["one_shard"],
            "2 shards": 1e6 / two_shard_ops_per_s,
        },
    }
