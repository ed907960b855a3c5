"""The request coalescer: pipelined ops from every connection funnel
into the engine's batch API.

Each decoded operation becomes part of one :class:`_Run` on a single
FIFO queue, in network-arrival order; the dispatcher task drains the
queue, cuts a batch at the first *incompatible* run (different kind, or
a different ``replace`` flag), and executes the whole thing on the
event-loop thread through ``put_many``/``get_many`` -- one lock
acquisition, one page-pin cycle and one trace span per batch instead of
per op.

Single ops (``submit``) are runs of one.  A BATCH frame's consecutive
same-kind sub-ops arrive as one multi-op run (``submit_run``): one
future and one queue entry for the whole stretch, which is what makes
the pipelined-BATCH path cheap -- the per-op cost is a list append, not
an ``asyncio.Future``.

Correctness comes from two invariants:

- **arrival order is execution order**: batches are cut, never
  reordered, so the engine sees the exact global sequence the network
  delivered and per-key outcomes stay linearizable;
- **acks follow durability**: on a table opened with
  ``durability='wal'``/``'wal+fsync'`` every mutating batch runs inside
  an explicit transaction, and the op futures resolve only after
  ``commit()`` returned -- an acknowledged write has reached the log
  before the client hears about it.

The dispatcher is strictly one-batch-at-a-time and calls the engine
directly, with no thread hop: every table access the server makes runs
on the one event-loop thread, which is what makes the transaction
wrapping safe (transactions are thread-affine).  The cost is that an
engine batch blocks the loop for its duration -- a commit's fsync, or a
shard round trip on a sharded table, included.
"""

from __future__ import annotations

import asyncio
import time

__all__ = ["Batcher"]

#: queue sentinel that tells the dispatcher to exit
_STOP = object()


class _Run:
    """A stretch of same-kind ops sharing one future.

    ``single`` runs resolve to their only op's result; multi-op runs
    resolve to the list of per-op results, in order.
    """

    __slots__ = ("kind", "keys", "values", "replace", "future", "single",
                 "span_id", "t_submit")

    def __init__(self, kind, keys, values, replace, future, single,
                 span_id=None, t_submit=0.0):
        self.kind = kind
        self.keys = keys
        self.values = values
        self.replace = replace
        self.future = future
        self.single = single
        #: request span id when the submitting request is traced -- the
        #: causal hook the coalescer hangs queue_wait/batch_exec spans on
        self.span_id = span_id
        self.t_submit = t_submit


class Batcher:
    """Funnel ops from all connections into the engine's batch API.

    ``submit``/``submit_run`` are called from the event-loop thread and
    return a future resolving to the op's result (or the run's result
    list): the value (or None) for ``get``, ``True``/``False`` stored
    for ``put``, ``True``/``False`` found for ``delete``.  ``obs`` is an
    optional :class:`~repro.obs.registry.Registry` node for coalescing
    metrics.
    """

    def __init__(self, db, *, max_batch: int = 512, obs=None) -> None:
        self.db = db
        self.max_batch = max_batch
        self.queue: asyncio.Queue = asyncio.Queue()
        self._held = None
        self._task: asyncio.Task | None = None
        self._closing = False
        #: explicit transactions wrap write batches only when the table has a WAL
        self.transactional = getattr(db, "durability", "none") in ("wal", "wal+fsync")
        if obs is not None:
            self._c_batches = obs.counter("batches")
            self._c_ops = obs.counter("ops")
            self._h_size = obs.histogram("batch_size", unit="ops")
        else:
            from repro.obs.registry import NULL_COUNTER, NULL_HISTOGRAM

            self._c_batches = self._c_ops = NULL_COUNTER
            self._h_size = NULL_HISTOGRAM
        if obs is not None:
            # live pressure: ops waiting in the queue right now (runs
            # count their ops), plus the held-back incompatible run
            obs.gauge("queue_depth").set_function(self._depth)

    def _depth(self) -> int:
        return self.queue.qsize() + (1 if self._held is not None else 0)

    # -- event-loop side ---------------------------------------------------------

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Drain every already-submitted op, then stop the dispatcher."""
        if self._task is None:
            return
        self._closing = True
        self.queue.put_nowait(_STOP)
        await self._task
        self._task = None

    def submit(self, kind: str, key=None, value=None, replace: bool = True,
               span_id: int | None = None):
        """Enqueue one op; returns a future for its result.  Calls must
        come from the event-loop thread (ops are ordered by this call).
        ``span_id`` parents this op's coalescer spans when traced."""
        if self._closing:
            raise RuntimeError("server is shutting down")
        fut = asyncio.get_running_loop().create_future()
        t_sub = time.perf_counter() if span_id is not None else 0.0
        self.queue.put_nowait(
            _Run(kind, (key,), (value,), replace, fut, True, span_id, t_sub)
        )
        return fut

    def submit_run(self, kind: str, keys, values=None, replace: bool = True,
                   span_id: int | None = None):
        """Enqueue a stretch of same-kind ops as ONE queue entry; returns
        a future resolving to the list of per-op results.  ``values`` is
        the parallel list for puts (ignored for get/delete)."""
        if self._closing:
            raise RuntimeError("server is shutting down")
        fut = asyncio.get_running_loop().create_future()
        if values is None:
            values = (None,) * len(keys)
        t_sub = time.perf_counter() if span_id is not None else 0.0
        self.queue.put_nowait(
            _Run(kind, keys, values, replace, fut, False, span_id, t_sub)
        )
        return fut

    # -- the dispatcher ----------------------------------------------------------

    @staticmethod
    def _compatible(a: _Run, b: _Run) -> bool:
        return a.kind == b.kind and (a.kind != "put" or a.replace == b.replace)

    async def _run(self) -> None:
        while True:
            run = self._held
            self._held = None
            if run is None:
                run = await self.queue.get()
            if run is _STOP:
                return
            batch = [run]
            total = len(run.keys)
            while total < self.max_batch:
                try:
                    nxt = self.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is _STOP or not self._compatible(run, nxt):
                    self._held = nxt
                    break
                batch.append(nxt)
                total += len(nxt.keys)
            self._c_batches.inc()
            self._c_ops.inc(total)
            self._h_size.observe(total)
            if len(batch) == 1:
                keys, values = run.keys, run.values
            else:
                keys = [k for r in batch for k in r.keys]
                values = [v for r in batch for v in r.values]
            # One engine batch may serve N traced requests: per-request
            # queue_wait spans close here, one coalesce.exec span linked
            # to every member covers the engine work, and per-request
            # batch_exec spans attribute that shared interval back to
            # each request after it finishes.
            tracer = getattr(self.db, "tracer", None)
            bspan = None
            members = ()
            if tracer is not None and tracer.enabled:
                members = [r for r in batch if r.span_id is not None]
            if members:
                now = time.perf_counter()
                for r in members:
                    tracer.complete(
                        "queue_wait", r.t_submit, now - r.t_submit, "serve",
                        {"ops": len(r.keys)}, parent_id=r.span_id,
                    )
                bspan = tracer.open_span(
                    "coalesce.exec", "serve",
                    {"kind": run.kind, "runs": len(batch), "ops": total},
                    links=[r.span_id for r in members],
                )
            t_exec = time.perf_counter() if bspan is not None else 0.0
            try:
                results = self._execute(run.kind, keys, values, run.replace, bspan)
            except Exception as exc:  # noqa: BLE001 - relayed per run
                if bspan is not None:
                    tracer.close_span(bspan, {"error": type(exc).__name__})
                for r in batch:
                    if not r.future.done():
                        r.future.set_exception(exc)
            else:
                if bspan is not None:
                    t_done = time.perf_counter()
                    tracer.close_span(bspan)
                    for r in members:
                        tracer.complete(
                            "batch_exec", t_exec, t_done - t_exec, "serve",
                            {"ops": len(r.keys)}, parent_id=r.span_id,
                        )
                off = 0
                for r in batch:
                    n = len(r.keys)
                    if not r.future.done():
                        r.future.set_result(
                            results[off] if r.single else results[off : off + n]
                        )
                    off += n

    # -- engine side -------------------------------------------------------------

    def _execute(self, kind: str, keys, values, replace: bool, bspan=None) -> list:
        if bspan is not None:
            # lend the coalescer's detached span to the loop thread so
            # engine spans (put_many, lock_wait, wal_fsync...) nest under it
            with self.db.tracer.attach(bspan):
                return self._execute_ops(kind, keys, values, replace)
        return self._execute_ops(kind, keys, values, replace)

    def _execute_ops(self, kind: str, keys, values, replace: bool) -> list:
        db = self.db
        if kind == "get":
            return db.get_many(keys)
        if kind == "put":
            if self.transactional:
                with db.transaction():
                    return self._do_puts(keys, values, replace)
            return self._do_puts(keys, values, replace)
        if kind == "delete":
            if self.transactional:
                with db.transaction():
                    return [db.delete(k) == 0 for k in keys]
            return [db.delete(k) == 0 for k in keys]
        raise ValueError(f"unknown op kind {kind!r}")

    def _do_puts(self, keys, values, replace: bool) -> list:
        db = self.db
        if replace:
            db.put_many(list(zip(keys, values)))
            return [True] * len(keys)
        # replace=False needs the per-key existed/stored verdict, which the
        # aggregate count from put_many cannot give back
        return [db.put(k, v, replace=False) == 0 for k, v in zip(keys, values)]
