"""The asyncio key-value server: pipelined binary protocol over one table.

One :class:`Server` owns a database handle (any access method), a
:class:`~repro.serve.batching.Batcher` that coalesces pipelined ops from
every connection into the engine's batch API, a TCP listener speaking
the :mod:`repro.serve.protocol` framing, and an optional HTTP/JSON +
Prometheus facade on a second port (:mod:`repro.serve.httpd`).  Every
table call the server makes -- batches, ``stat()``, the final
checkpoint -- runs on the event-loop thread, so the table needs no
``concurrent=True`` locking unless code outside the server shares it.

Flow control is per connection and two-layered:

- a **bounded inflight window** (``max_inflight``): the read loop stops
  pulling bytes off the socket while that many requests are being
  served, so one firehose client cannot queue unbounded work;
- **write draining**: every response write awaits ``drain()``, so a
  client that stops reading stalls its own responses (and, once the
  window fills, its own requests) instead of growing the server's
  buffers.

Graceful shutdown (``stop()``) stops accepting, waits for open
connections to drain (bounded by ``drain_timeout``, then force-closes),
retires the batcher, checkpoints/syncs the table and -- when the server
owns the handle -- closes it.

Request latency is recorded twice: into ``server.latency.<op>``
millisecond histograms (exported by ``/metrics``), and -- whenever the
table's tracer is enabled -- as ``serve.<op>`` spans with a ``time_ms``
payload in the shared flight recorder, so ``repro.tools top`` ranks
server ops alongside engine ops (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass

from repro.obs.registry import Registry
from repro.serve import protocol as proto
from repro.serve.batching import Batcher
from repro.serve.protocol import FrameDecoder, ProtocolError

__all__ = ["ServerConfig", "Server", "ServerThread"]

#: opcode -> short span/metric name
OP_NAMES = {
    proto.OP_PING: "ping",
    proto.OP_GET: "get",
    proto.OP_PUT: "put",
    proto.OP_DELETE: "delete",
    proto.OP_BATCH: "batch",
    proto.OP_STAT: "stat",
}


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    #: 0 picks an ephemeral port (read it back from ``server.port``)
    port: int = 0
    #: None disables the HTTP facade; 0 picks an ephemeral port
    http_port: int | None = None
    max_frame: int = proto.DEFAULT_MAX_FRAME
    #: per-connection bounded inflight window (backpressure)
    max_inflight: int = 128
    #: largest run the coalescer hands to put_many/get_many at once
    max_batch: int = 512
    #: seconds stop() waits for connections to drain before force-closing
    drain_timeout: float = 5.0
    #: capture requests slower than this many ms into the slow log
    #: (``/debug/slow``, ``repro.tools slow``); None disables capture
    slow_ms: float | None = None
    #: slow-log ring size (oldest captures fall out first)
    slow_capacity: int = 64
    #: sampling interval (seconds) for the ``/debug/timeseries`` ring;
    #: the sampler only runs while the HTTP facade is up, and <= 0
    #: disables it entirely
    timeseries_interval: float = 1.0
    #: samples kept in the time-series ring
    timeseries_retention: int = 120


class _Conn:
    """Per-connection state: decoder, inflight window, write lock."""

    __slots__ = ("reader", "writer", "decoder", "inflight", "wlock", "tasks")

    def __init__(self, reader, writer, config: ServerConfig) -> None:
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder(config.max_frame)
        self.inflight = asyncio.Semaphore(config.max_inflight)
        self.wlock = asyncio.Lock()
        self.tasks: set[asyncio.Task] = set()


class Server:
    """The serving layer over one open database handle.

    ``owns_db=True`` makes :meth:`stop` close the handle after the final
    checkpoint; otherwise the caller keeps ownership.
    """

    def __init__(self, db, config: ServerConfig | None = None, *, owns_db: bool = False) -> None:
        self.db = db
        self.config = config or ServerConfig()
        self.owns_db = owns_db
        self.registry = Registry("server").make_threadsafe()
        self._lat = self.registry.child("latency")
        self._ops = self.registry.child("ops")
        self._errors = self.registry.counter("errors")
        self._conn_total = self.registry.counter("connections_total")
        self.batcher = Batcher(
            db, max_batch=self.config.max_batch, obs=self.registry.child("batch")
        )
        self._conns: set[_Conn] = set()
        self._server: asyncio.base_events.Server | None = None
        self._http: asyncio.base_events.Server | None = None
        self._closing = False
        self._drained = asyncio.Event()
        self.port: int | None = None
        self.http_port: int | None = None
        #: requests inside the inflight window right now, across all conns
        self._inflight = 0
        self.registry.gauge("connections_active").set_function(lambda: len(self._conns))
        self.registry.gauge("inflight").set_function(lambda: self._inflight)
        self.slowlog = None
        if self.config.slow_ms is not None:
            from repro.obs.slowlog import SlowLog

            self.slowlog = SlowLog(
                self.config.slow_ms, self.config.slow_capacity
            ).make_threadsafe()
        #: built in start() when the HTTP facade (its only consumer) is up
        self.timeseries = None
        self._ts_task: asyncio.Task | None = None

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        cfg = self.config
        self.batcher.start()
        self._server = await asyncio.start_server(self._on_conn, cfg.host, cfg.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if cfg.http_port is not None:
            from repro.serve.httpd import handle_http

            async def on_http(reader, writer):
                await handle_http(self, reader, writer)

            self._http = await asyncio.start_server(on_http, cfg.host, cfg.http_port)
            self.http_port = self._http.sockets[0].getsockname()[1]
            if cfg.timeseries_interval > 0:
                from repro.obs.timeseries import TimeSeries

                self.timeseries = TimeSeries(
                    self.stat,
                    interval=cfg.timeseries_interval,
                    retention=cfg.timeseries_retention,
                )
                self.timeseries.sample()  # baseline: primes the deltas
                self._ts_task = asyncio.get_running_loop().create_task(
                    self._sample_timeseries()
                )

    async def _sample_timeseries(self) -> None:
        """Periodic sampler behind ``/debug/timeseries``: one ``stat()``
        per interval, taken on the loop thread."""
        while True:
            await asyncio.sleep(self.timeseries.interval)
            self.timeseries.sample()

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, checkpoint, close."""
        if self._closing:
            return
        self._closing = True
        if self._ts_task is not None:
            self._ts_task.cancel()
            try:
                await self._ts_task
            except asyncio.CancelledError:
                pass
            self._ts_task = None
        for listener in (self._server, self._http):
            if listener is not None:
                listener.close()
        if self._server is not None:
            await self._server.wait_closed()
        if self._http is not None:
            await self._http.wait_closed()
        # Drain: connections finish naturally as clients disconnect; after
        # the timeout, force-close whatever is left.
        if self._conns:
            self._drained.clear()
            try:
                await asyncio.wait_for(
                    self._drained.wait(), timeout=self.config.drain_timeout
                )
            except asyncio.TimeoutError:
                for conn in list(self._conns):
                    conn.writer.close()
                while self._conns:
                    await asyncio.sleep(0)
        await self.batcher.stop()
        self._final_sync()

    def _final_sync(self) -> None:
        db = self.db
        try:
            if getattr(db, "durability", "none") in ("wal", "wal+fsync"):
                db.checkpoint()
            else:
                db.sync()
        finally:
            if self.owns_db:
                db.close()

    # -- observability -----------------------------------------------------------

    def stat(self) -> dict:
        """The combined metric tree: ``server`` (this layer) + ``db``."""
        return {"server": self.registry.as_dict(), "db": self.db.stat()}

    def _observe(self, name: str, t0: float, status: int, span=None) -> None:
        dur = time.perf_counter() - t0
        self._lat.histogram(name, unit="ms").observe(dur * 1e3)
        self._ops.counter(name).inc()
        if status in proto.ERROR_STATUSES:
            self._errors.inc()
        tracer = getattr(self.db, "tracer", None)
        traced = tracer is not None and tracer.enabled
        if traced:
            if span is not None:
                # close the request's root span (opened before dispatch so
                # the coalescer could parent its queue_wait/batch_exec
                # spans on it); time_ms mirrors the recorded dur exactly
                span.t1 = tracer.now()
                span.attrs["time_ms"] = round((span.t1 - span.t0) * 1e3, 3)
                span.attrs["status"] = status
                tracer._record_span(span)
            else:
                # tracing flipped on mid-request: fall back to the
                # pre-measured span so the op still shows up
                tracer.complete(
                    "serve." + name,
                    t0,
                    dur,
                    "serve",
                    {"time_ms": round(dur * 1e3, 3), "status": status},
                )
        slowlog = self.slowlog
        if slowlog is not None:
            if traced and span is not None:
                slowlog.observe(
                    "serve." + name,
                    dur * 1e3,
                    status=status,
                    root_span_id=span.id,
                    recorder=tracer.recorder,
                )
            else:
                slowlog.observe("serve." + name, dur * 1e3, status=status)

    # -- the KV listener ---------------------------------------------------------

    async def _on_conn(self, reader, writer) -> None:
        conn = _Conn(reader, writer, self.config)
        self._conns.add(conn)
        self._conn_total.inc()
        try:
            await self._read_loop(conn)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if conn.tasks:
                await asyncio.gather(*conn.tasks, return_exceptions=True)
            self._conns.discard(conn)
            if not self._conns:
                self._drained.set()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_loop(self, conn: _Conn) -> None:
        while True:
            data = await conn.reader.read(65536)
            if not data:
                return
            try:
                frames = conn.decoder.feed(data)
            except ProtocolError as exc:
                # framing broken: answer once, typed, then disconnect
                await self._send(
                    conn, exc.status, exc.request_id, str(exc).encode()
                )
                self._errors.inc()
                return
            for frame in frames:
                opcode, request_id, payload = frame
                await conn.inflight.acquire()  # bounded inflight window
                self._inflight += 1
                task = asyncio.get_running_loop().create_task(
                    self._serve_request(
                        conn, opcode, request_id, payload, frame.trace
                    )
                )
                conn.tasks.add(task)
                task.add_done_callback(conn.tasks.discard)

    async def _send(self, conn: _Conn, status: int, request_id: int, payload: bytes) -> None:
        frame = proto.encode_frame(status, request_id, payload)
        try:
            async with conn.wlock:
                conn.writer.write(frame)
                await conn.writer.drain()  # write-drain backpressure
        except (ConnectionError, OSError):
            pass  # client went away; its futures are already resolved

    async def _serve_request(
        self,
        conn: _Conn,
        opcode: int,
        request_id: int,
        payload: bytes,
        trace: tuple[int, int] | None = None,
    ) -> None:
        t0 = time.perf_counter()
        name = OP_NAMES.get(opcode, "unknown")
        status = proto.ST_SERVER_ERROR
        tracer = getattr(self.db, "tracer", None)
        span = None
        if tracer is not None and tracer.enabled:
            # open (don't stack) the request's root span now so its id can
            # parent the coalescer's spans; a v2 frame's wire context makes
            # this server span a continuation of the client's trace
            attrs: dict = {"rid": request_id}
            if trace is not None:
                attrs["trace_id"] = f"{trace[0]:016x}"
                attrs["remote_span"] = trace[1]
            span = tracer.open_span("serve." + name, "serve", attrs)
        try:
            try:
                status, body = await self._dispatch(opcode, request_id, payload, span)
            except ProtocolError as exc:
                status, body = exc.status, str(exc).encode()
            except Exception as exc:  # noqa: BLE001 - typed to the client
                body = f"{type(exc).__name__}: {exc}".encode()
            await self._send(conn, status, request_id, body)
        finally:
            conn.inflight.release()
            self._inflight -= 1
            self._observe(name, t0, status, span)

    async def _dispatch(
        self, opcode: int, request_id: int, payload: bytes, span=None
    ) -> tuple[int, bytes]:
        sid = span.id if span is not None else None
        if opcode == proto.OP_PING:
            return proto.ST_OK, payload
        if opcode == proto.OP_GET:
            if not payload:
                raise ProtocolError("empty key", request_id=request_id)
            value = await self.batcher.submit("get", payload, span_id=sid)
            if value is None:
                return proto.ST_NOT_FOUND, b""
            return proto.ST_OK, value
        if opcode == proto.OP_PUT:
            key, value, replace = proto.decode_put(payload, request_id)
            stored = await self.batcher.submit(
                "put", key, value, replace, span_id=sid
            )
            return proto.ST_OK, b"\x01" if stored else b"\x00"
        if opcode == proto.OP_DELETE:
            if not payload:
                raise ProtocolError("empty key", request_id=request_id)
            found = await self.batcher.submit("delete", payload, span_id=sid)
            if found:
                return proto.ST_OK, b"\x01"
            return proto.ST_NOT_FOUND, b"\x00"
        if opcode == proto.OP_BATCH:
            return await self._dispatch_batch(payload, request_id, span)
        if opcode == proto.OP_STAT:
            return proto.ST_OK, json.dumps(self.stat(), default=repr).encode()
        raise ProtocolError(
            f"unknown opcode 0x{opcode:02X}", request_id=request_id
        )

    async def _dispatch_batch(
        self, payload: bytes, request_id: int, span=None
    ) -> tuple[int, bytes]:
        # Decode the WHOLE frame before submitting anything: a malformed
        # sub-op rejects the frame without half its ops already queued.
        decoded: list[tuple[str, bytes, bytes | None, bool]] = []
        for opcode, body in proto.decode_batch(payload, request_id):
            if opcode == proto.OP_PUT:
                key, value, replace = proto.decode_put(body, request_id)
                decoded.append(("put", key, value, replace))
            else:  # OP_GET / OP_DELETE (decode_batch validated the opcode set)
                if not body:
                    raise ProtocolError("empty key in BATCH", request_id=request_id)
                kind = "get" if opcode == proto.OP_GET else "delete"
                decoded.append((kind, body, None, True))
        # Group consecutive same-kind (same-replace for puts) sub-ops into
        # runs: one future per run, submitted in one synchronous burst so
        # the coalescer sees them contiguously and in order (sequential
        # semantics within the batch: a GET after a PUT of the same key
        # sees the new value).
        # The whole BATCH frame carries ONE trace context (the request
        # span); each run gets its own child span so sub-op stretches are
        # distinguishable in the trace, and the run span's id -- not the
        # frame's -- parents that run's queue_wait/batch_exec spans.
        tracer = getattr(self.db, "tracer", None) if span is not None else None
        if tracer is not None and not tracer.enabled:
            tracer = None
        runs: list[tuple[str, int, "asyncio.Future", object]] = []
        i = 0
        while i < len(decoded):
            kind, _, _, replace = decoded[i]
            j = i + 1
            while (
                j < len(decoded)
                and decoded[j][0] == kind
                and (kind != "put" or decoded[j][3] == replace)
            ):
                j += 1
            run_span = None
            if tracer is not None:
                run_span = tracer.open_span(
                    f"batch.run.{kind}", "serve", {"ops": j - i},
                    parent_id=span.id,
                )
            fut = self.batcher.submit_run(
                kind,
                [d[1] for d in decoded[i:j]],
                [d[2] for d in decoded[i:j]],
                replace,
                span_id=run_span.id if run_span is not None else None,
            )
            runs.append((kind, j - i, fut, run_span))
            i = j
        results: list[tuple[int, bytes]] = []
        for kind, count, fut, run_span in runs:
            try:
                values = await fut
            except Exception as exc:  # noqa: BLE001 - typed per sub-op
                if run_span is not None:
                    tracer.close_span(run_span, {"error": type(exc).__name__})
                err = (proto.ST_SERVER_ERROR, f"{type(exc).__name__}: {exc}".encode())
                results.extend([err] * count)
                continue
            if run_span is not None:
                tracer.close_span(run_span)
            if kind == "get":
                results.extend(
                    (proto.ST_NOT_FOUND, b"") if v is None else (proto.ST_OK, v)
                    for v in values
                )
            elif kind == "put":
                results.extend(
                    (proto.ST_OK, b"\x01" if v else b"\x00") for v in values
                )
            else:
                results.extend(
                    (proto.ST_OK, b"\x01") if v else (proto.ST_NOT_FOUND, b"\x00")
                    for v in values
                )
        return proto.ST_OK, proto.encode_batch_results(results)


class ServerThread:
    """The reusable in-process server: a :class:`Server` on a private
    event loop in a daemon thread.

    This is the fixture the test harness and benchmarks build on::

        with ServerThread(db, ServerConfig(port=0)) as st:
            client = Client(port=st.port)

    ``start()`` blocks until the listeners are bound (or re-raises the
    startup error); ``stop()`` runs the server's graceful shutdown on
    its loop, then joins the thread.
    """

    def __init__(self, db, config: ServerConfig | None = None, *, owns_db: bool = False) -> None:
        self.server = Server(db, config, owns_db=owns_db)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def http_port(self) -> int | None:
        return self.server.http_port

    def start(self) -> "ServerThread":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server thread did not start")
        if self._startup_error is not None:
            self._thread.join(timeout=5)
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:  # noqa: BLE001 - re-raised in start()
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            loop.close()

    def stop(self) -> None:
        loop, thread = self._loop, self._thread
        if loop is None or thread is None or not thread.is_alive():
            return
        fut = asyncio.run_coroutine_threadsafe(self.server.stop(), loop)
        fut.result(timeout=60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
