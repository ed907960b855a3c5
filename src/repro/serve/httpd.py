"""The HTTP/JSON + Prometheus facade of :class:`repro.serve.server.Server`.

A deliberately tiny HTTP/1.0-style handler (one request per connection,
``Connection: close``) so the server needs no web framework to be
scrape-able and curl-able:

========  =================  ==============================================
method    path               behavior
========  =================  ==============================================
GET       /metrics           Prometheus text exposition of ``server.stat()``
GET       /stat              the same tree as JSON
GET       /healthz           ``ok`` (liveness)
GET       /trace             flight-recorder NDJSON (404 unless tracing on)
GET       /debug/slow        slow-request captures, JSON (404 unless --slow-ms)
GET       /debug/timeseries  metric-delta ring, JSON (404 unless sampling on)
GET       /kv/<key>          value bytes, 404 when absent
PUT       /kv/<key>          body is the value; 204 on store
DELETE    /kv/<key>          204 on delete, 404 when absent
========  =================  ==============================================

Keys are percent-decoded to raw bytes, so any key the engine accepts is
addressable.  The KV routes go through the server's batcher -- the HTTP
facade and the binary protocol share one op stream, one set of metrics
and the same durability (ack-after-commit) contract.
"""

from __future__ import annotations

import json
from urllib.parse import unquote_to_bytes

from repro.obs.export import to_ndjson, to_prometheus

__all__ = ["handle_http"]

_MAX_REQUEST_LINE = 8192
_MAX_HEADER_BYTES = 32768

_REASONS = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


async def _respond(
    writer, status: int, body: bytes = b"", content_type: str = "text/plain; charset=utf-8"
) -> None:
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + body)
    await writer.drain()


async def handle_http(server, reader, writer) -> None:
    try:
        try:
            status, body, ctype = await _handle(server, reader)
        except Exception as exc:  # noqa: BLE001 - typed to the client
            status = 500
            body = f"{type(exc).__name__}: {exc}".encode()
            ctype = "text/plain; charset=utf-8"
        await _respond(writer, status, body, ctype)
    except (ConnectionError, OSError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _handle(server, reader) -> tuple[int, bytes, str]:
    text = "text/plain; charset=utf-8"
    line = await reader.readline()
    if not line or len(line) > _MAX_REQUEST_LINE:
        return 400, b"bad request line", text
    parts = line.decode("latin-1", "replace").split()
    if len(parts) != 3:
        return 400, b"bad request line", text
    method, target, _version = parts
    content_length = 0
    seen = 0
    while True:
        header = await reader.readline()
        seen += len(header)
        if seen > _MAX_HEADER_BYTES:
            return 400, b"headers too large", text
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1", "replace").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                return 400, b"bad content-length", text
    if content_length > server.config.max_frame:
        return 413, b"body exceeds the frame limit", text
    body = await reader.readexactly(content_length) if content_length else b""

    path = target.split("?", 1)[0]
    if path == "/healthz":
        if method != "GET":
            return 405, b"method not allowed", text
        return 200, b"ok\n", text
    if path == "/metrics":
        if method != "GET":
            return 405, b"method not allowed", text
        exposition = to_prometheus(server.stat()).encode()
        return 200, exposition, "text/plain; version=0.0.4; charset=utf-8"
    if path == "/stat":
        if method != "GET":
            return 405, b"method not allowed", text
        return 200, json.dumps(server.stat(), default=repr).encode(), "application/json"
    if path == "/trace":
        if method != "GET":
            return 405, b"method not allowed", text
        tracer = getattr(server.db, "tracer", None)
        if tracer is None or not tracer.enabled:
            return 404, b"tracing is not enabled on the served table\n", text
        return 200, to_ndjson(tracer.recorder.events()).encode(), "application/x-ndjson"
    if path == "/debug/slow":
        if method != "GET":
            return 405, b"method not allowed", text
        slowlog = server.slowlog
        if slowlog is None:
            return 404, b"slow-op capture is not enabled (start with --slow-ms)\n", text
        return (
            200,
            json.dumps(slowlog.as_dict(), default=repr).encode(),
            "application/json",
        )
    if path == "/debug/timeseries":
        if method != "GET":
            return 405, b"method not allowed", text
        ts = server.timeseries
        if ts is None:
            return 404, b"time-series sampling is not enabled\n", text
        return 200, json.dumps(ts.as_dict()).encode(), "application/json"
    if path.startswith("/kv/"):
        key = unquote_to_bytes(path[len("/kv/") :])
        if not key:
            return 400, b"empty key", text
        if method == "GET":
            value = await server.batcher.submit("get", key)
            if value is None:
                return 404, b"not found\n", text
            return 200, value, "application/octet-stream"
        if method == "PUT":
            await server.batcher.submit("put", key, body, True)
            return 204, b"", text
        if method == "DELETE":
            found = await server.batcher.submit("delete", key)
            if not found:
                return 404, b"not found\n", text
            return 204, b"", text
        return 405, b"method not allowed", text
    return 404, b"not found\n", text
