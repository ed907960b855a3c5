"""HTTP facade hardening: concurrent scrapes under write load, method
and path rejection, the /debug endpoints, and a lint-clean /metrics."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.promlint import lint
from repro.serve.client import Client
from repro.serve.server import ServerConfig


def _get(st, path: str, timeout: float = 10.0):
    url = f"http://127.0.0.1:{st.http_port}{path}"
    with urllib.request.urlopen(url, timeout=timeout) as r:
        return r.status, r.read()


def _status_of(st, path: str, method: str = "GET") -> int:
    conn = http.client.HTTPConnection("127.0.0.1", st.http_port, timeout=10)
    try:
        conn.request(method, path)
        return conn.getresponse().status
    finally:
        conn.close()


class TestConcurrentScrapes:
    def test_metrics_and_stat_during_write_load(self, server_factory):
        """/metrics and /stat keep answering -- and parsing -- while the
        binary port takes a write-heavy workload."""
        st = server_factory(http=True)
        stop = threading.Event()
        errors: list = []

        def writer(seed: int):
            try:
                with Client(port=st.port) as c:
                    i = 0
                    while not stop.is_set():
                        c.batch(
                            [
                                ("put", b"w%d-%d" % (seed, i + j), b"v" * 64)
                                for j in range(16)
                            ]
                        )
                        i += 16
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(s,)) for s in range(3)]
        for t in threads:
            t.start()
        try:
            for _ in range(15):
                status, body = _get(st, "/metrics")
                assert status == 200
                assert lint(body.decode()) == []
                status, body = _get(st, "/stat")
                assert status == 200
                stat = json.loads(body)
                assert "server" in stat and "db" in stat
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not errors

    def test_scrape_sees_live_pressure_gauges(self, server_factory):
        st = server_factory(http=True)
        with Client(port=st.port) as c:
            c.put(b"k", b"v")
            _, body = _get(st, "/metrics")
        text = body.decode()
        for gauge in (
            "repro_server_inflight",
            "repro_server_batch_queue_depth",
            "repro_server_connections_active",
        ):
            assert gauge in text, f"{gauge} missing from /metrics"
        # the scrape itself holds no connection on the KV port
        line = next(
            l for l in text.splitlines()
            if l.startswith("repro_server_connections_active ")
        )
        assert float(line.split()[1]) >= 1  # our Client is connected


class TestRejections:
    def test_unknown_path_404(self, server_factory):
        st = server_factory(http=True)
        assert _status_of(st, "/nope") == 404
        assert _status_of(st, "/kv") == 404  # no trailing key segment
        assert _status_of(st, "/metricsx") == 404

    def test_wrong_methods_405(self, server_factory):
        st = server_factory(http=True)
        for path in ("/metrics", "/stat", "/healthz", "/debug/slow",
                     "/debug/timeseries", "/trace"):
            assert _status_of(st, path, "POST") == 405, path
        assert _status_of(st, "/kv/some-key", "PATCH") == 405

    def test_empty_kv_key_400(self, server_factory):
        st = server_factory(http=True)
        assert _status_of(st, "/kv/") == 400

    def test_garbage_request_line_400(self, server_factory):
        st = server_factory(http=True)
        with socket.create_connection(("127.0.0.1", st.http_port), timeout=10) as s:
            s.sendall(b"NOT-HTTP\r\n\r\n")
            reply = s.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400")

    def test_oversized_body_413(self, server_factory):
        st = server_factory(http=True)
        limit = st.server.config.max_frame
        conn = http.client.HTTPConnection("127.0.0.1", st.http_port, timeout=10)
        try:
            conn.request(
                "PUT", "/kv/big", body=b"", headers={"Content-Length": str(limit + 1)}
            )
            assert conn.getresponse().status == 413
        finally:
            conn.close()


class TestDebugEndpoints:
    def test_slow_404_when_disabled(self, server_factory):
        st = server_factory(http=True)
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(st, "/debug/slow")
        assert exc.value.code == 404
        assert b"--slow-ms" in exc.value.read()
        exc.value.close()

    def test_slow_serves_captures(self, server_factory):
        st = server_factory(
            http=True,
            config=ServerConfig(port=0, http_port=0, slow_ms=0.0),
        )
        st.server.db.enable_tracing()
        with Client(port=st.port) as c:
            c.put(b"k", b"v")
            assert c.get(b"k") == b"v"
        # the capture lands when the request task finishes observing;
        # poll rather than racing it
        for _ in range(100):
            _, body = _get(st, "/debug/slow")
            doc = json.loads(body)
            if doc["captured"] >= 2:
                break
        assert doc["threshold_ms"] == 0.0
        ops = {e["op"] for e in doc["entries"]}
        assert {"serve.put", "serve.get"} <= ops
        traced = [e for e in doc["entries"] if "spans" in e]
        assert traced and all(e["spans"] for e in traced)

    def test_timeseries_404_when_disabled(self, server_factory):
        st = server_factory(
            http=True,
            config=ServerConfig(port=0, http_port=0, timeseries_interval=0),
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(st, "/debug/timeseries")
        exc.value.close()
        assert exc.value.code == 404

    def test_timeseries_serves_deltas(self, server_factory):
        st = server_factory(
            http=True,
            config=ServerConfig(port=0, http_port=0, timeseries_interval=0.05),
        )
        with Client(port=st.port) as c:
            for i in range(50):
                c.put(b"t%d" % i, b"v")
            # The 50 puts may span several sampling intervals (a slow
            # runner, or PYTHONDEVMODE), so poll until the deltas summed
            # over every sample account for all of them -- bounded well
            # inside the ring's retention, so no sample falls off.
            deadline = time.monotonic() + 3.0
            while True:
                _, body = _get(st, "/debug/timeseries")
                doc = json.loads(body)
                puts = sum(
                    s["deltas"].get("server.ops.put", 0.0) for s in doc["samples"]
                )
                if puts >= 50 or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            assert doc["samples"], "sampler task never recorded an entry"
        assert doc["interval"] == 0.05
        assert puts == pytest.approx(50.0)

    def test_timeseries_off_without_http_facade(self, server_factory):
        st = server_factory()  # no HTTP port: nothing to serve it on
        assert st.server.timeseries is None
