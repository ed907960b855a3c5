"""Server behavior over the loopback: ops, pipelining, backpressure,
the HTTP facade, graceful shutdown, serve spans in ``tools top``, and
the confinement of every table call to the event-loop thread."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

import repro
from repro.serve import protocol as proto
from repro.serve.client import Client, ServerError
from repro.serve.server import ServerConfig
from repro.tools.trace import render_top


class TestBasicOps:
    def test_roundtrip(self, server):
        with Client(port=server.port) as c:
            assert c.ping(b"x") == b"x"
            assert c.put(b"k", b"v") is True
            assert c.get(b"k") == b"v"
            assert c.get(b"absent") is None
            assert c.delete(b"k") is True
            assert c.delete(b"k") is False

    def test_replace_false(self, server):
        with Client(port=server.port) as c:
            assert c.put(b"k", b"first", replace=False) is True
            assert c.put(b"k", b"second", replace=False) is False
            assert c.get(b"k") == b"first"

    def test_large_values(self, server):
        value = bytes(range(256)) * 512  # 128 KiB, spans many big-pair pages
        with Client(port=server.port) as c:
            assert c.put(b"big", value) is True
            assert c.get(b"big") == value

    def test_binary_keys(self, server):
        key = bytes(range(1, 256))
        with Client(port=server.port) as c:
            c.put(key, b"\x00binary\xff")
            assert c.get(key) == b"\x00binary\xff"

    def test_stat(self, server):
        with Client(port=server.port) as c:
            c.put(b"k", b"v")
            stat = c.stat()
        assert stat["db"]["type"] == "hash"
        assert stat["server"]["ops"]["put"] == 1
        assert stat["server"]["connections_total"] >= 1
        assert stat["server"]["latency"]["put"]["count"] == 1
        assert stat["server"]["latency"]["put"]["unit"] == "ms"

    def test_batch_sequential_semantics(self, server):
        with Client(port=server.port) as c:
            res = c.batch(
                [
                    ("put", b"k", b"v1"),
                    ("get", b"k"),
                    ("put", b"k", b"v2"),
                    ("get", b"k"),
                    ("delete", b"k"),
                    ("get", b"k"),
                    ("delete", b"k"),
                ]
            )
        assert res == [True, b"v1", True, b"v2", True, None, False]

    def test_batch_coalesces_across_ops(self, server):
        with Client(port=server.port) as c:
            n0 = c.stat()["server"]["batch"]["batches"]
            c.batch([("put", f"k{i}".encode(), b"v") for i in range(100)])
            n1 = c.stat()["server"]["batch"]["batches"]
        # 100 puts became a handful of engine batches, not 100
        assert n1 - n0 < 10


class TestPipelining:
    def test_out_of_order_result_claims(self, server):
        with Client(port=server.port) as c:
            for i in range(20):
                c.put(f"k{i}".encode(), f"v{i}".encode())
            rids = [c.send("get", f"k{i}".encode()) for i in range(20)]
            values = {rid: c.result(rid) for rid in reversed(rids)}
        assert [values[r] for r in rids] == [f"v{i}".encode() for i in range(20)]

    def test_deep_pipeline_under_small_window(self, server_factory):
        st = server_factory(config=ServerConfig(port=0, max_inflight=4))
        with Client(port=st.port) as c:
            rids = [c.send("put", f"k{i}".encode(), b"v" * 100) for i in range(200)]
            assert all(c.result(r) is True for r in rids)
            rids = [c.send("get", f"k{i}".encode()) for i in range(200)]
            assert all(c.result(r) == b"v" * 100 for r in rids)

    def test_mixed_op_pipeline_is_ordered(self, server):
        """put/get/delete interleaved on one key through the coalescer
        keep arrival order (cut batches, never reordered)."""
        with Client(port=server.port) as c:
            rids = []
            for i in range(30):
                rids.append(("put", c.send("put", b"key", str(i).encode())))
                rids.append(("get", c.send("get", b"key")))
            results = {rid: c.result(rid) for _, rid in rids}
        for i in range(30):
            get_rid = rids[2 * i + 1][1]
            assert results[get_rid] == str(i).encode()


class TestTypedErrors:
    def test_unknown_opcode_keeps_connection(self, server):
        with Client(port=server.port) as c:
            c._next_id += 1
            rid = c._next_id
            c.sock.sendall(proto.encode_frame(0x7F, rid, b""))
            c._sent[rid] = ("ping",)
            with pytest.raises(ServerError) as exc:
                c.result(rid)
            assert exc.value.status == proto.ST_BAD_REQUEST
            # framing intact: the connection still serves
            assert c.ping(b"still-alive") == b"still-alive"

    def test_malformed_put_payload_keeps_connection(self, server):
        with Client(port=server.port) as c:
            c._next_id += 1
            rid = c._next_id
            c.sock.sendall(proto.encode_frame(proto.OP_PUT, rid, b"\x01"))
            c._sent[rid] = ("ping",)
            with pytest.raises(ServerError) as exc:
                c.result(rid)
            assert exc.value.status == proto.ST_BAD_REQUEST
            assert c.put(b"k", b"v") is True

    def test_oversized_frame_disconnects(self, server_factory):
        st = server_factory(config=ServerConfig(port=0, max_frame=4096))
        with Client(port=st.port, max_frame=1 << 20) as c:
            rid = c.send("put", b"k", b"v" * 8192)
            with pytest.raises((ServerError, ConnectionError)) as exc:
                c.result(rid)
            if isinstance(exc.value, ServerError):
                assert exc.value.status == proto.ST_TOO_BIG
        # the server survives and accepts a fresh connection
        with Client(port=st.port) as c2:
            assert c2.put(b"k", b"small") is True


class TestHttpFacade:
    def _url(self, st, path):
        return f"http://127.0.0.1:{st.http_port}{path}"

    def test_endpoints(self, server_factory):
        st = server_factory(http=True)
        with Client(port=st.port) as c:
            c.put(b"hello", b"world")
        with urllib.request.urlopen(self._url(st, "/healthz")) as r:
            assert r.read() == b"ok\n"
        with urllib.request.urlopen(self._url(st, "/kv/hello")) as r:
            assert r.read() == b"world"
        with urllib.request.urlopen(self._url(st, "/stat")) as r:
            stat = json.loads(r.read())
        assert stat["server"]["ops"]["put"] == 1
        with urllib.request.urlopen(self._url(st, "/metrics")) as r:
            text = r.read().decode()
        assert "# TYPE repro_server_latency_put_seconds summary" in text
        assert "repro_server_ops_put 1" in text
        assert "repro_db_type" not in text  # string leaves fold into info

    def test_kv_put_delete(self, server_factory):
        st = server_factory(http=True)
        req = urllib.request.Request(
            self._url(st, "/kv/a%2Fb"), data=b"value-bytes", method="PUT"
        )
        with urllib.request.urlopen(req) as r:
            assert r.status == 204
        with Client(port=st.port) as c:
            assert c.get(b"a/b") == b"value-bytes"
        req = urllib.request.Request(self._url(st, "/kv/a%2Fb"), method="DELETE")
        with urllib.request.urlopen(req) as r:
            assert r.status == 204
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(self._url(st, "/kv/a%2Fb"))
        exc.value.close()
        assert exc.value.code == 404

    def test_unknown_route_404(self, server_factory):
        st = server_factory(http=True)
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(self._url(st, "/nope"))
        exc.value.close()
        assert exc.value.code == 404


class TestServeSpans:
    def test_spans_carry_time_ms_and_rank_in_top(self, server_factory, tmp_path):
        st = server_factory()
        st.server.db.enable_tracing(ring_capacity=None)
        with Client(port=st.port) as c:
            for i in range(10):
                c.put(f"k{i}".encode(), b"v")
            for i in range(10):
                c.get(f"k{i}".encode())
        events = st.server.db.flight_recorder.events()
        serve_spans = [e for e in events if e["name"].startswith("serve.")]
        assert {e["name"] for e in serve_spans} >= {"serve.put", "serve.get"}
        for span in serve_spans:
            assert span["type"] == "span"
            assert span["attrs"]["time_ms"] == pytest.approx(span["dur"] * 1e3, rel=0.01)
        # engine spans from the batch executor share the same recorder
        engine = {e["name"] for e in events if e.get("cat") == "op"}
        assert "put_many" in engine or "put" in engine
        # and tools top ranks both side by side
        table = render_top(events)
        assert "serve.get" in table and "serve.put" in table

    def test_http_trace_endpoint(self, server_factory):
        st = server_factory(http=True)
        url = f"http://127.0.0.1:{st.http_port}/trace"
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(url)
        exc.value.close()
        assert exc.value.code == 404  # tracing off
        st.server.db.enable_tracing()
        with Client(port=st.port) as c:
            c.put(b"k", b"v")
        with urllib.request.urlopen(url) as r:
            lines = [json.loads(line) for line in r.read().splitlines() if line]
        assert any(rec["name"] == "serve.put" for rec in lines)


class TestGracefulShutdown:
    def test_drain_sync_close(self, server_factory, tmp_path):
        path = str(tmp_path / "grace.db")
        st = server_factory(path)
        with Client(port=st.port) as c:
            for i in range(50):
                c.put(f"k{i}".encode(), f"v{i}".encode())
        st.stop()  # drain, sync, close (idempotent with fixture teardown)
        with repro.open(path, "r") as db:
            assert db[b"k49"] == b"v49"
            assert len(db) == 50

    def test_wal_checkpoint_on_stop(self, server_factory, tmp_path):
        path = str(tmp_path / "gracewal.db")
        st = server_factory(path, durability="wal")
        with Client(port=st.port) as c:
            c.batch([("put", f"k{i}".encode(), b"v" * 50) for i in range(40)])
        st.stop()
        with repro.open(path) as db:
            assert len(db) == 40
            assert db[b"k0"] == b"v" * 50

    def test_submit_after_stop_is_refused(self, server_factory):
        st = server_factory()
        port = st.port
        st.stop()
        with pytest.raises(OSError):
            Client(port=port, timeout=2.0)


class TestConfinement:
    """The server owns its table on one thread: every table call it
    makes -- batches, transactions, ``stat()``, the final checkpoint or
    sync -- runs on the event-loop thread, never on a helper thread."""

    CALLS = ("get_many", "put_many", "put", "delete", "begin", "commit",
             "stat", "checkpoint", "sync")

    @classmethod
    def _spy(cls, table, calls: list) -> None:
        for name in cls.CALLS:
            def spy(*args, _fn=getattr(table, name), _name=name, **kwargs):
                calls.append((_name, threading.get_ident()))
                return _fn(*args, **kwargs)

            setattr(table, name, spy)

    def test_every_table_call_runs_on_the_loop_thread(self, server_factory):
        seen: set[str] = set()
        for durability in ("none", "wal"):
            st = server_factory(http=True, durability=durability)
            calls: list[tuple[str, int]] = []
            self._spy(st.server.db.table, calls)
            with Client(port=st.port) as c:
                assert c.put(b"k", b"v") is True
                assert c.put(b"k", b"w", replace=False) is False
                assert c.get(b"k") == b"v"
                assert c.delete(b"k") is True
                assert c.batch(
                    [("put", b"a", b"1"), ("get", b"a"), ("delete", b"a")]
                ) == [True, b"1", True]
                assert c.stat()["db"]["type"] == "hash"
            base = f"http://127.0.0.1:{st.http_port}"
            req = urllib.request.Request(f"{base}/kv/h", data=b"x", method="PUT")
            with urllib.request.urlopen(req) as r:
                assert r.status == 204
            with urllib.request.urlopen(f"{base}/kv/h") as r:
                assert r.read() == b"x"
            req = urllib.request.Request(f"{base}/kv/h", method="DELETE")
            with urllib.request.urlopen(req) as r:
                assert r.status == 204
            for path in ("/stat", "/metrics"):
                with urllib.request.urlopen(base + path) as r:
                    assert r.status == 200
            loop_thread = st._thread.ident
            st.stop()  # drain, then the final checkpoint (wal) or sync
            assert calls
            off_loop = [name for name, tid in calls if tid != loop_thread]
            assert not off_loop, f"table calls off the loop thread: {off_loop}"
            seen.update(name for name, _ in calls)
        assert seen == set(self.CALLS)
