"""Serving a table opened with ``concurrent=False``.

The server makes every table call on its event-loop thread, so the
table it serves needs no reader-writer lock.  These tests rerun the
serving guarantees on such an unlocked table -- insert-if-absent races
between clients, acknowledged writes surviving a SIGKILL, ``/stat`` and
``/metrics`` scrapes under write load -- and end each with a clean
structural check of the file.
"""

from __future__ import annotations

import json
import threading

from repro.core.check import verify_file
from repro.serve.client import Client
from tests.serve import test_linearizability as lin
from tests.serve.test_crash import ServedProcess, _assert_acked_survive, _value
from tests.serve.test_httpd import _get


def _assert_clean(path) -> None:
    report = verify_file(str(path))
    assert report.ok, report.render()


def test_replace_false_has_exactly_one_winner(server_factory, tmp_path):
    """Eight clients race insert-if-absent claims on shared keys: one
    winner per key, and the stored value names it."""
    path = tmp_path / "race.db"
    st = server_factory(str(path), concurrent=False)
    assert st.server.db.table.concurrent is False
    lin.test_replace_false_has_exactly_one_winner(st)
    st.stop()
    _assert_clean(path)


def test_acked_writes_survive_sigkill(tmp_path):
    """``--no-concurrent --durability wal``: SIGKILL the server with a
    pipeline in flight; every acknowledged write comes back from the
    log, so acks still follow commits on the unlocked table."""
    path = tmp_path / "acked.db"
    sp = ServedProcess(path, "--no-concurrent")
    acked: dict[bytes, bytes] = {}
    try:
        with Client(port=sp.port) as c:
            inflight: list[tuple[int, bytes, bytes]] = []
            try:
                for i in range(2000):
                    key, value = b"pipe-%d" % i, _value(i)
                    inflight.append((c.send("put", key, value), key, value))
                    if len(inflight) > 32:
                        rid, k, v = inflight.pop(0)
                        assert c.result(rid) is True
                        acked[k] = v
                    if i == 600:
                        sp.sigkill()
                while inflight:
                    rid, k, v = inflight.pop(0)
                    if c.result(rid) is True:
                        acked[k] = v
            except (ConnectionError, OSError):
                pass
    finally:
        sp.cleanup()
    assert len(acked) >= 500
    _assert_acked_survive(path, acked)
    _assert_clean(path)


def test_stat_scrapes_during_write_load(server_factory, tmp_path):
    """``/stat`` and ``/metrics`` answer while three clients write; the
    scrapes and the writes share the loop thread, never the table."""
    path = tmp_path / "scrape.db"
    st = server_factory(str(path), http=True, concurrent=False)
    stop = threading.Event()
    errors: list = []
    written = [0, 0, 0]

    def writer(seed: int) -> None:
        try:
            with Client(port=st.port) as c:
                while not stop.is_set():
                    i = written[seed]
                    ops = [("put", b"w%d-%d" % (seed, i + j), b"v" * 64)
                           for j in range(16)]
                    assert c.batch(ops) == [True] * 16
                    written[seed] = i + 16
        except Exception as exc:  # noqa: BLE001 - surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(s,)) for s in range(3)]
    for t in threads:
        t.start()
    try:
        for _ in range(15):
            status, body = _get(st, "/stat")
            assert status == 200
            assert json.loads(body)["db"]["type"] == "hash"
            status, body = _get(st, "/metrics")
            assert status == 200
            assert b"repro_server_connections_active" in body
    finally:
        stop.set()
        for t in threads:
            t.join()
    assert not errors
    with Client(port=st.port) as c:
        assert c.stat()["db"]["nkeys"] == sum(written)
    st.stop()
    _assert_clean(path)
