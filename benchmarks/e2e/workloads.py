"""The six workloads.

Each class generates its inputs from the seed in :meth:`setup`, then runs
closed-loop windows of a fixed op count against the package's public API,
checking every value it reads against what it last wrote.  README.md says
why each one exists; the class docstrings say what one window does.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
from collections import deque
from time import perf_counter
from time import perf_counter_ns as now_ns

import repro
from repro.serve.client import Client

from . import inputs, ladder
from .inputs import KEY_LEN, VALUE_LEN, Records
from .measure import Section
from .proxies import (
    CLIENT_METHODS,
    CrashStore,
    Proxy,
    Spans,
    storage_wrappers,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

#: windows' worth of ops pre-generated per stream; streams wrap after that
STREAM_WINDOWS = 9

#: fewest key operations a ladder rung replays at scale 1
LADDER_OPS = 20_000

#: every table but dict_paper's (see README: smaller pages run out of
#: overflow addresses at these record sizes)
BIG_PAGES = {"bsize": 4096, "ffactor": 24}


def flatten(tree: dict, prefix: str = "") -> dict:
    """``stat()`` tree -> ``{"a.b.c": number}`` (numbers only)."""
    out = {}
    for key, value in tree.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(flatten(value, name + "."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[name] = value
    return out


class Workload:
    """Common shape; the runner in harness.py drives these hooks."""

    name = ""
    #: key operations in one window at scale 1
    window_ops = 0
    #: table parameters, recorded in the result context
    table: dict = {}
    flush_policy = "no WAL; dirty pages written at eviction and at close"
    #: threads the generator drives ops from (span self times add up per lane)
    lanes = 1
    #: run a tenth of a window, unrecorded, before a section is timed
    warmup = True
    #: per-layer metrics the traced section's (generator, children) CPU
    #: seconds go to, where those processes are a layer of their own
    cpu_metrics: tuple[str, str] | None = None

    def __init__(self, seed: int, scale: float, workdir: str) -> None:
        self.seed = seed
        self.scale = scale
        self.dir = workdir
        self.rng = random.Random(seed)
        self.n_window = max(8, int(self.window_ops * scale))
        #: key operations a ladder rung replays (a window, or more where
        #: windows are short: a rung's ratio to its neighbour needs a sample)
        self.n_ladder = max(self.n_window, int(LADDER_OPS * scale))
        self.spans: Spans | None = None
        os.makedirs(workdir)

    def scaled(self, n: int, floor: int = 64) -> int:
        return max(floor, int(n * self.scale))

    # -- lifecycle --------------------------------------------------------------

    def setup(self) -> None:
        """Generate inputs, preload, start children (timed as setup_s)."""
        raise NotImplementedError

    def open(self, spans: Spans | None) -> None:
        """Open the handles a section drives; proxied when ``spans``."""
        self.spans = spans

    def window(self, sec: Section, n: int) -> int:
        """Run the next ``n`` key operations; returns how many ran."""
        raise NotImplementedError

    def close(self) -> None:
        """Close ``self.db`` if a section left one open (as an operation
        of its own when traced, so that the write-back it causes is not
        billed to the last op)."""
        db = self.__dict__.pop("db", None)
        if db is not None:
            if self.spans is None:
                db.close()
            else:
                self.spans.call("access.close", db.close)

    def teardown(self) -> None:
        """Stop children and remove files; safe to call twice."""
        self.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- observation ------------------------------------------------------------

    def counters(self) -> dict:
        """Cumulative flat counters from the program's own ``stat()``."""
        return {}

    def child_pids(self) -> list[int]:
        return []

    def span_logs(self) -> list[Spans]:
        """Every span log of the open section (one per generator thread)."""
        return [self.spans] if self.spans is not None else []

    def live_bytes(self) -> int:
        """Key+value bytes the table holds (the records are never deleted)."""
        return self.rec.live_bytes()

    def space_bytes(self) -> int:
        """Bytes in the workload's files once they are at rest (called
        last, after everything that needs the children alive)."""
        with os.scandir(self.dir) as it:
            return sum(e.stat().st_size for e in it if e.is_file())

    def after(self, sec: Section, extra: dict) -> None:
        """Untimed checks after the timed section (counted in failures)."""

    def preload(self, path: str, **params) -> None:
        """A table file holding the records at their current versions."""
        with repro.open(path, "n", **BIG_PAGES, **params) as db:
            db.bulk_load(self.rec.items(), nelem=self.rec.n)

    def ladder_input(self):
        """``(table params, records to preload, op stream)`` for the
        engine ladder: the workload's own key ops as single calls."""
        raise NotImplementedError

    def ladders(self, workdir: str, ops_per_s: float) -> list[dict]:
        """The direct-drive rungs under this workload; ``ops_per_s`` is
        its own untraced section, the top rung."""
        params, records, stream = self.ladder_input()
        # as the harness does for the workload's own inputs: one collection
        # over these lists inside a rung would cost it a fifth of its time
        gc.collect()
        gc.freeze()
        return [
            ladder.engine_ladder(os.path.join(workdir, "engine"), params, records, stream)
        ]


def _run_single_ops(spans, layer, sec: Section, get, put, rec: Records, idx, is_put,
                    pos, n):
    """The closed single-op loop zipf_outofcache and served_naive share:
    one get or one same-size update per step, each read checked.  Traced,
    every call is also a root span ``<layer>.get`` / ``<layer>.put``."""
    keys = rec.keys
    reads, writes = sec.read_ns, sec.write_ns
    size = len(idx)
    failed = 0
    if spans is not None:
        root, get_id, put_id = spans.root, spans.name(layer + ".get"), spans.name(layer + ".put")
    for _ in range(n):
        i = idx[pos]
        try:
            if is_put[pos]:
                value = rec.next_value(i)
                t0 = now_ns()
                put(keys[i], value)
                t1 = now_ns()
                writes.append(t1 - t0)
                sec.user_bytes += KEY_LEN + VALUE_LEN
                if spans is not None:
                    root(put_id, t0, t1)
                    spans.op += 1
            else:
                t0 = now_ns()
                value = get(keys[i])
                t1 = now_ns()
                reads.append(t1 - t0)
                if spans is not None:
                    root(get_id, t0, t1)
                    spans.op += 1
                if value != rec.value(i):
                    failed += 1
        except Exception:  # noqa: BLE001 - any raise is a failed op
            failed += 1
        pos += 1
        if pos == size:
            pos = 0
    sec.attempted += n
    sec.failed += failed
    return pos


# -- dict_paper -----------------------------------------------------------------


class DictPaper(Workload):
    """One window is one round of the paper's Figure 8a disk suite on a
    fresh file: create (grown from ``nelem=1``) + sync, reopen, read,
    verify, sequential scan, delete a seeded half, re-insert it."""

    name = "dict_paper"
    pairs_full = 24474
    window_ops = 5 * pairs_full
    warmup = False  # a round starts on an empty file by design
    table = {"bsize": 1024, "ffactor": 32, "cachesize": 1 << 20, "nelem": 1}

    def setup(self) -> None:
        self.pairs = inputs.dictionary_pairs(self.scaled(self.pairs_full), self.seed)
        self.expected = dict(self.pairs)
        self.read_order = [k for k, _ in self.pairs]
        self.rng.shuffle(self.read_order)
        self.half = self.rng.sample(self.read_order, len(self.pairs) // 2)
        self.path = os.path.join(self.dir, "dict.db")
        self.totals: dict = {}

    def live_bytes(self) -> int:
        return sum(len(k) + len(v) for k, v in self.pairs)

    def counters(self) -> dict:
        return dict(self.totals)

    def _absorb(self, db) -> None:
        for name, value in flatten(db.stat()).items():
            if name.startswith("space."):
                self.totals[name] = value  # a level, not a count
            else:
                self.totals[name] = self.totals.get(name, 0) + value

    def _open(self, flag: str, **params):
        return repro.open(self.path, flag, **params, **storage_wrappers(self.spans))

    def _untimed(self, name: str, fn):
        """A call outside the latency samples (sync, close, the scan):
        traced, still an operation with a root span of its own."""
        return fn() if self.spans is None else self.spans.call(name, fn)

    def window(self, sec: Section, n: int) -> int:
        expected = self.expected
        reads, writes = sec.read_ns, sec.write_ns
        spans = self.spans
        failed = ops = 0

        def phase(samples, span, call, items, ok):
            nonlocal failed, ops
            if spans is not None:
                root, nid = spans.root, spans.name(span)
            for args in items:
                try:
                    t0 = now_ns()
                    result = call(*args)
                    t1 = now_ns()
                    samples.append(t1 - t0)
                    if spans is not None:
                        root(nid, t0, t1)
                        spans.op += 1
                    if not ok(args[0], result):
                        failed += 1
                except Exception:  # noqa: BLE001 - any raise is a failed op
                    failed += 1
            ops += len(items)

        def stored(_key, rc):
            return rc == 0

        def scan(db) -> int:
            bad = seen = 0
            with db.cursor() as cur:
                item = cur.first()
                while item is not None:
                    seen += 1
                    if expected.get(item[0]) != item[1]:
                        bad += 1
                    item = cur.next()
            return bad + abs(len(expected) - seen)

        every = [(k,) for k in self.read_order]
        db = self._open("n", **self.table)
        try:
            phase(writes, "access.put", db.put, self.pairs, stored)
            self._untimed("access.sync", db.sync)
            self._absorb(db)
        finally:
            self._untimed("access.close", db.close)
        db = self._open("w", cachesize=self.table["cachesize"])
        try:
            phase(reads, "access.get", db.get, every, lambda k, v: v is not None)
            phase(reads, "access.get", db.get, every, lambda k, v: v == expected[k])
            failed += self._untimed("access.scan", lambda: scan(db))
            ops += len(expected)
            phase(writes, "access.delete", db.delete, [(k,) for k in self.half], stored)
            phase(writes, "access.put", db.put,
                  [(k, expected[k]) for k in self.half], stored)
            if len(db) != len(expected):
                failed += 1
            # so the write-back shows in the counters absorbed next
            self._untimed("access.sync", db.sync)
            self._absorb(db)
        finally:
            self._untimed("access.close", db.close)
        sec.user_bytes += self.live_bytes() + sum(
            len(k) + len(expected[k]) for k in self.half
        )
        sec.attempted += ops
        sec.failed += failed
        return ops

    def ladder_input(self):
        stream = [("p", k, v) for k, v in self.pairs]
        stream += [("g", k, None) for k in self.read_order] * 2
        stream += [("d", k, None) for k in self.half]
        stream += [("p", k, self.expected[k]) for k in self.half]
        return self.table, [], stream


# -- zipf_outofcache ------------------------------------------------------------


class ZipfOutOfCache(Workload):
    """One window is 50 % get / 50 % same-size update, Zipfian, against a
    table some 30 times larger than its 1 MiB buffer pool."""

    name = "zipf_outofcache"
    records = 100_000
    window_ops = 40_000
    table = {**BIG_PAGES, "cachesize": 1 << 20}

    def setup(self) -> None:
        n = self.scaled(self.records)
        self.rec = Records(n, self.seed)
        self.path = os.path.join(self.dir, "zipf.db")
        self.preload(self.path, cachesize=self.table["cachesize"])
        count = self.n_window * STREAM_WINDOWS
        self.idx = inputs.zipf_indices(n, count, self.rng)
        self.is_put = self.rng.choices((False, True), k=count)
        self.pos = 0

    def open(self, spans) -> None:
        self.spans = spans
        self.db = repro.open(
            self.path, "w", cachesize=self.table["cachesize"], **storage_wrappers(spans)
        )

    def window(self, sec: Section, n: int) -> int:
        db = self.db
        self.pos = _run_single_ops(
            self.spans, "access", sec, db.get, db.put, self.rec, self.idx, self.is_put,
            self.pos, n,
        )
        return n

    def counters(self) -> dict:
        return flatten(self.db.stat())

    def ladder_input(self):
        n = min(len(self.idx), self.n_ladder)
        rec = Records(self.rec.n, self.seed)
        items = rec.items()
        stream = [
            ("p", rec.keys[i], rec.next_value(i)) if put else ("g", rec.keys[i], None)
            for i, put in zip(self.idx[:n], self.is_put[:n])
        ]
        return self.table, items, stream


# -- txn_wal_fsync --------------------------------------------------------------


class TxnWalFsync(Workload):
    """One window is a run of transactions from one committer: 4 uniform
    updates + commit (one fsync), then one get of a key just committed."""

    name = "txn_wal_fsync"
    records = 50_000
    txn_puts = 4
    window_ops = 600 * (txn_puts + 1)
    crash_txns = 1000
    table = {**BIG_PAGES, "cachesize": 64 << 20, "durability": "wal+fsync"}
    flush_policy = (
        "durability='wal+fsync': one log fsync per commit before the ack; "
        "checkpoint (table write + fsync, log reset) at 1 MiB of log"
    )

    def setup(self) -> None:
        n = self.scaled(self.records)
        self.rec = Records(n, self.seed)
        self.path = os.path.join(self.dir, "txn.db")
        self.preload(self.path)
        txns = self.n_window // (self.txn_puts + 1) * STREAM_WINDOWS
        self.idx = inputs.uniform_indices(n, txns * self.txn_puts, self.rng)
        self.pos = 0

    def _open(self, **wrappers):
        return repro.open(
            self.path, "w", cachesize=self.table["cachesize"],
            durability=self.table["durability"], **wrappers,
        )

    def open(self, spans) -> None:
        self.spans = spans
        self.db = self._open(**storage_wrappers(spans))
        # Fault the whole table into the pool first: a commit walks every
        # resident buffer, so commits get slower until the pool has filled.
        for _ in self.db.items():
            pass

    def _transaction(self, db, four) -> None:
        rec = self.rec
        try:
            with db.transaction():
                for i in four:
                    db.put(rec.keys[i], rec.next_value(i))
        except BaseException:
            for i in four:  # rolled back: the old versions stay current
                rec.version[i] -= 1
            raise

    def window(self, sec: Section, n: int) -> int:
        db, rec, idx, spans = self.db, self.rec, self.idx, self.spans
        per = self.txn_puts
        txns = max(1, n // (per + 1))
        failed = 0
        pos = self.pos
        if spans is not None:
            txn_id, get_id = spans.name("access.transaction"), spans.name("access.get")
        for _ in range(txns):
            four = idx[pos : pos + per]
            pos = (pos + per) % len(idx)
            try:
                t0 = now_ns()
                self._transaction(db, four)
                t1 = now_ns()
                sec.write_ns.append(t1 - t0)
                sec.user_bytes += per * (KEY_LEN + VALUE_LEN)
                if spans is not None:
                    spans.root(txn_id, t0, t1)
                    spans.op += 1
                i = four[-1]
                t0 = now_ns()
                value = db.get(rec.keys[i])
                t1 = now_ns()
                sec.read_ns.append(t1 - t0)
                if spans is not None:
                    spans.root(get_id, t0, t1)
                    spans.op += 1
                if value != rec.value(i):
                    failed += 1
            except Exception:  # noqa: BLE001
                failed += per + 1
        self.pos = pos
        sec.attempted += txns * (per + 1)
        sec.failed += failed
        return txns * (per + 1)

    def counters(self) -> dict:
        return flatten(self.db.stat())

    def after(self, sec: Section, extra: dict) -> None:
        """The durability check: more transactions through stores that
        remember unflushed bytes, a crash at a seeded point inside a
        transaction, the files rewritten to what was flushed, a timed
        reopen, then every touched record compared with what was
        acknowledged."""
        rec = self.rec
        stores: list[CrashStore] = []

        def wrap(inner):
            stores.append(CrashStore(inner))
            return stores[-1]

        db = self._open(file_wrapper=wrap, wal_wrapper=wrap)
        txns = self.scaled(self.crash_txns, floor=20)
        crash_at = self.rng.randrange(txns // 2, txns)
        crash_puts = self.rng.randrange(1, self.txn_puts + 1)
        touched: set[int] = set()
        pos = self.pos
        for _ in range(crash_at):
            four = self.idx[pos : pos + self.txn_puts]
            pos = (pos + self.txn_puts) % len(self.idx)
            touched.update(four)
            self._transaction(db, four)  # returns only once acknowledged
        doomed = self.idx[pos : pos + crash_puts]
        touched.update(doomed)
        db.begin()
        for i in doomed:  # never committed: must stay invisible
            db.put(rec.keys[i], inputs.version_bytes(rec.version[i] + 1) + rec.fillers[i])
        for store in stores:
            store.crash()
        db.close()  # releases descriptors only: the stores swallow every write
        dropped = sum(store.revert() for store in stores)
        t0 = perf_counter()
        db = self._open()
        recovery_ms = (perf_counter() - t0) * 1e3
        with db:
            lost = sum(1 for i in touched if db.get(rec.keys[i]) != rec.value(i))
        sec.attempted += len(touched)
        sec.failed += lost
        extra["core.wal.recovery_ms"] = recovery_ms
        extra["core.wal.lost_acked_writes"] = lost
        extra["durability_check"] = {
            "transactions_acknowledged": crash_at,
            "puts_in_flight_at_crash": crash_puts,
            "unflushed_writes_dropped": dropped,
            "records_checked": len(touched),
        }

    def ladder_input(self):
        n = min(len(self.idx), self.n_ladder)
        rec = Records(self.rec.n, self.seed)
        items = rec.items()
        stream = []
        for j, i in enumerate(self.idx[:n]):
            stream.append(("p", rec.keys[i], rec.next_value(i)))
            if j % self.txn_puts == self.txn_puts - 1:
                stream.append(("g", rec.keys[i], None))
        params = {k: v for k, v in self.table.items() if k != "durability"}
        return params, items, stream


# -- served_* -------------------------------------------------------------------


class _Served(Workload):
    """A server child over one preloaded table and two connections, each
    owning the records of its parity so every read can be checked."""

    records = 50_000
    connections = lanes = 2
    put_share = 0.05
    table = {**BIG_PAGES, "cachesize": 64 << 20, "durability": "wal",
             "concurrent": True}
    flush_policy = (
        "durability='wal': writes are committed to the log before the ack, "
        "no fsync; checkpoint at 1 MiB of log"
    )
    cpu_metrics = ("serve.client.cpu_s", "serve.server.cpu_s")
    proc: subprocess.Popen | None = None

    def setup(self) -> None:
        n = self.scaled(self.records) // self.connections * self.connections
        self.rec = Records(n, self.seed)
        self.path = os.path.join(self.dir, "served.db")
        self.preload(self.path)
        self.plan(n // self.connections)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serverproc.py"), self.path,
             str(self.table["cachesize"])],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        # Generator and server each get a processor of their own.  Left to
        # the scheduler, the server's threads start on one core and are
        # spread over two a few seconds in, which doubles the cost of every
        # GIL hand-off inside it: runs would straddle two regimes.
        self.affinity = os.sched_getaffinity(0)
        cpus = sorted(self.affinity)
        os.sched_setaffinity(0, {cpus[0]})
        os.sched_setaffinity(self.proc.pid, {cpus[-1]})
        line = self.proc.stdout.readline()
        if not line.startswith("LISTENING port="):
            raise RuntimeError(f"server child did not start: {line!r}")
        self.port = int(line.split("=")[1])
        self.ctl = Client(port=self.port)

    def plan(self, per_conn: int) -> None:
        """Generate each connection's op stream over its own records."""
        raise NotImplementedError

    def own(self, conn: int, ranks: list[int]) -> list[int]:
        """Per-connection ranks -> indices of the records it owns."""
        c = self.connections
        return [r * c + conn for r in ranks]

    def child_pids(self) -> list[int]:
        return [self.proc.pid] if self.proc is not None else []

    def open(self, spans) -> None:
        self.spans = spans
        self.conn_spans = [Spans() if spans else None for _ in range(self.connections)]
        self.clients = []
        for cs in self.conn_spans:
            client = Client(port=self.port)
            if cs is not None:
                client = Proxy(client, cs, "serve.client", CLIENT_METHODS)
            self.clients.append(client)

    def span_logs(self) -> list[Spans]:
        return [cs for cs in self.conn_spans if cs is not None]

    def close(self) -> None:
        for client in self.__dict__.pop("clients", []):
            client.close()

    def counters(self) -> dict:
        # Client.stat() nests the table's tree under "db"
        return {k.removeprefix("db."): v for k, v in flatten(self.ctl.stat()).items()}

    def conn_window(self, conn: int, sec: Section, n: int) -> None:
        raise NotImplementedError

    def window(self, sec: Section, n: int) -> int:
        per = max(1, n // self.connections)
        parts = [Section() for _ in range(self.connections)]
        errors: list[BaseException] = []

        def run(conn: int) -> None:
            try:
                self.conn_window(conn, parts[conn], per)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(c,)) for c in range(self.connections)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        done = 0
        for part in parts:
            sec.read_ns += part.read_ns
            sec.write_ns += part.write_ns
            sec.attempted += part.attempted
            sec.failed += part.failed
            sec.user_bytes += part.user_bytes
            done += part.attempted
        return done

    def stop_server(self) -> None:
        self.close()
        ctl = self.__dict__.pop("ctl", None)
        if ctl is not None:
            ctl.close()
        proc, self.proc = self.proc, None
        if proc is not None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            os.sched_setaffinity(0, self.affinity)

    def space_bytes(self) -> int:
        # the server's graceful stop checkpoints; before it, the log holds
        # anything from nothing to a megabyte depending on the moment
        self.stop_server()
        return super().space_bytes()

    def teardown(self) -> None:
        self.stop_server()
        shutil.rmtree(self.dir, ignore_errors=True)

    def ladder_input(self):
        rec = Records(self.rec.n, self.seed)
        return (
            {k: self.table[k] for k in ("bsize", "ffactor", "cachesize")},
            rec.items(),
            self.single_stream(rec),
        )

    def ladders(self, workdir: str, ops_per_s: float) -> list[dict]:
        return super().ladders(workdir, ops_per_s) + [
            ladder.serve_ladder(self, os.path.join(workdir, "serve"), ops_per_s)
        ]


class ServedNaive(_Served):
    """One window: each connection sends one GET (95 %) or PUT (5 %)
    frame, Zipfian, and waits for its reply before the next."""

    name = "served_naive"
    window_ops = 3_000

    def plan(self, per_conn: int) -> None:
        count = self.n_window // self.connections * STREAM_WINDOWS
        self.idx, self.is_put, self.pos = [], [], []
        for conn in range(self.connections):
            self.idx.append(self.own(conn, inputs.zipf_indices(per_conn, count, self.rng)))
            self.is_put.append([self.rng.random() < self.put_share for _ in range(count)])
            self.pos.append(0)

    def conn_window(self, conn: int, sec: Section, n: int) -> None:
        # Client.get/put spelled out, so that a traced run's proxy sees the
        # send and the wait for the reply as two spans
        send, result = self.clients[conn].send, self.clients[conn].result
        self.pos[conn] = _run_single_ops(
            self.conn_spans[conn], "serve.client", sec,
            lambda key: result(send("get", key)),
            lambda key, value: result(send("put", key, value)),
            self.rec, self.idx[conn], self.is_put[conn], self.pos[conn], n,
        )

    depth = 1
    gets_per_frame = 1

    def inproc_plans(self) -> list[list]:
        rec, per = self.rec, self.n_ladder // self.connections
        return [
            [
                ("put", [rec.keys[i]], [rec.next_value(i)]) if put
                else ("get", [rec.keys[i]], [None])
                for i, put in zip(self.idx[c][:per], self.is_put[c][:per])
            ]
            for c in range(self.connections)
        ]

    def single_stream(self, rec: Records) -> list:
        n = min(len(self.idx[0]), self.n_ladder)
        return [
            ("p", rec.keys[i], rec.next_value(i)) if put else ("g", rec.keys[i], None)
            for i, put in zip(self.idx[0][:n], self.is_put[0][:n])
        ]


class ServedBatch(_Served):
    """One window: each connection keeps 4 BATCH frames in flight; a frame
    is 64 GETs or 8 PUTs, Zipfian, 30 % of frames PUT frames so that 5 %
    of the sub-ops are PUTs and both kinds give a tail to measure."""

    name = "served_batch"
    window_ops = 24_000
    pipeline = 4
    get_frame = 64
    put_frame = 8
    put_frames = 0.296  # share of frames; 0.296*8 / (0.296*8 + 0.704*64) = 5 %

    def plan(self, per_conn: int) -> None:
        mean = self.put_frames * self.put_frame + (1 - self.put_frames) * self.get_frame
        frames = int(self.n_window / self.connections / mean * STREAM_WINDOWS) + 1
        self.frames, self.pos = [], []
        for conn in range(self.connections):
            kinds = [self.rng.random() < self.put_frames for _ in range(frames)]
            sizes = [self.put_frame if put else self.get_frame for put in kinds]
            idx = self.own(conn, inputs.zipf_indices(per_conn, sum(sizes), self.rng))
            plan, at = [], 0
            for put, size in zip(kinds, sizes):
                plan.append((put, idx[at : at + size]))
                at += size
            self.frames.append(plan)
            self.pos.append(0)
        self.frame_no = [0] * self.connections

    def conn_window(self, conn: int, sec: Section, n: int) -> None:
        client, rec, plan = self.clients[conn], self.rec, self.frames[conn]
        keys = rec.keys
        spans = self.conn_spans[conn]
        pos = self.pos[conn]
        inflight: deque = deque()
        sent = failed = 0

        def claim() -> None:
            nonlocal failed
            rid, frame, put, expect, t0 = inflight.popleft()
            if spans is not None:
                spans.op = frame  # the frame this wait belongs to
            try:
                got = client.result(rid)
                (sec.write_ns if put else sec.read_ns).append(now_ns() - t0)
                if got != expect:
                    failed += sum(1 for g, e in zip(got, expect) if g != e)
            except Exception:  # noqa: BLE001
                failed += len(expect)

        while sent < n:
            if len(inflight) == self.pipeline:
                claim()
            put, idx = plan[pos]
            pos = (pos + 1) % len(plan)
            if put:
                ops = [("put", keys[i], rec.next_value(i)) for i in idx]
                expect = [True] * len(idx)
                sec.user_bytes += len(idx) * (KEY_LEN + VALUE_LEN)
            else:
                ops = [("get", keys[i]) for i in idx]
                # pipelined frames run in arrival order, so the value a
                # GET must see is the one current when it is sent
                expect = [rec.value(i) for i in idx]
            self.frame_no[conn] = frame = self.frame_no[conn] + 1
            if spans is not None:
                # frames overlap in the pipeline, so they get no root span:
                # the send and the wait are tagged with the frame's number
                spans.op = frame
            t0 = now_ns()
            inflight.append((client.send("batch", ops), frame, put, expect, t0))
            sent += len(idx)
        while inflight:
            claim()
        self.pos[conn] = pos
        sec.attempted += sent
        sec.failed += failed

    depth = pipeline
    gets_per_frame = get_frame

    def inproc_plans(self) -> list[list]:
        rec, per = self.rec, self.n_ladder // self.connections
        plans = []
        for c in range(self.connections):
            plan, total = [], 0
            for put, idx in self.frames[c]:
                if total >= per:
                    break
                keys = [rec.keys[i] for i in idx]
                values = [rec.next_value(i) if put else None for i in idx]
                plan.append(("put" if put else "get", keys, values))
                total += len(idx)
            plans.append(plan)
        return plans

    def single_stream(self, rec: Records) -> list:
        stream, total = [], 0
        for put, idx in self.frames[0]:
            if total >= self.n_ladder:
                break
            for i in idx:
                stream.append(
                    ("p", rec.keys[i], rec.next_value(i)) if put
                    else ("g", rec.keys[i], None)
                )
            total += len(idx)
        return stream


# -- sharded_batch --------------------------------------------------------------


class ShardedBatch(Workload):
    """One window alternates ``get_many`` and ``put_many`` of 128 uniform
    keys through the router of a 2-shard table."""

    name = "sharded_batch"
    records = 100_000
    shards = 2
    batch = 128
    window_ops = 50_000
    table = {**BIG_PAGES, "cachesize": 64 << 20, "shards": shards}
    cpu_metrics = ("shard.router_cpu_s", "shard.worker_cpu_s")

    def setup(self) -> None:
        n = self.scaled(self.records)
        self.rec = Records(n, self.seed)
        self.path = os.path.join(self.dir, "sharded.db")
        self.batches = max(2, self.n_window // self.batch)
        count = self.batches * self.batch * STREAM_WINDOWS
        self.idx = inputs.uniform_indices(n, count, self.rng)
        self.pos = 0
        self.calls = 0
        self.router = self.create(self.path, self.shards)
        self.router.bulk_load(self.rec.items(), nelem=n)

    def create(self, path: str, shards: int | None):
        params = {k: v for k, v in self.table.items() if k != "shards"}
        if shards:
            params["shards"] = shards
        return repro.open(path, "n", nelem=self.rec.n, **params)

    def child_pids(self) -> list[int]:
        return [p.pid for p in multiprocessing.active_children()]

    def window(self, sec: Section, n: int) -> int:
        batches = max(2, n // self.batch)
        self.pos = self.run_batches(self.router, sec, self.pos, batches)
        return batches * self.batch

    def run_batches(self, db, sec: Section, pos: int, batches: int) -> int:
        rec, idx, size, spans = self.rec, self.idx, self.batch, self.spans
        keys = rec.keys
        failed = 0
        if spans is not None:
            get_id, put_id = spans.name("shard.get_many"), spans.name("shard.put_many")
        for call in range(batches):
            chunk = idx[pos : pos + size]
            pos = (pos + size) % len(idx)
            try:
                if call & 1:
                    items = [(keys[i], rec.next_value(i)) for i in chunk]
                    t0 = now_ns()
                    db.put_many(items)
                    t1 = now_ns()
                    sec.write_ns.append(t1 - t0)
                    sec.user_bytes += size * (KEY_LEN + VALUE_LEN)
                    if spans is not None:
                        spans.root(put_id, t0, t1)
                        spans.op += 1
                else:
                    wanted = [keys[i] for i in chunk]
                    t0 = now_ns()
                    got = db.get_many(wanted)
                    t1 = now_ns()
                    sec.read_ns.append(t1 - t0)
                    if spans is not None:
                        spans.root(get_id, t0, t1)
                        spans.op += 1
                    expect = [rec.value(i) for i in chunk]
                    if got != expect:
                        failed += sum(1 for g, e in zip(got, expect) if g != e)
            except Exception:  # noqa: BLE001
                failed += size
        self.calls += batches
        sec.attempted += batches * size
        sec.failed += failed
        return pos

    def counters(self) -> dict:
        out = flatten(self.router.stat())
        out["bench.calls"] = self.calls
        return out

    def space_bytes(self) -> int:
        self.router.sync()  # the router stays open; its workers hold dirty pages
        return super().space_bytes()

    def teardown(self) -> None:
        router = self.__dict__.pop("router", None)
        try:
            if router is not None:
                router.close()
        finally:
            for proc in multiprocessing.active_children():
                proc.terminate()
                proc.join(timeout=10)
            shutil.rmtree(self.dir, ignore_errors=True)

    def ladder_input(self):
        n = min(len(self.idx), self.n_ladder)
        rec = Records(self.rec.n, self.seed)
        items = rec.items()
        stream = []
        for at in range(0, n, self.batch):
            chunk = self.idx[at : at + self.batch]
            if (at // self.batch) & 1:
                stream += [("p", rec.keys[i], rec.next_value(i)) for i in chunk]
            else:
                stream += [("g", rec.keys[i], None) for i in chunk]
        params = {k: self.table[k] for k in ("bsize", "ffactor", "cachesize")}
        return params, items, stream

    def ladders(self, workdir: str, ops_per_s: float) -> list[dict]:
        return super().ladders(workdir, ops_per_s) + [
            ladder.shard_ladder(self, os.path.join(workdir, "shard"), ops_per_s)
        ]


WORKLOADS = {
    cls.name: cls
    for cls in (DictPaper, ZipfOutOfCache, TxnWalFsync, ServedNaive, ServedBatch,
                ShardedBatch)
}
