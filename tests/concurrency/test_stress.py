"""Free-running multi-thread stress: zero corruption under real races.

Unlike the harness tests, these let the OS scheduler interleave freely:
four threads hammer one concurrent handle with mixed operations, then
the format's own consistency checker must come back clean and every
surviving key must map to bytes some thread actually wrote.
"""

from __future__ import annotations

import struct
import sys
import threading

import pytest

from repro.access.db import db_open
from repro.baselines.dbm.dbmfile import DbmFile
from repro.baselines.gdbm.gdbm import Gdbm
from repro.baselines.sdbm.sdbm import Sdbm
from repro.core.errors import ConcurrentModificationError
from repro.core.table import HashTable
from repro.obs.registry import Counter, Histogram
from repro.storage.iostats import IOStats
from tests.concurrency.harness import engine_of
from tests.core.test_buffer import assert_dirty_index_exact

NTHREADS = 4
OPS_PER_THREAD = 300


def _run_threads(worker, n=NTHREADS):
    errors = []

    def guarded(t):
        try:
            worker(t)
        except Exception as exc:  # surfaced below with the thread id
            errors.append((t, exc))

    threads = [
        threading.Thread(target=guarded, args=(t,), daemon=True) for t in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive(), "stress worker wedged"
    assert not errors, errors


def _value(t: int, i: int) -> bytes:
    return f"value-{t}-{i:04d}-".encode() + b"x" * (i % 53)


class TestAccessMethods:
    @pytest.mark.parametrize("method", ("hash", "btree", "recno"))
    def test_mixed_workload_zero_corruption(self, tmp_path, method):
        db = db_open(
            tmp_path / "t.db", method, "n",
            concurrent=True, bsize=512, cachesize=4096,
        )

        def key(t, i):
            # overlapping keyspace: threads race on the same keys
            n = (t * OPS_PER_THREAD + i) % 200
            if method == "recno":
                return struct.pack(">Q", n + 1)
            return f"key-{n:04d}".encode()

        legal = {
            key(t, i): {_value(tt, ii)
                        for tt in range(NTHREADS)
                        for ii in range(OPS_PER_THREAD)}
            for t in range(NTHREADS) for i in range(OPS_PER_THREAD)
        }

        def worker(t):
            for i in range(OPS_PER_THREAD):
                k = key(t, i)
                r = (t * 31 + i * 7) % 10
                if r < 5:
                    db.put(k, _value(t, i))
                elif r < 7:
                    db.delete(k)
                else:
                    got = db.get(k)
                    assert got is None or got in legal[k] or got == b"", got

        _run_threads(worker)
        # recno's renumbering moves values between keys (and writing past
        # the end materializes empty records), so only the value set is
        # checked; hash and btree keep key->value pairing.
        for k, v in db.items():
            assert v == b"" or any(v in s for s in legal.values()), (k, v)
        engine_of(db).check_invariants()
        db.close()

    def test_readers_race_writer_with_scans(self, tmp_path):
        db = db_open(
            tmp_path / "scan.db", "hash", "n",
            concurrent=True, bsize=512, cachesize=4096,
        )
        stop = threading.Event()
        cme_count = [0]

        def writer(_t):
            for i in range(600):
                db.put(f"k{i % 300}".encode(), _value(0, i))
            stop.set()

        def scanner(_t):
            while not stop.is_set():
                c = db.cursor()
                try:
                    pair = c.first()
                    while pair is not None:
                        pair = c.next()
                except ConcurrentModificationError:
                    cme_count[0] += 1  # legal: restart the scan

        errors = []

        def guarded(fn, t):
            try:
                fn(t)
            except Exception as exc:
                errors.append(exc)
                stop.set()

        threads = [threading.Thread(target=guarded, args=(writer, 0), daemon=True)]
        threads += [
            threading.Thread(target=guarded, args=(scanner, t), daemon=True)
            for t in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert not errors, errors
        db.table.check_invariants()
        db.close()

    def test_writer_commits_while_readers_fault_and_evict(self, tmp_path):
        """The pool's dirty index under real threads: one writer runs
        transactions (dirtying under the exclusive write lock, flushing
        at begin/commit) while three readers fault through an 8-buffer
        pool, evicting -- and writing back -- under the pool mutex.  The
        index must be exact whenever the writer looks, empty after every
        commit, and no committed value may be lost."""
        t = HashTable.create(
            tmp_path / "t.db", concurrent=True, durability="wal",
            bsize=512, cachesize=8 * 512,
        )
        nkeys, ntxns = 400, 150
        t.put_many([(b"k%04d" % i, b"v0") for i in range(nkeys)])
        stop = threading.Event()
        final = {}

        def writer():
            for n in range(1, ntxns + 1):
                t.begin()
                for j in range(4):
                    k = b"k%04d" % ((n * 37 + j * 101) % nkeys)
                    t.put(k, b"v%d" % n)
                    final[k] = b"v%d" % n
                # write lock held: no reader runs, so a walk is race-free
                assert_dirty_index_exact(t.pool)
                assert t.pool.dirty_count() > 0
                t.commit()
                assert t.pool.dirty_count() == 0
            stop.set()

        def reader(seed):
            i = seed
            while not stop.is_set():
                i = (i * 1103515245 + 12345) % (1 << 31)
                got = t.get(b"k%04d" % (i % nkeys))
                assert got is not None and got.startswith(b"v"), got

        def worker(n):
            try:
                writer() if n == 0 else reader(n)
            finally:
                stop.set()  # a failed writer must not leave readers spinning

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run_threads(worker)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert t.stat()["buffer"]["evictions"] > ntxns
            assert_dirty_index_exact(t.pool)
            for k, v in final.items():
                assert t.get(k) == v
            t.check_invariants()
        finally:
            t.close()

    def test_cursor_fails_fast_on_structure_change(self):
        """A hash cursor positioned before a split raises a typed
        ConcurrentModificationError instead of returning garbage."""
        t = HashTable.create(None, in_memory=True, concurrent=True,
                             bsize=128, ffactor=4)
        try:
            for i in range(20):
                t.put(f"k{i}".encode(), b"v")
            c = t.cursor()
            assert c.first() is not None
            splits_before = t.stats.splits
            i = 20
            while t.stats.splits == splits_before:
                t.put(f"k{i}".encode(), b"v")
                i += 1
            with pytest.raises(ConcurrentModificationError):
                while c.next() is not None:
                    pass
        finally:
            t.close()

    def test_single_threaded_cursor_never_raises_cme(self):
        """concurrent=False keeps the historical tolerant scan."""
        t = HashTable.create(None, in_memory=True, bsize=128, ffactor=4)
        try:
            for i in range(20):
                t.put(f"k{i}".encode(), b"v")
            c = t.cursor()
            c.first()
            for i in range(20, 200):
                t.put(f"k{i}".encode(), b"v")
            while c.next() is not None:
                pass  # may miss/duplicate keys, but never raises
        finally:
            t.close()


class TestBaselines:
    @pytest.mark.parametrize("maker", (
        lambda p: DbmFile(p / "d", "n", block_size=1024, concurrent=True),
        lambda p: Sdbm(p / "s", "n", block_size=1024, concurrent=True),
        lambda p: Gdbm(p / "g.db", "n", block_size=512, concurrent=True),
    ), ids=("dbm", "sdbm", "gdbm"))
    def test_mixed_workload_zero_corruption(self, tmp_path, maker):
        db = maker(tmp_path)

        def worker(t):
            for i in range(OPS_PER_THREAD):
                k = f"key-{(t * OPS_PER_THREAD + i) % 200:04d}".encode()
                r = (t * 31 + i * 7) % 10
                if r < 5:
                    db.store(k, _value(t, i))
                elif r < 7:
                    db.delete(k)
                else:
                    got = db.fetch(k)
                    assert got is None or got.startswith(b"value-"), got

        _run_threads(worker)
        assert db.check() == []
        for k, v in db.items():
            assert v.startswith(b"value-"), (k, v)
        db.close()


class TestThreadSafeCounters:
    def test_counter_exact_under_contention(self):
        c = Counter("n")
        c.make_threadsafe()

        def worker(_t):
            for _ in range(5000):
                c.inc()

        _run_threads(worker, n=8)
        assert c.value == 8 * 5000

    def test_histogram_exact_under_contention(self):
        h = Histogram("lat")
        h.make_threadsafe()

        def worker(t):
            for i in range(2000):
                h.observe(i % 7)

        _run_threads(worker, n=4)
        assert h.count == 4 * 2000
        assert h.total == 4 * sum(i % 7 for i in range(2000))

    def test_iostats_exact_under_contention(self):
        s = IOStats().make_threadsafe()

        def worker(_t):
            for _ in range(3000):
                s.record_read(512)
                s.record_write(512)

        _run_threads(worker, n=4)
        assert s.page_reads == 4 * 3000
        assert s.page_writes == 4 * 3000
        assert s.bytes_read == 4 * 3000 * 512

    def test_table_stats_counters_exact(self):
        t = HashTable.create(None, in_memory=True, concurrent=True)
        t.put(b"k", b"v")

        def worker(_t):
            for _ in range(2000):
                assert t.get(b"k") == b"v"

        _run_threads(worker, n=4)
        assert t.stats.gets == 4 * 2000
        t.close()
