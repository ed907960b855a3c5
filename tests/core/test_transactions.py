"""The transaction API: begin/commit/abort semantics, the ``with
transaction():`` form, misuse errors, checkpointing, and the deprecated
positional-flags migration on ``put``."""

from __future__ import annotations

import os
import shutil
import statistics
import threading
import time
import warnings

import pytest

import repro
from repro.access.api import R_NOOVERWRITE
from repro.core.errors import InvalidParameterError, ReadOnlyError, TransactionError
from repro.core.table import HashTable
from repro.core.wal import FT_DELETE, FT_PUT, wal_path_for


@pytest.fixture
def table(tmp_path):
    t = HashTable.create(tmp_path / "t.db", bsize=512, durability="wal")
    yield t
    if not t.closed:
        t.close()


class TestExplicitTransactions:
    def test_commit_makes_writes_visible_and_durable(self, table, tmp_path):
        table.begin()
        table.put(b"a", b"1")
        table.put(b"b", b"2")
        table.commit()
        assert table.get(b"a") == b"1"
        table.close()
        with HashTable.open_file(tmp_path / "t.db") as t2:
            assert t2.get(b"a") == b"1" and t2.get(b"b") == b"2"

    def test_abort_rewinds_everything(self, table):
        table.put(b"keep", b"old")
        table.begin()
        table.put(b"keep", b"new")
        table.put(b"gone", b"x")
        table.delete(b"keep")
        table.abort()
        assert table.get(b"keep") == b"old"
        assert table.get(b"gone") is None
        assert table.nkeys == 1

    def test_abort_rewinds_splits(self, table):
        table.begin()
        for i in range(500):
            table.put(f"k{i:04d}".encode(), b"v" * 40)
        buckets_mid = table.nbuckets
        table.abort()
        assert table.nkeys == 0
        assert table.nbuckets < buckets_mid
        # table still fully usable
        table.put(b"after", b"ok")
        assert table.get(b"after") == b"ok"

    def test_nested_begin_raises(self, table):
        table.begin()
        with pytest.raises(TransactionError, match="nest"):
            table.begin()
        table.abort()

    def test_commit_abort_without_begin_raise(self, table):
        with pytest.raises(TransactionError):
            table.commit()
        with pytest.raises(TransactionError):
            table.abort()

    def test_in_transaction_flag(self, table):
        assert table.in_transaction is False
        table.begin()
        assert table.in_transaction is True
        table.commit()
        assert table.in_transaction is False

    def test_crash_preserves_committed_only(self, tmp_path):
        path = tmp_path / "t.db"
        t = HashTable.create(path, bsize=512, durability="wal")
        t.begin()
        for i in range(100):
            t.put(f"c{i}".encode(), f"v{i}".encode())
        t.commit()
        t.begin()
        t.put(b"uncommitted", b"x")
        # simulated kill -9: no commit, no close
        del t
        with HashTable.open_file(path) as t2:
            assert t2.get(b"c42") == b"v42"
            assert t2.get(b"uncommitted") is None
            assert t2.nkeys == 100


class TestContextManager:
    def test_clean_exit_commits(self, table):
        with table.transaction():
            table.put(b"k", b"v")
        assert table.get(b"k") == b"v"
        assert table.in_transaction is False

    def test_exception_aborts_and_propagates(self, table):
        with pytest.raises(RuntimeError, match="boom"):
            with table.transaction():
                table.put(b"k", b"v")
                raise RuntimeError("boom")
        assert table.get(b"k") is None
        assert table.in_transaction is False


class TestMisuse:
    def test_sync_inside_transaction_raises(self, table):
        table.begin()
        with pytest.raises(TransactionError, match="sync"):
            table.sync()
        table.abort()

    def test_checkpoint_inside_transaction_raises(self, table):
        table.begin()
        with pytest.raises(TransactionError):
            table.checkpoint()
        table.abort()

    def test_begin_without_durability_raises(self, tmp_path):
        with HashTable.create(tmp_path / "p.db", bsize=512) as t:
            with pytest.raises(TransactionError, match="durability"):
                t.begin()

    def test_bad_durability_value_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="durability"):
            HashTable.create(tmp_path / "p.db", durability="fsync-maybe")

    def test_readonly_open_disables_wal(self, tmp_path):
        path = tmp_path / "t.db"
        with HashTable.create(path, bsize=512, durability="wal") as t:
            t.put(b"k", b"v")
        t2 = HashTable.open_file(path, readonly=True, durability="wal")
        assert t2.durability == "none"
        with pytest.raises(ReadOnlyError):
            t2.begin()
        t2.close()


class TestCloseSemantics:
    def test_close_rolls_back_open_transaction(self, tmp_path):
        path = tmp_path / "t.db"
        t = HashTable.create(path, bsize=512, durability="wal")
        t.put(b"committed", b"yes")
        t.begin()
        t.put(b"half", b"no")
        t.close()
        with HashTable.open_file(path) as t2:
            assert t2.get(b"committed") == b"yes"
            assert t2.get(b"half") is None

    def test_close_truncates_log(self, tmp_path):
        path = tmp_path / "t.db"
        t = HashTable.create(path, bsize=512, durability="wal")
        t.begin()
        for i in range(50):
            t.put(f"k{i}".encode(), b"v" * 60)
        t.commit()
        t.close()
        # a clean close checkpoints: the log holds only its header + marker
        assert os.path.getsize(wal_path_for(path)) < 128


class TestCheckpointing:
    def test_manual_checkpoint_transfers_and_truncates(self, table):
        table.begin()
        for i in range(50):
            table.put(f"k{i}".encode(), b"v" * 60)
        table.commit()
        moved = table.checkpoint()
        assert moved > 0
        s = table.stat()["wal"]
        assert s["checkpoints"] >= 1
        assert s["committed_pages"] == 0
        assert table.get(b"k13") == b"v" * 60

    def test_auto_checkpoint_bounds_log(self, tmp_path):
        t = HashTable.create(
            tmp_path / "t.db", bsize=512, durability="wal",
            wal_checkpoint_bytes=4096,
        )
        for i in range(300):
            t.put(f"k{i:04d}".encode(), b"v" * 50)
        s = t.stat()["wal"]
        assert s["checkpoints"] >= 1
        # the log never grows far past the threshold before a checkpoint
        assert s["wal_bytes"] < 4096 * 8
        t.close()

    def test_in_memory_transactions(self):
        t = HashTable.create(None, bsize=512, in_memory=True, durability="wal")
        t.begin()
        t.put(b"a", b"1")
        t.commit()
        t.begin()
        t.put(b"b", b"2")
        t.abort()
        assert t.get(b"a") == b"1" and t.get(b"b") is None
        t.close()


class TestCommitCostModel:
    """begin/commit cost O(pages the transaction dirtied), not O(resident
    buffers): the same transactions against the same file, with 64 and
    with 4 096 buffers resident.  An in-run ratio, never a wall-clock
    figure; the deterministic counters must not differ at all."""

    NTXN = 300

    def _arm(self, seed_file, path, resident):
        shutil.copy(seed_file, path)
        t = HashTable.open_file(path, cachesize=8 << 20, durability="wal")
        try:
            txn_keys = [b"key%06d" % (i % 32 * 1009) for i in range(self.NTXN)]
            # the transactions' own pages first, then filler up to `resident`
            for k in txn_keys:
                assert t.get(k) is not None
            assert len(t.pool) < 64
            i = 0
            while len(t.pool) < resident:
                t.get(b"key%06d" % i)
                i += 1
            assert len(t.pool) < resident + 8
            t.begin()  # seal the implicit transaction outside the timing
            t.commit()
            before = t.stat()
            times = []
            for n, k in enumerate(txn_keys):
                t0 = time.perf_counter()
                t.begin()
                t.put(k, b"w%07d" % n)
                t.commit()
                times.append(time.perf_counter() - t0)
            after = t.stat()
            assert after["buffer"]["evictions"] == 0
            counters = {
                (sec, k): after[sec][k] - before[sec][k]
                for sec in ("io", "wal")
                for k, v in before[sec].items()
                if isinstance(v, int) and not isinstance(v, bool)
            }
            return statistics.median(times), counters
        finally:
            t.close()

    def test_commit_time_does_not_follow_resident_buffers(self, tmp_path):
        seed_file = tmp_path / "seed.db"
        with HashTable.create(seed_file, bsize=512, ffactor=8, nelem=40000) as t:
            t.put_many([(b"key%06d" % i, b"v%07d" % i) for i in range(40000)])
        small, small_counters = self._arm(seed_file, tmp_path / "a.db", 64)
        large, large_counters = self._arm(seed_file, tmp_path / "b.db", 4096)
        assert small_counters == large_counters
        assert small_counters["wal", "commits"] == self.NTXN
        assert small_counters["io", "page_reads"] == 0
        assert large <= 2 * small, (
            f"median commit took {large * 1e6:.0f} us with 4096 resident "
            f"buffers against {small * 1e6:.0f} us with 64"
        )


class TestAuditFrames:
    def test_wal_audit_logs_puts_and_deletes(self, tmp_path):
        path = tmp_path / "t.db"
        t = HashTable.create(path, bsize=512, durability="wal", wal_audit=True)
        t.begin()
        t.put(b"k1", b"v1")
        t.put(b"k2", b"v2")
        t.delete(b"k1")
        ftypes = [f.ftype for f in t._wal.scan()]
        assert ftypes.count(FT_PUT) == 2
        assert ftypes.count(FT_DELETE) == 1
        t.abort()
        t.close()


class TestStatSection:
    def test_wal_metrics_shape(self, table):
        table.begin()
        table.put(b"k", b"v")
        table.commit()
        s = table.stat()["wal"]
        for key in (
            "durability", "commits", "aborts", "fsyncs", "checkpoints",
            "frames", "resets", "wal_bytes", "pending_pages",
            "committed_pages", "io",
        ):
            assert key in s, key
        assert s["durability"] == "wal"
        assert s["commits"] >= 1

    def test_no_wal_section_without_durability(self, tmp_path):
        with HashTable.create(tmp_path / "p.db", bsize=512) as t:
            assert "wal" not in t.stat()


class TestAccessMethods:
    """The redesigned API is uniform across hash, btree and recno."""

    @pytest.mark.parametrize("kind", ["hash", "btree", "recno"])
    def test_txn_api_everywhere(self, tmp_path, kind):
        db = repro.open(tmp_path / "db", type=kind, durability="wal")
        k1 = repro.access.recno.recno.encode_recno(1) if kind == "recno" else b"k1"
        k2 = repro.access.recno.recno.encode_recno(2) if kind == "recno" else b"k2"
        db.begin()
        assert db.put(k1, b"v1") == 0
        db.commit()
        db.begin()
        db.put(k2, b"v2")
        db.abort()
        assert db.get(k1) == b"v1"
        assert db.get(k2) is None
        with db.transaction():
            db.put(k2, b"v2")
        assert db.get(k2) == b"v2"
        assert db.in_transaction is False
        assert db.stat()["wal"]["commits"] >= 2
        db.close()
        # durable across reopen
        db2 = repro.open(tmp_path / "db", type=kind, durability="wal")
        assert db2.get(k1) == b"v1" and db2.get(k2) == b"v2"
        db2.close()

    @pytest.mark.parametrize("kind", ["hash", "btree", "recno"])
    def test_begin_without_durability_raises(self, tmp_path, kind):
        db = repro.open(tmp_path / "db", type=kind)
        with pytest.raises(TransactionError):
            db.begin()
        db.close()

    @pytest.mark.parametrize("kind", ["btree", "recno"])
    def test_sync_inside_transaction_raises(self, tmp_path, kind):
        db = repro.open(tmp_path / "db", type=kind, durability="wal")
        db.begin()
        with pytest.raises(TransactionError, match="sync"):
            db.sync()
        db.abort()
        db.close()

    @pytest.mark.parametrize("kind", ["btree", "recno"])
    def test_checkpoint_inside_transaction_raises(self, tmp_path, kind):
        db = repro.open(tmp_path / "db", type=kind, durability="wal")
        db.begin()
        with pytest.raises(TransactionError):
            db.checkpoint()
        db.abort()
        db.close()

    @pytest.mark.parametrize("kind", ["btree", "recno"])
    def test_close_rolls_back_open_transaction(self, tmp_path, kind):
        k1 = repro.access.recno.recno.encode_recno(1) if kind == "recno" else b"k1"
        k2 = repro.access.recno.recno.encode_recno(2) if kind == "recno" else b"k2"
        db = repro.open(tmp_path / "db", type=kind, durability="wal")
        db.put(k1, b"committed")
        db.begin()
        db.put(k2, b"half")
        db.close()
        db = repro.open(tmp_path / "db", type=kind, durability="wal")
        try:
            assert db.get(k1) == b"committed"
            assert db.get(k2) is None
            assert len(db) == 1
        finally:
            db.close()

    @pytest.mark.parametrize("kind", ["btree", "recno"])
    def test_second_close_is_noop(self, tmp_path, kind):
        db = repro.open(tmp_path / "db", type=kind, durability="wal")
        db.close()
        db.close()
        assert db.closed

    def test_recno_abort_rewinds_record_count(self, tmp_path):
        r = repro.open(tmp_path / "r.db", type="recno", durability="wal")
        r.append(b"one")
        r.begin()
        r.append(b"two")
        r.append(b"three")
        assert r.nrecords == 3
        r.abort()
        assert r.nrecords == 1
        assert r.get_rec(2) is None
        r.close()

    def test_group_commit_concurrent_committers(self, tmp_path):
        db = repro.open(
            tmp_path / "g.db", durability="wal+fsync", concurrent=True
        )
        errors = []

        def worker(i):
            try:
                for j in range(5):
                    db.begin()
                    db.put(f"t{i}-{j}".encode(), b"v")
                    db.commit()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        s = db.stat()["wal"]
        assert s["group_commits"] == 40
        assert s["fsyncs"] <= s["group_commits"]
        for i in range(8):
            for j in range(5):
                assert db.get(f"t{i}-{j}".encode()) == b"v"
        db.close()


class TestPutDeprecation:
    def test_positional_flags_warns(self, tmp_path):
        db = repro.open(tmp_path / "d.db")
        db.put(b"k", b"v")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert db.put(b"k", b"x", R_NOOVERWRITE) == 1
            assert db.put(b"k", b"y", 0) == 0
        assert len(caught) == 2
        assert all(issubclass(w.category, DeprecationWarning) for w in caught)
        assert "replace" in str(caught[0].message)
        db.close()

    def test_replace_keyword_is_silent(self, tmp_path):
        db = repro.open(tmp_path / "d.db")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert db.put(b"k", b"v") == 0
            assert db.put(b"k", b"x", replace=False) == 1
            assert db.put(b"k", b"y", replace=True) == 0
        assert db.get(b"k") == b"y"
        db.close()

    def test_both_flags_and_replace_is_an_error(self, tmp_path):
        db = repro.open(tmp_path / "d.db")
        with pytest.raises(TypeError, match="not both"):
            db.put(b"k", b"v", 0, replace=True)
        db.close()

    @pytest.mark.parametrize("kind", ["hash", "btree", "recno"])
    def test_replace_false_everywhere(self, tmp_path, kind):
        db = repro.open(tmp_path / "db", type=kind)
        key = repro.access.recno.recno.encode_recno(1) if kind == "recno" else b"k"
        assert db.put(key, b"first") == 0
        assert db.put(key, b"second", replace=False) == 1
        assert db.get(key) == b"first"
        db.close()
