"""``compact()`` across every access method: online rewrite into minimal
form, uniform report shape, correctness of the surviving data, and the
hash method's pristine-image guarantee (size and lookup I/O match a fresh
``bulk_load`` of the survivors)."""

from __future__ import annotations

import os

import pytest

import repro
from repro.access.db import db_open
from repro.access.recno.recno import encode_recno
from repro.core.errors import TransactionError
from repro.core.table import HashTable

N = 1500
DEL = 1350


def _key(type_: str, i: int) -> bytes:
    return encode_recno(i + 1) if type_ == "recno" else f"k{i:05d}".encode()


def _churn(db, type_: str):
    for i in range(N):
        db.put(_key(type_, i), f"value-{i:05d}".encode() * 3)
    if type_ == "recno":
        # recno renumbers on delete: deleting record 1 repeatedly shifts
        # the file down -- survivors are the last N-DEL records
        for _ in range(DEL):
            db.delete(encode_recno(1))
    else:
        for i in range(DEL):
            db.delete(_key(type_, i))


class TestUniform:
    @pytest.mark.parametrize("type_", ["hash", "btree", "recno"])
    def test_report_shape_and_data_survival(self, tmp_path, type_):
        db = db_open(tmp_path / "c.db", type_, "c")
        try:
            _churn(db, type_)
            survivors = dict(db.items())
            report = db.compact()
            assert set(report) >= {
                "nkeys", "before", "after", "pages_reclaimed", "pagesize",
            }
            assert report["nkeys"] == len(db) == N - DEL
            assert report["after"]["pages"] <= report["before"]["pages"]
            assert report["pages_reclaimed"] >= 0
            assert dict(db.items()) == survivors
        finally:
            db.close()

    @pytest.mark.parametrize("type_", ["hash", "btree", "recno"])
    def test_reclaims_churn_and_persists(self, tmp_path, type_):
        path = tmp_path / "c.db"
        db = db_open(path, type_, "c")
        db.sync()
        _churn(db, type_)
        db.sync()
        churned = os.path.getsize(path)
        report = db.compact()
        assert report["pages_reclaimed"] > 0
        survivors = dict(db.items())
        db.close()
        assert os.path.getsize(path) < churned
        db = db_open(path, type_, "w")
        try:
            assert dict(db.items()) == survivors
        finally:
            db.close()

    @pytest.mark.parametrize("type_", ["hash", "btree", "recno"])
    def test_wal_mode_and_txn_guard(self, tmp_path, type_):
        path = tmp_path / "w.db"
        db = repro.open(path, type=type_, durability="wal")
        try:
            for i in range(300):
                db.put(_key(type_, i), b"x" * 30)
            for i in range(280):
                db.delete(
                    encode_recno(1) if type_ == "recno" else _key(type_, i)
                )
            db.begin()
            with pytest.raises(TransactionError):
                db.compact()
            db.abort()
            report = db.compact()
            assert report["nkeys"] == 20
            survivors = dict(db.items())
        finally:
            db.close()
        db = repro.open(path, type=type_, durability="wal")
        try:
            assert dict(db.items()) == survivors
        finally:
            db.close()

    @pytest.mark.parametrize("type_", ["hash", "btree"])
    def test_in_memory(self, type_):
        db = db_open(None, type_, "c")
        try:
            _churn(db, type_)
            report = db.compact()
            assert report["nkeys"] == N - DEL
            assert len(db) == N - DEL
        finally:
            db.close()

    @pytest.mark.parametrize("type_", ["hash", "btree"])
    def test_before_counts_unflushed_pages(self, tmp_path, type_):
        # A pool big enough to hold every page: before the first sync the
        # file holds only the header/meta page, the rest live in the pool.
        params = dict(bsize=1024, cachesize=64 << 20)
        if type_ == "hash":
            params["ffactor"] = 8
        twin = repro.open(tmp_path / "twin.db", type=type_, **params)
        db = repro.open(tmp_path / "c.db", type=type_, **params)
        try:
            for i in range(3000):
                twin.put(_key(type_, i), b"v" * 20)
                db.put(_key(type_, i), b"v" * 20)
            twin.sync()
            synced = os.path.getsize(tmp_path / "twin.db")
            report = db.compact()
            assert report["before"]["bytes"] == synced
            assert report["before"]["pages"] == synced // 1024
        finally:
            twin.close()
            db.close()

    def test_compact_idempotent(self, tmp_path):
        db = db_open(tmp_path / "i.db", "hash", "c")
        try:
            _churn(db, "hash")
            first = db.compact()
            second = db.compact()
            assert second["before"]["pages"] == first["after"]["pages"]
            assert second["pages_reclaimed"] == 0
        finally:
            db.close()


class TestHashPristine:
    """The hash guarantee: post-compact file matches a fresh presized
    bulk_load of the survivors -- in size AND lookup page reads."""

    @pytest.fixture()
    def pair_of_tables(self, tmp_path):
        churned_path = tmp_path / "churned.db"
        pristine_path = tmp_path / "pristine.db"
        t = HashTable.create(churned_path, bsize=512)
        for i in range(N):
            t.put(_key("hash", i), b"v" * 40)
        for i in range(DEL):
            t.delete(_key("hash", i))
        survivors = [(k, v) for k, v in t._iter_items()]
        t.compact()
        t.close()
        p = HashTable.create(pristine_path, bsize=512)
        p.bulk_load(survivors, nelem=len(survivors))
        p.close()
        return churned_path, pristine_path, survivors

    def test_size_within_gate(self, pair_of_tables):
        churned, pristine, _ = pair_of_tables
        assert os.path.getsize(churned) <= 1.25 * os.path.getsize(pristine)

    def test_lookup_page_reads_match(self, pair_of_tables):
        churned, pristine, survivors = pair_of_tables
        reads = {}
        for name, path in (("compacted", churned), ("pristine", pristine)):
            t = HashTable.open_file(path, readonly=True)
            try:
                for k, v in survivors:
                    assert t.get(k) == v
                reads[name] = t.io_stats.page_reads
            finally:
                t.close()
        assert reads["compacted"] == reads["pristine"]

    def test_check_clean_after_compact(self, pair_of_tables):
        from repro.core.check import verify_file

        churned, _, _ = pair_of_tables
        report = verify_file(churned)
        assert report.ok, report.render()
        assert not report.warnings, report.warnings


class TestCLI:
    def test_compact_subcommand(self, tmp_path, capsys):
        from repro.tools.__main__ import main

        path = tmp_path / "cli.db"
        db = db_open(path, "hash", "c")
        _churn(db, "hash")
        db.sync()
        before = os.path.getsize(path)
        db.close()
        assert main(["compact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "compacted" in out and "reclaimed" in out
        assert os.path.getsize(path) < before

    def test_stat_space_flag(self, tmp_path, capsys):
        from repro.tools.__main__ import main

        path = tmp_path / "cli.db"
        db = db_open(path, "hash", "c")
        _churn(db, "hash")
        db.close()
        assert main(["stat", "--space", str(path)]) == 0
        out = capsys.readouterr().out
        for field in (
            "file_pages", "freelist_pages", "overflow_allocated",
            "fill_factor", "fragmentation_pct",
        ):
            assert field in out

    def test_stat_space_btree(self, tmp_path, capsys):
        from repro.tools.__main__ import main

        path = tmp_path / "cli.db"
        db = db_open(path, "btree", "c")
        for i in range(200):
            db.put(_key("btree", i), b"v" * 30)
        db.close()
        assert main(["stat", "--space", str(path)]) == 0
        out = capsys.readouterr().out
        assert "file_pages" in out and "free_pages" in out
