"""Tests for the ndbm- and hsearch-compatible interfaces."""

import pytest

from repro.core import InvalidParameterError
from repro.core.compat import hsearch as hs
from repro.core.compat.hsearch import ENTER, FIND, HsearchCompat
from repro.core.compat.ndbm import DBM_INSERT, DBM_REPLACE, NdbmCompat, dbm_open


class TestNdbmCompat:
    def test_store_fetch_delete(self, tmp_path):
        with dbm_open(tmp_path / "db", "c") as db:
            assert db.store(b"k", b"v") == 0
            assert db.fetch(b"k") == b"v"
            assert db.delete(b"k") == 0
            assert db.fetch(b"k") is None
            assert db.delete(b"k") == -1

    def test_insert_flag_semantics(self, tmp_path):
        with dbm_open(tmp_path / "db", "c") as db:
            assert db.store(b"k", b"v1", DBM_INSERT) == 0
            assert db.store(b"k", b"v2", DBM_INSERT) == 1  # refused
            assert db.fetch(b"k") == b"v1"
            assert db.store(b"k", b"v2", DBM_REPLACE) == 0
            assert db.fetch(b"k") == b"v2"

    def test_bad_flags(self, tmp_path):
        with dbm_open(tmp_path / "db", "c") as db:
            with pytest.raises(ValueError):
                db.store(b"k", b"v", 7)

    def test_firstkey_nextkey_scan(self, tmp_path):
        with dbm_open(tmp_path / "db", "c") as db:
            expected = set()
            for i in range(100):
                k = f"key{i}".encode()
                db.store(k, b"v")
                expected.add(k)
            seen = set()
            k = db.firstkey()
            while k is not None:
                seen.add(k)
                k = db.nextkey()
            assert seen == expected

    def test_multiple_databases_concurrently(self, tmp_path):
        """The ndbm improvement over dbm, kept by the new package."""
        db1 = dbm_open(tmp_path / "one", "c")
        db2 = dbm_open(tmp_path / "two", "c")
        db1.store(b"k", b"from-one")
        db2.store(b"k", b"from-two")
        assert db1.fetch(b"k") == b"from-one"
        assert db2.fetch(b"k") == b"from-two"
        db1.close()
        db2.close()

    def test_enhanced_large_pairs_never_fail(self, tmp_path):
        """'Inserts never fail because key and/or associated data is too
        large' -- unlike real ndbm."""
        with dbm_open(tmp_path / "db", "c", bsize=256) as db:
            assert db.store(b"bigkey" * 100, b"bigdata" * 1000) == 0
            assert db.fetch(b"bigkey" * 100) == b"bigdata" * 1000

    def test_single_file_not_pag_dir_pair(self, tmp_path):
        db = dbm_open(tmp_path / "db", "c")
        db.store(b"k", b"v")
        db.close()
        assert (tmp_path / "db").exists()
        assert not (tmp_path / "db.pag").exists()
        assert not (tmp_path / "db.dir").exists()

    def test_reopen(self, tmp_path):
        with dbm_open(tmp_path / "db", "c") as db:
            db.store(b"k", b"v")
        with dbm_open(tmp_path / "db", "r") as db:
            assert db.fetch(b"k") == b"v"

    def test_escape_hatch_to_native(self, tmp_path):
        with dbm_open(tmp_path / "db", "c") as db:
            db.store(b"k", b"v")
            assert db.table.get(b"k") == b"v"

    def test_bad_open_flag_rejected(self, tmp_path):
        existing = tmp_path / "db"
        with dbm_open(existing, "c") as db:
            db.store(b"k", b"v")
        before = existing.read_bytes()
        with pytest.raises(InvalidParameterError):
            dbm_open(existing, "x")
        assert existing.read_bytes() == before
        with pytest.raises(InvalidParameterError):
            dbm_open(tmp_path / "missing", "x")
        assert not (tmp_path / "missing").exists()


class TestHsearchCompat:
    def test_enter_and_find(self):
        t = HsearchCompat(nelem=100)
        assert t.hsearch(b"k", b"v", ENTER) == b"v"
        assert t.hsearch(b"k", None, FIND) == b"v"
        assert t.hsearch(b"missing", None, FIND) is None
        t.hdestroy()

    def test_enter_existing_returns_old(self):
        t = HsearchCompat(nelem=10)
        t.hsearch(b"k", b"first", ENTER)
        assert t.hsearch(b"k", b"second", ENTER) == b"first"
        t.hdestroy()

    def test_enter_requires_data(self):
        t = HsearchCompat(nelem=10)
        with pytest.raises(ValueError):
            t.hsearch(b"k", None, ENTER)
        t.hdestroy()

    def test_bad_action(self):
        t = HsearchCompat(nelem=10)
        with pytest.raises(ValueError):
            t.hsearch(b"k", b"v", 9)
        t.hdestroy()

    def test_grows_past_nelem(self):
        """Enhanced over System V: no 'table full' failure."""
        t = HsearchCompat(nelem=4)
        for i in range(500):
            t.hsearch(f"k{i}".encode(), b"v", ENTER)
        assert t.table.nkeys == 500
        t.hdestroy()

    def test_multiple_tables_via_objects(self):
        a = HsearchCompat(nelem=10)
        b = HsearchCompat(nelem=10)
        a.hsearch(b"k", b"A", ENTER)
        b.hsearch(b"k", b"B", ENTER)
        assert a.hsearch(b"k", None, FIND) == b"A"
        assert b.hsearch(b"k", None, FIND) == b"B"
        a.hdestroy()
        b.hdestroy()

    def test_bad_nelem(self):
        with pytest.raises(ValueError):
            HsearchCompat(nelem=0)


class TestGlobalHsearch:
    """The faithful single-global-table System V shape."""

    def teardown_method(self):
        hs.hdestroy()

    def test_lifecycle(self):
        assert hs.hcreate(100) is True
        assert hs.hcreate(100) is False  # one global table only
        hs.hsearch(b"k", b"v", ENTER)
        assert hs.hsearch(b"k", None, FIND) == b"v"
        hs.hdestroy()
        assert hs.hcreate(10) is True  # allowed again after destroy

    def test_use_before_create(self):
        with pytest.raises(RuntimeError):
            hs.hsearch(b"k", b"v", ENTER)

    def test_hdestroy_without_create_is_noop(self):
        hs.hdestroy()
