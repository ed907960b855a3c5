"""Tests for the mapping interface and dbm-style flags of ``repro.open``
(also exported as ``repro.hash_open``)."""

import pytest

import repro
from repro.access.db import open as hash_open


class TestHashDB:
    def test_mapping_protocol(self):
        db = hash_open()
        db[b"k"] = b"v"
        assert db[b"k"] == b"v"
        assert b"k" in db
        assert len(db) == 1
        del db[b"k"]
        assert len(db) == 0

    def test_str_keys_encoded_utf8(self):
        db = hash_open()
        db["clé"] = "valüe"
        assert db["clé"] == "valüe".encode("utf-8")
        assert db[b"cl\xc3\xa9"] == "valüe".encode("utf-8")

    def test_missing_key_raises(self):
        db = hash_open()
        with pytest.raises(KeyError):
            db[b"nope"]
        with pytest.raises(KeyError):
            del db[b"nope"]

    def test_get_default(self):
        db = hash_open()
        assert db.get(b"nope") is None
        assert db.get_default(b"nope", b"d") == b"d"

    def test_bad_key_type(self):
        db = hash_open()
        with pytest.raises(TypeError):
            db[42] = b"v"

    def test_iteration_and_update(self):
        db = hash_open()
        db.update({b"a": b"1", b"b": b"2"})
        assert sorted(db) == [b"a", b"b"]
        assert sorted(db.items()) == [(b"a", b"1"), (b"b", b"2")]

    def test_setdefault_and_pop(self):
        db = hash_open()
        assert db.setdefault(b"k", b"v") == b"v"
        assert db.setdefault(b"k", b"other") == b"v"
        assert db.pop(b"k") == b"v"
        assert db.pop(b"k", b"gone") == b"gone"


class TestOpen:
    def test_open_c_creates(self, tmp_path):
        p = tmp_path / "db"
        with hash_open(p, "c") as db:
            db[b"k"] = b"v"
        with hash_open(p, "r") as db:
            assert db[b"k"] == b"v"

    def test_open_r_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            hash_open(tmp_path / "missing", "r")

    def test_open_n_truncates(self, tmp_path):
        p = tmp_path / "db"
        with hash_open(p, "c") as db:
            db[b"old"] = b"1"
        with hash_open(p, "n") as db:
            assert b"old" not in db

    def test_open_w_existing(self, tmp_path):
        p = tmp_path / "db"
        hash_open(p, "c").close()
        with hash_open(p, "w") as db:
            db[b"k"] = b"v"
        with hash_open(p, "r") as db:
            assert db[b"k"] == b"v"

    def test_open_r_is_readonly(self, tmp_path):
        p = tmp_path / "db"
        hash_open(p, "c").close()
        db = hash_open(p, "r")
        with pytest.raises(repro.ReadOnlyError):
            db[b"k"] = b"v"
        db.close()

    def test_bad_flag(self, tmp_path):
        with pytest.raises(ValueError):
            hash_open(tmp_path / "db", "x")

    def test_open_none_is_anonymous(self):
        with hash_open(None, "c") as db:
            db[b"k"] = b"v"
            assert db[b"k"] == b"v"

    def test_repro_hash_open_is_the_same_function(self):
        # repro.open is the unified access-method entry point; repro.hash_open
        # is kept as an alias of it
        assert repro.hash_open is hash_open
        from repro.access.db import open as unified_open

        assert repro.open is unified_open

    def test_create_parameters_forwarded(self, tmp_path):
        with hash_open(tmp_path / "db", "c", bsize=1024, ffactor=32) as db:
            assert db.table.header.bsize == 1024
            assert db.table.header.ffactor == 32

    def test_sync(self, tmp_path):
        p = tmp_path / "db"
        db = hash_open(p, "c")
        db[b"k"] = b"v"
        db.sync()
        with hash_open(p, "r") as db2:
            assert db2[b"k"] == b"v"
        db.close()
