"""Tests for the btree access method."""

import random

import pytest

from repro.access.api import R_CURSOR, R_FIRST, R_LAST, R_NEXT, R_NOOVERWRITE, R_PREV
from repro.access.btree import BTree
from repro.core.errors import (
    BadFileError,
    ClosedError,
    InvalidParameterError,
    ReadOnlyError,
)


@pytest.fixture
def tree():
    t = BTree.create(None, bsize=512, in_memory=True)
    yield t
    if not t.closed:
        t.close()


class TestBasics:
    def test_put_get(self, tree):
        assert tree.put(b"k", b"v") == 0
        assert tree.get(b"k") == b"v"
        assert tree.get(b"missing") is None

    def test_replace(self, tree):
        tree.put(b"k", b"old")
        tree.put(b"k", b"new longer value")
        assert tree.get(b"k") == b"new longer value"
        assert len(tree) == 1

    def test_nooverwrite(self, tree):
        tree.put(b"k", b"v")
        assert tree.put(b"k", b"other", replace=False) == 1
        assert tree.get(b"k") == b"v"

    def test_delete(self, tree):
        tree.put(b"k", b"v")
        assert tree.delete(b"k") == 0
        assert tree.delete(b"k") == 1
        assert tree.get(b"k") is None
        assert len(tree) == 0

    def test_empty_key_and_value(self, tree):
        tree.put(b"", b"")
        assert tree.get(b"") == b""
        tree.put(b"", b"x")
        assert tree.get(b"") == b"x"

    def test_oversized_key_rejected(self, tree):
        with pytest.raises(InvalidParameterError, match="key"):
            tree.put(b"K" * 1000, b"v")  # > quarter of a 512-byte page

    def test_type_checks(self, tree):
        with pytest.raises(TypeError):
            tree.put("str", b"v")


class TestSortedOrder:
    def test_iteration_is_sorted(self, tree):
        rng = random.Random(7)
        keys = {f"{rng.randrange(10**6):06d}".encode() for _ in range(2000)}
        for k in keys:
            tree.put(k, k[::-1])
        assert [k for k, _v in tree.items()] == sorted(keys)
        tree.check_invariants()

    def test_reverse_scan_mirrors_forward(self, tree):
        for i in range(500):
            tree.put(f"k{i:05d}".encode(), b"v")
        fwd = [k for k, _v in tree.items()]
        rev = []
        rec = tree.seq(R_LAST)
        while rec is not None:
            rev.append(rec[0])
            rec = tree.seq(R_PREV)
        assert rev == fwd[::-1]

    def test_cursor_positions_at_or_after(self, tree):
        for k in (b"b", b"d", b"f"):
            tree.put(k, b"v")
        assert tree.seq(R_CURSOR, key=b"c")[0] == b"d"
        assert tree.seq(R_CURSOR, key=b"d")[0] == b"d"
        assert tree.seq(R_CURSOR, key=b"g") is None
        assert tree.seq(R_CURSOR, key=b"")[0] == b"b"

    def test_cursor_then_next(self, tree):
        for k in (b"a", b"b", b"c"):
            tree.put(k, b"v")
        assert tree.seq(R_CURSOR, key=b"b")[0] == b"b"
        assert tree.seq(R_NEXT)[0] == b"c"
        assert tree.seq(R_NEXT) is None

    def test_range_scan_use_case(self, tree):
        """The thing hash cannot do: ordered range queries."""
        for i in range(100):
            tree.put(f"user:{i:04d}".encode(), str(i).encode())
        got = []
        rec = tree.seq(R_CURSOR, key=b"user:0020")
        while rec is not None and rec[0] < b"user:0030":
            got.append(rec[0])
            rec = tree.seq(R_NEXT)
        assert got == [f"user:{i:04d}".encode() for i in range(20, 30)]

    def test_seq_flags_validated(self, tree):
        with pytest.raises(ValueError):
            tree.seq(99)
        with pytest.raises(ValueError):
            tree.seq(R_CURSOR)  # needs a key

    def test_empty_tree_seq(self, tree):
        assert tree.seq(R_FIRST) is None
        assert tree.seq(R_LAST) is None
        assert tree.seq(R_NEXT) is None


class TestSplitting:
    def test_many_keys_many_levels(self):
        t = BTree.create(None, bsize=512, in_memory=True)
        n = 3000
        for i in range(n):
            t.put(f"key-{i:06d}".encode(), f"value-{i}".encode())
        assert len(t) == n
        for i in range(0, n, 97):
            assert t.get(f"key-{i:06d}".encode()) == f"value-{i}".encode()
        t.check_invariants()
        assert t.npages > 50  # really multi-level
        t.close()

    def test_ascending_and_descending_inserts(self):
        for order in (range(1000), reversed(range(1000))):
            t = BTree.create(None, bsize=512, in_memory=True)
            for i in order:
                t.put(f"{i:05d}".encode(), b"v")
            assert [k for k, _v in t.items()] == [
                f"{i:05d}".encode() for i in range(1000)
            ]
            t.check_invariants()
            t.close()

    def test_large_entries_force_splits(self, tree):
        for i in range(60):
            tree.put(f"k{i:03d}".encode(), b"D" * 100)
        assert len(tree) == 60
        tree.check_invariants()

    def test_mixed_size_keys_split_leaves_and_internal_nodes(self, tree):
        # keys from 1 byte to the limit, values straddling the big-data
        # threshold, random order: every split sees uneven entries, and
        # the long separators make internal nodes split by bytes too
        rng = random.Random(7)
        model = {}
        for _ in range(1500):
            key = rng.randbytes(rng.choice((1, 6, 40, tree._max_key_len)))
            value = b"v" * rng.choice(
                (0, 3, 150, tree._big_threshold - len(key) - 4, 400)
            )
            tree.put(key, value)
            model[key] = value
        assert list(tree.items()) == sorted(model.items())
        tree.check_invariants()
        assert tree.stat()["method"]["internal_splits"] > 0


class TestBigData:
    def test_data_larger_than_page(self, tree):
        tree.put(b"big", b"X" * 5000)
        assert tree.get(b"big") == b"X" * 5000

    def test_very_large_data(self, tree):
        blob = bytes(i % 251 for i in range(200_000))
        tree.put(b"blob", blob)
        assert tree.get(b"blob") == blob

    def test_big_replace_frees_chain(self, tree):
        tree.put(b"k", b"A" * 10_000)
        pages = tree.npages
        tree.put(b"k", b"B" * 10_000)  # chain freed and reallocated
        assert tree.npages <= pages + 2
        assert tree.get(b"k") == b"B" * 10_000

    def test_big_delete_frees_pages_for_reuse(self, tree):
        tree.put(b"k", b"A" * 20_000)
        pages = tree.npages
        tree.delete(b"k")
        tree.put(b"j", b"B" * 20_000)
        assert tree.npages <= pages + 2

    def test_big_data_in_scan(self, tree):
        tree.put(b"a", b"small")
        tree.put(b"b", b"L" * 3000)
        tree.put(b"c", b"small2")
        assert dict(tree.items()) == {
            b"a": b"small",
            b"b": b"L" * 3000,
            b"c": b"small2",
        }


class TestPersistence:
    def test_reopen(self, tmp_path):
        p = tmp_path / "t.bt"
        data = {f"key-{i}".encode(): f"val-{i}".encode() * 3 for i in range(1500)}
        with BTree.create(p, bsize=1024) as t:
            for k, v in data.items():
                t.put(k, v)
        with BTree.open_file(p) as t:
            assert len(t) == len(data)
            for k, v in data.items():
                assert t.get(k) == v
            assert [k for k, _v in t.items()] == sorted(data)
            t.check_invariants()

    def test_reopen_with_big_data_and_freelist(self, tmp_path):
        p = tmp_path / "t.bt"
        with BTree.create(p, bsize=512) as t:
            t.put(b"big", b"Z" * 30_000)
            t.put(b"gone", b"Y" * 10_000)
            t.delete(b"gone")
        with BTree.open_file(p) as t:
            assert t.get(b"big") == b"Z" * 30_000
            assert t.get(b"gone") is None
            # the freed chain is reusable after reopen
            pages = t.npages
            t.put(b"new", b"W" * 8_000)
            assert t.npages <= pages + 1

    def test_readonly(self, tmp_path):
        p = tmp_path / "t.bt"
        with BTree.create(p) as t:
            t.put(b"k", b"v")
        r = BTree.open_file(p, readonly=True)
        assert r.get(b"k") == b"v"
        with pytest.raises(ReadOnlyError):
            r.put(b"x", b"y")
        r.close()

    def test_bad_file(self, tmp_path):
        p = tmp_path / "junk"
        p.write_bytes(b"not a btree" * 100)
        with pytest.raises(BadFileError):
            BTree.open_file(p)

    def test_closed_rejects(self, tmp_path):
        t = BTree.create(tmp_path / "t.bt")
        t.close()
        with pytest.raises(ClosedError):
            t.get(b"k")
        t.close()  # idempotent

    def test_bad_bsize(self):
        with pytest.raises(InvalidParameterError):
            BTree.create(None, bsize=100, in_memory=True)


class TestChurn:
    def test_interleaved_insert_delete(self, tree):
        rng = random.Random(11)
        model = {}
        for _round in range(2000):
            op = rng.random()
            key = f"{rng.randrange(300):04d}".encode()
            if op < 0.5:
                val = bytes(rng.randrange(97, 123) for _ in range(rng.randrange(40)))
                tree.put(key, val)
                model[key] = val
            elif op < 0.8:
                assert tree.delete(key) == (0 if key in model else 1)
                model.pop(key, None)
            else:
                assert tree.get(key) == model.get(key)
        assert dict(tree.items()) == dict(sorted(model.items()))
        tree.check_invariants()
