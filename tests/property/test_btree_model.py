"""Model-based property tests for the btree access method."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.access.btree import BTree

KEYS = st.binary(min_size=0, max_size=12)
VALUES = st.binary(min_size=0, max_size=60)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), KEYS, VALUES),
        st.tuples(st.just("delete"), KEYS, st.just(b"")),
        st.tuples(st.just("get"), KEYS, st.just(b"")),
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_btree_matches_dict_and_stays_sorted(ops):
    t = BTree.create(None, bsize=512, in_memory=True)
    try:
        model: dict[bytes, bytes] = {}
        for op, key, value in ops:
            if op == "put":
                assert t.put(key, value) == 0
                model[key] = value
            elif op == "delete":
                assert t.delete(key) == (0 if key in model else 1)
                model.pop(key, None)
            else:
                assert t.get(key) == model.get(key)
        assert list(t.items()) == sorted(model.items())
        assert len(t) == len(model)
        t.check_invariants()
    finally:
        t.close()


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    keys=st.sets(st.binary(min_size=1, max_size=16), max_size=200),
    bsize=st.sampled_from([512, 1024]),
)
def test_btree_bulk_insert_sorted(keys, bsize):
    """Any key set, any page size: iteration is exactly sorted(keys)."""
    t = BTree.create(None, bsize=bsize, in_memory=True)
    try:
        for k in keys:
            t.put(k, k)
        assert [k for k, _v in t.items()] == sorted(keys)
        t.check_invariants()
    finally:
        t.close()


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_btree_disk_reopen_matches(ops, tmp_path_factory):
    path = tmp_path_factory.mktemp("bt") / "t.bt"
    t = BTree.create(path, bsize=512)
    model: dict[bytes, bytes] = {}
    try:
        for op, key, value in ops:
            if op == "put":
                t.put(key, value)
                model[key] = value
            elif op == "delete":
                t.delete(key)
                model.pop(key, None)
    finally:
        t.close()
    t2 = BTree.open_file(path)
    try:
        assert list(t2.items()) == sorted(model.items())
        t2.check_invariants()
    finally:
        t2.close()


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    sizes=st.lists(st.integers(0, 3000), min_size=1, max_size=8),
)
def test_btree_mixed_inline_and_overflow_data(sizes):
    """Values straddling the big-data threshold round-trip correctly."""
    t = BTree.create(None, bsize=512, in_memory=True)
    try:
        for i, size in enumerate(sizes):
            t.put(f"k{i}".encode(), bytes([i % 256]) * size)
        for i, size in enumerate(sizes):
            assert t.get(f"k{i}".encode()) == bytes([i % 256]) * size
        t.check_invariants()
    finally:
        t.close()


def test_btree_split_cuts_by_bytes_not_slots():
    """Pinned counter-example of the property above: cutting the leaf at
    ``nslots // 2`` left the half that took k5 one byte short."""
    sizes = [0, 0, 0, 151, 157, 157]
    t = BTree.create(None, bsize=512, in_memory=True)
    try:
        for i, size in enumerate(sizes):
            t.put(f"k{i}".encode(), bytes([i]) * size)
        assert [(k, len(v)) for k, v in t.items()] == [
            (f"k{i}".encode(), size) for i, size in enumerate(sizes)
        ]
        t.check_invariants()
    finally:
        t.close()
