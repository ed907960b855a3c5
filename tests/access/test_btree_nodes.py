"""Unit tests for the btree node page layout."""

import pytest

from repro.access.btree.nodes import (
    NODE_HDR_SIZE,
    T_INTERNAL,
    T_LEAF,
    NodeView,
    split_cut,
)
from repro.core.errors import HashError


def make_leaf(bsize=512):
    view = NodeView(bytearray(bsize))
    view.initialize(T_LEAF)
    return view


def make_internal(bsize=512):
    view = NodeView(bytearray(bsize))
    view.initialize(T_INTERNAL)
    return view


class TestHeader:
    def test_initialize(self):
        view = make_leaf()
        assert view.type == T_LEAF
        assert view.nslots == 0
        assert view.data_off == 512
        assert view.next == 0
        assert view.prev == 0
        assert view.free_space == 512 - NODE_HDR_SIZE

    def test_link_fields(self):
        view = make_leaf()
        view.next = 42
        view.prev = 17
        assert view.next == 42
        assert view.prev == 17


class TestLeafEntries:
    def test_insert_sorted_and_read(self):
        view = make_leaf()
        for i, key in enumerate([b"bb", b"dd", b"ff"]):
            view._insert_entry(i, NodeView.pack_leaf_entry(key, b"v" + key))
        # splice into the middle
        slot, exact = view.leaf_search(b"cc")
        assert (slot, exact) == (1, False)
        view._insert_entry(slot, NodeView.pack_leaf_entry(b"cc", b"vcc"))
        keys = [view.leaf_key(i) for i in range(view.nslots)]
        assert keys == [b"bb", b"cc", b"dd", b"ff"]
        k, payload, big = view.leaf_entry(1)
        assert (k, payload, big) == (b"cc", b"vcc", False)

    def test_search_exact_and_missing(self):
        view = make_leaf()
        for i, key in enumerate([b"a", b"c", b"e"]):
            view._insert_entry(i, NodeView.pack_leaf_entry(key, b""))
        assert view.leaf_search(b"c") == (1, True)
        assert view.leaf_search(b"b") == (1, False)
        assert view.leaf_search(b"z") == (3, False)
        assert view.leaf_search(b"") == (0, False)

    def test_big_entry(self):
        view = make_leaf()
        view._insert_entry(0, NodeView.pack_big_leaf_entry(b"key", 99, 100000))
        k, payload, big = view.leaf_entry(0)
        assert big
        assert NodeView.unpack_big_ref(payload) == (99, 100000)
        assert view.leaf_entry_len(0) == 4 + 3 + 8

    def test_delete_compacts(self):
        view = make_leaf()
        for i, key in enumerate([b"a", b"b", b"c"]):
            view._insert_entry(i, NodeView.pack_leaf_entry(key, b"data" + key))
        free_before = view.free_space
        view.delete_slot(1, view.leaf_entry_len(1))
        assert view.nslots == 2
        assert [view.leaf_key(i) for i in range(2)] == [b"a", b"c"]
        assert view.leaf_entry(1) == (b"c", b"datac", False)
        assert view.free_space == free_before + 2 + 4 + 1 + 5

    def test_fits(self):
        view = make_leaf(128)
        entry = NodeView.pack_leaf_entry(b"k" * 10, b"v" * 50)
        assert view.fits(len(entry))
        view._insert_entry(0, entry)
        assert not view.fits(len(entry))
        with pytest.raises(ValueError):
            view._insert_entry(1, entry)


class TestInternalEntries:
    def test_minus_infinity_search(self):
        view = make_internal()
        view._insert_entry(0, NodeView.pack_int_entry(b"", 10))
        view._insert_entry(1, NodeView.pack_int_entry(b"m", 20))
        view._insert_entry(2, NodeView.pack_int_entry(b"t", 30))
        assert view.int_search(b"a") == 0
        assert view.int_search(b"m") == 1
        assert view.int_search(b"n") == 1
        assert view.int_search(b"z") == 2
        assert view.int_entry(view.int_search(b"n")) == (b"m", 20)

    def test_set_child(self):
        view = make_internal()
        view._insert_entry(0, NodeView.pack_int_entry(b"", 10))
        view.set_int_child(0, 77)
        assert view.int_entry(0) == (b"", 77)

    def test_entry_len(self):
        view = make_internal()
        view._insert_entry(0, NodeView.pack_int_entry(b"abc", 1))
        assert view.int_entry_len(0) == 6 + 3


class TestSlotBounds:
    def test_out_of_range(self):
        view = make_leaf()
        with pytest.raises(IndexError):
            view.leaf_key(0)
        with pytest.raises(IndexError):
            view._insert_entry(1, b"xx")


class TestSplitCut:
    """``sizes`` already contain the incoming entry; both halves must fit."""

    def test_uniform_entries_cut_in_the_middle(self):
        assert split_cut([10] * 8, 496) == 4

    def test_cut_follows_bytes_not_slot_count(self):
        # the pinned counter-example: slot-count halving puts 8+159+165+165
        # = 497 bytes in a 496-byte half
        sizes = [8, 8, 8, 159, 165, 165]
        cut = split_cut(sizes, 496)
        assert cut == 4
        assert sum(sizes[:cut]) <= 496 and sum(sizes[cut:]) <= 496

    def test_only_feasible_cut_is_taken_even_if_lopsided(self):
        assert split_cut([490, 3, 3], 496) == 1

    def test_promoted_entry_leaves_only_its_child_behind(self):
        # entry `cut` moves up: its 150 bytes shrink to the 8-byte
        # minus-infinity entry on the right, which is what makes it fit
        sizes = [8, 150, 150, 150]
        assert split_cut(sizes, 200, promote=True) == 2
        with pytest.raises(HashError):
            split_cut(sizes, 200)

    def test_no_cut_is_a_typed_error(self):
        with pytest.raises(HashError, match="cannot be split"):
            split_cut([400, 400, 400], 496)
