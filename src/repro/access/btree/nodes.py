"""B+tree node page layout.

Every page of a btree file (except the meta page) is one of:

- **leaf** -- sorted ``(key, data)`` entries, doubly linked to sibling
  leaves for sequential scans;
- **internal** -- sorted ``(key, child)`` entries; slot 0's key is empty
  and acts as minus-infinity, so a child always exists for any search key;
- **overflow** -- a chunk of an oversized data item, chained by page
  number;
- **free** -- on the free list, chained by page number.

Layout (16-byte header, slot table growing up, entries packed down)::

    u8 type | u8 pad | u16 nslots | u16 data_off | u16 pad |
    u32 next | u32 prev | slots (u16 offset each) ... free ... entries

Leaf entry:     ``u16 klen | u16 dlen(+BIG flag) | key | data-or-bigref``
Internal entry: ``u16 klen | u32 child | key``
Big-data ref:   ``u32 head page | u32 total length`` (in place of data)
"""

from __future__ import annotations

import struct

from repro.core.errors import HashFullError

NODE_HDR_SIZE = 16
SLOT_SIZE = 2

#: node types
T_INVALID = 0
T_LEAF = 1
T_INTERNAL = 2
T_OVERFLOW = 3
T_FREE = 4

#: flag bit in a leaf entry's dlen field: data lives on an overflow chain
BIG_FLAG = 0x8000
LEN_MASK = 0x7FFF

#: bytes of a big-data reference (head page number + total length)
BIG_REF_SIZE = 8

_LEAF_ENT = struct.Struct(">HH")
_INT_ENT = struct.Struct(">HI")
_BIG_REF = struct.Struct(">II")

# Overflow pages reuse the node header fields: ``next`` chains pages and
# ``nslots`` holds the payload byte count; payload starts at NODE_HDR_SIZE.


def split_cut(sizes: list[int], capacity: int, promote: bool = False) -> int:
    """Where to cut a node that overflowed: the ``c`` for which
    ``sizes[:c]`` stays and ``sizes[c:]`` moves to a new right node, both
    within ``capacity`` bytes and as even as the entries allow.

    ``sizes`` are entry bytes plus slot, in key order, *with the incoming
    entry already spliced in* -- cutting by slot count alone can leave the
    half that receives it without room.  With ``promote`` (internal
    nodes) entry ``c`` moves up to the parent and only its child stays
    behind, as the right node's key-less first entry.
    """
    total = sum(sizes)
    cuts = []  # (skew, c) of every cut that fits
    left = 0
    for c in range(1, len(sizes)):
        left += sizes[c - 1]
        right = total - left
        if promote:
            right -= sizes[c] - (_INT_ENT.size + SLOT_SIZE)
        if left <= capacity and right <= capacity:
            cuts.append((abs(left - right), c))
    if not cuts:
        raise HashFullError(
            f"btree node cannot be split: no cut of entries {sizes} leaves "
            f"both halves within {capacity} bytes"
        )
    return min(cuts)[1]


class NodeView:
    """Structured access to one btree page buffer (mutates in place)."""

    __slots__ = ("buf", "bsize")

    def __init__(self, buf: bytearray) -> None:
        self.buf = buf
        self.bsize = len(buf)

    # -- header ----------------------------------------------------------------

    @property
    def type(self) -> int:
        return self.buf[0]

    @type.setter
    def type(self, value: int) -> None:
        self.buf[0] = value

    @property
    def nslots(self) -> int:
        return struct.unpack_from(">H", self.buf, 2)[0]

    @nslots.setter
    def nslots(self, value: int) -> None:
        struct.pack_into(">H", self.buf, 2, value)

    @property
    def data_off(self) -> int:
        return struct.unpack_from(">H", self.buf, 4)[0]

    @data_off.setter
    def data_off(self, value: int) -> None:
        struct.pack_into(">H", self.buf, 4, value)

    @property
    def next(self) -> int:
        return struct.unpack_from(">I", self.buf, 8)[0]

    @next.setter
    def next(self, value: int) -> None:
        struct.pack_into(">I", self.buf, 8, value)

    @property
    def prev(self) -> int:
        return struct.unpack_from(">I", self.buf, 12)[0]

    @prev.setter
    def prev(self, value: int) -> None:
        struct.pack_into(">I", self.buf, 12, value)

    def initialize(self, node_type: int) -> None:
        self.buf[:] = b"\0" * self.bsize
        self.buf[0] = node_type
        self.data_off = self.bsize

    # -- space ------------------------------------------------------------------

    @property
    def free_space(self) -> int:
        return self.data_off - (NODE_HDR_SIZE + self.nslots * SLOT_SIZE)

    def fits(self, entry_len: int) -> bool:
        return SLOT_SIZE + entry_len <= self.free_space

    # -- slot table ----------------------------------------------------------------

    def _slot_off(self, i: int) -> int:
        if not 0 <= i < self.nslots:
            raise IndexError(f"slot {i} out of range (nslots={self.nslots})")
        return struct.unpack_from(">H", self.buf, NODE_HDR_SIZE + i * SLOT_SIZE)[0]

    def _insert_entry(self, slot: int, entry: bytes) -> None:
        """Place entry bytes at the packing frontier and splice a slot at
        ``slot`` (entry bytes need not be in key order; slots are)."""
        if not self.fits(len(entry)):
            raise ValueError("entry does not fit (caller must split first)")
        if not 0 <= slot <= self.nslots:
            raise IndexError(f"slot {slot} out of range for insert")
        new_off = self.data_off - len(entry)
        self.buf[new_off : new_off + len(entry)] = entry
        tbl = NODE_HDR_SIZE
        start = tbl + slot * SLOT_SIZE
        end = tbl + self.nslots * SLOT_SIZE
        self.buf[start + SLOT_SIZE : end + SLOT_SIZE] = self.buf[start:end]
        struct.pack_into(">H", self.buf, start, new_off)
        self.nslots += 1
        self.data_off = new_off

    def delete_slot(self, i: int, entry_len: int) -> None:
        """Remove slot ``i`` and compact the entry bytes."""
        off = self._slot_off(i)
        lo = self.data_off
        if off > lo:
            self.buf[lo + entry_len : off + entry_len] = self.buf[lo:off]
        # fix offsets of entries that moved (those below `off`)
        n = self.nslots
        for j in range(n):
            joff = struct.unpack_from(
                ">H", self.buf, NODE_HDR_SIZE + j * SLOT_SIZE
            )[0]
            if joff < off:
                struct.pack_into(
                    ">H", self.buf, NODE_HDR_SIZE + j * SLOT_SIZE, joff + entry_len
                )
        # close the slot-table gap
        tbl = NODE_HDR_SIZE
        start = tbl + (i + 1) * SLOT_SIZE
        end = tbl + n * SLOT_SIZE
        self.buf[start - SLOT_SIZE : end - SLOT_SIZE] = self.buf[start:end]
        self.nslots = n - 1
        self.data_off = lo + entry_len
        self.buf[lo : lo + entry_len] = b"\0" * entry_len
        self.buf[end - SLOT_SIZE : end] = b"\0\0"

    # -- leaf entries -----------------------------------------------------------------

    def leaf_entry(self, i: int) -> tuple[bytes, bytes, bool]:
        """``(key, payload, is_big)``; payload is the data itself or the
        8-byte big-data reference."""
        off = self._slot_off(i)
        klen, dfield = _LEAF_ENT.unpack_from(self.buf, off)
        big = bool(dfield & BIG_FLAG)
        dlen = BIG_REF_SIZE if big else dfield & LEN_MASK
        kstart = off + _LEAF_ENT.size
        key = bytes(self.buf[kstart : kstart + klen])
        payload = bytes(self.buf[kstart + klen : kstart + klen + dlen])
        return key, payload, big

    def leaf_key(self, i: int) -> bytes:
        off = self._slot_off(i)
        klen, _dfield = _LEAF_ENT.unpack_from(self.buf, off)
        kstart = off + _LEAF_ENT.size
        return bytes(self.buf[kstart : kstart + klen])

    def leaf_entry_len(self, i: int) -> int:
        off = self._slot_off(i)
        klen, dfield = _LEAF_ENT.unpack_from(self.buf, off)
        dlen = BIG_REF_SIZE if dfield & BIG_FLAG else dfield & LEN_MASK
        return _LEAF_ENT.size + klen + dlen

    @staticmethod
    def pack_leaf_entry(key: bytes, data: bytes) -> bytes:
        return _LEAF_ENT.pack(len(key), len(data)) + key + data

    @staticmethod
    def pack_big_leaf_entry(key: bytes, head_pgno: int, total_dlen: int) -> bytes:
        return (
            _LEAF_ENT.pack(len(key), BIG_FLAG)
            + key
            + _BIG_REF.pack(head_pgno, total_dlen)
        )

    @staticmethod
    def unpack_big_ref(payload: bytes) -> tuple[int, int]:
        return _BIG_REF.unpack(payload)

    # -- internal entries ----------------------------------------------------------------

    def int_entry(self, i: int) -> tuple[bytes, int]:
        off = self._slot_off(i)
        klen, child = _INT_ENT.unpack_from(self.buf, off)
        kstart = off + _INT_ENT.size
        return bytes(self.buf[kstart : kstart + klen]), child

    def int_key(self, i: int) -> bytes:
        return self.int_entry(i)[0]

    def int_entry_len(self, i: int) -> int:
        off = self._slot_off(i)
        klen, _child = _INT_ENT.unpack_from(self.buf, off)
        return _INT_ENT.size + klen

    def set_int_child(self, i: int, child: int) -> None:
        off = self._slot_off(i)
        struct.pack_into(">I", self.buf, off + 2, child)

    @staticmethod
    def pack_int_entry(key: bytes, child: int) -> bytes:
        return _INT_ENT.pack(len(key), child) + key

    # -- search -------------------------------------------------------------------------------

    def leaf_search(self, key: bytes, compare=None) -> tuple[int, bool]:
        """Binary search: ``(slot, exact)`` where slot is the insertion
        point (first slot with key >= target).  ``compare`` is an optional
        db(3)-style ``bt_compare`` returning <0/0/>0."""
        lo, hi = 0, self.nslots
        if compare is None:
            while lo < hi:
                mid = (lo + hi) // 2
                if self.leaf_key(mid) < key:
                    lo = mid + 1
                else:
                    hi = mid
            exact = lo < self.nslots and self.leaf_key(lo) == key
        else:
            while lo < hi:
                mid = (lo + hi) // 2
                if compare(self.leaf_key(mid), key) < 0:
                    lo = mid + 1
                else:
                    hi = mid
            exact = lo < self.nslots and compare(self.leaf_key(lo), key) == 0
        return lo, exact

    def int_search(self, key: bytes, compare=None) -> int:
        """Rightmost slot whose key is <= target (slot 0's empty key is
        minus-infinity, so the result is always >= 0)."""
        lo, hi = 1, self.nslots
        if compare is None:
            while lo < hi:
                mid = (lo + hi) // 2
                if self.int_key(mid) <= key:
                    lo = mid + 1
                else:
                    hi = mid
        else:
            while lo < hi:
                mid = (lo + hi) // 2
                if compare(self.int_key(mid), key) <= 0:
                    lo = mid + 1
                else:
                    hi = mid
        return lo - 1
