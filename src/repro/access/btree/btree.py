"""The btree access method: a paged B+tree.

Shares the substrate of the hash package -- any :class:`repro.storage.Pager`
under an LRU :class:`~repro.core.buffer.BufferPool`, and the engine spine
(:class:`~repro.core.engine.Engine`: locking, the write-ahead log,
transactions, sync/close and compact) -- and exposes the
db(3) interface of :class:`repro.access.api.AccessMethod`, with keys kept
in sorted order (optionally under a user comparator, db(3)'s
``bt_compare``).

Structural notes (matching 4.4BSD's btree where the paper is silent):

- leaves are doubly linked for sequential scans in both directions;
- oversized data goes to overflow-page chains; keys must fit in a quarter
  page (4.4BSD's bound);
- deletion is lazy: entries are removed and overflow chains reclaimed, but
  nodes are never merged (empty leaves stay linked and are skipped by the
  cursor), the same policy as the historical implementation;
- freed pages are kept on a free list inside the file and reused.
"""

from __future__ import annotations

import os
import struct
import threading
import time

from repro.access.api import (
    DB_BTREE,
    AccessMethod,
    Cursor,
)
from repro.access.btree.nodes import (
    NODE_HDR_SIZE,
    SLOT_SIZE,
    T_FREE,
    T_INTERNAL,
    T_LEAF,
    T_OVERFLOW,
    NodeView,
    split_cut,
)
from repro.core.engine import Engine
from repro.core.errors import BadFileError, InvalidParameterError
from repro.core.wal import DEFAULT_CHECKPOINT_BYTES
from repro.core.wal import recover as wal_recover
from repro.storage.pager import open_pager

BTREE_MAGIC = 0x42543931  # "BT91"
BTREE_VERSION = 1

_META = struct.Struct(">IIIIIIQ")
META_PGNO = 0

DEFAULT_BSIZE = 4096
MIN_BSIZE = 512
MAX_BSIZE = 65536
DEFAULT_CACHESIZE = 256 * 1024


class BTree(Engine, AccessMethod):
    """A B+tree of byte-string pairs with sorted iteration."""

    type = DB_BTREE
    _noun = "btree"

    # ------------------------------------------------------------------ setup

    def __init__(
        self,
        file,
        readonly: bool,
        cachesize: int,
        compare=None,
        observability: bool = True,
        concurrent: bool = False,
        durability: str = "none",
        wal_checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
        wal_wrapper=None,
        wal_fresh: bool = False,
    ) -> None:
        self._stats_lock = threading.Lock() if concurrent else None
        super().__init__(
            file,
            name="btree",
            bsize=file.pagesize,
            cachesize=cachesize,
            addresser=lambda pgno: pgno,
            readonly=readonly,
            observability=observability,
            concurrent=concurrent,
            durability=durability,
            wal_checkpoint_bytes=wal_checkpoint_bytes,
            wal_wrapper=wal_wrapper,
            wal_fresh=wal_fresh,
        )
        self._gets = 0
        self._puts = 0
        self._deletes = 0
        self._leaf_splits = 0
        self._internal_splits = 0
        self._compactions = 0
        self.bsize = file.pagesize
        #: db(3)'s bt_compare: optional ``(a, b) -> <0/0/>0`` key order.
        #: Like the C library, it is not stored in the file -- reopen with
        #: the same comparator or the tree misbehaves.
        self._compare = compare
        # meta fields
        self.root = 0
        self.free_head = 0
        self.npages = 0
        self.nkeys = 0

    def _lt(self, a: bytes, b: bytes) -> bool:
        if self._compare is None:
            return a < b
        return self._compare(a, b) < 0

    #: db_open parameters only the hash method implements.  Named here so
    #: passing one raises a *typed* InvalidParameterError that says which
    #: method to use, instead of a bare TypeError from the signature.
    _HASH_ONLY_PARAMS = ("min_fill", "hashfn", "ffactor", "nelem", "wal_audit")

    @classmethod
    def _reject_hash_only(cls, params: dict) -> None:
        for name in cls._HASH_ONLY_PARAMS:
            if params.get(name) is not None:
                raise InvalidParameterError(
                    f"{name}= is a hash-method parameter (linear hashing's "
                    f"fill/contraction/presizing knobs); the {cls.type} "
                    "method does not support it"
                )

    @classmethod
    def create(
        cls,
        path: str | os.PathLike | None = None,
        *,
        bsize: int = DEFAULT_BSIZE,
        cachesize: int = DEFAULT_CACHESIZE,
        in_memory: bool = False,
        compare=None,
        observability: bool = True,
        concurrent: bool = False,
        tracing: bool = False,
        file_wrapper=None,
        durability: str = "none",
        wal_checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
        wal_wrapper=None,
        min_fill=None,
        hashfn=None,
        ffactor=None,
        nelem=None,
        wal_audit=None,
    ) -> "BTree":
        """Create a new btree (``path=None`` + ``in_memory`` for RAM).

        ``compare`` is db(3)'s ``bt_compare``: a total order over keys as
        ``(a, b) -> <0/0/>0``.  Supply the same function on every reopen.
        ``file_wrapper`` post-wraps the pager (SimulatedDisk for modelled
        I/O time, FaultyPager for crash injection).  ``durability``
        selects the crash-safety level ('none' | 'wal' | 'wal+fsync',
        see docs/TRANSACTIONS.md) and enables ``begin``/``commit``/
        ``abort``; ``wal_wrapper`` decorates the log's byte store.
        """
        cls._reject_hash_only(
            dict(min_fill=min_fill, hashfn=hashfn, ffactor=ffactor,
                 nelem=nelem, wal_audit=wal_audit)
        )
        if bsize < MIN_BSIZE or bsize > MAX_BSIZE or bsize & (bsize - 1):
            raise InvalidParameterError(
                f"bsize must be a power of two in [{MIN_BSIZE}, {MAX_BSIZE}], "
                f"got {bsize}"
            )
        t_open = time.perf_counter()
        file = open_pager(
            path, pagesize=bsize, create=True, in_memory=in_memory,
            wrapper=file_wrapper,
        )
        tree = cls(
            file,
            readonly=False,
            cachesize=cachesize,
            compare=compare,
            observability=observability,
            concurrent=concurrent,
            durability=durability,
            wal_checkpoint_bytes=wal_checkpoint_bytes,
            wal_wrapper=wal_wrapper,
            wal_fresh=True,
        )
        tree.npages = 1  # the meta page
        root_hdr = tree._new_page(T_LEAF)
        tree.root = root_hdr.key
        tree._write_meta()
        if tree._txn is not None:
            # materialize the fresh file (creation must not live only in
            # the log: a probe-on-reopen needs a real meta page)
            tree.checkpoint()
        if tracing:
            tree._trace_open(t_open, "create")
        return tree

    @classmethod
    def open_file(
        cls,
        path: str | os.PathLike,
        *,
        cachesize: int = DEFAULT_CACHESIZE,
        readonly: bool = False,
        compare=None,
        observability: bool = True,
        concurrent: bool = False,
        tracing: bool = False,
        file_wrapper=None,
        durability: str = "none",
        wal_checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
        wal_wrapper=None,
        min_fill=None,
        hashfn=None,
        ffactor=None,
        nelem=None,
        wal_audit=None,
    ) -> "BTree":
        cls._reject_hash_only(
            dict(min_fill=min_fill, hashfn=hashfn, ffactor=ffactor,
                 nelem=nelem, wal_audit=wal_audit)
        )
        t_open = time.perf_counter()
        # Replay any committed-but-uncheckpointed transactions from a
        # previous incarnation BEFORE probing the meta page: the probe
        # must see the recovered file.
        recovery = wal_recover(
            path, file_wrapper=file_wrapper, wal_wrapper=wal_wrapper
        )
        probe = open_pager(path, pagesize=MIN_BSIZE, readonly=True)
        try:
            if probe.size_bytes() < _META.size:
                raise BadFileError(f"{os.fspath(path)}: too small to be a btree")
            raw = probe.read_page(0)
        finally:
            probe.close()
        magic, version, bsize, _root, _free, _npages, _nkeys = _META.unpack_from(raw, 0)
        if magic != BTREE_MAGIC:
            raise BadFileError(f"{os.fspath(path)}: bad btree magic {magic:#x}")
        if version != BTREE_VERSION:
            raise BadFileError(f"unsupported btree version {version}")
        if bsize < MIN_BSIZE or bsize > MAX_BSIZE or bsize & (bsize - 1):
            raise BadFileError(f"corrupt btree meta: bsize {bsize}")
        file = open_pager(
            path, pagesize=bsize, readonly=readonly, wrapper=file_wrapper
        )
        tree = cls(
            file,
            readonly=readonly,
            cachesize=cachesize,
            compare=compare,
            observability=observability,
            concurrent=concurrent,
            durability=durability,
            wal_checkpoint_bytes=wal_checkpoint_bytes,
            wal_wrapper=wal_wrapper,
        )
        tree._read_meta()
        if recovery["frames"]:
            tree.wal_recovery = recovery
        if tracing:
            tree._trace_open(t_open, "open")
        return tree

    def _write_meta(self) -> None:
        raw = _META.pack(
            BTREE_MAGIC,
            BTREE_VERSION,
            self.bsize,
            self.root,
            self.free_head,
            self.npages,
            self.nkeys,
        )
        self._file.write_page(META_PGNO, raw)

    def _read_meta(self) -> None:
        raw = self._file.read_page(META_PGNO)
        magic, version, bsize, root, free_head, npages, nkeys = _META.unpack_from(
            raw, 0
        )
        if magic != BTREE_MAGIC or version != BTREE_VERSION:
            raise BadFileError("corrupt btree meta page")
        if bsize != self.bsize:
            raise BadFileError(f"meta bsize {bsize} != file pagesize {self.bsize}")
        self.root = root
        self.free_head = free_head
        self.npages = npages
        self.nkeys = nkeys

    # ---------------------------------------------------------------- paging

    def _new_page(self, node_type: int):
        """Allocate a page (free list first) and return its pinned-free
        buffer header, initialized to ``node_type``."""
        if self.free_head:
            pgno = self.free_head
            hdr = self.pool.get(pgno)
            self.free_head = NodeView(hdr.page).next
            view = NodeView(hdr.page)
            view.initialize(node_type)
            hdr.dirty = True
            return hdr
        pgno = self.npages
        self.npages += 1
        hdr = self.pool.get(pgno, create=True)
        NodeView(hdr.page).initialize(node_type)
        hdr.dirty = True
        return hdr

    def _free_page(self, pgno: int) -> None:
        hdr = self.pool.get(pgno)
        view = NodeView(hdr.page)
        view.initialize(T_FREE)
        view.next = self.free_head
        hdr.dirty = True
        self.free_head = pgno

    # ----------------------------------------------------------- size limits

    @property
    def _max_key_len(self) -> int:
        """Keys must fit four to a page (4.4BSD's constraint), so splits
        always succeed."""
        return (self.bsize - NODE_HDR_SIZE) // 4 - SLOT_SIZE - 8

    @property
    def _big_threshold(self) -> int:
        """Leaf entries above a third of a page push their data to
        overflow chains."""
        return (self.bsize - NODE_HDR_SIZE) // 3 - SLOT_SIZE

    # --------------------------------------------------------------- overflow

    def _store_overflow(self, data: bytes) -> int:
        """Write ``data`` to a chain of overflow pages; returns head pgno.

        Overflow pages reuse the node header: ``next`` is the chain link,
        ``nslots`` holds the payload byte count, payload follows the
        header.
        """
        cap = self.bsize - NODE_HDR_SIZE
        head = 0
        prev_hdr = None
        pos = 0
        while pos < len(data) or head == 0:
            hdr = self._new_page(T_OVERFLOW)
            if self.hooks.on_overflow_link:
                # bucket=None: btree overflow chains hang off leaf entries,
                # not hash buckets
                self.hooks.emit(
                    "on_overflow_link", {"bucket": None, "oaddr": hdr.key}
                )
            hdr.pin()
            chunk = data[pos : pos + cap]
            hdr.page[NODE_HDR_SIZE : NODE_HDR_SIZE + len(chunk)] = chunk
            view = NodeView(hdr.page)
            view.nslots = len(chunk)
            hdr.dirty = True
            pos += len(chunk)
            if head == 0:
                head = hdr.key
            else:
                NodeView(prev_hdr.page).next = hdr.key
                prev_hdr.dirty = True
                prev_hdr.unpin()
            prev_hdr = hdr
        prev_hdr.unpin()
        return head

    def _read_overflow(self, head: int, total: int) -> bytes:
        parts = []
        got = 0
        pgno = head
        while pgno and got < total:
            hdr = self.pool.get(pgno)
            view = NodeView(hdr.page)
            used = view.nslots
            parts.append(bytes(hdr.page[NODE_HDR_SIZE : NODE_HDR_SIZE + used]))
            got += used
            pgno = view.next
        data = b"".join(parts)
        if len(data) < total:
            raise BadFileError("truncated overflow chain")
        return data[:total]

    def _free_overflow(self, head: int) -> None:
        pgno = head
        while pgno:
            hdr = self.pool.get(pgno)
            nxt = NodeView(hdr.page).next
            self._free_page(pgno)
            pgno = nxt

    def _leaf_payload(self, view: NodeView, slot: int) -> bytes:
        key, payload, big = view.leaf_entry(slot)
        if not big:
            return payload
        head, total = NodeView.unpack_big_ref(payload)
        return self._read_overflow(head, total)

    def _release_entry_data(self, view: NodeView, slot: int) -> None:
        """Free the overflow chain of a big leaf entry, if any."""
        _key, payload, big = view.leaf_entry(slot)
        if big:
            head, _total = NodeView.unpack_big_ref(payload)
            self._free_overflow(head)

    # ----------------------------------------------------------------- search

    def _descend(self, key: bytes) -> tuple[list[tuple[int, int]], int]:
        """Walk from the root to the leaf for ``key``.

        Returns ``(path, leaf_pgno)`` where path lists ``(internal pgno,
        slot taken)`` from root downward.
        """
        path: list[tuple[int, int]] = []
        pgno = self.root
        for _depth in range(64):  # cycle guard
            hdr = self.pool.get(pgno)
            view = NodeView(hdr.page)
            if view.type == T_LEAF:
                return path, pgno
            if view.type != T_INTERNAL:
                raise BadFileError(f"page {pgno} has bad node type {view.type}")
            slot = view.int_search(key, self._compare)
            path.append((pgno, slot))
            _k, pgno = view.int_entry(slot)
        raise BadFileError("btree deeper than 64 levels (cycle?)")

    def get(self, key: bytes) -> bytes | None:
        if self.tracer.enabled:
            return self._traced_op("get", self._h_get, self._rd, self._get_impl, key)
        with self._rd:
            clock = self._clock
            if clock is None:
                return self._get_impl(key)
            t0 = clock()
            try:
                return self._get_impl(key)
            finally:
                self._h_get.observe(clock() - t0)

    def _bump_gets(self) -> None:
        # the one counter bumped under a shared lock (+= is not atomic)
        lock = self._stats_lock
        if lock is None:
            self._gets += 1
            return
        with lock:
            self._gets += 1

    def _get_impl(self, key: bytes) -> bytes | None:
        self._check_open()
        self._bump_gets()
        _path, leaf = self._descend(key)
        hdr = self.pool.get(leaf)
        view = NodeView(hdr.page)
        slot, exact = view.leaf_search(key, self._compare)
        if not exact:
            return None
        return self._leaf_payload(view, slot)

    # ----------------------------------------------------------------- insert

    def _put(self, key: bytes, data: bytes, replace: bool) -> int:
        if self.tracer.enabled:
            return self._traced_op(
                "put", self._h_put, self._wr, self._put_impl, key, data, replace
            )
        with self._wr:
            clock = self._clock
            if clock is None:
                return self._put_impl(key, data, replace)
            t0 = clock()
            try:
                return self._put_impl(key, data, replace)
            finally:
                self._h_put.observe(clock() - t0)

    def _put_impl(self, key: bytes, data: bytes, replace: bool = True) -> int:
        self._check_writable()
        self._puts += 1
        if not isinstance(key, (bytes, bytearray)) or not isinstance(
            data, (bytes, bytearray)
        ):
            raise TypeError("keys and values must be bytes")
        key, data = bytes(key), bytes(data)
        if len(key) > self._max_key_len:
            raise InvalidParameterError(
                f"key of {len(key)} bytes exceeds the btree key limit "
                f"({self._max_key_len} for {self.bsize}-byte pages)"
            )
        path, leaf = self._descend(key)
        hdr = self.pool.get(leaf)
        hdr.pin()
        try:
            view = NodeView(hdr.page)
            slot, exact = view.leaf_search(key, self._compare)
            if exact:
                if not replace:
                    return 1
                self._release_entry_data(view, slot)
                view.delete_slot(slot, view.leaf_entry_len(slot))
                hdr.dirty = True
                self.nkeys -= 1
            # build the entry (big data goes to an overflow chain first)
            inline_len = 4 + len(key) + len(data)
            if inline_len > self._big_threshold:
                head = self._store_overflow(data)
                view = NodeView(hdr.page)
                entry = NodeView.pack_big_leaf_entry(key, head, len(data))
            else:
                entry = NodeView.pack_leaf_entry(key, data)
            slot, _exact = NodeView(hdr.page).leaf_search(key, self._compare)
            self._insert_into_leaf(path, hdr, slot, entry)
            self.nkeys += 1
        finally:
            hdr.unpin()
        return 0

    def _insert_into_leaf(self, path, hdr, slot, entry) -> None:
        view = NodeView(hdr.page)
        if view.fits(len(entry)):
            view._insert_entry(slot, entry)
            hdr.dirty = True
            return
        # -- split the leaf ---------------------------------------------------
        clock = self._clock
        t0 = clock() if clock is not None else 0.0
        n = view.nslots
        sizes = [view.leaf_entry_len(i) + SLOT_SIZE for i in range(n)]
        sizes.insert(slot, len(entry) + SLOT_SIZE)
        cut = split_cut(sizes, self.bsize - NODE_HDR_SIZE)
        # first resident entry to move right (the incoming one is not
        # resident yet: it sits at ``slot`` of the merged order)
        mid = cut - 1 if slot < cut else cut
        self._leaf_splits += 1
        right_hdr = self._new_page(T_LEAF)
        right_hdr.pin()
        try:
            view = NodeView(hdr.page)
            right = NodeView(right_hdr.page)
            for i in range(mid, n):
                raw_off = view._slot_off(i)
                length = view.leaf_entry_len(i)
                right._insert_entry(
                    right.nslots, bytes(view.buf[raw_off : raw_off + length])
                )
            for _ in range(n - mid):
                view.delete_slot(mid, view.leaf_entry_len(mid))
            # leaf links
            right.next = view.next
            right.prev = hdr.key
            if view.next:
                nxt_hdr = self.pool.get(view.next)
                NodeView(nxt_hdr.page).prev = right_hdr.key
                nxt_hdr.dirty = True
                view = NodeView(hdr.page)
                right = NodeView(right_hdr.page)
            view.next = right_hdr.key
            # place the new entry
            if slot < cut:
                view._insert_entry(slot, entry)
            else:
                right._insert_entry(slot - cut, entry)
            hdr.dirty = True
            right_hdr.dirty = True
            separator = right.leaf_key(0)
            self._insert_into_parent(path, hdr.key, separator, right_hdr.key)
            if self.hooks.on_split:
                self.hooks.emit(
                    "on_split",
                    {
                        "old_bucket": hdr.key,
                        "new_bucket": right_hdr.key,
                        "reason": "structural",
                        "nkeys": self.nkeys,
                    },
                )
        finally:
            right_hdr.unpin()
            if clock is not None:
                self._h_split.observe(clock() - t0)

    def _insert_into_parent(self, path, left_pgno, separator, right_pgno) -> None:
        entry = NodeView.pack_int_entry(separator, right_pgno)
        if not path:
            # root split: make a new root
            new_root = self._new_page(T_INTERNAL)
            view = NodeView(new_root.page)
            view._insert_entry(0, NodeView.pack_int_entry(b"", left_pgno))
            view._insert_entry(1, entry)
            new_root.dirty = True
            self.root = new_root.key
            return
        parent_pgno, slot = path[-1]
        hdr = self.pool.get(parent_pgno)
        hdr.pin()
        try:
            view = NodeView(hdr.page)
            if view.fits(len(entry)):
                view._insert_entry(slot + 1, entry)
                hdr.dirty = True
                return
            # -- split the internal node ----------------------------------------
            n = view.nslots
            pos = slot + 1
            sizes = [view.int_entry_len(i) + SLOT_SIZE for i in range(n)]
            sizes.insert(pos, len(entry) + SLOT_SIZE)
            cut = split_cut(sizes, self.bsize - NODE_HDR_SIZE, promote=True)
            # first resident entry to leave this node
            mid = cut - 1 if pos < cut else cut
            self._internal_splits += 1
            right_hdr = self._new_page(T_INTERNAL)
            right_hdr.pin()
            try:
                view = NodeView(hdr.page)
                right = NodeView(right_hdr.page)
                # merged entry `cut` moves UP as the parent separator; its
                # child becomes the right node's minus-infinity entry
                if pos == cut:
                    up_key, mid_child, first = separator, right_pgno, mid
                else:
                    up_key, mid_child = view.int_entry(mid)
                    first = mid + 1
                right._insert_entry(0, NodeView.pack_int_entry(b"", mid_child))
                for i in range(first, n):
                    k, child = view.int_entry(i)
                    right._insert_entry(
                        right.nslots, NodeView.pack_int_entry(k, child)
                    )
                for _ in range(n - mid):
                    view.delete_slot(mid, view.int_entry_len(mid))
                # now place the pending entry in the correct half
                if pos < cut:
                    view._insert_entry(pos, entry)
                elif pos > cut:
                    right._insert_entry(pos - cut, entry)
                hdr.dirty = True
                right_hdr.dirty = True
                self._insert_into_parent(
                    path[:-1], parent_pgno, up_key, right_hdr.key
                )
            finally:
                right_hdr.unpin()
        finally:
            hdr.unpin()

    # ----------------------------------------------------------------- delete

    def delete(self, key: bytes) -> int:
        if self.tracer.enabled:
            return self._traced_op(
                "delete", self._h_delete, self._wr, self._delete_impl, key
            )
        with self._wr:
            clock = self._clock
            if clock is None:
                return self._delete_impl(key)
            t0 = clock()
            try:
                return self._delete_impl(key)
            finally:
                self._h_delete.observe(clock() - t0)

    def _delete_impl(self, key: bytes) -> int:
        self._check_writable()
        self._deletes += 1
        _path, leaf = self._descend(key)
        hdr = self.pool.get(leaf)
        view = NodeView(hdr.page)
        slot, exact = view.leaf_search(key, self._compare)
        if not exact:
            return 1
        hdr.pin()
        try:
            self._release_entry_data(view, slot)
            view = NodeView(hdr.page)
            view.delete_slot(slot, view.leaf_entry_len(slot))
            hdr.dirty = True
            self.nkeys -= 1
        finally:
            hdr.unpin()
        # lazy deletion: empty leaves stay linked (4.4BSD policy); open
        # cursors reposition themselves by key on their next move
        return 0

    # -------------------------------------------------------------- sequencing

    def _leftmost_leaf(self) -> int:
        pgno = self.root
        for _ in range(64):
            hdr = self.pool.get(pgno)
            view = NodeView(hdr.page)
            if view.type == T_LEAF:
                return pgno
            _k, pgno = view.int_entry(0)
        raise BadFileError("btree deeper than 64 levels")

    def _rightmost_leaf(self) -> int:
        pgno = self.root
        for _ in range(64):
            hdr = self.pool.get(pgno)
            view = NodeView(hdr.page)
            if view.type == T_LEAF:
                return pgno
            _k, pgno = view.int_entry(view.nslots - 1)
        raise BadFileError("btree deeper than 64 levels")

    def _advance_pos(self, pgno: int, slot: int) -> tuple[int, int] | None:
        """First occupied (leaf, slot) at or after the given position,
        skipping empty leaves."""
        while True:
            hdr = self.pool.get(pgno)
            view = NodeView(hdr.page)
            if slot < view.nslots:
                return pgno, slot
            if not view.next:
                return None
            pgno, slot = view.next, 0

    def _retreat_pos(self, pgno: int, slot: int) -> tuple[int, int] | None:
        """Last occupied (leaf, slot) at or before the given position,
        skipping empty leaves (slot past the end clamps to the last)."""
        while True:
            hdr = self.pool.get(pgno)
            view = NodeView(hdr.page)
            if view.nslots:
                if slot >= view.nslots:
                    slot = view.nslots - 1
                if slot >= 0:
                    return pgno, slot
            if not view.prev:
                return None
            prev_hdr = self.pool.get(view.prev)
            pgno, slot = view.prev, NodeView(prev_hdr.page).nslots - 1

    def cursor(self) -> "BTreeCursor":
        """A fresh bidirectional cursor; any number may be open at once."""
        self._check_open()
        return BTreeCursor(self)

    # ----------------------------------------------------------- transactions

    def _txn_snapshot(self) -> tuple:
        """The volatile meta state abort must rewind; page bytes need no
        snapshot (abort drops their buffers, rereads old images)."""
        return (self.root, self.free_head, self.npages, self.nkeys)

    def _txn_restore(self, snap: tuple) -> None:
        self.root, self.free_head, self.npages, self.nkeys = snap

    # -------------------------------------------------------------- compaction

    def _live_items(self) -> list[tuple[bytes, bytes]]:
        """Every (key, data) pair in order, caller holds a lock.  Each
        leaf is pinned while its entries are copied out, then big data is
        resolved from overflow chains (which may evict the leaf)."""
        out: list[tuple[bytes, bytes]] = []
        pgno = self._leftmost_leaf()
        while pgno:
            hdr = self.pool.get(pgno)
            hdr.pin()
            try:
                view = NodeView(hdr.page)
                entries = [view.leaf_entry(i) for i in range(view.nslots)]
                nxt = view.next
            finally:
                hdr.unpin()
            for key, payload, big in entries:
                if big:
                    head, total = NodeView.unpack_big_ref(payload)
                    out.append((key, self._read_overflow(head, total)))
                else:
                    out.append((key, payload))
            pgno = nxt
        return out

    def _write_marker(self) -> tuple[int, int]:
        return (self._puts, self._deletes)

    def _logical_pages(self) -> int:
        # the meta counter covers pages that so far live only in the pool
        return self.npages

    def _build_compact_image(self, items) -> "BTree":
        """A pristine RAM twin of this tree holding ``items`` (already
        sorted) -- the swap source of :meth:`compact`."""
        temp = BTree.create(
            None,
            in_memory=True,
            bsize=self.bsize,
            compare=self._compare,
            observability=False,
        )
        try:
            for key, data in items:
                temp._put_impl(key, data, True)
            temp._sync_impl()  # flush pages + meta into the RAM file
        except BaseException:
            temp.close()
            raise
        return temp

    def _adopt_image(self, temp: "BTree") -> None:
        """Take over the meta fields of the image :meth:`compact` copied in."""
        self.root = temp.root
        self.free_head = temp.free_head
        self.npages = temp.npages
        self.nkeys = temp.nkeys
        self._compactions += 1

    # -------------------------------------------------------------- inspection

    def __len__(self) -> int:
        return self.nkeys

    def _stat_impl(self) -> dict:
        self._check_open()
        wal = {} if self._txn is None else {"wal": self._txn.metrics()}
        return {
            "type": "btree",
            **wal,
            "nkeys": self.nkeys,
            "ops": {
                "counts": {
                    "gets": self._gets,
                    "puts": self._puts,
                    "deletes": self._deletes,
                    "splits": self._leaf_splits + self._internal_splits,
                },
                "latency": {
                    "get": self._h_get.as_value(),
                    "put": self._h_put.as_value(),
                    "delete": self._h_delete.as_value(),
                    "split": self._h_split.as_value(),
                },
            },
            "buffer": self.pool.metrics(),
            "io": self._file.stats.as_dict(),
            "method": {
                "bsize": self.bsize,
                "npages": self.npages,
                "root": self.root,
                "leaf_splits": self._leaf_splits,
                "internal_splits": self._internal_splits,
                "compactions": self._compactions,
            },
        }

    def check_invariants(self) -> None:
        """Structural verification: sorted leaves, consistent links, key
        count, and separator correctness (used by the test suite)."""
        with self._rd:
            self._check_invariants_impl()

    def _check_invariants_impl(self) -> None:
        count = 0
        prev_key: bytes | None = None
        pgno = self._leftmost_leaf()
        seen = set()
        expected_prev = 0
        while pgno:
            assert pgno not in seen, f"leaf cycle at page {pgno}"
            seen.add(pgno)
            hdr = self.pool.get(pgno)
            view = NodeView(hdr.page)
            assert view.type == T_LEAF
            assert view.prev == expected_prev, (
                f"leaf {pgno} prev={view.prev} expected {expected_prev}"
            )
            for i in range(view.nslots):
                k = view.leaf_key(i)
                if prev_key is not None:
                    assert self._lt(prev_key, k), f"unsorted keys {prev_key!r} !< {k!r}"
                prev_key = k
                count += 1
            expected_prev = pgno
            pgno = view.next
        assert count == self.nkeys, f"scan found {count}, meta says {self.nkeys}"


class BTreeCursor(Cursor):
    """A bidirectional, key-addressed cursor over one :class:`BTree`.

    The cursor remembers the key it last returned plus a (leaf page, slot)
    hint.  Each move first checks the hint; if an insert, delete or split
    has reorganized that page, the cursor re-descends by the remembered
    key, so it stays correct under mutation: ``next`` continues at the
    smallest key greater than the last one returned (even if that key was
    just deleted), ``prev`` symmetrically.
    """

    __slots__ = ("tree", "_lastkey", "_hint")

    def __init__(self, tree: BTree) -> None:
        self.tree = tree
        self._lastkey: bytes | None = None
        self._hint: tuple[int, int] | None = None

    def _return(self, pos: tuple[int, int] | None):
        if pos is None:
            return None
        pgno, slot = pos
        hdr = self.tree.pool.get(pgno)
        view = NodeView(hdr.page)
        key = view.leaf_key(slot)
        data = self.tree._leaf_payload(view, slot)
        self._lastkey = key
        self._hint = (pgno, slot)
        return key, data

    def _locate(self) -> tuple[int, int, bool]:
        """(leaf pgno, slot, exact) of the last-returned key: the hint if
        still valid, else a fresh descent (exact=False means the key is
        gone and slot is where it would insert)."""
        t = self.tree
        pgno, slot = self._hint
        if pgno < t.npages:  # compact() may have truncated the hint away
            hdr = t.pool.get(pgno)
            view = NodeView(hdr.page)
            if (
                view.type == T_LEAF
                and slot < view.nslots
                and view.leaf_key(slot) == self._lastkey
            ):
                return pgno, slot, True
        _path, leaf = t._descend(self._lastkey)
        hdr = t.pool.get(leaf)
        slot, exact = NodeView(hdr.page).leaf_search(self._lastkey, t._compare)
        return leaf, slot, exact

    def _step(self, name: str, fn, *args):
        """Run one cursor movement under the read lock, as a root span
        when the tree's tracer is on."""
        t = self.tree
        if t.tracer.enabled:
            return t._traced_op(name, None, t._rd, fn, *args)
        with t._rd:
            return fn(*args)

    def first(self):
        return self._step("cursor_first", self._first_impl)

    def _first_impl(self):
        t = self.tree
        t._check_open()
        return self._return(t._advance_pos(t._leftmost_leaf(), 0))

    def last(self):
        return self._step("cursor_last", self._last_impl)

    def _last_impl(self):
        t = self.tree
        t._check_open()
        leaf = t._rightmost_leaf()
        hdr = t.pool.get(leaf)
        return self._return(t._retreat_pos(leaf, NodeView(hdr.page).nslots - 1))

    def next(self):
        return self._step("cursor_next", self._next_impl)

    def _next_impl(self):
        t = self.tree
        t._check_open()
        if self._lastkey is None:
            return self._return(t._advance_pos(t._leftmost_leaf(), 0))
        pgno, slot, exact = self._locate()
        return self._return(t._advance_pos(pgno, slot + 1 if exact else slot))

    def prev(self):
        return self._step("cursor_prev", self._prev_impl)

    def _prev_impl(self):
        t = self.tree
        t._check_open()
        if self._lastkey is None:
            leaf = t._rightmost_leaf()
            hdr = t.pool.get(leaf)
            return self._return(
                t._retreat_pos(leaf, NodeView(hdr.page).nslots - 1)
            )
        pgno, slot, _exact = self._locate()
        return self._return(t._retreat_pos(pgno, slot - 1))

    def seek(self, key: bytes):
        return self._step("cursor_seek", self._seek_impl, key)

    def _seek_impl(self, key: bytes):
        t = self.tree
        t._check_open()
        _path, leaf = t._descend(key)
        hdr = t.pool.get(leaf)
        slot, _exact = NodeView(hdr.page).leaf_search(key, t._compare)
        return self._return(t._advance_pos(leaf, slot))
