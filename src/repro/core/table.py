"""The hash table engine: linear hashing over buffered, slotted pages.

This is the paper's contribution.  Splits occur in the predefined order of
linear hashing, but the *time* at which pages are split is determined both
by page overflows (uncontrolled splitting) and by exceeding the fill factor
(controlled splitting) -- the hybrid of the dbm family's overflow-driven
splitting and dynahash's fill-factor-driven splitting.

A :class:`HashTable` composes the substrates:

- a paged file (real, temporary, or RAM) from :mod:`repro.storage`;
- the buddy-in-waiting address arithmetic (:mod:`repro.core.addressing`);
- an LRU buffer pool (:mod:`repro.core.buffer`);
- overflow-page bitmaps (:mod:`repro.core.bitmaps`);
- big key/data chains (:mod:`repro.core.bigpairs`);
- the segmented bucket array (:mod:`repro.core.bucketarray`);
- the engine spine it shares with the btree (:mod:`repro.core.engine`):
  locking, the write-ahead log, transactions, sync/close and compact.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator

from repro.core import addressing
from repro.core.addressing import log2_ceil
from repro.core.bigpairs import BigPairStore
from repro.core.bitmaps import OvflAllocator
from repro.core.bucketarray import BucketArray
from repro.core.buffer import BufferHeader
from repro.core.constants import (
    BIG_KEY_PREFIX,
    CHARKEY,
    DEFAULT_BSIZE,
    DEFAULT_CACHESIZE,
    DEFAULT_FFACTOR,
    HDR_SIZE,
    MAX_BSIZE,
    MAX_SPLITS,
    MIN_BSIZE,
    NO_OADDR,
)
from repro.core.engine import Engine
from repro.core.errors import (
    BadFileError,
    ConcurrentModificationError,
    HashFunctionMismatchError,
    InvalidParameterError,
)
from repro.core.hashfuncs import HashFunction, get_hash_function
from repro.core.header import Header
from repro.core.pages import PageView, is_big_pair
from repro.core.wal import (
    DEFAULT_CHECKPOINT_BYTES,
    FT_DELETE,
    FT_PUT,
    recover as wal_recover,
)
from repro.storage.freelist import FreeListError
from repro.storage.pager import open_pager


@dataclass
class TableStats:
    """Operation counters of one table (reset at open)."""

    gets: int = 0
    puts: int = 0
    deletes: int = 0
    splits: int = 0
    controlled_splits: int = 0
    uncontrolled_splits: int = 0
    merges: int = 0
    compactions: int = 0
    pages_freed: int = 0
    big_pairs_stored: int = 0
    ovfl_pages_linked: int = 0
    extra: dict = field(default_factory=dict)
    #: mutex for the reader-side counter (writer-side counters are already
    #: serialized by the table's exclusive write lock); None = lock-free
    _lock: threading.Lock | None = field(default=None, repr=False, compare=False)

    def make_threadsafe(self) -> "TableStats":
        if self._lock is None:
            self._lock = threading.Lock()
        return self

    def bump_gets(self, n: int = 1) -> None:
        """Count ``n`` gets: the one counter bumped under a *shared* lock,
        so concurrent tables serialize it (``+=`` is not atomic)."""
        lock = self._lock
        if lock is None:
            self.gets += n
            return
        with lock:
            self.gets += n

    def merge_from(self, other: "TableStats") -> "TableStats":
        """Absorb another table's counters (shard/multi-file aggregation):
        every numeric field sums; ``extra`` merges with numeric values
        summed and non-numeric ones kept from the first holder."""
        for f in dataclasses.fields(self):
            if f.name in ("extra", "_lock"):
                continue
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        for key, value in other.extra.items():
            mine = self.extra.get(key)
            if isinstance(mine, (int, float)) and isinstance(value, (int, float)) \
                    and not isinstance(mine, bool) and not isinstance(value, bool):
                self.extra[key] = mine + value
            elif key not in self.extra:
                self.extra[key] = value
        return self


def suggest_parameters(
    average_pair_length: int,
    bsize: int | None = None,
    ffactor: int | None = None,
) -> tuple[int, int]:
    """Apply the paper's Equation 1 to pick near-optimal parameters.

    ``(average_pair_length + 4) * ffactor >= bsize``.  Given one of the two
    parameters (or neither), returns a satisfying ``(bsize, ffactor)`` pair;
    defaults start from the package defaults.
    """
    if average_pair_length <= 0:
        raise InvalidParameterError("average_pair_length must be positive")
    per_key = average_pair_length + 4
    if bsize is not None and ffactor is not None:
        return bsize, ffactor
    if bsize is not None:
        return bsize, max(1, -(-bsize // per_key))  # ceil division
    if ffactor is None:
        ffactor = DEFAULT_FFACTOR
    size = MIN_BSIZE
    while size < per_key * ffactor and size < MAX_BSIZE:
        size <<= 1
    return size, ffactor


class HashTable(Engine):
    """A disk- or memory-resident linear hash table of byte-string pairs.

    Construct with :meth:`create` or :meth:`open_file` (or the module-level
    :func:`repro.open` convenience).  Keys and values are ``bytes``.
    """

    # ------------------------------------------------------------------ setup

    #: Valid split policies.  The paper's contribution is the *hybrid*:
    #: "Splits occur in the predefined order of linear hashing, but the
    #: time at which pages are split is determined both by page overflows
    #: (uncontrolled splitting) and by exceeding the fill factor
    #: (controlled splitting)."  'controlled' alone is dynahash's schedule;
    #: 'uncontrolled' alone approximates the dbm family's trigger.  The
    #: non-hybrid policies exist for the ablation benchmark.
    SPLIT_POLICIES = ("hybrid", "controlled", "uncontrolled")

    def __init__(
        self,
        file,
        header: Header,
        hashfn: HashFunction,
        cachesize: int,
        readonly: bool = False,
        split_policy: str = "hybrid",
        buffer_policy: str = "lru",
        observability: bool = True,
        concurrent: bool = False,
        durability: str = "none",
        wal_checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
        wal_audit: bool = False,
        wal_wrapper=None,
        wal_fresh: bool = False,
        min_fill: float = 0.0,
    ) -> None:
        if split_policy not in self.SPLIT_POLICIES:
            raise InvalidParameterError(
                f"split_policy must be one of {self.SPLIT_POLICIES}, "
                f"got {split_policy!r}"
            )
        if not 0.0 <= min_fill < 1.0:
            raise InvalidParameterError(
                f"min_fill must be in [0.0, 1.0), got {min_fill}"
            )
        self.header = header
        self._hash = hashfn
        self.split_policy = split_policy
        #: utilization floor for linear-hash contraction; 0.0 keeps the
        #: paper's never-contract behavior (footnote 6)
        self.min_fill = min_fill
        self.stats = TableStats()
        if concurrent:
            self.stats.make_threadsafe()
        #: bumped by every structural change (bucket split, overflow-page
        #: reclaim); concurrent cursors compare it to fail fast instead of
        #: silently skipping or double-returning relocated pairs.
        self._structure_version = 0
        super().__init__(
            file,
            name="hash",
            bsize=header.bsize,
            cachesize=cachesize,
            addresser=self._address_of,
            readonly=readonly,
            observability=observability,
            concurrent=concurrent,
            durability=durability,
            wal_checkpoint_bytes=wal_checkpoint_bytes,
            wal_audit=wal_audit,
            wal_wrapper=wal_wrapper,
            wal_fresh=wal_fresh,
            buffer_policy=buffer_policy,
        )
        # batch-op histograms are created lazily on first use, keeping the
        # metrics-tree shape of batch-free workloads identical to before
        self._h_put_many = None
        self._h_get_many = None
        self._h_delete_many = None
        self._h_merge = None
        self.allocator = OvflAllocator(header, self.pool)
        self.bigstore = BigPairStore(self.pool, self.allocator, hooks=self.hooks)
        self.buckets = BucketArray()
        self.buckets.grow_to(header.max_bucket + 1)
        # Persistent freelist (docs/FORMAT.md §1.6): the chain head lives
        # in the header; the chain is read through the outermost pager so
        # WAL redirection applies.  A broken chain must never block access
        # to the data, so corruption degrades to "no free pages" with a
        # note in stats.extra.
        if header.free_head:
            fl = self._file.freelist
            try:
                fl.load(self._file, header.free_head, npages=self._file.npages())
            except FreeListError as exc:
                fl.clear()
                fl.dirty = True  # force the next header write to zero free_head
                self.stats.extra["freelist_dropped"] = str(exc)
            else:
                live = set(range(header.hdr_pages))
                live.update(
                    addressing.bucket_to_page(b, header.hdr_pages, header.spares)
                    for b in range(header.max_bucket + 1)
                )
                bad = sorted(p for p in fl.pages() if p in live)
                if bad:
                    fl.clear()
                    self.stats.extra["freelist_dropped"] = (
                        f"chain claims live header/bucket pages {bad[:4]}"
                    )
        self._scan: "TableCursor | None" = None

    @classmethod
    def create(
        cls,
        path: str | os.PathLike | None = None,
        *,
        bsize: int = DEFAULT_BSIZE,
        ffactor: int = DEFAULT_FFACTOR,
        nelem: int = 1,
        cachesize: int = DEFAULT_CACHESIZE,
        hashfn: str | HashFunction | None = None,
        in_memory: bool = False,
        split_policy: str = "hybrid",
        buffer_policy: str = "lru",
        observability: bool = True,
        concurrent: bool = False,
        tracing: bool = False,
        file_wrapper=None,
        durability: str = "none",
        wal_checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
        wal_audit: bool = False,
        wal_wrapper=None,
        min_fill: float = 0.0,
    ) -> "HashTable":
        """Create a new table.

        ``path=None`` uses an anonymous temporary file (an in-memory table
        that spills to temp storage under buffer-pool pressure, exactly the
        paper's memory-resident mode); ``in_memory=True`` keeps all pages in
        RAM with no file at all.

        ``nelem`` is the expected final number of elements: the table is
        created at full size so no splitting happens while it fills --
        Figure 6's "known in advance" case.

        ``durability`` selects the crash-safety level (see
        docs/TRANSACTIONS.md): ``'none'`` is the historical
        sync-when-asked behavior; ``'wal'`` adds a write-ahead log with
        atomic transactions (``begin``/``commit``/``abort``); and
        ``'wal+fsync'`` additionally fsyncs the log at every commit,
        with concurrent committers coalesced by group commit.
        ``wal_checkpoint_bytes`` bounds the log (and replay) length;
        ``wal_audit`` adds per-operation PUT/DELETE audit frames;
        ``wal_wrapper`` decorates the log's byte store (fault
        injection), the WAL twin of ``file_wrapper``.

        ``min_fill`` (0.0 <= min_fill < 1.0) arms linear-hash
        *contraction*: when deletes push utilization below
        ``min_fill * ffactor`` keys per bucket, the highest bucket is
        merged back into its buddy and its page freed (see
        docs/STORAGE.md).  The default 0.0 keeps the paper's
        never-contract behavior (footnote 6).
        """
        if bsize < MIN_BSIZE or bsize > MAX_BSIZE:
            raise InvalidParameterError(
                f"bsize must be in [{MIN_BSIZE}, {MAX_BSIZE}], got {bsize}"
            )
        if bsize & (bsize - 1):
            raise InvalidParameterError(f"bsize must be a power of two, got {bsize}")
        if ffactor < 1:
            raise InvalidParameterError(f"ffactor must be >= 1, got {ffactor}")
        if nelem < 1:
            raise InvalidParameterError(f"nelem must be >= 1, got {nelem}")
        if cachesize < 0:
            raise InvalidParameterError("cachesize must be non-negative")
        fn = get_hash_function(hashfn)
        # Pre-size: nelem/ffactor buckets, rounded up to a power of two.
        nbuckets = 1
        while nbuckets * ffactor < nelem:
            nbuckets <<= 1
        hdr_pages = -(-HDR_SIZE // bsize)  # ceil
        header = Header(
            bsize=bsize,
            bshift=bsize.bit_length() - 1,
            ffactor=ffactor,
            max_bucket=nbuckets - 1,
            high_mask=(nbuckets << 1) - 1,
            low_mask=nbuckets - 1,
            ovfl_point=log2_ceil(nbuckets),
            hdr_pages=hdr_pages,
            h_charkey=fn(CHARKEY),
        )
        # e.g. repro.storage.simdisk.SimulatedDisk for modelled I/O time, or
        # repro.storage.faulty.FaultyPager for crash injection
        t_open = time.perf_counter()
        file = open_pager(
            path, pagesize=bsize, create=True, in_memory=in_memory,
            wrapper=file_wrapper,
        )
        table = cls(
            file,
            header,
            fn,
            cachesize,
            split_policy=split_policy,
            buffer_policy=buffer_policy,
            observability=observability,
            concurrent=concurrent,
            durability=durability,
            wal_checkpoint_bytes=wal_checkpoint_bytes,
            wal_audit=wal_audit,
            wal_wrapper=wal_wrapper,
            wal_fresh=True,
            min_fill=min_fill,
        )
        table._write_meta()
        if table._txn is not None:
            # Materialize the freshly logged header into the table file
            # right away: a crash after create() then finds a valid (if
            # empty) table plus whatever the log holds.
            table.checkpoint()
        if tracing:
            table._trace_open(t_open, "create")
        return table

    @classmethod
    def open_file(
        cls,
        path: str | os.PathLike,
        *,
        cachesize: int = DEFAULT_CACHESIZE,
        hashfn: str | HashFunction | None = None,
        readonly: bool = False,
        observability: bool = True,
        concurrent: bool = False,
        tracing: bool = False,
        file_wrapper=None,
        durability: str = "none",
        wal_checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
        wal_audit: bool = False,
        wal_wrapper=None,
        min_fill: float = 0.0,
    ) -> "HashTable":
        """Open an existing table.

        If ``hashfn`` is given, the stored charkey hash is checked; a
        mismatch raises :class:`HashFunctionMismatchError` ("the hash
        package will try to determine that the hash function supplied is
        the one with which the table was created").

        If a write-ahead log (``<path>.wal``) is present -- whatever
        ``durability`` this open requests -- committed transactions are
        replayed into the table file *before* the header is even probed,
        so a post-crash file is repaired unconditionally (see
        :func:`repro.core.wal.recover`).
        """
        fn = get_hash_function(hashfn)
        t_open = time.perf_counter()
        recovery = wal_recover(
            path, file_wrapper=file_wrapper, wal_wrapper=wal_wrapper
        )
        probe = open_pager(path, pagesize=HDR_SIZE, readonly=readonly)
        try:
            if probe.size_bytes() < HDR_SIZE:
                raise BadFileError(
                    f"{os.fspath(path)}: too small to hold a hash header "
                    "(truncated or not a hash file)"
                )
            raw = probe.read_page(0)
            header = Header.unpack(raw)
        finally:
            probe.close()
        if header.h_charkey != fn(CHARKEY):
            raise HashFunctionMismatchError(
                "table was created with a different hash function"
            )
        file = open_pager(
            path, pagesize=header.bsize, readonly=readonly, wrapper=file_wrapper
        )
        table = cls(
            file,
            header,
            fn,
            cachesize,
            readonly=readonly,
            observability=observability,
            concurrent=concurrent,
            durability=durability,
            wal_checkpoint_bytes=wal_checkpoint_bytes,
            wal_audit=wal_audit,
            wal_wrapper=wal_wrapper,
            min_fill=min_fill,
        )
        if recovery["frames"]:
            table.wal_recovery = recovery
            table.stats.extra["wal_recovery"] = recovery
        if tracing:
            table._trace_open(t_open, "open")
        return table

    # --------------------------------------------------------------- plumbing

    def _address_of(self, key) -> int:
        kind, addr = key
        h = self.header
        if kind == "B":
            return addressing.bucket_to_page(addr, h.hdr_pages, h.spares)
        return addressing.oaddr_to_page(addr, h.hdr_pages, h.spares)

    def _write_meta(self) -> None:
        fl = self._file.freelist
        if fl.dirty:
            # The chain lives in the free pages themselves; writing it
            # through self._file keeps it inside the WAL when one is on,
            # so chain and header commit (or vanish) together.
            self.header.free_head = fl.persist(self._file)
        raw = self.header.pack()
        bsize = self.header.bsize
        if self.header.hdr_pages == 1:
            self._file.write_page(0, raw[:bsize])
            return
        # Multi-page headers go out as one vectored write (one syscall).
        span = self.header.hdr_pages * bsize
        self._file.write_pages(0, raw[:span] + b"\0" * max(0, span - len(raw)))

    def _bucket_of_hash(self, h: int) -> int:
        hdr = self.header
        bucket = h & hdr.high_mask
        if bucket > hdr.max_bucket:
            bucket = h & hdr.low_mask
        return bucket

    def _bucket_of(self, key: bytes) -> int:
        return self._bucket_of_hash(self._hash(key))

    def _fault(self, bufkey, *, create: bool = False) -> BufferHeader:
        """Fetch a page, formatting never-written (hole) bucket pages.

        ``hdr.formatted`` short-circuits the hole check once a resident
        page has been through it, so repeat faults cost one attribute
        test instead of a header parse.  ``create=True`` always
        reformats: a freshly allocated address may land on a recycled,
        still-resident buffer with stale contents.
        """
        hdr = self.pool.get(bufkey, create=create)
        if hdr.formatted and not create:
            return hdr
        view = hdr.view()
        if create or view.looks_uninitialized():
            view.initialize()
            if create:
                hdr.dirty = True
        hdr.formatted = True
        return hdr

    # ---------------------------------------------------------------- lookup

    def _match_big(self, view: PageView, slot: int, key: bytes) -> bool:
        """Does big-ref ``slot`` hold ``key``?  Prefix and length reject
        cheaply; only a real candidate fetches the chain."""
        oaddr, klen, _dlen, prefix = view.get_big_ref(slot)
        if klen != len(key):
            return False
        if prefix != key[: len(prefix)]:
            return False
        return self.bigstore.fetch_key(oaddr, klen) == key

    def _locate(
        self, bucket: int, key: bytes
    ) -> tuple[BufferHeader | None, BufferHeader, int] | None:
        """Find ``key`` in ``bucket``'s chain.

        Returns ``(predecessor buffer or None, buffer, slot index)`` with
        *both* buffers pinned (caller unpins), or ``None`` if absent.
        """
        prev: BufferHeader | None = None
        hooks = self.hooks
        depth = 0
        hdr = self._fault(("B", bucket))
        hdr.pin()
        while True:
            view = hdr.view()
            i = view.find_inline(key)
            if i < 0:
                for j, big in view.iter_slots():
                    if big and self._match_big(view, j, key):
                        i = j
                        break
            if i >= 0:
                return prev, hdr, i
            nxt = view.ovfl_addr
            if nxt == NO_OADDR:
                hdr.unpin()
                if prev is not None:
                    prev.unpin()
                return None
            if prev is not None:
                prev.unpin()
            prev = hdr
            depth += 1
            if hooks.on_overflow_hop:
                hooks.emit(
                    "on_overflow_hop",
                    {"bucket": bucket, "oaddr": nxt, "depth": depth},
                )
            nhdr = self._fault(("O", nxt))
            nhdr.pin()
            self.pool.link_chain(hdr, nhdr)
            hdr = nhdr

    def get(self, key: bytes, default: bytes | None = None) -> bytes | None:
        """Value stored under ``key``, or ``default`` if absent."""
        if self.tracer.enabled:
            return self._traced_op(
                "get", self._h_get, self._rd, self._get_impl, key, default
            )
        with self._rd:
            clock = self._clock
            if clock is None:
                return self._get_impl(key, default)
            t0 = clock()
            try:
                return self._get_impl(key, default)
            finally:
                self._h_get.observe(clock() - t0)

    def _get_impl(
        self,
        key: bytes,
        default: bytes | None = None,
        *,
        _hash: int | None = None,
    ) -> bytes | None:
        self._check_open()
        if not isinstance(key, bytes):
            key = bytes(key)  # copy only on non-bytes input
        self.stats.bump_gets()
        h = self._hash(key) if _hash is None else _hash
        found = self._locate(self._bucket_of_hash(h), key)
        if found is None:
            return default
        prev, hdr, slot = found
        try:
            view = hdr.view()
            if view.slot_is_big(slot):
                oaddr, klen, dlen, _prefix = view.get_big_ref(slot)
                _k, data = self.bigstore.fetch(oaddr, klen, dlen)
                return data
            return view.get_data(slot)
        finally:
            hdr.unpin()
            if prev is not None:
                prev.unpin()

    def __contains__(self, key: bytes) -> bool:
        with self._rd:
            self._check_open()
            found = self._locate(self._bucket_of(key), key)
            if found is None:
                return False
            prev, hdr, _slot = found
            hdr.unpin()
            if prev is not None:
                prev.unpin()
            return True

    # ---------------------------------------------------------------- insert

    def _place_pair(self, bucket: int, key: bytes, data: bytes) -> bool:
        """Insert a pair into ``bucket``'s chain (no existence check, no
        split decision, no nkeys accounting).  Returns True if a new
        overflow page had to be linked (the uncontrolled-split trigger)."""
        big = is_big_pair(len(key), len(data), self.header.bsize)
        hdr = self._fault(("B", bucket))
        hdr.pin()
        added_overflow = False
        try:
            view = hdr.view()
            while True:
                fits = view.fits_big_ref(len(key)) if big else view.fits(len(key), len(data))
                if fits:
                    break
                nxt = view.ovfl_addr
                if nxt == NO_OADDR:
                    # Extend the chain with a fresh overflow page.
                    oaddr = self.allocator.alloc()
                    nhdr = self._fault(("O", oaddr), create=True)
                    nhdr.pin()
                    view.ovfl_addr = oaddr
                    hdr.dirty = True
                    self.pool.link_chain(hdr, nhdr)
                    self.stats.ovfl_pages_linked += 1
                    if self.hooks.on_overflow_link:
                        self.hooks.emit(
                            "on_overflow_link", {"bucket": bucket, "oaddr": oaddr}
                        )
                    added_overflow = True
                    hdr.unpin()
                    hdr = nhdr
                    view = hdr.view()
                    break
                nhdr = self._fault(("O", nxt))
                nhdr.pin()
                self.pool.link_chain(hdr, nhdr)
                hdr.unpin()
                hdr = nhdr
                view = hdr.view()
            if big:
                head = self.bigstore.store(key, data)
                view.add_big_ref(head, len(key), len(data), key[:BIG_KEY_PREFIX])
                self.stats.big_pairs_stored += 1
            else:
                view.add_pair(key, data)
            hdr.dirty = True
        finally:
            hdr.unpin()
        return added_overflow

    def put(self, key: bytes, data: bytes, *, replace: bool = True) -> bool:
        """Store ``key -> data``.

        With ``replace=False`` an existing key is left untouched and False
        is returned (ndbm's DBM_INSERT semantics).  Inserts never fail for
        size or collision reasons -- the paper's headline guarantee.
        """
        if self.tracer.enabled:
            return self._traced_op(
                "put", self._h_put, self._wr, self._put_impl, key, data,
                replace=replace,
            )
        with self._wr:
            clock = self._clock
            if clock is None:
                return self._put_impl(key, data, replace=replace)
            t0 = clock()
            try:
                return self._put_impl(key, data, replace=replace)
            finally:
                self._h_put.observe(clock() - t0)

    def _put_impl(
        self,
        key: bytes,
        data: bytes,
        *,
        replace: bool = True,
        _hash: int | None = None,
    ) -> bool:
        self._check_writable()
        # Copy only on non-bytes input: the common bytes-in case is
        # zero-copy all the way to the page write.
        if not isinstance(key, bytes):
            if not isinstance(key, bytearray):
                raise TypeError("keys and values must be bytes")
            key = bytes(key)
        if not isinstance(data, bytes):
            if not isinstance(data, bytearray):
                raise TypeError("keys and values must be bytes")
            data = bytes(data)
        self.stats.puts += 1
        h = self._hash(key) if _hash is None else _hash
        bucket = self._bucket_of_hash(h)
        found = self._locate(bucket, key)
        if found is not None:
            prev, hdr, slot = found
            if not replace:
                hdr.unpin()
                if prev is not None:
                    prev.unpin()
                return False
            self._delete_at(prev, hdr, slot)  # unpins both buffers
        added_overflow = self._place_pair(bucket, key, data)
        self.header.nkeys += 1
        uncontrolled_ok = self.split_policy in ("hybrid", "uncontrolled")
        controlled_ok = self.split_policy in ("hybrid", "controlled")
        if added_overflow and uncontrolled_ok:
            self.stats.uncontrolled_splits += 1
            self._expand_table("uncontrolled")
        elif controlled_ok and self.header.nkeys > self.header.ffactor * (
            self.header.max_bucket + 1
        ):
            self.stats.controlled_splits += 1
            self._expand_table("controlled")
        txn = self._txn
        if txn is not None and txn.audit:
            txn.log_op(FT_PUT, key, len(data))
        return True

    # ---------------------------------------------------------------- delete

    def _delete_at(
        self, prev: BufferHeader | None, hdr: BufferHeader, slot: int
    ) -> None:
        """Remove the pair at ``slot`` of pinned page ``hdr``; frees big
        chains and empty overflow pages; unpins both buffers."""
        try:
            view = hdr.view()
            if view.slot_is_big(slot):
                oaddr, _klen, _dlen, _prefix = view.get_big_ref(slot)
                self.bigstore.free(oaddr)
            view.delete_slot(slot)
            hdr.dirty = True
            self.header.nkeys -= 1
            kind, addr = hdr.key
            if (
                kind == "O"
                and view.nslots == 0
                and prev is not None
            ):
                # Unlink and reclaim the now-empty overflow page.
                pview = prev.view()
                pview.ovfl_addr = view.ovfl_addr
                prev.dirty = True
                self.pool.unlink_chain(prev)
                hdr.unpin()
                hdr = None
                self.allocator.free(addr)
                # A reclaimed overflow page is a structural change: a
                # cursor parked on it would scan a recycled page.
                self._structure_version += 1
        finally:
            if hdr is not None:
                hdr.unpin()
            if prev is not None:
                prev.unpin()

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns True if it was present.

        By default the bucket address space never contracts (paper,
        footnote 6): buckets stay allocated, only overflow pages are
        reclaimed.  Opening the table with ``min_fill > 0`` changes
        that -- when utilization drops below the floor, the highest
        bucket is merged back into its buddy and its page is freed for
        reuse (see :meth:`_contract_table`).
        """
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

    def _delete_impl(self, key: bytes, *, _hash: int | None = None) -> bool:
        self._check_writable()
        if not isinstance(key, bytes):
            key = bytes(key)  # copy only on non-bytes input
        self.stats.deletes += 1
        h = self._hash(key) if _hash is None else _hash
        found = self._locate(self._bucket_of_hash(h), key)
        if found is None:
            return False
        prev, hdr, slot = found
        self._delete_at(prev, hdr, slot)
        if self.min_fill:
            self._maybe_contract()
        txn = self._txn
        if txn is not None and txn.audit:
            txn.log_op(FT_DELETE, key)
        return True

    # ------------------------------------------------------------- batch ops

    @staticmethod
    def _as_bytes(value, what: str) -> bytes:
        """Normalize batch input to ``bytes``, copying only when needed."""
        if isinstance(value, bytes):
            return value
        if isinstance(value, (bytearray, memoryview)):
            return bytes(value)
        raise TypeError(f"{what}s must be bytes")

    def _group_by_bucket(self, hashes: list[int]) -> dict[int, list[int]]:
        """Input indices grouped by tentative bucket.

        Computed outside the lock as a locality heuristic; every
        operation recomputes its bucket from the stored hash once the
        lock is held, so a concurrent split cannot misroute a key.
        """
        groups: dict[int, list[int]] = {}
        bucket_of = self._bucket_of_hash
        for i, h in enumerate(hashes):
            groups.setdefault(bucket_of(h), []).append(i)
        return groups

    def _batch_span(self, name: str, n: int, ngroups: int):
        """One aggregate span for a whole batch (or None, tracing off)."""
        tracer = self.tracer
        if not tracer.enabled:
            return None
        return tracer.start(name, attrs={"n": n, "groups": ngroups})

    def put_many(self, items, *, replace: bool = True) -> int:
        """Store many ``(key, data)`` pairs; returns how many were stored.

        Keys are hashed up front and grouped by bucket, so consecutive
        operations hit hot buffers; under ``concurrent=True`` the write
        lock is taken once per bucket group -- O(groups), not O(N) --
        and tracing emits one aggregate ``put_many`` span for the whole
        batch instead of a span per pair.
        """
        pairs = [
            (self._as_bytes(k, "key"), self._as_bytes(d, "value"))
            for k, d in items
        ]
        hashes = [self._hash(k) for k, _d in pairs]
        groups = self._group_by_bucket(hashes)
        span = self._batch_span("put_many", len(pairs), len(groups))
        clock = self._clock
        t0 = clock() if clock is not None else None
        stored = 0
        try:
            for idxs in groups.values():
                with self._wr:
                    for i in idxs:
                        key, data = pairs[i]
                        if self._put_impl(
                            key, data, replace=replace, _hash=hashes[i]
                        ):
                            stored += 1
        finally:
            if t0 is not None:
                if self._h_put_many is None:
                    self._h_put_many = self._ops.histogram("put_many")
                self._h_put_many.observe(clock() - t0)
            if span is not None:
                self.tracer.end(span)
        return stored

    def get_many(self, keys, default: bytes | None = None) -> list:
        """Values for ``keys``, order preserved (``default`` where absent).

        One read-lock acquisition and one chain walk per bucket group:
        each page in a bucket's chain is faulted and pinned exactly once
        for all the keys that hash to it.
        """
        keys_b = [self._as_bytes(k, "key") for k in keys]
        hashes = [self._hash(k) for k in keys_b]
        groups = self._group_by_bucket(hashes)
        out: list = [default] * len(keys_b)
        span = self._batch_span("get_many", len(keys_b), len(groups))
        clock = self._clock
        t0 = clock() if clock is not None else None
        try:
            for idxs in groups.values():
                with self._rd:
                    self._check_open()
                    self.stats.bump_gets(len(idxs))
                    # Recompute buckets under the lock: a split between
                    # grouping and locking may have rehomed some keys.
                    actual: dict[int, list[int]] = {}
                    for i in idxs:
                        actual.setdefault(
                            self._bucket_of_hash(hashes[i]), []
                        ).append(i)
                    for bucket, ids in actual.items():
                        self._lookup_chain(bucket, ids, keys_b, out)
        finally:
            if t0 is not None:
                if self._h_get_many is None:
                    self._h_get_many = self._ops.histogram("get_many")
                self._h_get_many.observe(clock() - t0)
            if span is not None:
                self.tracer.end(span)
        return out

    def _lookup_chain(
        self, bucket: int, ids: list[int], keys: list[bytes], out: list
    ) -> None:
        """Resolve every key index in ``ids`` against ``bucket``'s chain
        in a single walk, pinning each page once."""
        pending = ids
        hooks = self.hooks
        depth = 0
        hdr = self._fault(("B", bucket))
        hdr.pin()
        try:
            while True:
                view = hdr.view()
                missing = []
                for i in pending:
                    key = keys[i]
                    s = view.find_inline(key)
                    if s < 0:
                        for j, big in view.iter_slots():
                            if big and self._match_big(view, j, key):
                                s = j
                                break
                    if s < 0:
                        missing.append(i)
                    elif view.slot_is_big(s):
                        oaddr, klen, dlen, _prefix = view.get_big_ref(s)
                        out[i] = self.bigstore.fetch(oaddr, klen, dlen)[1]
                    else:
                        out[i] = view.get_data(s)
                pending = missing
                if not pending:
                    return
                nxt = view.ovfl_addr
                if nxt == NO_OADDR:
                    return
                depth += 1
                if hooks.on_overflow_hop:
                    hooks.emit(
                        "on_overflow_hop",
                        {"bucket": bucket, "oaddr": nxt, "depth": depth},
                    )
                nhdr = self._fault(("O", nxt))
                nhdr.pin()
                self.pool.link_chain(hdr, nhdr)
                hdr.unpin()
                hdr = nhdr
        finally:
            hdr.unpin()

    def delete_many(self, keys) -> int:
        """Remove many keys; returns how many were present.

        Same lock amortization as :meth:`put_many`: one write-lock
        acquisition per bucket group.
        """
        keys_b = [self._as_bytes(k, "key") for k in keys]
        hashes = [self._hash(k) for k in keys_b]
        groups = self._group_by_bucket(hashes)
        span = self._batch_span("delete_many", len(keys_b), len(groups))
        clock = self._clock
        t0 = clock() if clock is not None else None
        removed = 0
        try:
            for idxs in groups.values():
                with self._wr:
                    for i in idxs:
                        if self._delete_impl(keys_b[i], _hash=hashes[i]):
                            removed += 1
        finally:
            if t0 is not None:
                if self._h_delete_many is None:
                    self._h_delete_many = self._ops.histogram("delete_many")
                self._h_delete_many.observe(clock() - t0)
            if span is not None:
                self.tracer.end(span)
        return removed

    # ------------------------------------------------------------- bulk load

    def bulk_load(self, items, *, nelem: int | None = None) -> int:
        """Presized bottom-up load of an empty table -- Figure 6's
        "number of entries known in advance" case as an actual fast path.

        Materializes ``items`` (a later duplicate key wins, matching
        ``put(replace=True)``), grows the bucket address space to its
        final size in one step, then packs each bucket's chain directly:
        **zero splits, zero redistribution**.  ``nelem`` overrides the
        presize element count (defaults to ``len(items)``).

        Requires a pristine table -- no keys, no splits, no overflow
        pages -- and raises :class:`InvalidParameterError` otherwise;
        use :meth:`put_many` to feed a populated table.  Returns the
        number of pairs stored.
        """
        if self.tracer.enabled:
            return self._traced_op(
                "bulk_load", None, self._wr, self._bulk_load_impl, items, nelem
            )
        with self._wr:
            return self._bulk_load_impl(items, nelem)

    def _bulk_load_impl(self, items, nelem: int | None) -> int:
        self._check_writable()
        h = self.header
        if h.nkeys != 0 or any(h.bitmaps) or any(h.spares):
            raise InvalidParameterError(
                "bulk_load requires a pristine table (no keys, no overflow "
                "pages); use put_many() on a populated table"
            )
        unique: dict[bytes, bytes] = {}
        for k, d in items:
            unique[self._as_bytes(k, "key")] = self._as_bytes(d, "value")
        n = len(unique)
        target = max(nelem or 0, n, 1)
        # Same presize math as create(nelem=...): nelem/ffactor buckets,
        # rounded up to a power of two.
        nbuckets = 1
        while nbuckets * h.ffactor < target:
            nbuckets <<= 1
        if nbuckets > h.max_bucket + 1:
            # One-step growth to the final address space.  With no keys,
            # no spares and no overflow pages, every bucket page is still
            # an unwritten hole, so only the masks need to move.
            h.max_bucket = nbuckets - 1
            h.high_mask = (nbuckets << 1) - 1
            h.low_mask = nbuckets - 1
            h.ovfl_point = log2_ceil(nbuckets)
            self.buckets.grow_to(nbuckets)
            self._structure_version += 1
        groups: dict[int, list[tuple[bytes, bytes]]] = {}
        for k, d in unique.items():
            groups.setdefault(self._bucket_of(k), []).append((k, d))
        for bucket, pairs in groups.items():
            for k, d in pairs:
                self._place_pair(bucket, k, d)
        h.nkeys += n
        self.stats.puts += n
        self._write_meta()
        return n

    # ---------------------------------------------------------------- splits

    def _expand_table(self, reason: str = "structural") -> None:
        """One step of linear-hash growth: create bucket ``max_bucket+1``
        and split its buddy.  Hard format limits make this a no-op instead
        of an error (chains simply lengthen afterwards).

        ``reason`` records what triggered the split ('controlled',
        'uncontrolled', or 'structural') for the ``on_split`` trace event.
        """
        h = self.header
        new_bucket = h.max_bucket + 1
        spare_ndx = log2_ceil(new_bucket + 1)
        if spare_ndx >= MAX_SPLITS:
            self.stats.extra["expansion_stopped"] = (
                self.stats.extra.get("expansion_stopped", 0) + 1
            )
            return
        if new_bucket > h.high_mask:
            # Starting a new doubling (generation).
            h.low_mask = h.high_mask
            h.high_mask = new_bucket | h.low_mask
        old_bucket = new_bucket & h.low_mask
        h.max_bucket = new_bucket
        if spare_ndx > h.ovfl_point:
            # spares entries above ovfl_point already mirror spares[ovfl_point]
            h.ovfl_point = spare_ndx
        self.buckets.grow_to(new_bucket + 1)
        self.stats.splits += 1
        self._structure_version += 1
        clock = self._clock
        if clock is None:
            self._split_bucket(old_bucket, new_bucket)
        else:
            t0 = clock()
            try:
                self._split_bucket(old_bucket, new_bucket)
            finally:
                self._h_split.observe(clock() - t0)
        if self.hooks.on_split:
            self.hooks.emit(
                "on_split",
                {
                    "old_bucket": old_bucket,
                    "new_bucket": new_bucket,
                    "reason": reason,
                    "nkeys": h.nkeys,
                },
            )

    def _split_bucket(self, old_bucket: int, new_bucket: int) -> None:
        """Redistribute ``old_bucket``'s pairs between it and ``new_bucket``
        under the new masks, reclaiming its overflow pages."""
        # -- collect ---------------------------------------------------------
        inline_pairs: list[tuple[bytes, bytes]] = []
        big_refs: list[tuple[int, int, int, bytes]] = []  # oaddr, klen, dlen, key
        chain_oaddrs: list[int] = []
        hdr = self._fault(("B", old_bucket))
        primary_hdr = hdr
        primary_hdr.pin()
        cur = hdr
        while True:
            view = cur.view()
            for i, big in view.iter_slots():
                if big:
                    oaddr, klen, dlen, _prefix = view.get_big_ref(i)
                    full_key = self.bigstore.fetch_key(oaddr, klen)
                    big_refs.append((oaddr, klen, dlen, full_key))
                else:
                    inline_pairs.append(view.get_pair(i))
            nxt = view.ovfl_addr
            if nxt == NO_OADDR:
                break
            chain_oaddrs.append(nxt)
            cur = self._fault(("O", nxt))
        # -- reset ------------------------------------------------------------
        pview = primary_hdr.view()
        pview.initialize()
        primary_hdr.dirty = True
        self.pool.unlink_chain(primary_hdr)
        primary_hdr.unpin()
        new_hdr = self._fault(("B", new_bucket), create=True)
        new_hdr.dirty = True
        for oaddr in chain_oaddrs:
            self.allocator.free(oaddr)
        # -- redistribute -------------------------------------------------------
        for key, data in inline_pairs:
            dest = self._bucket_of(key)
            self._place_pair(dest, key, data)
        for oaddr, klen, dlen, full_key in big_refs:
            dest = self._bucket_of(full_key)
            self._place_big_ref(dest, oaddr, klen, dlen, full_key)

    def _place_big_ref(
        self, bucket: int, oaddr: int, klen: int, dlen: int, key: bytes
    ) -> None:
        """Re-home an existing big-pair reference (chain pages untouched)."""
        hdr = self._fault(("B", bucket))
        hdr.pin()
        try:
            while True:
                view = hdr.view()
                if view.fits_big_ref(klen):
                    view.add_big_ref(oaddr, klen, dlen, key[:BIG_KEY_PREFIX])
                    hdr.dirty = True
                    return
                nxt = view.ovfl_addr
                if nxt == NO_OADDR:
                    new_oaddr = self.allocator.alloc()
                    nhdr = self._fault(("O", new_oaddr), create=True)
                    nhdr.pin()
                    view.ovfl_addr = new_oaddr
                    hdr.dirty = True
                    self.pool.link_chain(hdr, nhdr)
                    self.stats.ovfl_pages_linked += 1
                    if self.hooks.on_overflow_link:
                        self.hooks.emit(
                            "on_overflow_link",
                            {"bucket": bucket, "oaddr": new_oaddr},
                        )
                    hdr.unpin()
                    hdr = nhdr
                    continue
                nhdr = self._fault(("O", nxt))
                nhdr.pin()
                self.pool.link_chain(hdr, nhdr)
                hdr.unpin()
                hdr = nhdr
        finally:
            hdr.unpin()

    # ------------------------------------------------------------ contraction

    def _maybe_contract(self) -> None:
        """Undo split steps while the table sits below the ``min_fill``
        utilization floor.

        The floor is opt-in (``min_fill=0.0`` keeps the paper's
        never-contract behavior, footnote 6).  The second condition is
        the anti-thrash guard: a merge only fires when the post-merge
        table still sits at or below the controlled-split trigger
        (``nkeys <= ffactor * max_bucket``), so a put right after a
        delete cannot split the merged bucket straight back apart.
        """
        h = self.header
        ffactor = h.ffactor
        floor = self.min_fill * ffactor
        while (
            h.max_bucket > 0
            and h.nkeys < floor * (h.max_bucket + 1)
            and h.nkeys <= ffactor * h.max_bucket
        ):
            self._contract_table("floor")

    def _contract_table(self, reason: str = "floor") -> None:
        """One inverse split step: merge bucket ``max_bucket`` into its
        buddy, free its page, and rewind the masks -- the exact mirror
        of :meth:`_expand_table`.

        ``ovfl_point`` and ``spares`` are deliberately NOT rewound:
        overflow-page addresses are physical file offsets derived from
        the spares vector, and pages still in use must keep their
        addresses across contraction.  Re-expansion reuses the same
        spares entries, so the arithmetic stays consistent (and the
        re-created bucket page's write clears its free mark -- see
        repro.storage.freelist).
        """
        h = self.header
        mb = h.max_bucket
        if mb <= 0:
            return
        clock = self._clock
        t0 = clock() if clock is not None else None
        # -- collect the doomed bucket's pairs -------------------------------
        inline_pairs: list[tuple[bytes, bytes]] = []
        big_refs: list[tuple[int, int, int, bytes]] = []  # oaddr, klen, dlen, key
        chain_oaddrs: list[int] = []
        cur = self._fault(("B", mb))
        doomed = cur
        while True:
            view = cur.view()
            for i, big in view.iter_slots():
                if big:
                    oaddr, klen, dlen, _prefix = view.get_big_ref(i)
                    full_key = self.bigstore.fetch_key(oaddr, klen)
                    big_refs.append((oaddr, klen, dlen, full_key))
                else:
                    inline_pairs.append(view.get_pair(i))
            nxt = view.ovfl_addr
            if nxt == NO_OADDR:
                break
            chain_oaddrs.append(nxt)
            cur = self._fault(("O", nxt))
        # -- drop the bucket -------------------------------------------------
        # Resolve the physical page BEFORE mutating the header: the
        # spares vector indexes by split point of the bucket number.
        freed_page = addressing.bucket_to_page(mb, h.hdr_pages, h.spares)
        self.pool.unlink_chain(doomed)
        self.pool.invalidate(("B", mb))  # never write the dead page back
        for oaddr in chain_oaddrs:
            self.allocator.free(oaddr)
        # -- rewind the address space (inverse of _expand_table) -------------
        if mb - 1 < h.low_mask:
            # The doubling that created ``mb`` is now empty: step the
            # masks back one generation.
            h.high_mask = h.low_mask
            h.low_mask >>= 1
        buddy = mb & h.low_mask
        h.max_bucket = mb - 1
        self.buckets.shrink_to(mb)
        # A bucket page that was never flushed has no physical page to
        # reclaim (the invalidate above already dropped its buffer).
        page_freed = freed_page < self._file.npages()
        if page_freed:
            self._file.free_page(freed_page)
            self.stats.pages_freed += 1
        self.stats.merges += 1
        self._structure_version += 1
        # -- re-place into the buddy under the rewound masks -----------------
        for key, data in inline_pairs:
            self._place_pair(self._bucket_of(key), key, data)
        for oaddr, klen, dlen, full_key in big_refs:
            self._place_big_ref(
                self._bucket_of(full_key), oaddr, klen, dlen, full_key
            )
        if t0 is not None:
            if self._h_merge is None:
                self._h_merge = self._ops.histogram("merge")
            self._h_merge.observe(clock() - t0)
        hooks = self.hooks
        if page_freed and hooks.on_free:
            hooks.emit("on_free", {"pageno": freed_page, "kind": "bucket"})
        if hooks.on_merge:
            hooks.emit(
                "on_merge",
                {
                    "bucket": mb,
                    "buddy": buddy,
                    "reason": reason,
                    "nkeys": h.nkeys,
                    "freed_page": freed_page,
                },
            )

    # ------------------------------------------------------------- iteration

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Yield every ``(key, data)`` pair in bucket order.

        Single-threaded tables stream lazily (the table must not be
        modified during iteration); concurrent tables materialize the
        whole scan under the read lock, so the returned iterator is a
        stable snapshot no writer can invalidate.
        """
        if self._lock is None:
            return self._iter_items()
        with self._rd:
            return iter(list(self._iter_items()))

    def _iter_items(self) -> Iterator[tuple[bytes, bytes]]:
        self._check_open()
        for bucket in range(self.header.max_bucket + 1):
            hdr = self._fault(("B", bucket))
            while True:
                view = hdr.view()
                for i, big in view.iter_slots():
                    if big:
                        oaddr, klen, dlen, _prefix = view.get_big_ref(i)
                        yield self.bigstore.fetch(oaddr, klen, dlen)
                    else:
                        yield view.get_pair(i)
                nxt = view.ovfl_addr
                if nxt == NO_OADDR:
                    break
                hdr = self._fault(("O", nxt))

    def keys(self) -> Iterator[bytes]:
        for key, _data in self.items():
            yield key

    def values(self) -> Iterator[bytes]:
        for _key, data in self.items():
            yield data

    def __len__(self) -> int:
        return self.header.nkeys

    def __iter__(self) -> Iterator[bytes]:
        return self.keys()

    # -- sequential scans ---------------------------------------------------------

    def cursor(self) -> "TableCursor":
        """A fresh forward scan cursor; any number may be open at once."""
        self._check_open()
        return TableCursor(self)

    def first_key(self) -> bytes | None:
        """Start a sequential scan; returns the first key or None.

        ndbm-style convenience over a hidden :class:`TableCursor`; use
        :meth:`cursor` for independent concurrent scans.
        """
        self._check_open()
        self._scan = TableCursor(self)
        item = self._scan.first()
        return None if item is None else item[0]

    def next_key(self) -> bytes | None:
        """Key after the previous :meth:`first_key`/:meth:`next_key`."""
        self._check_open()
        if self._scan is None:
            return self.first_key()
        item = self._scan.next()
        return None if item is None else item[0]

    # ----------------------------------------------------------- transactions

    def _txn_snapshot(self) -> tuple[Header, tuple[int, ...]]:
        """Copy out the volatile state abort must rewind: the header
        (with its mutable spares/bitmaps lists) and the freelist's page
        set (contraction frees pages mid-transaction).  Page bytes need
        no snapshot -- abort just drops their buffers and the next fault
        rereads pre-transaction images."""
        h = self.header
        return (
            dataclasses.replace(h, spares=list(h.spares), bitmaps=list(h.bitmaps)),
            self._file.freelist.pages(),
        )

    def _txn_restore(self, snap: tuple[Header, tuple[int, ...]]) -> None:
        """Put the snapshot back IN PLACE: the allocator, addresser and
        big-pair store all hold references to ``self.header``, so the
        object must keep its identity."""
        header_copy, free_pages = snap
        h = self.header
        for f in dataclasses.fields(h):
            setattr(h, f.name, getattr(header_copy, f.name))
        self._file.freelist.restore(free_pages)
        nbuckets = h.max_bucket + 1
        self.buckets.shrink_to(nbuckets)
        self.buckets.grow_to(nbuckets)
        # Splits/merges undone by the rollback are structural changes
        # too: fail any cursor that was scanning mid-transaction state.
        self._structure_version += 1

    # ------------------------------------------------------------ maintenance

    def _trim_tail(self) -> None:
        """Give trailing free pages back to the filesystem.

        Non-WAL tables only: under a WAL, a logged-but-uncommitted state
        could still roll back to one that needs those pages, so WAL-mode
        tables reuse free pages in place and only shrink during
        :meth:`compact` (which checkpoints around the truncate)."""
        fl = self._file.freelist
        if not fl:
            return
        cut = fl.trim(self._file)
        if cut:
            self.stats.extra["pages_trimmed"] = (
                self.stats.extra.get("pages_trimmed", 0) + cut
            )

    # -------------------------------------------------------------- compaction

    def _live_items(self) -> list:
        return list(self._iter_items())

    def _write_marker(self) -> tuple[int, int, int]:
        return (self.stats.puts, self.stats.deletes, self._structure_version)

    def _logical_pages(self) -> int:
        """Pages the file spans once the pool's dirty buffers are written:
        bucket pages of a presized table can be trailing holes, so the
        header's layout would over-count them."""
        return max((hdr.pageno for hdr in self.pool._dirty), default=-1) + 1

    def _build_compact_image(self, items) -> "HashTable":
        """A pristine, presized RAM twin of this table loaded with
        ``items`` -- the swap source of :meth:`compact`."""
        h = self.header
        nelem = max(len(items), 1)
        temp = HashTable.create(
            None,
            in_memory=True,
            bsize=h.bsize,
            ffactor=h.ffactor,
            nelem=nelem,
            hashfn=self._hash,
            split_policy=self.split_policy,
            observability=False,
        )
        try:
            temp.bulk_load(items, nelem=nelem)
            temp._sync_impl()  # flush pages + header into the RAM file
        except BaseException:
            temp.close()
            raise
        return temp

    def _adopt_image(self, temp: "HashTable") -> None:
        """Take over the header of the image :meth:`compact` copied in,
        IN PLACE (the allocator and big-pair store hold references)."""
        th = temp.header
        h = self.header
        for f in dataclasses.fields(h):
            setattr(h, f.name, getattr(th, f.name))
        h.spares = list(th.spares)
        h.bitmaps = list(th.bitmaps)
        h.free_head = 0
        self.buckets.shrink_to(h.max_bucket + 1)
        self.buckets.grow_to(h.max_bucket + 1)
        self._structure_version += 1
        self.stats.compactions += 1

    # ------------------------------------------------------------- inspection

    @property
    def nkeys(self) -> int:
        return self.header.nkeys

    @property
    def nbuckets(self) -> int:
        return self.header.max_bucket + 1

    def fill_ratio(self) -> float:
        """Current keys per bucket (compare against ffactor)."""
        return self.header.nkeys / (self.header.max_bucket + 1)

    def _stat_impl(self) -> dict:
        self._check_open()
        h = self.header
        s = self.stats
        wal = {} if self._txn is None else {"wal": self._txn.metrics()}
        return {
            "type": "hash",
            **wal,
            "nkeys": h.nkeys,
            "ops": {
                "counts": {
                    "gets": s.gets,
                    "puts": s.puts,
                    "deletes": s.deletes,
                    "splits": s.splits,
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
                "nbuckets": h.max_bucket + 1,
                "bsize": h.bsize,
                "ffactor": h.ffactor,
                "fill_ratio": self.fill_ratio(),
                "split_policy": self.split_policy,
                "min_fill": self.min_fill,
                "controlled_splits": s.controlled_splits,
                "uncontrolled_splits": s.uncontrolled_splits,
                "merges": s.merges,
                "compactions": s.compactions,
                "pages_freed": s.pages_freed,
                "ovfl_pages_linked": s.ovfl_pages_linked,
                "big_pairs_stored": s.big_pairs_stored,
            },
            "space": self._space_impl(),
        }

    def _space_impl(self) -> dict:
        """The ``stat()['space']`` section: where every page of the file
        is, and how much of the file is live.

        ``fill_factor`` is keys per bucket over the configured ffactor
        (1.0 = exactly at the split trigger); ``fragmentation_pct`` is
        the share of file pages that hold no live data (freelist pages
        plus allocated-but-unused overflow slots)."""
        h = self.header
        file_pages = self._file.npages()
        fl = self._file.freelist
        bucket_pages = h.max_bucket + 1
        ovfl_allocated = self.allocator.total_slots
        ovfl_in_use = self.allocator.in_use_count()
        free_pages = len(fl)
        dead = free_pages + (ovfl_allocated - ovfl_in_use)
        return {
            "file_pages": file_pages,
            "file_bytes": self._file.size_bytes(),
            "header_pages": h.hdr_pages,
            "bucket_pages": bucket_pages,
            "overflow_pages": {
                "allocated": ovfl_allocated,
                "in_use": ovfl_in_use,
            },
            "freelist_pages": free_pages,
            "fill_factor": (
                h.nkeys / (h.ffactor * bucket_pages) if bucket_pages else 0.0
            ),
            "fragmentation_pct": (
                100.0 * dead / file_pages if file_pages else 0.0
            ),
        }

    def check_invariants(self) -> None:
        """Internal consistency checks used by the test suite.

        Verifies mask arithmetic, that every key hashes to the bucket whose
        chain stores it, and that nkeys matches a full scan.
        """
        try:
            with self._rd:
                self._check_invariants_impl()
        except AssertionError:
            # a failed check is exactly when the event tail matters
            if self.tracer.enabled:
                self.tracer.recorder.auto_dump("check_failure")
            raise

    def _check_invariants_impl(self) -> None:
        h = self.header
        assert h.low_mask == (h.high_mask >> 1), (h.low_mask, h.high_mask)
        assert h.low_mask <= h.max_bucket <= h.high_mask
        count = 0
        for bucket in range(h.max_bucket + 1):
            hdr = self._fault(("B", bucket))
            while True:
                view = hdr.view()
                for i, big in view.iter_slots():
                    if big:
                        oaddr, klen, _dlen, _prefix = view.get_big_ref(i)
                        key = self.bigstore.fetch_key(oaddr, klen)
                    else:
                        key = view.get_key(i)
                    assert self._bucket_of(key) == bucket, (
                        f"key {key!r} stored in bucket {bucket} but hashes to "
                        f"{self._bucket_of(key)}"
                    )
                    count += 1
                nxt = view.ovfl_addr
                if nxt == NO_OADDR:
                    break
                hdr = self._fault(("O", nxt))
        assert count == h.nkeys, f"scan found {count} keys, header says {h.nkeys}"


class TableCursor:
    """A forward-only scan over a :class:`HashTable` with private state.

    Any number of cursors may be open on one table; each advances
    independently.  :meth:`first` and :meth:`next` return full
    ``(key, data)`` pairs, or ``None`` past the end (hash order is
    arbitrary, so there is no backward or keyed positioning -- the access
    layer raises for those, as 4.4BSD hash did).

    The position is a (bucket, overflow address, slot) triple and pages are
    not pinned between calls, so a table mutated mid-scan degrades loosely
    rather than failing: pairs untouched for the whole scan are seen
    exactly once, but pairs relocated by a split or delete may be seen
    twice or skipped.

    On a table opened with ``concurrent=True`` each call holds the read
    lock, and the loose degradation is replaced by fail-fast: if a split
    or overflow reclaim changed the table's structure since :meth:`first`,
    the next fetch raises :class:`ConcurrentModificationError` and the
    caller restarts the scan.
    """

    __slots__ = ("table", "_pos", "_done", "_version")

    def __init__(self, table: HashTable) -> None:
        self.table = table
        self._pos: tuple[int, int, int] | None = None
        self._done = False
        self._version = table._structure_version

    def first(self) -> tuple[bytes, bytes] | None:
        """(Re)position at the first pair; None if the table is empty."""
        t = self.table
        if t.tracer.enabled:
            return t._traced_op("cursor_first", None, t._rd, self._first_impl)
        with t._rd:
            return self._first_impl()

    def _first_impl(self) -> tuple[bytes, bytes] | None:
        self.table._check_open()
        self._pos = (0, NO_OADDR, 0)
        self._done = False
        self._version = self.table._structure_version
        return self._fetch(advance=False)

    def next(self) -> tuple[bytes, bytes] | None:
        """The pair after the current one; starts at :meth:`first` if
        unpositioned; None (forever) once exhausted."""
        t = self.table
        if t.tracer.enabled:
            return t._traced_op("cursor_next", None, t._rd, self._next_impl)
        with t._rd:
            return self._next_impl()

    def _next_impl(self) -> tuple[bytes, bytes] | None:
        self.table._check_open()
        if self._done:
            return None
        if self._pos is None:
            self._pos = (0, NO_OADDR, 0)
            self._version = self.table._structure_version
            return self._fetch(advance=False)
        return self._fetch(advance=True)

    def _fetch(self, advance: bool) -> tuple[bytes, bytes] | None:
        t = self.table
        if t.concurrent and self._version != t._structure_version:
            raise ConcurrentModificationError(
                "table structure changed under this cursor (split or "
                "overflow reclaim); restart the scan with first()"
            )
        bucket, oaddr, slot = self._pos
        if advance:
            slot += 1
        while bucket <= t.header.max_bucket:
            if oaddr == NO_OADDR:
                hdr = t._fault(("B", bucket))
            else:
                hdr = t._fault(("O", oaddr))
            view = hdr.view()
            if slot < view.nslots:
                self._pos = (bucket, oaddr, slot)
                if view.slot_is_big(slot):
                    boaddr, klen, dlen, _prefix = view.get_big_ref(slot)
                    return t.bigstore.fetch(boaddr, klen, dlen)
                return view.get_pair(slot)
            nxt = view.ovfl_addr
            if nxt != NO_OADDR:
                oaddr, slot = nxt, 0
            else:
                bucket, oaddr, slot = bucket + 1, NO_OADDR, 0
        self._pos = (bucket, NO_OADDR, 0)
        self._done = True
        return None
