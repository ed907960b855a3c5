"""Ken Thompson's dbm algorithm.

"The basic structure of dbm calls for fixed-sized disk blocks (buckets) and
an access function that maps a key to a bucket ... a bit-randomizing hash
function is used to convert a key into a 32-bit hash value ... An in-memory
bitmap is used to determine how many bits are required" -- the access
function from the paper:

.. code-block:: c

    hash = calchash(key);
    mask = 0;
    while (isbitset((hash & mask) + mask))
        mask = (mask << 1) + 1;
    bucket = hash & mask;

The shortcomings are reproduced deliberately, because they are the
comparison points of the evaluation:

- a single one-block cache (the C library's ``pagbuf``): nearly every
  access to a different bucket is a real page read;
- a pair whose key+data exceed the block size cannot be stored
  (:class:`DbmError`);
- colliding keys whose combined size exceeds a block make the table
  unsplittable (:class:`DbmError` after 32 futile splits);
- the ``.pag`` file is sparse (buckets are addressed directly by hash
  bits).
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterator

from repro.baselines.dbm.bitmap import DirBitmap
from repro.core.hashfuncs import thompson_hash
from repro.core.locking import NULL_GUARD, RWLock
from repro.core.pages import PageFullError, PageView, empty_page, pair_bytes_needed
from repro.core.constants import PAGE_HDR_SIZE
from repro.obs.hooks import TraceHooks
from repro.obs.trace import TraceSupport
from repro.storage.pager import open_pager

#: dbm's historical block size (PBLKSIZ).
DEFAULT_BLOCK_SIZE = 1024

#: Maximum split depth: 32 hash bits.
MAX_SPLIT_DEPTH = 32


class DbmError(Exception):
    """A dbm failure the original library also produced."""


class DbmFile(TraceSupport):
    """One dbm database: ``<name>.pag`` (data blocks) + ``<name>.dir``
    (split bitmap)."""

    def __init__(
        self,
        name: str | os.PathLike,
        flags: str = "c",
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
        hashfn: Callable[[bytes], int] | None = None,
        concurrent: bool = False,
        tracing: bool = False,
        file_wrapper=None,
    ) -> None:
        t_open = time.perf_counter()
        if flags not in ("r", "w", "c", "n"):
            raise ValueError(f"flags must be 'r', 'w', 'c' or 'n', got {flags!r}")
        base = os.fspath(name)
        self.pag_path = base + ".pag"
        self.dir_path = base + ".dir"
        self.readonly = flags == "r"
        self._hash = hashfn or thompson_hash
        exists = os.path.exists(self.pag_path)
        create = flags == "n" or (flags == "c" and not exists)
        if create or not os.path.exists(self.dir_path):
            self.bitmap = DirBitmap()
            self.bitmap.block_size = block_size
        else:
            self.bitmap = DirBitmap.load(self.dir_path)
        # The block size is a property of the existing database (a
        # compile-time constant in the C library); the stored value wins.
        self.block_size = self.bitmap.block_size or block_size
        # Crash detection: a .pag without its .dir, or a .dir whose dirty
        # flag was never cleared, is the wreck of an unclean shutdown.
        self._was_unclean = self.bitmap.dirty or (
            not create and exists and not os.path.exists(self.dir_path)
        )
        if not self.readonly:
            # Mark the whole write session dirty up front; close() clears
            # the flag only after the data fsync.
            self.bitmap.dirty = True
            self.bitmap.save(self.dir_path)
        # e.g. repro.storage.simdisk.SimulatedDisk for modelled I/O time, or
        # repro.storage.faulty.FaultyPager for crash injection
        self.pag = open_pager(self.pag_path, pagesize=self.block_size,
                              create=create, readonly=self.readonly,
                              wrapper=file_wrapper)
        self._closed = False
        # The single-block cache (the C library's pagbuf/pagbno).
        self._cached_blkno: int | None = None
        self._cached_page: bytearray | None = None
        self._cached_dirty = False
        self.hooks = TraceHooks()
        self.concurrent = concurrent
        self._file = self.pag  # the mixin's handle for the default dump path
        self._init_tracing()
        self.pag.on_page_io = self._page_io_event
        if hasattr(self.pag, "on_fault"):
            self.pag.on_fault = self._fault_event
        #: ``concurrent=True`` serializes every operation exclusively:
        #: dbm's single-block cache makes even a fetch a mutation, so
        #: there is no shared-reader mode to offer.  The same write-side
        #: RWLock as the new package, so the race harness can observe it.
        self._lock = RWLock() if concurrent else None
        self._guard = self._lock.writer if concurrent else NULL_GUARD
        if concurrent:
            self.pag.stats.make_threadsafe()
            self._lock.wait_hook = self._lock_wait_event
        if tracing:
            self._trace_open(t_open, "create" if create else "open")

    def _page_io_event(self, kind: str, pageno: int, nbytes: int) -> None:
        hooks = self.hooks
        if hooks.on_page_io:
            hooks.emit(
                "on_page_io", {"kind": kind, "pageno": pageno, "nbytes": nbytes}
            )

    # -- block cache -----------------------------------------------------------

    def _read_block(self, blkno: int) -> bytearray:
        hooks = self.hooks
        if blkno == self._cached_blkno:
            if hooks.on_buffer:
                hooks.emit("on_buffer", {"kind": "hit", "key": blkno, "pageno": blkno})
            return self._cached_page
        if hooks.on_buffer:
            hooks.emit("on_buffer", {"kind": "miss", "key": blkno, "pageno": blkno})
        self._flush_block()
        raw = self.pag.read_page(blkno)
        page = bytearray(raw)
        view = PageView(page)
        if view.looks_uninitialized():
            view.initialize()
        self._cached_blkno = blkno
        self._cached_page = page
        self._cached_dirty = False
        return page

    def _flush_block(self) -> None:
        if self._cached_dirty and self._cached_blkno is not None:
            self.pag.write_page(self._cached_blkno, bytes(self._cached_page))
            self._cached_dirty = False

    # -- the access function -------------------------------------------------------

    def _access(self, h: int) -> tuple[int, int]:
        """Thompson's bitmap walk: returns ``(bucket, mask)``."""
        mask = 0
        while self.bitmap.is_set((h & mask) + mask):
            mask = (mask << 1) + 1
        return h & mask, mask

    def _calc_bucket(self, key: bytes) -> tuple[int, int, int]:
        h = self._hash(key)
        bucket, mask = self._access(h)
        return h, bucket, mask

    # -- operations ------------------------------------------------------------------

    def fetch(self, key: bytes) -> bytes | None:
        if self.tracer.enabled:
            return self._traced_op("get", None, self._guard, self._fetch_impl, key)
        with self._guard:
            return self._fetch_impl(key)

    def _fetch_impl(self, key: bytes) -> bytes | None:
        self._check_open()
        _h, bucket, _mask = self._calc_bucket(key)
        view = PageView(self._read_block(bucket))
        i = view.find_inline(key)
        if i < 0:
            return None
        return view.get_pair(i)[1]

    def store(self, key: bytes, data: bytes, *, replace: bool = True) -> bool:
        """Insert/replace; splits the target bucket as needed.

        Raises :class:`DbmError` for the algorithm's inherent failures
        (oversized pair, unsplittable collisions).
        """
        if self.tracer.enabled:
            return self._traced_op(
                "put", None, self._guard, self._store_impl, key, data, replace
            )
        with self._guard:
            return self._store_impl(key, data, replace)

    def _store_impl(self, key: bytes, data: bytes, replace: bool) -> bool:
        self._check_writable()
        if pair_bytes_needed(len(key), len(data)) + PAGE_HDR_SIZE > self.block_size:
            raise DbmError(
                f"dbm: key+data of {len(key) + len(data)} bytes exceed the "
                f"{self.block_size}-byte block size"
            )
        h = self._hash(key)
        for _attempt in range(MAX_SPLIT_DEPTH + 1):
            bucket, mask = self._access(h)
            page = self._read_block(bucket)
            view = PageView(page)
            i = view.find_inline(key)
            if i >= 0:
                if not replace:
                    return False
                view.delete_slot(i)
            try:
                view.add_pair(key, data)
            except PageFullError:
                self._split(bucket, mask)
                continue
            self._cached_dirty = True
            if bucket > self.bitmap.maxbuck:
                self.bitmap.maxbuck = bucket
            return True
        raise DbmError(
            "dbm: cannot store -- colliding keys exceed block size "
            "(split depth exhausted)"
        )

    def _split(self, bucket: int, mask: int) -> None:
        """Split ``bucket`` at level ``mask``: set its bitmap bit and
        redistribute its pairs on the next hash bit."""
        if mask == 0xFFFFFFFF:
            raise DbmError("dbm: cannot split past 32 hash bits")
        self.bitmap.set(bucket + mask)
        new_bit = mask + 1  # 2**n, the next hash bit to reveal
        buddy = bucket + new_bit
        old_page = self._read_block(bucket)
        view = PageView(old_page)
        stay = empty_page(self.block_size)
        move = empty_page(self.block_size)
        stay_view = PageView(stay)
        move_view = PageView(move)
        for i in range(view.nslots):
            k, d = view.get_pair(i)
            dest = move_view if self._hash(k) & new_bit else stay_view
            dest.add_pair(k, d)
        # Install the stay page as the (cached) old bucket, write the buddy.
        self._cached_page = stay
        self._cached_dirty = True
        self.pag.write_page(buddy, bytes(move))
        if buddy > self.bitmap.maxbuck:
            self.bitmap.maxbuck = buddy

    def delete(self, key: bytes) -> bool:
        if self.tracer.enabled:
            return self._traced_op("delete", None, self._guard, self._delete_impl, key)
        with self._guard:
            return self._delete_impl(key)

    def _delete_impl(self, key: bytes) -> bool:
        self._check_writable()
        _h, bucket, _mask = self._calc_bucket(key)
        view = PageView(self._read_block(bucket))
        i = view.find_inline(key)
        if i < 0:
            return False
        view.delete_slot(i)
        self._cached_dirty = True
        return True

    # -- sequential access ----------------------------------------------------------

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Scan blocks 0..maxbuck in order (dbm's block-order traversal);
        only leaf buckets contain data, holes read back empty.  Concurrent
        handles materialize the scan under the lock (stable snapshot)."""
        if self._lock is None:
            return self._iter_items()
        with self._guard:
            return iter(list(self._iter_items()))

    def _iter_items(self) -> Iterator[tuple[bytes, bytes]]:
        self._check_open()
        for blkno in range(self.bitmap.maxbuck + 1):
            view = PageView(self._read_block(blkno))
            for i in range(view.nslots):
                yield view.get_pair(i)

    def keys(self) -> Iterator[bytes]:
        for k, _d in self.items():
            yield k

    def firstkey(self) -> bytes | None:
        self._iter = self.keys()
        return next(self._iter, None)

    def nextkey(self) -> bytes | None:
        if not hasattr(self, "_iter"):
            return self.firstkey()
        return next(self._iter, None)

    # -- maintenance -------------------------------------------------------------------

    def sync(self) -> None:
        """Flush-before-sync: dirty block first, then the ``.dir`` bitmap,
        then one fsync of the ``.pag`` file (same ordering as the hash and
        btree access methods: data pages, metadata, fsync)."""
        if self.tracer.enabled:
            self._traced_op("sync", None, self._guard, self._sync_impl)
            return
        with self._guard:
            self._sync_impl()

    def _sync_impl(self) -> None:
        self._check_open()
        self._flush_block()
        if not self.readonly:
            self.bitmap.save(self.dir_path)
        self.pag.sync()

    def close(self) -> None:
        """Idempotent; syncs (same ordering as :meth:`sync`) before closing
        unless read-only, then clears the .dir dirty flag -- the commit
        record a crash leaves set."""
        with self._guard:
            if self._closed:
                return
            if not self.readonly:
                self._sync_impl()
                self.bitmap.dirty = False
                self.bitmap.save(self.dir_path)
            self._closed = True
            self.pag.close()

    def check(self) -> list[str]:
        """Consistency walk: every stored key must hash to the bucket it
        lives in under the access function (which also catches pairs left
        behind in split buckets) and pages must parse.  Returns a list of
        problems (empty = clean).

        Raises whatever the page parser raises on structurally corrupt
        blocks -- callers treat any exception as detected corruption.
        """
        with self._guard:
            return self._check_impl()

    def _check_impl(self) -> list[str]:
        self._check_open()
        problems: list[str] = []
        if self._was_unclean:
            problems.append(
                "unclean shutdown: the .dir dirty flag was never cleared "
                "(blocks may contain torn writes)"
            )
        for blkno in range(self.bitmap.maxbuck + 1):
            view = PageView(self._read_block(blkno))
            for i in range(view.nslots):
                k, _d = view.get_pair(i)
                _h, bucket, _mask = self._calc_bucket(k)
                if bucket != blkno:
                    problems.append(
                        f"block {blkno}: key {k!r} belongs in bucket {bucket}"
                    )
        return problems

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("operation on closed DbmFile")

    def _check_writable(self) -> None:
        self._check_open()
        if self.readonly:
            raise ValueError("dbm database is read-only")

    def __enter__(self) -> "DbmFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def io_stats(self):
        return self.pag.stats
