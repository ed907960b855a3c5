"""The engine spine: what the hash table and the B-tree share off the op path.

4.4BSD shipped the paper's package as the ``hash`` method of ``db(3)``,
beside btree and recno, behind one interface and one buffer manager.
:class:`Engine` is that shared part here.  It owns the table-level rwlock
guards, the write-ahead-log and :class:`~repro.core.wal.TransactionManager`
wiring, the transaction API, the ``sync`` / ``close`` / ``compact``
skeletons, the page-I/O hook fast path and the open/writable checks.

A subclass keeps only its format decisions, supplied as hooks:

- ``_write_meta()`` -- write the header (hash) or meta page (btree);
- ``_txn_snapshot()`` / ``_txn_restore(snap)`` -- copy out and put back
  the volatile state a transaction abort rewinds;
- ``_live_items()`` / ``_write_marker()`` -- compact's snapshot of the
  live pairs, and a value that changes whenever a writer did;
- ``_build_compact_image(items)`` / ``_adopt_image(temp)`` -- build the
  pristine RAM twin compact copies in, then take over its in-memory state;
- ``_logical_pages()`` -- the pages the table spans once every buffered
  page is written (the file alone misses pages only the pool holds);
- ``_trim_tail()`` -- give trailing free pages back on sync/close
  (a no-op unless the format keeps a freelist it can cut).

The per-op wrappers (``get``/``put``/``delete``, their ``*_impl`` bodies
and the batch ops) stay hand-written in each subclass: they are the timed
path, and each spells out its lock, clock and trace branch inline.
"""

from __future__ import annotations

import os
import time

from repro.core.buffer import BufferPool
from repro.core.errors import (
    ClosedError,
    InvalidParameterError,
    ReadOnlyError,
    TransactionError,
)
from repro.core.locking import NULL_GUARD, RWLock
from repro.core.wal import (
    DURABILITY_LEVELS,
    MemByteStore,
    TransactionContext,
    TransactionManager,
    WALPager,
    WriteAheadLog,
    wal_path_for,
)
from repro.obs.hooks import TraceHooks
from repro.obs.registry import Registry
from repro.obs.trace import TraceSupport
from repro.storage.bytefile import ByteFile


class Engine(TraceSupport):
    """Base of the page-based engines (:class:`~repro.core.table.HashTable`,
    :class:`~repro.access.btree.btree.BTree`): locking, durability,
    transactions and maintenance, written once."""

    #: what error messages call a handle of this engine
    _noun = "table"

    def __init__(
        self,
        file,
        *,
        name: str,
        bsize: int,
        cachesize: int,
        addresser,
        readonly: bool,
        observability: bool,
        concurrent: bool,
        durability: str,
        wal_checkpoint_bytes: int,
        wal_audit: bool = False,
        wal_wrapper=None,
        wal_fresh: bool = False,
        buffer_policy: str = "lru",
    ) -> None:
        if durability not in DURABILITY_LEVELS:
            raise InvalidParameterError(
                f"durability must be one of {DURABILITY_LEVELS}, "
                f"got {durability!r}"
            )
        self._file = file
        self.readonly = readonly
        self._closed = False
        #: table-level rwlock (hierarchy level 1, see docs/CONCURRENCY.md)
        #: and its reusable guards; ``concurrent=False`` keeps both guards
        #: the shared no-op object, so single-threaded operations never
        #: touch a lock.
        self.concurrent = concurrent
        self._lock = RWLock() if concurrent else None
        self._rd = self._lock.reader if concurrent else NULL_GUARD
        self._wr = self._lock.writer if concurrent else NULL_GUARD
        #: metrics tree rooted at this engine; ``stat()`` renders it.  With
        #: ``observability=False`` every instrument is a shared null object
        #: and the op wrappers skip the clock entirely.
        self.obs = Registry(name, enabled=observability)
        if concurrent:
            self.obs.make_threadsafe()
            file.stats.make_threadsafe()
        self.hooks = TraceHooks()
        # disabled tracer until enable_tracing(): each traced call site
        # costs one attribute load + truth test (see obs.trace.TraceSupport)
        self._init_tracing()
        # Durability: interpose the write-ahead log between the buffer
        # pool and the real pager, so page write-back lands in the log
        # and the data file is only written by checkpoints/recovery
        # (see repro.core.wal).  Read-only handles skip the machinery --
        # recovery already ran at open, and nothing will be written.
        self.durability = durability if not readonly else "none"
        self._wal: WriteAheadLog | None = None
        self._txn: TransactionManager | None = None
        #: what replay did at open time (None when no recovery ran)
        self.wal_recovery: dict | None = None
        if self.durability != "none":
            path = getattr(file, "path", None)
            if path is None:
                # Anonymous temp / RAM files: full transaction semantics
                # (atomic commit/abort), no durable sidecar -- same
                # lifetime as the handle itself.
                store = MemByteStore()
                fresh = True
            else:
                wpath = wal_path_for(path)
                fresh = wal_fresh or not os.path.exists(wpath)
                store = ByteFile(wpath, create=fresh)
            if wal_wrapper is not None:
                store = wal_wrapper(store)
            if concurrent:
                store.stats.make_threadsafe()
            self._wal = WriteAheadLog(store, bsize, fresh=fresh)
            self._file = WALPager(file, self._wal)
        self.pool = BufferPool(
            self._file,
            bsize,
            cachesize,
            addresser,
            policy=buffer_policy,
            obs=self.obs.child("buffer"),
            hooks=self.hooks,
            concurrent=concurrent,
        )
        _ops = self.obs.child("ops")
        self._ops = _ops
        self._h_get = _ops.histogram("get")
        self._h_put = _ops.histogram("put")
        self._h_delete = _ops.histogram("delete")
        self._h_split = _ops.histogram("split")
        self._clock = time.perf_counter if observability else None
        # Page-I/O trace events piggyback on the file's callback slot; the
        # storage layer stays ignorant of the hook machinery.  The slot is
        # wired only while on_page_io has subscribers (hook fast path):
        # an unobserved engine leaves it None, and the storage layer's
        # ``cb is None`` check makes every page read/write emit-free.
        self.hooks.on_change = self._hooks_changed
        self._hooks_changed("on_page_io")
        # Fault injection (FaultyPager) exposes the same style of slot;
        # route it into on_fault so the flight recorder logs the injected
        # fault before the crash it causes.
        if hasattr(file, "on_fault"):
            file.on_fault = self._fault_event
        if concurrent:
            self._lock.wait_hook = self._lock_wait_event
        if self._wal is not None:
            self._txn = TransactionManager(
                wal=self._wal,
                walpager=self._file,
                inner=file,
                pool=self.pool,
                write_meta=self._write_meta,
                snapshot=self._txn_snapshot,
                restore=self._txn_restore,
                check=self._check_writable,
                guard=self._wr,
                hooks=self.hooks,
                obs=self.obs.child("wal"),
                fsync=(self.durability == "wal+fsync"),
                checkpoint_bytes=wal_checkpoint_bytes,
                audit=wal_audit,
            )

    # --------------------------------------------------------------- plumbing

    def _page_io_event(self, kind: str, pageno: int, nbytes: int) -> None:
        hooks = self.hooks
        if hooks.on_page_io:
            hooks.emit(
                "on_page_io", {"kind": kind, "pageno": pageno, "nbytes": nbytes}
            )

    def _hooks_changed(self, event: str | None) -> None:
        """``TraceHooks.on_change`` callback: (un)wire the storage layer's
        per-I/O callback to track on_page_io subscriptions, so engines
        with no subscribers pay zero Python calls per page read/write."""
        if event is not None and event != "on_page_io":
            return
        self._file.on_page_io = (
            self._page_io_event if self.hooks.on_page_io else None
        )

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedError(f"operation on closed {type(self).__name__}")

    def _check_writable(self) -> None:
        self._check_open()
        if self.readonly:
            raise ReadOnlyError(f"{self._noun} is read-only")

    # ----------------------------------------------------------- transactions

    def _require_txn(self) -> TransactionManager:
        if self._txn is None:
            raise TransactionError(
                f"transactions require opening the {self._noun} with "
                "durability='wal' or 'wal+fsync'"
            )
        return self._txn

    def begin(self) -> None:
        """Open an explicit transaction: every mutation until
        :meth:`commit` is atomic (all-or-nothing across crashes) and
        :meth:`abort` undoes all of them.  Holds the write lock until
        commit/abort, so transactions are thread-affine and do not nest.
        Requires ``durability='wal'`` or ``'wal+fsync'``."""
        self._check_writable()
        self._require_txn().begin()

    def commit(self) -> None:
        """Commit the open transaction.  Under ``durability='wal+fsync'``
        this blocks until the log is fsynced (group commit shares that
        fsync among concurrent committers)."""
        self._check_open()
        self._require_txn().commit()

    def abort(self) -> None:
        """Roll back the open transaction: logged frames are orphaned
        and the in-memory state rewinds to the :meth:`begin` point."""
        self._check_open()
        self._require_txn().abort()

    def transaction(self) -> TransactionContext:
        """``with db.transaction(): ...`` -- commit on clean exit,
        abort if the body raises."""
        return TransactionContext(self)

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None and self._txn.in_transaction

    def checkpoint(self) -> int:
        """Force a WAL checkpoint: committed pages move into the data
        file, the file is fsynced, the log is truncated.  Returns the
        number of pages transferred.  Raises :class:`TransactionError`
        inside an open transaction (or without ``durability=``)."""
        self._check_writable()
        txn = self._require_txn()
        with self._wr:
            return txn.checkpoint_locked()

    # ------------------------------------------------------------ maintenance

    def sync(self) -> None:
        """Flush dirty pages and the header/meta page, then fsync -- the
        flush-before-sync ordering every access method shares (see
        docs/STORAGE.md): batched page write-back, header/meta write,
        one group sync.  In WAL mode this is a full checkpoint (commit
        the implicit transaction, transfer, truncate the log), and
        raises :class:`TransactionError` inside an open transaction."""
        if self.tracer.enabled:
            self._traced_op("sync", None, self._wr, self._sync_impl)
            return
        with self._wr:
            self._sync_impl()

    def _sync_impl(self) -> None:
        self._check_open()
        if self._txn is not None:
            self._txn.checkpoint_locked()
            return
        self.pool.flush()
        self._trim_tail()
        self._write_meta()
        self._file.sync()

    def _trim_tail(self) -> None:
        """Give trailing free pages back to the filesystem (sync/close
        hook); engines without a cuttable freelist keep the default."""

    def close(self) -> None:
        """Flush, sync and release everything; idempotent (a second
        close is a no-op); further operations raise.  An open
        uncommitted transaction is ROLLED BACK first -- close never
        half-flushes work that was never committed."""
        with self._wr:
            if self._closed:
                return
            txn = self._txn
            if not self.readonly:
                if txn is not None:
                    txn.abort_for_close()
                    txn.checkpoint_locked()
                    self.pool.drop_all()
                else:
                    self.pool.drop_all()
                    self._trim_tail()
                    self._write_meta()
                    self._file.sync()
            self._closed = True
            self._file.close()
            if txn is not None:
                txn.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def io_stats(self):
        return self._file.stats

    def stat(self) -> dict:
        """The engine's full metrics tree as one nested dict.

        The top-level shape -- ``type``, ``nkeys``, ``ops`` (counts +
        latency quantiles), ``buffer``, ``io``, ``method`` -- is shared by
        every access method, so callers can report on any database the
        same way.  With ``observability=False`` the latency entries are
        shape-stable zeros; the counts are always live.
        """
        with self._rd:
            return self._stat_impl()

    # -------------------------------------------------------------- compaction

    def compact(self) -> dict:
        """Rewrite the file into its minimal on-disk form in place.

        Rebuilds from the live pairs into a pristine RAM twin and copies
        that image over the file, reclaiming every dead page that churn
        left behind.  Returns a report dict (``before``/``after`` page
        and byte sizes, ``pages_reclaimed``, ``nkeys``, ``pagesize``).

        Mostly-online: the live pairs are snapshotted under the *read*
        lock and the replacement image is built without any lock; only
        the final swap holds the write lock (if a writer slipped in
        between snapshot and swap, the build redoes itself exclusively,
        so the swapped image is never stale).

        Under a WAL the swap is bracketed by checkpoints, so a crash at
        any point leaves either the old file or the new one, never a
        mix.  Without a WAL, compact carries the same mid-operation
        crash caveat as any structural write.  Raises
        :class:`TransactionError` inside an open transaction.
        """
        self._check_writable()
        if self._txn is not None and self._txn.in_transaction:
            raise TransactionError(
                "compact() inside an open transaction; commit or abort first"
            )
        span = self.tracer.start("compact") if self.tracer.enabled else None
        try:
            report = self._compact_impl()
        finally:
            if span is not None:
                self.tracer.end(span)
        if self.hooks.on_compact:
            self.hooks.emit("on_compact", dict(report))
        return report

    def _compact_impl(self) -> dict:
        with self._rd:
            self._check_writable()
            items = self._live_items()
            marker = self._write_marker()
        temp = self._build_compact_image(items)
        try:
            with self._wr:
                if self._write_marker() != marker:
                    # Writers slipped in between snapshot and swap: redo
                    # the snapshot and build while exclusive (rare --
                    # correctness over the lost concurrency of one build).
                    temp.close()
                    items = self._live_items()
                    temp = self._build_compact_image(items)
                return self._compact_swap(temp, len(items))
        finally:
            temp.close()

    def _compact_swap(self, temp: "Engine", nkeys: int) -> dict:
        """Replace this engine's file contents with ``temp``'s image.
        Caller holds the write lock; ``temp`` is flushed and in RAM."""
        ps = self.pool.bsize
        # logical size: unflushed pages live only in the pool, so the
        # file alone can be behind the table
        logical = self._logical_pages()
        before_pages = max(self._file.npages(), logical)
        before_bytes = max(self._file.size_bytes(), logical * ps)
        txn = self._txn
        if txn is not None:
            # Quiesce: materialize everything logged so far, so the copy
            # below is the only pending work in the log.
            txn.checkpoint_locked()
        self.pool.discard(lambda hdr: True)
        src = temp._file
        new_n = src.npages()
        i = 0
        while i < new_n:
            j = min(new_n, i + 64)
            blob = b"".join(src.read_page(p) for p in range(i, j))
            self._file.write_pages(i, blob)
            i = j
        self._adopt_image(temp)
        self._file.freelist.clear()
        if txn is not None:
            # Commit + transfer the new image, THEN drop the tail: the
            # truncate only ever follows a fully materialized file.
            txn.checkpoint_locked()
            if self._file.npages() > new_n:
                self._file.truncate(new_n)
                self._file.sync()
        else:
            self._write_meta()
            if self._file.npages() > new_n:
                self._file.truncate(new_n)
            self._file.sync()
        self.pool._hole_threshold = new_n
        after_pages = self._file.npages()
        return {
            "nkeys": nkeys,
            "before": {"pages": before_pages, "bytes": before_bytes},
            "after": {"pages": after_pages, "bytes": self._file.size_bytes()},
            "pages_reclaimed": max(0, before_pages - after_pages),
            "pagesize": ps,
        }
