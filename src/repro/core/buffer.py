"""LRU buffer manager.

"To satisfy both of these requirements, the package includes buffer
management with LRU (least recently used) replacement. ... All pages in the
buffer pool are linked in LRU order to facilitate fast replacement. ...
efficient access to overflow pages is provided by linking overflow page
buffers to their predecessor page. ... This means that an overflow page
cannot be present in the buffer pool if its primary page is not present."

The pool holds whole pages keyed by logical address -- ``('B', bucket)`` for
primary pages, ``('O', oaddr)`` for overflow pages of any kind -- and
translates to physical page numbers through a caller-supplied addresser, so
the pool itself stays ignorant of the buddy-in-waiting arithmetic.

Eviction policy nuances reproduced from the paper:

- a buffer with a chained overflow buffer is evicted together with its whole
  chain (preserving the primary-implies-overflow invariant);
- pinned buffers are never evicted; the budget is a soft target when every
  buffer is pinned (splits temporarily pin several pages);
- the pool size is a byte budget; ``cachesize=0`` degenerates to the minimum
  number of resident pages an operation needs, exactly the paper's Figure 7
  x-axis origin.

Write-back is batched: ``flush()`` takes the dirty headers, sorts them by
page number and coalesces contiguous runs into single vectored
``write_pages`` calls on the underlying pager, so a flush of N contiguous
dirty pages costs one syscall instead of N (see docs/STORAGE.md).

The dirty headers come from a *dirty index*: an insertion-ordered map of
exactly the resident headers whose modified bit is set, maintained by the
``BufferHeader.dirty`` setter (every store in the engines goes through
it).  So ``flush()`` -- every ``sync``, ``begin`` and ``commit`` -- costs
O(dirty pages) and ``dirty_count()`` -- every ``stat()`` -- O(1), whatever
is resident.  It needs no lock of its own: the bit is set only by a writer
holding the table's exclusive write lock, and cleared only by that writer
or by an eviction write-back under the pool mutex while nothing but
readers (which never dirty a page) run.

Observability: all pool accounting lives in :mod:`repro.obs` counters
(registered under the owning table's metrics tree when one is supplied),
and evictions are reported through the ``on_evict`` trace event.  Chain
edges are mirrored in a reverse map so invalidation and re-linking are
O(1) instead of an O(pool) scan.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from operator import attrgetter
from typing import Callable, Hashable

from repro.core.locking import NULL_GUARD, PageLatch
from repro.core.pages import PageView
from repro.obs.hooks import TraceHooks
from repro.obs.registry import Counter, Registry

#: Minimum resident pages regardless of budget: an expansion touches the old
#: bucket chain head, the new bucket, a bitmap page and a big-pair page.
MIN_BUFFERS = 4

BufferKey = Hashable


class OwnedMutex:
    """A reentrant mutex that knows who holds it (hierarchy level 2).

    ``threading.RLock`` cannot answer "does *this* thread hold you?", but
    the race harness needs exactly that: its page-I/O yield points fire
    inside pool critical sections (eviction write-back), where parking
    the thread would block every other pool user invisibly.  The owner
    ident lets the harness (and assertions) detect that case.
    """

    __slots__ = ("_lock", "_owner", "_depth")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._owner: int | None = None
        self._depth = 0

    def acquire(self) -> None:
        me = threading.get_ident()
        if self._owner == me:
            self._depth += 1
            return
        self._lock.acquire()
        self._owner = me
        self._depth = 1

    def release(self) -> None:
        if self._owner != threading.get_ident():
            raise RuntimeError("OwnedMutex released by a non-owner thread")
        self._depth -= 1
        if self._depth == 0:
            self._owner = None
            self._lock.release()

    def held_by_me(self) -> bool:
        return self._owner == threading.get_ident()

    def __enter__(self) -> "OwnedMutex":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class BufferHeader:
    """One resident page: the buffer plus its bookkeeping.

    Mirrors the paper's buffer header: modified bit, page address, pointer
    to the buffer, pointer to the overflow page's buffer header, LRU links
    (the LRU links live in the pool's ordered dict).
    """

    __slots__ = (
        "key",
        "pageno",
        "page",
        "_dirty",
        "_pool",
        "pins",
        "chain_next",
        "latch",
        "epoch",
        "formatted",
        "_view",
    )

    def __init__(
        self,
        key: BufferKey,
        pageno: int,
        page: bytearray,
        pool: "BufferPool | None" = None,
    ) -> None:
        self.key = key
        self.pageno = pageno
        self.page = page
        self._dirty = False
        #: owning pool, whose dirty index the ``dirty`` setter maintains
        self._pool = pool
        self.pins = 0
        #: key of the next overflow buffer chained behind this page, if that
        #: buffer is resident; evicted together with this one.
        self.chain_next: BufferKey | None = None
        #: per-page latch (hierarchy level 3), installed only by concurrent
        #: pools; held while the page's bytes are mutated or snapshotted so
        #: a write-back never captures a torn page.
        self.latch: PageLatch | None = None
        #: dirty epoch: bumped by every out-of-band mutation notice
        #: (:meth:`BufferPool.mark_dirty`), so the cached view's decoded
        #: slot table revalidates lazily instead of being reparsed per use.
        self.epoch = 0
        #: set once the engine has checked/initialized the page format, so
        #: repeat faults of a resident page skip the hole-detection parse.
        self.formatted = False
        self._view: PageView | None = None

    def _set_dirty(self, value: bool) -> None:
        # The one place the modified bit changes.  Most stores do not flip
        # it (a hot page is dirtied once, written many times) and return
        # after one test.  A flip updates the pool's dirty index -- but a
        # header the pool no longer holds is never indexed.
        if value:
            if not self._dirty:
                self._dirty = True
                pool = self._pool
                if pool is not None and pool._pool.get(self.key) is self:
                    pool._dirty[self] = None
        elif self._dirty:
            self._dirty = False
            pool = self._pool
            if pool is not None:
                pool._dirty.pop(self, None)

    #: the paper's modified bit
    dirty = property(attrgetter("_dirty"), _set_dirty)

    def view(self) -> PageView:
        """The page's shared :class:`PageView` (one per resident buffer).

        Reusing one view keeps the decoded slot table warm across
        operations: a hot page is parsed once per mutation, not once per
        lookup.  Callers needing a private uncached view can still
        construct ``PageView(hdr.page)`` directly.
        """
        v = self._view
        if v is None:
            v = self._view = PageView(self.page, owner=self)
        return v

    def pin(self) -> None:
        self.pins += 1

    def unpin(self) -> None:
        if self.pins <= 0:
            raise AssertionError(f"unpin of unpinned buffer {self.key!r}")
        self.pins -= 1


class BufferPool:
    """Byte-budgeted LRU pool of page buffers over one paged file."""

    def __init__(
        self,
        file,
        bsize: int,
        cachesize: int,
        addresser: Callable[[BufferKey], int],
        policy: str = "lru",
        obs: Registry | None = None,
        hooks: TraceHooks | None = None,
        concurrent: bool = False,
    ) -> None:
        if bsize <= 0:
            raise ValueError(f"bsize must be positive, got {bsize}")
        if cachesize < 0:
            raise ValueError(f"cachesize must be non-negative, got {cachesize}")
        if policy not in ("lru", "fifo"):
            raise ValueError(f"policy must be 'lru' or 'fifo', got {policy!r}")
        self.file = file
        self.bsize = bsize
        self.max_buffers = max(MIN_BUFFERS, cachesize // bsize)
        self.addresser = addresser
        #: 'lru' is the paper's replacement policy; 'fifo' exists for the
        #: ablation benchmark (hits do not refresh recency).
        self.policy = policy
        self._pool: OrderedDict[BufferKey, BufferHeader] = OrderedDict()
        #: reverse chain edges: successor key -> predecessor key.  Kept
        #: exactly in sync with the headers' ``chain_next`` hints so chain
        #: unlink and invalidation are O(1).
        self._chain_prev: dict[BufferKey, BufferKey] = {}
        #: the dirty index: resident headers whose modified bit is set, in
        #: the order they were dirtied; written by ``BufferHeader.dirty``.
        self._dirty: dict[BufferHeader, None] = {}
        self._hooks = hooks
        # Counters are always real (a slotted attribute add); supplying an
        # enabled registry merely publishes them in the metrics tree.
        self._c_hits = Counter("hits")
        self._c_misses = Counter("misses")
        self._c_evictions = Counter("evictions")
        self._c_chain_evictions = Counter("chain_evictions")
        self._c_invalidations = Counter("invalidations")
        self._c_writebacks = Counter("writebacks")
        self._c_batched_runs = Counter("batched_runs")
        if obs is not None:
            for c in (
                self._c_hits,
                self._c_misses,
                self._c_evictions,
                self._c_chain_evictions,
                self._c_invalidations,
                self._c_writebacks,
                self._c_batched_runs,
            ):
                obs.attach(c)
            obs.gauge("resident").set_function(lambda: len(self._pool))
            obs.gauge("dirty").set_function(self.dirty_count)
            obs.gauge("max_buffers").set_function(lambda: self.max_buffers)
        #: pages at or beyond this number have never been written (file
        #: high-water mark): faulting them zero-fills without a read.  A
        #: pre-sized table's untouched buckets cost no I/O this way.
        self._hole_threshold = file.npages()
        #: pool mutex (hierarchy level 2): None keeps the single-threaded
        #: fast path free of every lock acquire.  Counters are bumped via
        #: bare ``.value +=`` on purpose -- always inside this mutex when
        #: it exists, so they need no lock of their own.
        self.mutex: OwnedMutex | None = OwnedMutex() if concurrent else None

    # -- legacy counter views -----------------------------------------------------

    @property
    def hits(self) -> int:
        return self._c_hits.value

    @property
    def misses(self) -> int:
        return self._c_misses.value

    @property
    def evictions(self) -> int:
        return self._c_evictions.value

    @property
    def invalidations(self) -> int:
        return self._c_invalidations.value

    # -- lookup ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pool)

    def __contains__(self, key: BufferKey) -> bool:
        return key in self._pool

    def peek(self, key: BufferKey) -> BufferHeader | None:
        """Resident buffer for ``key`` without touching LRU order or disk."""
        return self._pool.get(key)

    def get(self, key: BufferKey, *, create: bool = False) -> BufferHeader:
        """Return the buffer for ``key``, faulting it in if absent.

        With ``create=True`` the page is known to be brand new: the buffer
        is zero-initialized without a disk read (the caller formats it).
        """
        mutex = self.mutex
        hooks = self._hooks
        if mutex is None:
            hdr = self._pool.get(key)
            if hdr is not None:
                self._c_hits.value += 1
                if self.policy == "lru":
                    self._pool.move_to_end(key)
                if hooks is not None and hooks.on_buffer:
                    hooks.emit(
                        "on_buffer",
                        {"kind": "hit", "key": key, "pageno": hdr.pageno},
                    )
                return hdr
            self._c_misses.value += 1
            pageno = self.addresser(key)
            if hooks is not None and hooks.on_buffer:
                hooks.emit(
                    "on_buffer", {"kind": "miss", "key": key, "pageno": pageno}
                )
            if create or pageno >= self._hole_threshold:
                page = bytearray(self.bsize)
            else:
                page = bytearray(self.file.read_page(pageno))
            return self._install(key, pageno, page, create)
        # Concurrent path: the miss read happens OUTSIDE the mutex (pread
        # needs no shared cursor), both so a slow fault never serializes
        # every hit behind it and so the page-I/O yield point fires with
        # no pool lock held -- the race harness can park there safely.
        with mutex:
            hdr = self._pool.get(key)
            if hdr is not None:
                self._c_hits.value += 1
                if self.policy == "lru":
                    self._pool.move_to_end(key)
                hit_pageno = hdr.pageno
            else:
                self._c_misses.value += 1
                pageno = self.addresser(key)
                hole = create or pageno >= self._hole_threshold
        # on_buffer fires OUTSIDE the mutex (subscribers may be slow or
        # reenter the pool), same rule as the miss read below.
        if hdr is not None:
            if hooks is not None and hooks.on_buffer:
                hooks.emit(
                    "on_buffer", {"kind": "hit", "key": key, "pageno": hit_pageno}
                )
            return hdr
        if hooks is not None and hooks.on_buffer:
            hooks.emit("on_buffer", {"kind": "miss", "key": key, "pageno": pageno})
        if hole:
            page = bytearray(self.bsize)
        else:
            page = bytearray(self.file.read_page(pageno))
        with mutex:
            # Double-checked insert: a sibling reader may have faulted the
            # same page while the mutex was dropped; its buffer wins (ours
            # is identical bytes -- no writer can run during read faults).
            other = self._pool.get(key)
            if other is not None:
                if self.policy == "lru":
                    self._pool.move_to_end(key)
                return other
            return self._install(key, pageno, page, create)

    def _install(self, key: BufferKey, pageno: int, page: bytearray, create: bool) -> BufferHeader:
        """Insert a freshly faulted buffer and rebalance (mutex held when
        concurrent)."""
        hdr = BufferHeader(key, pageno, page, self)
        if self.mutex is not None:
            hdr.latch = PageLatch()
        self._pool[key] = hdr
        if create:
            hdr.dirty = True
        # Pin across the shrink: when every other buffer is pinned the
        # walk would otherwise evict the buffer we are about to return,
        # and the caller would mutate a detached page (lost write).
        hdr.pin()
        try:
            self._shrink()
        finally:
            hdr.unpin()
        return hdr

    # -- state changes -----------------------------------------------------------

    def mark_dirty(self, hdr: BufferHeader) -> None:
        """Note that ``hdr.page`` was (or is about to be) mutated.

        Bumps the header's dirty epoch so the cached decoded slot table
        is invalidated even when the mutation bypassed the page's shared
        :class:`PageView` (raw byte pokes, compat shims, tests).
        """
        hdr.dirty = True
        hdr.epoch += 1

    def link_chain(self, pred: BufferHeader, succ: BufferHeader) -> None:
        """Record that ``succ`` is the overflow buffer following ``pred``.

        Keeps the invariant that at most one resident predecessor points at
        any buffer: a previous predecessor of ``succ`` (or a previous
        successor of ``pred``) has its edge cleared, in O(1) via the
        reverse map.
        """
        mutex = self.mutex if self.mutex is not None else NULL_GUARD
        with mutex:
            if pred.chain_next == succ.key:
                return
            if pred.chain_next is not None and self._chain_prev.get(pred.chain_next) == pred.key:
                del self._chain_prev[pred.chain_next]
            old_pred_key = self._chain_prev.get(succ.key)
            if old_pred_key is not None and old_pred_key != pred.key:
                old_pred = self._pool.get(old_pred_key)
                if old_pred is not None and old_pred.chain_next == succ.key:
                    old_pred.chain_next = None
            pred.chain_next = succ.key
            self._chain_prev[succ.key] = pred.key

    def unlink_chain(self, pred: BufferHeader) -> None:
        mutex = self.mutex if self.mutex is not None else NULL_GUARD
        with mutex:
            nxt = pred.chain_next
            if nxt is not None and self._chain_prev.get(nxt) == pred.key:
                del self._chain_prev[nxt]
            pred.chain_next = None

    def invalidate(self, key: BufferKey) -> None:
        """Drop a buffer without writing it (its page was freed).

        Clears the dangling chain hint of the buffer's predecessor -- the
        page may be reused in another chain, and a stale edge would make
        eviction drag (or cycle through) unrelated buffers.  O(1) via the
        reverse-edge map (formerly an O(pool) scan).
        """
        mutex = self.mutex
        if mutex is None:
            self._invalidate_locked(key)
            return
        with mutex:
            self._invalidate_locked(key)

    def _invalidate_locked(self, key: BufferKey) -> None:
        hdr = self._pool.get(key)
        if hdr is not None and hdr.pins:
            raise AssertionError(f"invalidate of pinned buffer {key!r}")
        pred_key = self._chain_prev.pop(key, None)
        if pred_key is not None:
            pred = self._pool.get(pred_key)
            if pred is not None and pred.chain_next == key:
                pred.chain_next = None
        if hdr is not None:
            del self._pool[key]
            # Poison the dropped header: code holding a reference to it
            # (or to its cached PageView) across the invalidate must not
            # decode stale bytes once the page address is reallocated to
            # fresh contents.
            hdr.epoch += 1
            hdr.formatted = False
            hdr._view = None
            hdr.dirty = False
            nxt = hdr.chain_next
            if nxt is not None and self._chain_prev.get(nxt) == key:
                del self._chain_prev[nxt]
            self._c_invalidations.value += 1

    # -- eviction / flushing ----------------------------------------------------------

    def _snapshot(self, hdr: BufferHeader) -> bytes:
        """Copy the page's bytes out under its latch (if it has one), so
        a write-back never captures a half-applied in-place mutation."""
        latch = hdr.latch
        if latch is None:
            return bytes(hdr.page)
        with latch:
            return bytes(hdr.page)

    def _write_back(self, hdr: BufferHeader) -> None:
        if hdr.dirty:
            self.file.write_page(hdr.pageno, self._snapshot(hdr))
            hdr.dirty = False
            self._c_writebacks.value += 1
            if hdr.pageno >= self._hole_threshold:
                self._hole_threshold = hdr.pageno + 1

    def _drop_edges(self, hdr: BufferHeader) -> None:
        """Remove ``hdr``'s reverse-map edges as it leaves the pool."""
        pred_key = self._chain_prev.pop(hdr.key, None)
        if pred_key is not None:
            pred = self._pool.get(pred_key)
            if pred is not None and pred.chain_next == hdr.key:
                pred.chain_next = None
        nxt = hdr.chain_next
        if nxt is not None and self._chain_prev.get(nxt) == hdr.key:
            del self._chain_prev[nxt]

    def _evict_chain(self, key: BufferKey) -> bool:
        """Evict ``key`` and its chained overflow buffers; False if any
        buffer in the chain is pinned (nothing is evicted then).

        ``chain_next`` is a best-effort hint, so the walk defends against
        stale edges (a visited set breaks cycles left by page reuse).
        """
        chain: list[BufferHeader] = []
        visited: set[BufferKey] = set()
        k: BufferKey | None = key
        while k is not None and k not in visited:
            visited.add(k)
            hdr = self._pool.get(k)
            if hdr is None:
                break
            if hdr.pins:
                return False
            chain.append(hdr)
            k = hdr.chain_next
        hooks = self._hooks
        emit = hooks is not None and bool(hooks.on_evict)
        chained = len(chain) > 1
        for hdr in chain:
            # Re-validate before every member: the on_evict / on_page_io
            # hooks fired for an earlier member may have called back into
            # the pool and invalidated this one (reentrant trace hooks
            # used to corrupt the walk here).
            if self._pool.get(hdr.key) is not hdr:
                continue
            if emit:
                hooks.emit(
                    "on_evict",
                    {
                        "key": hdr.key,
                        "pageno": hdr.pageno,
                        "dirty": hdr.dirty,
                        "chained": chained,
                    },
                )
            if self._pool.get(hdr.key) is not hdr:
                continue
            self._write_back(hdr)
            self._pool.pop(hdr.key, None)
            self._drop_edges(hdr)
            self._c_evictions.value += 1
        if chained:
            self._c_chain_evictions.value += 1
        return True

    def _shrink(self) -> None:
        pool = self._pool
        if len(pool) <= self.max_buffers:
            return
        # O(1) candidate selection: the victim is always the dict head
        # (LRU end).  A head whose chain is pinned rotates to the MRU end
        # -- it is in active use this very operation, so refreshing its
        # recency is harmless -- instead of being rescanned, which made
        # the old walk O(pool) per eviction.  ``rotations`` bounds the
        # pass when every resident buffer is pinned (budget is soft then).
        rotations = 0
        while len(pool) > self.max_buffers and rotations < len(pool):
            key = next(iter(pool))
            before = len(pool)
            if not self._evict_chain(key):
                pool.move_to_end(key)
                rotations += 1
            elif len(pool) >= before:
                # Defensive: a reentrant hook refilled the pool faster
                # than the evict drained it; never spin on that.
                break

    def flush(self, *, batched: bool = True) -> int:
        """Write every dirty buffer (pool contents stay resident);
        returns the number of pages written.

        The default path is batched write-back: the dirty index's headers
        are sorted by page number, and contiguous runs coalesce
        into single vectored ``write_pages`` calls -- a run of N pages
        costs one syscall instead of N, which ``IOStats.syscalls`` makes
        visible.  ``batched=False`` keeps the historical page-at-a-time
        path (the ablation baseline in BENCH_flush_batching.json).

        Each header is re-validated against the live pool immediately
        before its bytes go out: ``on_page_io`` trace hooks fire during
        the writes and may reenter the pool (``invalidate``), so the
        dirty list taken up front can go stale mid-walk.
        """
        mutex = self.mutex
        if mutex is None:
            return self._flush_locked(batched)
        with mutex:
            return self._flush_locked(batched)

    def _flush_locked(self, batched: bool) -> int:
        if not self._dirty:
            return 0
        dirty = sorted(self._dirty, key=attrgetter("pageno"))
        vector_write = getattr(self.file, "write_pages", None) if batched else None
        written = 0

        def live(h: BufferHeader) -> bool:
            return self._pool.get(h.key) is h and h.dirty

        if vector_write is None:
            for hdr in dirty:
                if live(hdr):
                    self._write_back(hdr)
                    written += 1
            return written
        i = 0
        n = len(dirty)
        while i < n:
            hdr = dirty[i]
            if not live(hdr):
                i += 1
                continue
            # Greedily extend the run with contiguous successors that are
            # still resident and dirty at this instant.
            run = [hdr]
            j = i + 1
            while j < n and dirty[j].pageno == run[-1].pageno + 1 and live(dirty[j]):
                run.append(dirty[j])
                j += 1
            if len(run) == 1:
                self._write_back(hdr)
            else:
                vector_write(
                    run[0].pageno, b"".join(self._snapshot(h) for h in run)
                )
                for h in run:
                    h.dirty = False
                self._c_writebacks.value += len(run)
                self._c_batched_runs.value += 1
                if run[-1].pageno >= self._hole_threshold:
                    self._hole_threshold = run[-1].pageno + 1
            written += len(run)
            i = j
        return written

    def discard(self, predicate) -> int:
        """Drop every buffer matching ``predicate(hdr)`` WITHOUT writing
        it back -- transaction abort's tool: dirty buffers (and clean
        ones re-read from the transaction's own WAL images) simply
        vanish, and the next fault reads the pre-transaction bytes.
        Returns the number of buffers dropped; raises if any match is
        pinned (abort never runs mid-operation)."""
        mutex = self.mutex
        if mutex is None:
            return self._discard_locked(predicate)
        with mutex:
            return self._discard_locked(predicate)

    def _discard_locked(self, predicate) -> int:
        victims = [h for h in self._pool.values() if predicate(h)]
        for hdr in victims:
            if hdr.pins:
                raise AssertionError(f"discard of pinned buffer {hdr.key!r}")
        for hdr in victims:
            self._invalidate_locked(hdr.key)  # clears the bit, writes nothing
        return len(victims)

    def drop_all(self) -> None:
        """Flush then empty the pool (table close)."""
        mutex = self.mutex
        if mutex is None:
            self._drop_all_locked()
            return
        with mutex:
            self._drop_all_locked()

    def _drop_all_locked(self) -> None:
        self._flush_locked(True)
        if any(h.pins for h in self._pool.values()):
            raise AssertionError("drop_all with pinned buffers resident")
        self._pool.clear()
        self._chain_prev.clear()
        # Empty unless a reentrant hook re-dirtied a page mid-flush.
        self._dirty.clear()

    # -- introspection -----------------------------------------------------------------

    def dirty_count(self) -> int:
        """Resident dirty buffers: O(1), and safe from any thread."""
        return len(self._dirty)

    def metrics(self) -> dict:
        """The pool's accounting as the dict ``db.stat()`` nests under
        'buffer'."""
        return {
            "hits": self._c_hits.value,
            "misses": self._c_misses.value,
            "evictions": self._c_evictions.value,
            "chain_evictions": self._c_chain_evictions.value,
            "invalidations": self._c_invalidations.value,
            "writebacks": self._c_writebacks.value,
            "batched_runs": self._c_batched_runs.value,
            "resident": len(self._pool),
            "dirty": self.dirty_count(),
            "max_buffers": self.max_buffers,
        }
