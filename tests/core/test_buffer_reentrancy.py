"""Regression tests: pool walks must survive reentrant trace hooks.

``flush()`` and eviction fire I/O and ``on_evict`` callbacks mid-walk;
a subscriber may call back into the pool (``invalidate``, ``get``) while
the walk's collected header list is going stale.  These used to corrupt
the walk (writing dropped headers, KeyErrors from the LRU dict); the fix
re-validates each header against the live pool immediately before its
bytes go out.
"""

from __future__ import annotations

from repro.core.buffer import BufferPool
from repro.obs.hooks import TraceHooks
from repro.storage.memfile import MemPagedFile
from tests.core.test_buffer import assert_dirty_index_exact


class _HookedFile:
    """Delegating pager that announces each write before performing it."""

    def __init__(self, inner):
        self.inner = inner
        self.on_write = None
        self.writes: list[int] = []

    def write_page(self, pageno, data):
        self.writes.append(pageno)
        if self.on_write is not None:
            self.on_write(pageno)
        self.inner.write_page(pageno, data)

    def write_pages(self, start_pageno, data):
        npages = len(data) // self.inner.pagesize
        self.writes.extend(range(start_pageno, start_pageno + npages))
        if self.on_write is not None:
            self.on_write(start_pageno)
        self.inner.write_pages(start_pageno, data)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _make_pool(nbuffers=8, bsize=64, hooks=None):
    inner = MemPagedFile(bsize)
    f = _HookedFile(inner)

    def addr(key):
        kind, n = key
        return n if kind == "B" else 1000 + n

    return f, BufferPool(f, bsize, nbuffers * bsize, addr, hooks=hooks)


def _dirty(pool, keys):
    headers = {}
    for k in keys:
        h = pool.get(k, create=True)
        pool.mark_dirty(h)
        headers[k] = h
    return headers


class TestFlushReentrancy:
    def test_invalidate_during_flush_skips_dropped_headers(self):
        """A write hook that invalidates a later dirty buffer mid-flush:
        the dropped buffer must not be written afterwards."""
        f, pool = _make_pool()
        keys = [("B", i) for i in range(4)]
        _dirty(pool, keys)
        victim = ("B", 3)

        def drop_victim(_pageno):
            f.on_write = None  # reenter once
            pool.invalidate(victim)

        f.on_write = drop_victim
        pool.flush(batched=False)
        assert victim not in pool
        assert 3 not in f.writes  # dropped before its turn, never written
        assert pool.dirty_count() == 0
        assert_dirty_index_exact(pool)

    def test_invalidate_during_batched_flush(self):
        """Same reentry under the run-coalescing path: a later run whose
        headers went stale during the first run's write is skipped."""
        f, pool = _make_pool()
        # two non-contiguous runs: [0, 1] and [4, 5]
        _dirty(pool, [("B", 0), ("B", 1), ("B", 4), ("B", 5)])
        victims = [("B", 4), ("B", 5)]

        def drop_tail(_pageno):
            f.on_write = None
            for v in victims:
                pool.invalidate(v)

        f.on_write = drop_tail
        pool.flush(batched=True)
        for v in victims:
            assert v not in pool
        assert 4 not in f.writes and 5 not in f.writes
        assert pool.dirty_count() == 0
        assert_dirty_index_exact(pool)

    def test_reentrant_get_during_flush_is_safe(self):
        """A hook that faults a new page mid-flush (growing the pool dict)
        must not break the walk."""
        f, pool = _make_pool()
        _dirty(pool, [("B", i) for i in range(4)])

        def fault_new(_pageno):
            f.on_write = None
            pool.get(("B", 99), create=True)

        f.on_write = fault_new
        pool.flush()
        assert ("B", 99) in pool
        # the page created mid-flush is dirty and was not in this flush's
        # snapshot: it stays indexed for the next one
        assert list(pool._dirty) == [pool.peek(("B", 99))]
        assert_dirty_index_exact(pool)

    def test_redirty_during_flush_stays_indexed(self):
        """A hook that re-dirties a page this flush has already written
        (and one it has not reached yet): neither is lost -- the first is
        written again by the next flush, the second by this one."""
        f, pool = _make_pool()
        # three separate runs, so the hook fires between them
        hdrs = _dirty(pool, [("B", 0), ("B", 2), ("B", 4)])

        def redirty(pageno):
            if pageno == 2:
                f.on_write = None
                pool.mark_dirty(hdrs[("B", 0)])  # already written
                pool.mark_dirty(hdrs[("B", 4)])  # still to come: a no-op

        f.on_write = redirty
        assert pool.flush() == 3
        assert f.writes == [0, 2, 4]
        assert list(pool._dirty) == [hdrs[("B", 0)]]
        assert_dirty_index_exact(pool)
        assert pool.flush() == 1
        assert f.writes == [0, 2, 4, 0]
        assert_dirty_index_exact(pool)

    def test_redirty_during_drop_all_leaves_no_index_entry(self):
        """drop_all empties the pool whatever its flush's hooks did; a
        header re-dirtied mid-flush leaves with the rest and must not
        stay behind in the index."""
        f, pool = _make_pool()
        hdrs = _dirty(pool, [("B", 0), ("B", 2)])

        def redirty(pageno):
            if pageno == 2:
                f.on_write = None
                hdrs[("B", 0)].dirty = True

        f.on_write = redirty
        pool.drop_all()
        assert len(pool) == 0
        assert_dirty_index_exact(pool)


class TestEvictionReentrancy:
    def test_on_evict_hook_invalidating_chain_member(self):
        """An on_evict subscriber that invalidates the next chain member:
        the eviction walk must skip the now-dead header instead of
        writing it back or double-dropping it."""
        hooks = TraceHooks()
        f, pool = _make_pool(nbuffers=4, hooks=hooks)
        primary = pool.get(("B", 0), create=True)
        ovfl = pool.get(("O", 1), create=True)
        pool.mark_dirty(primary)
        pool.mark_dirty(ovfl)
        pool.link_chain(primary, ovfl)

        fired = []

        def kill_successor(payload):
            if payload["key"] == ("B", 0) and not fired:
                fired.append(True)
                pool.invalidate(("O", 1))

        hooks.subscribe("on_evict", kill_successor)
        # overflow the pool so ('B', 0)'s chain is chosen for eviction
        for i in range(2, 10):
            pool.get(("B", i), create=True)
        assert ("O", 1) not in pool
        assert 1001 not in f.writes  # invalidated member never written
        assert_dirty_index_exact(pool)

    def test_on_evict_hook_reentering_get(self):
        """An on_evict subscriber that faults pages back in mid-shrink."""
        hooks = TraceHooks()
        f, pool = _make_pool(nbuffers=4, hooks=hooks)

        def refault(payload):
            if payload["key"][1] % 2 == 0:
                pool.get(("B", 50 + payload["key"][1]))

        hooks.subscribe("on_evict", refault)
        for i in range(12):
            h = pool.get(("B", i), create=True)
            pool.mark_dirty(h)
            assert_dirty_index_exact(pool)
        pool.flush()
        assert pool.dirty_count() == 0
        assert_dirty_index_exact(pool)


class TestRaisingSubscribers:
    """Companion regression to the reentrancy ones: a subscriber that
    *raises* mid-walk must be isolated (TraceHooks catches it), leaving
    the flush/eviction intact and the exception on ``hooks.errors``."""

    def test_raising_on_evict_does_not_abort_eviction(self):
        import pytest

        hooks = TraceHooks()
        f, pool = _make_pool(nbuffers=4, hooks=hooks)

        def bomb(payload):
            raise RuntimeError("subscriber bug")

        hooks.subscribe("on_evict", bomb)
        with pytest.warns(RuntimeWarning):
            for i in range(12):
                h = pool.get(("B", i), create=True)
                pool.mark_dirty(h)
        assert hooks.errors and hooks.errors[0][0] == "on_evict"
        pool.flush()
        assert pool.dirty_count() == 0

    def test_raising_on_buffer_does_not_abort_table_ops(self):
        import pytest

        from repro.core.table import HashTable

        t = HashTable.create(None, in_memory=True)
        t.hooks.subscribe("on_buffer", lambda p: 1 / 0)
        try:
            with pytest.warns(RuntimeWarning):
                t.put(b"k", b"v")
            assert t.get(b"k") == b"v"
            assert any(e == "on_buffer" for e, _ in t.hooks.errors)
        finally:
            t.close()
