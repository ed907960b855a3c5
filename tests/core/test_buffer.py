"""Unit tests for the LRU buffer pool."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.buffer import MIN_BUFFERS, BufferPool
from repro.storage.memfile import MemPagedFile


def make_pool(cachesize=1024, bsize=64, prewrite=()):
    """Pool over a memfile where key ('B', n) maps to page n and
    ('O', n) maps to page 1000+n.

    ``prewrite`` seeds pages before the pool is built -- the pool assumes
    exclusive ownership of the file from construction on (it tracks the
    write high-water mark to skip hole reads).
    """
    f = MemPagedFile(bsize)
    for pageno, data in prewrite:
        f.write_page(pageno, data)

    def addr(key):
        kind, n = key
        return n if kind == "B" else 1000 + n

    return f, BufferPool(f, bsize, cachesize, addr)


def assert_dirty_index_exact(pool):
    """The dirty index is exactly the resident headers whose modified bit
    is set (so no header outside the pool is in it), and the O(1) count
    agrees with a walk."""
    resident_dirty = {h for h in pool._pool.values() if h.dirty}
    assert set(pool._dirty) == resident_dirty
    assert pool.dirty_count() == len(resident_dirty)
    assert pool.metrics()["dirty"] == len(resident_dirty)


class TestBasics:
    def test_get_faults_in_and_caches(self):
        f, pool = make_pool(prewrite=[(3, b"content")])
        h1 = pool.get(("B", 3))
        assert bytes(h1.page[:7]) == b"content"
        h2 = pool.get(("B", 3))
        assert h1 is h2
        assert pool.hits == 1
        assert pool.misses == 1

    def test_hole_fault_skips_read(self):
        """Pages beyond the file's high-water mark zero-fill with no I/O
        (a pre-sized table's untouched buckets are free to fault)."""
        f, pool = make_pool(prewrite=[(0, b"x")])
        reads = f.stats.page_reads
        h = pool.get(("B", 500))
        assert f.stats.page_reads == reads  # no read for a known hole
        assert h.page == bytearray(64)
        # once written back, the page is no longer a hole
        h.dirty = True
        pool.flush()
        pool.invalidate(("B", 500))
        pool.get(("B", 500))
        assert f.stats.page_reads == reads + 1

    def test_create_skips_read(self):
        f, pool = make_pool()
        reads_before = f.stats.page_reads
        h = pool.get(("B", 5), create=True)
        assert f.stats.page_reads == reads_before
        assert h.dirty
        assert h.page == bytearray(64)

    def test_dirty_written_back_on_flush(self):
        f, pool = make_pool()
        h = pool.get(("B", 0), create=True)
        h.page[:5] = b"dirty"
        pool.flush()
        assert f.read_page(0)[:5] == b"dirty"
        assert not h.dirty

    def test_clean_pages_not_rewritten(self):
        f, pool = make_pool()
        pool.get(("B", 0))
        writes = f.stats.page_writes
        pool.flush()
        assert f.stats.page_writes == writes

    def test_invalid_params(self):
        f = MemPagedFile(64)
        with pytest.raises(ValueError):
            BufferPool(f, 0, 100, lambda k: 0)
        with pytest.raises(ValueError):
            BufferPool(f, 64, -1, lambda k: 0)


class TestEviction:
    def test_lru_victim_is_least_recent(self):
        f, pool = make_pool(cachesize=0)  # max_buffers == MIN_BUFFERS
        for i in range(MIN_BUFFERS):
            pool.get(("B", i))
        pool.get(("B", 0))  # refresh 0
        pool.get(("B", 99))  # evicts 1, the LRU
        assert ("B", 1) not in pool
        assert ("B", 0) in pool

    def test_evicted_dirty_page_written(self):
        f, pool = make_pool(cachesize=0)
        h = pool.get(("B", 0), create=True)
        h.page[:3] = b"abc"
        for i in range(1, MIN_BUFFERS + 2):
            pool.get(("B", i))
        assert ("B", 0) not in pool
        assert f.read_page(0)[:3] == b"abc"

    def test_pinned_pages_survive_pressure(self):
        f, pool = make_pool(cachesize=0)
        h = pool.get(("B", 0))
        h.pin()
        for i in range(1, MIN_BUFFERS + 5):
            pool.get(("B", i))
        assert ("B", 0) in pool
        h.unpin()

    def test_budget_respected(self):
        f, pool = make_pool(cachesize=64 * 8)
        for i in range(50):
            pool.get(("B", i))
        assert len(pool) <= 8

    def test_chain_evicted_with_primary(self):
        """The paper's invariant: an overflow buffer leaves the pool with
        its predecessor."""
        f, pool = make_pool(cachesize=64 * 6)
        prim = pool.get(("B", 0), create=True)
        ovfl = pool.get(("O", 1), create=True)
        pool.link_chain(prim, ovfl)
        # Fill the pool so bucket 0 becomes the LRU victim
        for i in range(1, 10):
            pool.get(("B", i))
        assert ("B", 0) not in pool
        assert ("O", 1) not in pool

    def test_pinned_chain_blocks_whole_chain_eviction(self):
        f, pool = make_pool(cachesize=64 * 6)
        prim = pool.get(("B", 0), create=True)
        ovfl = pool.get(("O", 1), create=True)
        pool.link_chain(prim, ovfl)
        ovfl.pin()
        for i in range(1, 10):
            pool.get(("B", i))
        # primary cannot leave while its chained overflow is pinned
        assert ("B", 0) in pool
        assert ("O", 1) in pool
        ovfl.unpin()


class TestInvalidate:
    def test_invalidate_drops_without_write(self):
        f, pool = make_pool()
        h = pool.get(("O", 1), create=True)
        h.page[:4] = b"gone"
        pool.invalidate(("O", 1))
        assert ("O", 1) not in pool
        assert f.read_page(1001)[:4] == b"\0\0\0\0"

    def test_invalidate_absent_is_noop(self):
        f, pool = make_pool()
        pool.invalidate(("O", 42))

    def test_invalidate_pinned_asserts(self):
        f, pool = make_pool()
        h = pool.get(("O", 1), create=True)
        h.pin()
        with pytest.raises(AssertionError):
            pool.invalidate(("O", 1))
        h.unpin()


class TestDropAll:
    def test_drop_all_flushes_and_empties(self):
        f, pool = make_pool()
        h = pool.get(("B", 0), create=True)
        h.page[:2] = b"ok"
        pool.drop_all()
        assert len(pool) == 0
        assert f.read_page(0)[:2] == b"ok"

    def test_unpin_below_zero_asserts(self):
        f, pool = make_pool()
        h = pool.get(("B", 0))
        with pytest.raises(AssertionError):
            h.unpin()


class TestChainReverseMap:
    """The O(1) invalidate rewrite: the reverse-edge map must stay exactly
    in sync with the headers' chain_next hints."""

    def test_invalidate_clears_predecessor_hint(self):
        f, pool = make_pool()
        prim = pool.get(("B", 0), create=True)
        ovfl = pool.get(("O", 1), create=True)
        pool.link_chain(prim, ovfl)
        pool.invalidate(("O", 1))
        assert prim.chain_next is None
        assert pool._chain_prev == {}

    def test_invalidate_middle_of_chain(self):
        f, pool = make_pool()
        a = pool.get(("B", 0), create=True)
        b = pool.get(("O", 1), create=True)
        c = pool.get(("O", 2), create=True)
        pool.link_chain(a, b)
        pool.link_chain(b, c)
        pool.invalidate(("O", 1))
        assert a.chain_next is None  # pred hint cleared
        assert ("O", 2) not in pool._chain_prev  # succ edge dropped too

    def test_relink_clears_old_predecessor(self):
        # a freed overflow page reused under a different bucket must not
        # leave the old bucket pointing at it
        f, pool = make_pool()
        old = pool.get(("B", 0), create=True)
        new = pool.get(("B", 1), create=True)
        ovfl = pool.get(("O", 7), create=True)
        pool.link_chain(old, ovfl)
        pool.link_chain(new, ovfl)
        assert old.chain_next is None
        assert new.chain_next == ("O", 7)
        assert pool._chain_prev[("O", 7)] == ("B", 1)

    def test_relink_successor_clears_old_edge(self):
        f, pool = make_pool()
        prim = pool.get(("B", 0), create=True)
        o1 = pool.get(("O", 1), create=True)
        o2 = pool.get(("O", 2), create=True)
        pool.link_chain(prim, o1)
        pool.link_chain(prim, o2)  # prim's successor replaced
        assert ("O", 1) not in pool._chain_prev
        assert pool._chain_prev[("O", 2)] == ("B", 0)

    def test_unlink_chain_drops_edge(self):
        f, pool = make_pool()
        prim = pool.get(("B", 0), create=True)
        ovfl = pool.get(("O", 1), create=True)
        pool.link_chain(prim, ovfl)
        pool.unlink_chain(prim)
        assert prim.chain_next is None
        assert pool._chain_prev == {}

    def test_eviction_cleans_edges(self):
        f, pool = make_pool(cachesize=64 * 6)
        prim = pool.get(("B", 0), create=True)
        ovfl = pool.get(("O", 1), create=True)
        pool.link_chain(prim, ovfl)
        for i in range(1, 10):
            pool.get(("B", i))
        assert ("B", 0) not in pool
        assert pool._chain_prev == {}

    def test_drop_all_clears_map(self):
        f, pool = make_pool()
        prim = pool.get(("B", 0), create=True)
        ovfl = pool.get(("O", 1), create=True)
        pool.link_chain(prim, ovfl)
        pool.drop_all()
        assert pool._chain_prev == {}


class TestMetrics:
    def test_counters_track_activity(self):
        f, pool = make_pool(cachesize=0)
        for i in range(MIN_BUFFERS + 2):
            pool.get(("B", i), create=True)
        pool.get(("B", MIN_BUFFERS + 1))  # hit
        m = pool.metrics()
        assert m["misses"] == MIN_BUFFERS + 2
        assert m["hits"] == 1
        assert m["evictions"] == 2
        assert m["writebacks"] == 2  # created pages are dirty
        assert m["resident"] == len(pool)
        assert m["max_buffers"] == MIN_BUFFERS

    def test_invalidations_counted_only_when_resident(self):
        f, pool = make_pool()
        pool.get(("O", 1), create=True)
        pool.invalidate(("O", 1))
        pool.invalidate(("O", 1))  # absent: no-op, not counted
        assert pool.metrics()["invalidations"] == 1
        assert pool.invalidations == 1

    def test_registry_publishes_pool_metrics(self):
        from repro.obs.registry import Registry

        f = MemPagedFile(64)
        obs = Registry("buffer")
        pool = BufferPool(f, 64, 1024, lambda k: k, obs=obs)
        pool.get(5, create=True)
        d = obs.as_dict()
        assert d["misses"] == 1
        assert d["resident"] == 1
        assert d["max_buffers"] == pool.max_buffers


KEYS = st.tuples(st.sampled_from("BO"), st.integers(0, 5))
PICK = st.integers(0, 10**6)


class DirtyIndexMachine(RuleBasedStateMachine):
    """Every way the modified bit or pool membership can change, in any
    order, under a 4-buffer budget so most faults evict: the index must
    be exact after every step.  ``seen`` keeps every header ever handed
    out, so stores also land on evicted, invalidated and dropped ones."""

    def __init__(self):
        super().__init__()
        self.file, self.pool = make_pool(cachesize=MIN_BUFFERS * 64)
        self.seen = []

    def pick(self, i):
        return self.seen[i % len(self.seen)] if self.seen else None

    @rule(key=KEYS, create=st.booleans())
    def get(self, key, create):
        self.seen.append(self.pool.get(key, create=create))

    @rule(i=PICK, value=st.booleans())
    def store_bit(self, i, value):
        hdr = self.pick(i)
        if hdr is not None:
            hdr.dirty = value
            assert hdr.dirty is value

    @rule(i=PICK)
    def mark_dirty(self, i):
        hdr = self.pick(i)
        if hdr is not None:
            epoch = hdr.epoch
            self.pool.mark_dirty(hdr)
            assert hdr.dirty and hdr.epoch == epoch + 1

    @rule(n=st.integers(0, 5))
    def link_chain(self, n):
        pred, succ = self.pool.peek(("B", n)), self.pool.peek(("O", n))
        if pred is not None and succ is not None:
            self.pool.link_chain(pred, succ)

    @rule(batched=st.booleans())
    def flush(self, batched):
        ndirty = self.pool.dirty_count()
        assert self.pool.flush(batched=batched) == ndirty
        assert self.pool.dirty_count() == 0

    @rule(key=KEYS)
    def invalidate(self, key):
        hdr = self.pool.peek(key)
        self.pool.invalidate(key)
        assert hdr is None or not hdr.dirty

    @rule(parity=st.integers(0, 1), dirty_only=st.booleans())
    def discard(self, parity, dirty_only):
        self.pool.discard(
            lambda h: h.pageno % 2 == parity and (h.dirty or not dirty_only)
        )

    @rule()
    def drop_all(self):
        self.pool.drop_all()
        assert len(self.pool) == 0

    @invariant()
    def index_is_exact(self):
        assert_dirty_index_exact(self.pool)
        assert len(self.pool) <= MIN_BUFFERS


TestDirtyIndexMachine = DirtyIndexMachine.TestCase
TestDirtyIndexMachine.settings = settings(max_examples=200, stateful_step_count=40)


class TestDirtyIndex:
    def test_store_that_does_not_flip_the_bit_keeps_index_order(self):
        f, pool = make_pool()
        a, b = pool.get(("B", 0)), pool.get(("B", 1))
        b.dirty = True
        a.dirty = True
        b.dirty = True  # already set: no re-registration
        assert list(pool._dirty) == [b, a]

    def test_stale_header_is_never_indexed(self):
        f, pool = make_pool()
        old = pool.get(("B", 0), create=True)
        pool.invalidate(("B", 0))
        new = pool.get(("B", 0))
        old.dirty = True  # a caller still holding the dropped header
        assert old.dirty and not new.dirty
        assert_dirty_index_exact(pool)
        assert pool.flush() == 0
