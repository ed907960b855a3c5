"""Benchmark-owned proxies at the package's public seams.

:class:`Proxy` records a span around chosen methods of whatever it wraps
-- a ``Pager`` passed as ``file_wrapper=`` (layer ``storage``), a byte
store passed as ``wal_wrapper=`` (``core.wal``) or a ``Client``
(``serve.client``).  The calls on the db handle and the shard router are
timed by the workload loops themselves, which hand those readings to
:meth:`Spans.root`.  Spans stay in memory until the run ends.

:class:`CrashStore` wraps the same two storage seams for the durability
check: it remembers what every unflushed write replaced, so the files can
be put back to "only the bytes flushed before the crash".
"""

from __future__ import annotations

import os
from array import array
from collections import defaultdict
from time import perf_counter_ns as now_ns

from .measure import percentile

PAGER_METHODS = ("read_page", "write_page", "write_pages", "sync", "truncate")
STORE_METHODS = ("read_at", "read_at_most", "write_at", "sync", "truncate_to")
CLIENT_METHODS = ("send", "result")


class Spans:
    """In-memory span log of one thread.

    A workload loop numbers its operations (``op``) and records one *root*
    span per operation from the two clock readings it takes anyway
    (:meth:`root`); a :class:`Proxy` records a *leaf* span around each call
    that crosses its seam while that operation runs (:meth:`wrap`).  A
    leaf's parent is the root with the same ``op``.  Rows sit in arrays, so
    a long log adds nothing for the garbage collector to walk.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("l")
        self.is_root = array("b")
        self.op_of = array("l")
        self.t0 = array("q")  # perf_counter_ns
        self.t1 = array("q")
        self.op = 0

    def name(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def root(self, nid: int, t0: int, t1: int) -> None:
        self.name_id.append(nid)
        self.is_root.append(1)
        self.op_of.append(self.op)
        self.t0.append(t0)
        self.t1.append(t1)

    def wrap(self, name: str, fn):
        nid = self.name(name)
        add_name, add_root, add_op = (
            self.name_id.append, self.is_root.append, self.op_of.append
        )
        add_t0, add_t1 = self.t0.append, self.t1.append

        def spanned(*args, **kwargs):
            t0 = now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = now_ns()
                add_name(nid)
                add_root(0)
                add_op(self.op)
                add_t0(t0)
                add_t1(t1)

        return spanned

    def call(self, name: str, fn, *args):
        """Run ``fn`` as an operation of its own (a sync, a close)."""
        t0 = now_ns()
        try:
            return fn(*args)
        finally:
            self.root(self.name(name), t0, now_ns())
            self.op += 1

    def clear(self) -> None:
        """Forget the spans so far (the warm-up's); names and ``op`` stay."""
        for column in (self.name_id, self.is_root, self.op_of, self.t0, self.t1):
            del column[:]


def summarize(logs: list[Spans]) -> dict[str, dict]:
    """Per span name over every thread's log: count, total seconds, self
    seconds (a root minus what the leaves of its operation cover; a leaf's
    own duration) and the median duration."""
    durs: dict[str, list] = defaultdict(list)
    self_ns: dict[str, int] = defaultdict(int)
    for log in logs:
        covered: dict[int, int] = defaultdict(int)
        for root, op, t0, t1 in zip(log.is_root, log.op_of, log.t0, log.t1):
            if not root:
                covered[op] += t1 - t0
        for nid, root, op, t0, t1 in zip(
            log.name_id, log.is_root, log.op_of, log.t0, log.t1
        ):
            name = log.names[nid]
            durs[name].append(t1 - t0)
            self_ns[name] += (t1 - t0) - (covered.get(op, 0) if root else 0)
    return {
        name: {
            "count": len(d),
            "total_s": sum(d) / 1e9,
            "self_s": self_ns[name] / 1e9,
            "p50_us": percentile(sorted(d), 0.5) / 1e3,
        }
        for name, d in sorted(durs.items())
    }


class Proxy:
    """Forward everything to ``inner``; span the named methods."""

    def __init__(self, inner, spans: Spans, layer: str, methods) -> None:
        object.__setattr__(self, "_inner", inner)
        for method in methods:
            fn = getattr(inner, method, None)
            if fn is not None:
                object.__setattr__(self, method, spans.wrap(f"{layer}.{method}", fn))

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __setattr__(self, name, value) -> None:
        # e.g. the engine wiring ``file.on_page_io``
        setattr(self._inner, name, value)


def storage_wrappers(spans: Spans | None) -> dict:
    """The ``file_wrapper=`` / ``wal_wrapper=`` arguments of a traced open
    (nothing when untraced, so the untraced run carries no proxy)."""
    if spans is None:
        return {}
    return {
        "file_wrapper": lambda pager: Proxy(pager, spans, "storage", PAGER_METHODS),
        "wal_wrapper": lambda store: Proxy(store, spans, "core.wal", STORE_METHODS),
    }


class CrashStore:
    """A pager or byte store that can lose its unflushed writes.

    Before a write or truncate reaches ``inner`` the bytes it replaces are
    read back (through a private descriptor, leaving ``inner``'s counters
    alone) and kept until the next ``sync()``.  :meth:`crash` makes every
    later mutation a no-op -- the handle above is dropped, not closed --
    and :meth:`revert` undoes whatever was never flushed.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self._fd = os.open(inner.path, os.O_RDWR)
        self._undo: list[tuple[int, bytes, int]] = []  # offset, old bytes, old size
        self.dead = False

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _remember(self, offset: int, length: int) -> None:
        size = os.fstat(self._fd).st_size
        self._undo.append((offset, os.pread(self._fd, length, offset), size))

    # -- pager seam -----------------------------------------------------------

    def write_page(self, pageno: int, data) -> None:
        if not self.dead:
            size = self._inner.pagesize
            self._remember(pageno * size, size)
            self._inner.write_page(pageno, data)

    def write_pages(self, start_pageno: int, data) -> None:
        if not self.dead:
            self._remember(start_pageno * self._inner.pagesize, len(data))
            self._inner.write_pages(start_pageno, data)

    def truncate(self, npages: int) -> None:
        if not self.dead:
            cut = npages * self._inner.pagesize
            self._remember(cut, max(0, os.fstat(self._fd).st_size - cut))
            self._inner.truncate(npages)

    # -- byte-store seam ------------------------------------------------------

    def write_at(self, offset: int, data) -> None:
        if not self.dead:
            self._remember(offset, len(data))
            self._inner.write_at(offset, data)

    def truncate_to(self, nbytes: int) -> None:
        if not self.dead:
            self._remember(nbytes, max(0, os.fstat(self._fd).st_size - nbytes))
            self._inner.truncate_to(nbytes)

    # -- both -----------------------------------------------------------------

    def sync(self) -> None:
        if not self.dead:
            self._inner.sync()
            self._undo.clear()

    def crash(self) -> None:
        self.dead = True

    def revert(self) -> int:
        """Rewrite the file keeping only flushed bytes; returns how many
        unflushed writes were dropped."""
        dropped = len(self._undo)
        for offset, old, size in reversed(self._undo):
            os.pwrite(self._fd, old, offset)
            os.ftruncate(self._fd, size)
        self._undo.clear()
        os.fsync(self._fd)
        os.close(self._fd)
        return dropped
