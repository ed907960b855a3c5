"""gdbm's free-space ("avail") management.

gdbm keeps its whole database in one non-sparse file; deleted records and
superseded directories leave byte extents behind that are recorded on an
avail list and reused first-fit before the file is extended.  The real
library chains avail blocks through the file; this reproduction keeps a
bounded in-header list (entries beyond the cap are leaked, which gdbm's
own format also does under some sequences) -- the allocation *behaviour*
(reuse before extend, first fit, remainder returned to the list) matches.
"""

from __future__ import annotations

#: Maximum avail entries persisted in the header.
AVAIL_MAX = 120


class ExtentAllocator:
    """First-fit byte-extent allocator with a bounded free list."""

    def __init__(self, watermark: int) -> None:
        if watermark < 0:
            raise ValueError("watermark must be non-negative")
        #: end-of-file growth point
        self.watermark = watermark
        #: list of (offset, size) free extents
        self.avail: list[tuple[int, int]] = []
        self.leaked_bytes = 0

    def alloc(self, size: int) -> int:
        """Return the offset of a free extent of ``size`` bytes."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        for i, (off, avail_size) in enumerate(self.avail):
            if avail_size >= size:
                remainder = avail_size - size
                if remainder > 0:
                    self.avail[i] = (off + size, remainder)
                else:
                    del self.avail[i]
                return off
        off = self.watermark
        self.watermark += size
        return off

    def free(self, offset: int, size: int) -> None:
        """Return an extent to the list (leaks it when the list is full)."""
        if size <= 0:
            return
        if len(self.avail) >= AVAIL_MAX:
            self.leaked_bytes += size
            return
        self.avail.append((offset, size))
