"""Buffer pool with clock (second-chance) eviction.

Metadata pages — heap rows, indexes, allocation maps, LOB-tree interior
nodes — are small and hot, so they live in the buffer pool and most
accesses are memory hits.  This is the database's structural advantage
for small objects in the paper's folklore ("database queries are faster
than file opens").  Out-of-row BLOB *data* pages bypass the pool: at the
paper's scale (hundreds of GB of objects, 2 GB of RAM) their hit rate is
negligible, and SQL Server's read-ahead for LOBs streams past the cache
anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.pagefile import PageFile
from repro.errors import ConfigError


@dataclass
class _Frame:
    page_no: int
    dirty: bool = False
    referenced: bool = True


class BufferPool:
    """Fixed-capacity page cache over a :class:`PageFile`."""

    def __init__(self, pagefile: PageFile, *, capacity_pages: int) -> None:
        if capacity_pages < 1:
            raise ConfigError("capacity_pages must be >= 1")
        self.pagefile = pagefile
        self.capacity_pages = capacity_pages
        self._frames: dict[int, _Frame] = {}
        self._clock: list[int] = []
        self._hand = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _evict_one(self) -> None:
        """Advance the clock hand until a victim with ref bit clear."""
        while True:
            if self._hand >= len(self._clock):
                self._hand = 0
            page_no = self._clock[self._hand]
            frame = self._frames.get(page_no)
            if frame is None:
                # Stale clock slot from an earlier invalidate.
                del self._clock[self._hand]
                continue
            if frame.referenced:
                frame.referenced = False
                self._hand += 1
                continue
            if frame.dirty:
                self.pagefile.write_pages([page_no])
            del self._frames[page_no]
            del self._clock[self._hand]
            self.evictions += 1
            return

    def access(self, page_no: int, *, for_write: bool = False) -> None:
        """Touch a page: free on hit, one device read on miss."""
        frame = self._frames.get(page_no)
        if frame is not None:
            self.hits += 1
            frame.referenced = True
            frame.dirty = frame.dirty or for_write
            return
        self.misses += 1
        while len(self._frames) >= self.capacity_pages:
            self._evict_one()
        if not for_write:
            self.pagefile.read_pages([page_no])
        self._frames[page_no] = _Frame(page_no, dirty=for_write)
        self._clock.append(page_no)

    def invalidate(self, page_no: int) -> None:
        """Drop a page (it was deallocated); dirty state is discarded."""
        self._frames.pop(page_no, None)

    def flush_all(self) -> None:
        """Write back every dirty frame (checkpoint)."""
        dirty = sorted(
            page_no for page_no, f in self._frames.items() if f.dirty
        )
        if dirty:
            self.pagefile.write_pages(dirty)
        for page_no in dirty:
            self._frames[page_no].dirty = False

    def __len__(self) -> int:
        return len(self._frames)
