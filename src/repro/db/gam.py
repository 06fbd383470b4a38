"""GAM/PFS-style allocation maps: address-ordered page and extent allocation.

SQL Server finds free space by scanning allocation bitmaps from the start
of the file: the GAM tracks free *extents* (8 pages, 64 KB), the PFS
tracks free *pages* within partially used extents.  The consequence the
paper measures is that space is reused **lowest address first, at
page/extent granularity, with no preference for large contiguous runs**
— the opposite of NTFS's decreasing-size run cache.  Combined with
deferred (ghost) deallocation this is the mechanism behind SQL Server's
near-linear fragmentation growth in Figures 2 and 5.

:class:`GamAllocator` implements that discipline exactly, on the
structure it models: one byte per extent holding the used-page bitmask
(the GAM/PFS byte), so "lowest fully-free extent" is a C ``memchr`` for
a zero byte from an exact lowest-free cursor.  The few partially used
extents sit in a small sorted list; extent and page totals are counters.
Cursor, list and counters are pure functions of the masks — never of
which queries ran — so equal masks pickle to equal bytes and
:meth:`GamAllocator.check_invariants` recomputes and compares them all.
It is pure bookkeeping — no I/O — so it can be unit- and property-tested
in isolation; the page file charges the device.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.db.page import Run, extend_runs
from repro.errors import AllocationError, ConfigError, CorruptionError
from repro.units import PAGES_PER_EXTENT

_FULL_MASK = (1 << PAGES_PER_EXTENT) - 1


class GamAllocator:
    """Page/extent allocator over ``num_extents`` 8-page extents.

    ``_used_mask[e]`` is the bitmask of *used* pages of extent ``e``:
    0 = fully free (GAM), ``_FULL_MASK`` = full, anything else = partly
    free (PFS).  Everything else is derived from it and kept in step by
    :meth:`_set_mask` (free → full: :meth:`alloc_uniform_extent`).
    """

    def __init__(self, num_extents: int) -> None:
        if num_extents <= 0:
            raise ConfigError("num_extents must be positive")
        self.num_extents = num_extents
        self.num_pages = num_extents * PAGES_PER_EXTENT
        self._used_mask = bytearray(num_extents)
        self._partial_extents: list[int] = []
        #: Lowest fully-free extent; ``num_extents`` when there is none.
        self._lowest_free = 0
        self._free_extents = num_extents
        self._free_pages = self.num_pages

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def extent_of(page_no: int) -> int:
        return page_no // PAGES_PER_EXTENT

    @staticmethod
    def page_in_extent(page_no: int) -> int:
        return page_no % PAGES_PER_EXTENT

    def _set_mask(self, extent_id: int, new: int) -> None:
        """Store a *changed* mask; at most one class transition."""
        masks = self._used_mask
        old = masks[extent_id]
        masks[extent_id] = new
        self._free_pages += old.bit_count() - new.bit_count()
        now_partial = 0 < new < _FULL_MASK
        if (0 < old < _FULL_MASK) != now_partial:
            partial = self._partial_extents
            idx = bisect_left(partial, extent_id)
            if now_partial:
                partial.insert(idx, extent_id)
            else:
                del partial[idx]
        if old == 0:
            self._free_extents -= 1
            if extent_id == self._lowest_free:
                found = masks.find(0, extent_id + 1)
                self._lowest_free = found if found >= 0 else self.num_extents
        elif new == 0:
            self._free_extents += 1
            if extent_id < self._lowest_free:
                self._lowest_free = extent_id

    # ------------------------------------------------------------------
    # Allocation (address-ordered, per the GAM scan)
    # ------------------------------------------------------------------
    def alloc_uniform_extent(self) -> int | None:
        """Allocate the lowest fully-free extent; all 8 pages become used.

        Returns the extent id, or None when no fully-free extent exists
        (the caller then falls back to page-at-a-time allocation).
        """
        extent_id = self._lowest_free
        if extent_id == self.num_extents:
            return None
        self._used_mask[extent_id] = _FULL_MASK
        self._free_pages -= PAGES_PER_EXTENT
        self._free_extents -= 1
        found = self._used_mask.find(0, extent_id + 1)
        self._lowest_free = found if found >= 0 else self.num_extents
        return extent_id

    def alloc_page(self) -> int:
        """Allocate the lowest-address free page (mixed-extent style)."""
        extent_id = self._lowest_free
        if self._partial_extents and self._partial_extents[0] < extent_id:
            extent_id = self._partial_extents[0]
        elif extent_id == self.num_extents:
            raise AllocationError("database file is full")
        mask = self._used_mask[extent_id]
        if mask == _FULL_MASK:
            raise CorruptionError(f"extent {extent_id} listed as non-full")
        bit = ~mask & (mask + 1)  # lowest clear bit
        self._set_mask(extent_id, mask | bit)
        return extent_id * PAGES_PER_EXTENT + bit.bit_length() - 1

    def alloc_runs(self, count: int) -> list[Run]:
        """Allocate ``count`` pages as ``(start, count)`` runs in logical
        order, preferring whole uniform extents.

        SQL Server switches an allocation unit to uniform extents once it
        exceeds 8 pages; large BLOB appends therefore consume whole
        extents while small remainders take individual pages.
        """
        if count <= 0:
            raise ConfigError("count must be positive")
        if count > self._free_pages:
            raise AllocationError(
                f"need {count} pages, only {self._free_pages} free"
            )
        if count == PAGES_PER_EXTENT:  # one 64 KB write request
            extent_id = self.alloc_uniform_extent()
            if extent_id is not None:
                return [(extent_id * PAGES_PER_EXTENT, PAGES_PER_EXTENT)]
        runs: list[Run] = []
        remaining = count
        while remaining >= PAGES_PER_EXTENT:
            extent_id = self.alloc_uniform_extent()
            if extent_id is None:
                break
            extend_runs(runs, extent_id * PAGES_PER_EXTENT, PAGES_PER_EXTENT)
            remaining -= PAGES_PER_EXTENT
        for _ in range(remaining):
            extend_runs(runs, self.alloc_page(), 1)
        return runs

    # ------------------------------------------------------------------
    # Deallocation
    # ------------------------------------------------------------------
    def free_run(self, start: int, count: int) -> None:
        """Free pages ``[start, start + count)``, one update per extent.

        Nothing allocates mid-run, so the end state equals freeing page
        by page.  A run naming a free or out-of-range page is rejected
        whole, before any page is freed.
        """
        end = start + count
        if count <= 0 or start < 0 or end > self.num_pages:
            raise CorruptionError(f"run ({start}, +{count}) out of range")
        pieces: list[tuple[int, int]] = []
        page = start
        while page < end:
            extent_id, first = divmod(page, PAGES_PER_EXTENT)
            take = min(PAGES_PER_EXTENT - first, end - page)
            bits = ((1 << take) - 1) << first
            missing = bits & ~self._used_mask[extent_id]
            if missing:
                lowest = (missing & -missing).bit_length() - 1
                raise CorruptionError(
                    f"double free of page {page - first + lowest}"
                )
            pieces.append((extent_id, bits))
            page += take
        for extent_id, bits in pieces:
            self._set_mask(extent_id, self._used_mask[extent_id] & ~bits)

    def free_page(self, page_no: int) -> None:
        self.free_run(page_no, 1)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_page_used(self, page_no: int) -> bool:
        extent_id = self.extent_of(page_no)
        return bool(self._used_mask[extent_id]
                    & (1 << self.page_in_extent(page_no)))

    @property
    def free_page_count(self) -> int:
        return self._free_pages

    @property
    def used_page_count(self) -> int:
        return self.num_pages - self._free_pages

    @property
    def free_extent_count(self) -> int:
        return self._free_extents

    @property
    def partial_extent_count(self) -> int:
        return len(self._partial_extents)

    def _derived(self) -> tuple[int, int, list[int], int]:
        """Cursor, free-extent count, partial list and free-page count,
        recomputed from the masks alone."""
        masks = self._used_mask
        lowest = masks.find(0)
        return (lowest if lowest >= 0 else self.num_extents,
                masks.count(0),
                [e for e, mask in enumerate(masks) if 0 < mask < _FULL_MASK],
                self.num_pages - sum(map(int.bit_count, masks)))

    def check_invariants(self) -> None:
        """Cursor, partial list and counters all follow from the masks."""
        if len(self._used_mask) != self.num_extents:
            raise CorruptionError("GAM bitmap has the wrong length")
        kept = (self._lowest_free, self._free_extents,
                self._partial_extents, self._free_pages)
        if kept != self._derived():
            raise CorruptionError(
                f"GAM cursor/counters {kept} out of sync with the bitmap")

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    # A checkpoint charges its stored bytes to the *modelled* clock
    # (``checkpoint_rate``), and every filesystem shard pickles a
    # metadata database, so the bytes this class pickles to are part of
    # committed run records: they stay the three lists of the sorted-list
    # GAM, built here on demand.  Only the masks are read back.
    def __getstate__(self) -> dict:
        masks = self._used_mask
        return {
            "num_extents": self.num_extents,
            "num_pages": self.num_pages,
            "_used_mask": list(masks),
            "_free_extents": [e for e, mask in enumerate(masks) if not mask],
            "_partial_extents": self._partial_extents,
        }

    def __setstate__(self, state: dict) -> None:
        self.num_extents = state["num_extents"]
        self.num_pages = state["num_pages"]
        self._used_mask = bytearray(state["_used_mask"])
        (self._lowest_free, self._free_extents, self._partial_extents,
         self._free_pages) = self._derived()
