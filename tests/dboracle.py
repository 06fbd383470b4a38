"""Reference models for the database free-space path (test-side only).

``src/repro/db`` keeps the GAM as a bitmap with a cursor and counters
and moves ghosted space around in page runs.  The classes here are the
slow, obvious versions of the same rules — a plain list of masks
searched by linear scan, a ghost backlog holding one entry per page —
that the property tests in ``test_prop_db_runs.py`` hold the real ones
to, operation by operation.  :meth:`OracleGam.alloc_uniform_extent` is
the single lowest-free extent pick; ``GamAllocator.alloc_extent_runs``
is held to ``n`` of them.

:func:`general_insert` is the LOB tree's retired general insert: a
recursive descent by recounted subtree page counts that can place a run
at *any* logical position, splitting the run it lands in.  The shipped
tree only grows through ``LobTree.append_run`` down its rightmost spine;
``test_prop_structures.py`` holds that to ``general_insert`` at the
logical end, node for node.

:func:`oracle_put` is ``BlobStore.put`` as a plain per-chunk loop, as
it was before the shipped loop served several chunks per pass: each
chunk allocated, written, appended through :func:`general_insert` at
the logical end and logged before the next, every whole extent taken
through ``GamAllocator._set_mask``.  ``test_db_put_oracle.py`` holds
the shipped ``put`` to it on twin databases.
"""

from __future__ import annotations

from collections import deque
from functools import partial

from repro.db.blobstore import _BlobRecord
from repro.db.gam import GamAllocator
from repro.db.page import extend_runs
from repro.errors import AllocationError, ConfigError, CorruptionError
from repro.units import PAGE_SIZE, PAGES_PER_EXTENT, ceil_div

FULL = (1 << PAGES_PER_EXTENT) - 1


def runs_to_pages(runs) -> list[int]:
    """Expand ``(start, count)`` runs to page numbers, order preserved."""
    return [page for start, count in runs
            for page in range(start, start + count)]


def pages_to_runs(pages) -> list[tuple[int, int]]:
    """Group page numbers into maximal runs, order preserved."""
    runs: list[tuple[int, int]] = []
    for page in pages:
        if runs and runs[-1][0] + runs[-1][1] == page:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((page, 1))
    return runs


def alloc_pages(gam, count: int) -> list[int]:
    """``alloc_runs`` as the page list older tests were written against."""
    return runs_to_pages(gam.alloc_runs(count))


class OracleGam:
    """The GAM discipline over a plain list of used-page masks."""

    def __init__(self, num_extents: int) -> None:
        self.masks = [0] * num_extents
        self.num_pages = num_extents * PAGES_PER_EXTENT

    def _lowest(self, wanted) -> int | None:
        for extent_id, mask in enumerate(self.masks):
            if wanted(mask):
                return extent_id
        return None

    @property
    def free_page_count(self) -> int:
        return sum(PAGES_PER_EXTENT - bin(mask).count("1")
                   for mask in self.masks)

    def alloc_uniform_extent(self) -> int | None:
        extent_id = self._lowest(lambda mask: mask == 0)
        if extent_id is not None:
            self.masks[extent_id] = FULL
        return extent_id

    def alloc_extent_runs(self, n: int) -> list[tuple[int, int]] | None:
        """``n`` single picks as maximal address runs; None, moving
        nothing, when fewer than ``n`` extents are free."""
        if n > self.masks.count(0):
            return None
        runs: list[tuple[int, int]] = []
        for _ in range(n):
            extend_runs(runs, self.alloc_uniform_extent(), 1)
        return runs

    def alloc_page(self) -> int:
        extent_id = self._lowest(lambda mask: mask != FULL)
        if extent_id is None:
            raise AllocationError("database file is full")
        for bit in range(PAGES_PER_EXTENT):
            if not self.masks[extent_id] & (1 << bit):
                self.masks[extent_id] |= 1 << bit
                return extent_id * PAGES_PER_EXTENT + bit
        raise AssertionError("unreachable")

    def alloc_runs(self, count: int) -> list[tuple[int, int]]:
        if count <= 0:
            raise ConfigError("count must be positive")
        free = self.free_page_count
        if count > free:
            raise AllocationError(f"need {count} pages, only {free} free")
        pages: list[int] = []
        while count - len(pages) >= PAGES_PER_EXTENT:
            extent_id = self.alloc_uniform_extent()
            if extent_id is None:
                break
            base = extent_id * PAGES_PER_EXTENT
            pages.extend(range(base, base + PAGES_PER_EXTENT))
        while len(pages) < count:
            pages.append(self.alloc_page())
        return pages_to_runs(pages)

    def is_page_used(self, page_no: int) -> bool:
        return bool(self.masks[page_no // PAGES_PER_EXTENT]
                    & (1 << page_no % PAGES_PER_EXTENT))

    def free_run(self, start: int, count: int) -> None:
        """A bad run is rejected whole; a good one frees page by page."""
        if count <= 0 or start < 0 or start + count > self.num_pages:
            raise CorruptionError(f"run ({start}, +{count}) out of range")
        for page_no in range(start, start + count):
            if not self.is_page_used(page_no):
                raise CorruptionError(f"double free of page {page_no}")
        for page_no in range(start, start + count):
            self.masks[page_no // PAGES_PER_EXTENT] &= \
                ~(1 << page_no % PAGES_PER_EXTENT)

    def free_page(self, page_no: int) -> None:
        self.free_run(page_no, 1)


class LoggingGam(GamAllocator):
    """A real allocator that records the order pages are freed in."""

    def __init__(self, num_extents: int) -> None:
        super().__init__(num_extents)
        self.freed: list[int] = []

    def free_run(self, start: int, count: int) -> None:
        super().free_run(start, count)
        self.freed.extend(range(start, start + count))


class PerPageGhostQueue:
    """The ghost cleaner with one ``(stamp, page)`` entry per page.

    Same knobs, clock, FIFO order, age rule and per-page sweep budget as
    :class:`repro.db.ghost.GhostCleaner`; every page is freed on its own.
    """

    def __init__(self, gam, *, cleanup_interval_ops: int,
                 max_pages_per_sweep: int | None,
                 min_age_ops: int) -> None:
        self.gam = gam
        self.cleanup_interval_ops = cleanup_interval_ops
        self.max_pages_per_sweep = max_pages_per_sweep
        self.min_age_ops = min_age_ops
        self._ops = 0
        self._queue: deque[tuple[int, int]] = deque()
        self.ghosted_pages = 0
        self.cleaned_pages = 0
        self.sweeps = 0

    def ghost_pages(self, runs) -> None:
        for page_no in runs_to_pages(runs):
            self.ghosted_pages += 1
            if self.cleanup_interval_ops == 0:
                self.gam.free_page(page_no)
                self.cleaned_pages += 1
            else:
                self._queue.append((self._ops, page_no))

    def on_operation(self) -> None:
        if self.cleanup_interval_ops == 0:
            return
        self._ops += 1
        if self._ops % self.cleanup_interval_ops == 0:
            self.sweep()

    def sweep(self, *, ignore_age: bool = False,
              max_pages: int | None = None) -> int:
        budget = max_pages if max_pages is not None \
            else self.max_pages_per_sweep
        released = 0
        while self._queue:
            stamp, page_no = self._queue[0]
            if not ignore_age and self._ops - stamp < self.min_age_ops:
                break
            if budget is not None and released >= budget:
                break
            self._queue.popleft()
            self.gam.free_page(page_no)
            released += 1
        self.cleaned_pages += released
        self.sweeps += 1
        return released

    def drain(self) -> None:
        while self._queue:
            _, page_no = self._queue.popleft()
            self.gam.free_page(page_no)
            self.cleaned_pages += 1

    @property
    def pending_pages(self) -> int:
        return len(self._queue)


# ----------------------------------------------------------------------
# The retired general LOB-tree insert
# ----------------------------------------------------------------------
def general_insert(tree, position: int, start: int, count: int) -> None:
    """Insert the run ``(start, count)`` so it begins at logical page
    ``position`` of ``tree``: the Exodus operation, where pages after
    ``position`` shift right without any data page being rewritten.

    Splits and root growth go through the tree's own ``_split_leaf``,
    ``_split_interior`` and ``_grow_root``, so node pages are allocated
    in the order the retired method allocated them.
    """
    if count <= 0:
        raise ConfigError("count must be positive")
    if start < 0:
        raise ConfigError("start must be >= 0")
    if not 0 <= position <= tree.total_pages:
        raise ConfigError(
            f"position {position} outside object of "
            f"{tree.total_pages} pages"
        )
    tree._count += count
    split = _insert(tree, tree._root, position, (start, count))
    if split is not None:
        tree._grow_root(split)


def _insert(tree, node, position: int, run):
    """Recursive insert; returns a new right sibling when ``node`` split."""
    if node.leaf:
        _leaf_insert(node, position, run)
    else:
        for idx, child in enumerate(node.children):
            pages = child.total_pages()
            # <= lets appends descend into the last child.
            if position <= pages and not (
                position == pages and idx + 1 < len(node.children)
            ):
                split = _insert(tree, child, position, run)
                if split is not None:
                    node.children.insert(idx + 1, split)
                break
            position -= pages
        else:
            raise CorruptionError("insert descent fell off the tree")
    if node.leaf and len(node.runs) > tree.fanout:
        return tree._split_leaf(node)
    if not node.leaf and len(node.children) > tree.fanout:
        return tree._split_interior(node)
    return None


def _leaf_insert(node, position: int, run) -> None:
    start, count = run
    # Find the run containing `position`, splitting it if interior.
    for idx, (run_start, run_count) in enumerate(node.runs):
        if position == 0:
            break
        if position < run_count:
            node.runs[idx: idx + 1] = [
                (run_start, position),
                (run_start + position, run_count - position),
            ]
            idx += 1
            break
        position -= run_count
    else:
        idx = len(node.runs)
    # Merge with physical neighbours where possible.
    if idx > 0:
        prev_start, prev_count = node.runs[idx - 1]
        if prev_start + prev_count == start:
            node.runs[idx - 1] = (prev_start, prev_count + count)
            _try_merge_at(node, idx - 1)
            return
    node.runs.insert(idx, (start, count))
    _try_merge_at(node, idx)


def _try_merge_at(node, idx: int) -> None:
    """Merge runs[idx] with runs[idx+1] when physically consecutive."""
    if idx + 1 >= len(node.runs):
        return
    start, count = node.runs[idx]
    nxt_start, nxt_count = node.runs[idx + 1]
    if start + count == nxt_start:
        node.runs[idx: idx + 2] = [(start, count + nxt_count)]


# ----------------------------------------------------------------------
# The retired BLOB chunk loop
# ----------------------------------------------------------------------
def retired_alloc_uniform_extent(gam: GamAllocator) -> int | None:
    """The lowest fully-free extent, taken through the general
    ``_set_mask`` (partial-list and counter checks included)."""
    extent_id = gam._lowest_free
    if extent_id == gam.num_extents:
        return None
    gam._set_mask(extent_id, FULL)
    return extent_id


def retired_alloc_runs(gam: GamAllocator, count: int) -> list[tuple[int, int]]:
    """``GamAllocator.alloc_runs`` as a loop of single lowest-free
    extent picks, each through the general ``_set_mask``."""
    if count <= 0:
        raise ConfigError("count must be positive")
    if count > gam._free_pages:
        raise AllocationError(
            f"need {count} pages, only {gam._free_pages} free"
        )
    runs: list[tuple[int, int]] = []
    remaining = count
    while remaining >= PAGES_PER_EXTENT:
        extent_id = retired_alloc_uniform_extent(gam)
        if extent_id is None:
            break
        extend_runs(runs, extent_id * PAGES_PER_EXTENT, PAGES_PER_EXTENT)
        remaining -= PAGES_PER_EXTENT
    for _ in range(remaining):
        extend_runs(runs, gam.alloc_page(), 1)
    return runs


def _write_new_pages(store, npages: int, data: bytes | None):
    """Allocate one write request's pages and write them as one
    device request, in logical order; returns the runs."""
    runs = store._alloc(partial(retired_alloc_runs, store.gam), npages)
    store.pagefile.device.write_extents(store.pagefile.spans_of(runs), data)
    return runs


def oracle_put(store, *, size: int | None = None, data: bytes | None = None,
               write_request: int = 64 * 1024) -> int:
    """The retired ``BlobStore.put`` on a live store; returns the blob id."""
    if (size is None) == (data is None):
        raise ConfigError("pass exactly one of size or data")
    total = len(data) if data is not None else int(size)  # type: ignore[arg-type]
    if total <= 0:
        raise ConfigError("blob size must be positive")
    if write_request % PAGE_SIZE != 0:
        raise ConfigError("write_request must be a multiple of the page size")
    record = _BlobRecord(
        blob_id=next(store._next_id), size=total, tree=store._new_tree()
    )
    cursor = 0
    while cursor < total:
        chunk = min(write_request, total - cursor)
        npages = ceil_div(chunk, PAGE_SIZE)
        chunk_data: bytes | None = None
        if data is not None:
            chunk_data = data[cursor: cursor + chunk]
            chunk_data += b"\x00" * (npages * PAGE_SIZE - chunk)
        for start, count in _write_new_pages(store, npages, chunk_data):
            general_insert(record.tree, record.tree.total_pages, start,
                           count)
        store.wal.log_operations([chunk])
        cursor += chunk
        store.ghost.on_operation()
    store._blobs[record.blob_id] = record
    return record.blob_id
