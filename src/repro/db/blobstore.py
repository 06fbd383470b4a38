"""Out-of-row BLOB storage over the GAM allocator and LOB trees.

The paper's database configuration (Section 4.2): BLOBs and metadata in
the same filegroup, BLOB data *out of row* so object bytes never
decluster the metadata pages.  Each BLOB is a :class:`LobTree` whose
leaves point at data pages allocated through the address-ordered GAM —
space arrives one application write request at a time (64 KB = one
extent), exactly like the filesystem's per-append allocation.

Deletes ghost their pages; the :class:`GhostCleaner` returns them to the
GAM later.  The resulting reuse pattern — lowest-address-first at extent
granularity with a deferred-free window — is what produces the near-
linear fragmentation growth of Figures 2 and 5.

The rule stays per request, but every pass of the chunk loop serves
``k`` requests in one step (:meth:`BlobStore._write_chunks`): one
allocation, one leaf append per page run, one tick.  ``k`` exceeds one
only for whole-extent requests between two cleaner sweeps that fit the
LOB leaf: nothing can free or take an extent between them, so the
``k`` lowest fully-free extents are what ``k`` requests in a row would
have taken.  One cut of the planned pages (:func:`chunk_runs`) then
gives every request its device spans, the whole requests inside one
span as one ``(spans, count)`` run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.db.btree import LobTree
from repro.db.gam import GamAllocator
from repro.db.ghost import GhostCleaner
from repro.db.page import Run
from repro.db.pagefile import PageFile
from repro.db.wal import WriteAheadLog
from repro.disk.device import RequestRun, Span
from repro.errors import AllocationError, BlobNotFoundError, ConfigError
from repro.units import (EXTENT_SIZE, PAGE_SIZE, PAGES_PER_EXTENT, ceil_div,
                         checked_read_range, checked_write_size)


@dataclass
class _BlobRecord:
    blob_id: int
    size: int
    tree: LobTree


def check_write_request(write_request: int) -> None:
    """Refuse a write request size no chunk loop can use."""
    if write_request <= 0:
        raise ConfigError("write_request must be positive")
    if write_request % PAGE_SIZE != 0:
        raise ConfigError("write_request must be a multiple of the page size")


def chunk_runs(spans: list[Span], step: int) -> list[RequestRun]:
    """Cut ``spans`` (logical order) into requests of ``step`` bytes,
    the last one possibly shorter, as ``write_each`` runs: the whole
    requests inside one span are one run, and a request that crosses
    spans is a count-1 entry of its pieces joined."""
    runs: list[RequestRun] = []
    piece: list[Span] = []  # the open request, ``need`` bytes short
    need = step
    for start, length in spans:
        if piece:  # the open request takes the span's head
            take = min(need, length)
            piece.append((start, take))
            need -= take
            if need:
                continue
            runs.append((piece, 1))
            piece = []
            start += take
            length -= take
        whole, tail = divmod(length, step)
        if whole:
            runs.append(([(start, step)], whole))
        if tail:
            piece = [(start + whole * step, tail)]
            need = step - tail
    if piece:
        runs.append((piece, 1))
    return runs


class BlobStore:
    """BLOB create/read/delete with per-write-request allocation."""

    def __init__(self, gam: GamAllocator, pagefile: PageFile,
                 wal: WriteAheadLog, ghost: GhostCleaner, *,
                 lob_fanout: int = 128) -> None:
        self.gam = gam
        self.pagefile = pagefile
        self.wal = wal
        self.ghost = ghost
        self.lob_fanout = lob_fanout
        self._blobs: dict[int, _BlobRecord] = {}
        self._next_id = itertools.count(1)

    # ------------------------------------------------------------------
    # LOB-tree node page plumbing
    # ------------------------------------------------------------------
    def _alloc(self, alloc, *npages: int):
        """Call a GAM allocator, reclaiming ghosts when it runs dry.

        Allocation pressure forces ghost cleanup, exactly as SQL
        Server's cleanup task runs on demand when a scan finds no free
        space.  The age-blind sweep's budget is at least four times the
        request, so it either frees enough or empties the backlog: the
        one retry fails only when nothing reclaimable is left.
        """
        try:
            return alloc(*npages)
        except AllocationError:
            self.ghost.sweep(ignore_age=True,
                             max_pages=max(8192, 4 * sum(npages)))
            return alloc(*npages)

    def _alloc_node_page(self) -> int:
        # Interior/leaf nodes take mixed pages, interleaving with data.
        return self._alloc(self.gam.alloc_page)

    def _free_node_page(self, page_no: int) -> None:
        if page_no >= 0:
            self.gam.free_page(page_no)

    def _new_tree(self) -> LobTree:
        return LobTree(
            fanout=self.lob_fanout,
            alloc_node_page=self._alloc_node_page,
            free_node_page=self._free_node_page,
        )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def put(self, *, size: int | None = None, data: bytes | None = None,
            write_request: int = 64 * 1024) -> int:
        """Store a new BLOB, allocating per ``write_request`` chunk.

        Returns the new blob id.  The caller (the database facade) owns
        transaction boundaries — this method logs but does not commit.
        """
        total = checked_write_size(size, data)
        check_write_request(write_request)
        record = _BlobRecord(
            blob_id=next(self._next_id), size=total, tree=self._new_tree()
        )
        self._write_chunks(record.tree, total, data, write_request)
        self._blobs[record.blob_id] = record
        return record.blob_id

    def _write_chunks(self, tree: LobTree, total: int, data: bytes | None,
                      write_request: int) -> None:
        """Append ``total`` bytes to ``tree`` as new pages, zero-padded
        to whole pages, allocating per ``write_request`` chunk.

        Every pass is one step over ``k`` chunks: allocate, plan their
        pages and data, append the page runs to the tree (may allocate
        node pages), one tick of ``k``.  ``k`` is 1 unless the chunks
        are whole extents; then it is the whole chunks left, cut at the
        cleaner's next sweep, at the rightmost leaf's room and at the
        free extents.  Only a sweep or a leaf split could touch the GAM
        between two chunks, so one ``alloc_extent_runs`` takes exactly
        the extents ``k`` lowest-free picks in a row would, and is never
        refused.  A pass of one chunk (a partial or non-extent chunk, a
        full leaf, less than a chunk of free extents) allocates through
        ``alloc_runs`` under sweep-and-retry: how a pass allocates is
        all that differs between passes.

        None of this touches a device, so the chunks' data requests then
        go to the data device as one ``write_each`` and their log
        records to the log as one ``log_operations``: each device serves
        the requests a loop issuing both per chunk would, in the same
        order.  Every pass but the last covers whole requests, so one
        cut of the planned pages' spans (:func:`chunk_runs`) gives each
        chunk its request, as runs of the requests inside one span.  A
        loop that raises midway still issues what it planned before the
        raise: a pass plans its pages before the tree append, and logs
        its chunks after it.
        """
        gam, ghost, append_run = self.gam, self.ghost, tree.append_run
        extents, odd = divmod(write_request, EXTENT_SIZE)
        planned: list[Run] = []
        chunks: list[bytes] | None = None if data is None else []
        payloads: list[int] = []
        cursor = 0
        try:
            while cursor < total:
                k = 0 if odd else min((total - cursor) // write_request,
                                      tree.leaf_room() // extents,
                                      gam.free_extent_count // extents)
                if k:
                    k = ghost.ops_before_sweep(k)
                    size = k * write_request
                    runs = [(first * PAGES_PER_EXTENT,
                             count * PAGES_PER_EXTENT) for first, count
                            in gam.alloc_extent_runs(k * extents)]
                else:
                    k, size = 1, min(write_request, total - cursor)
                    runs = self._alloc(gam.alloc_runs,
                                       ceil_div(size, PAGE_SIZE))
                planned += runs
                if chunks is not None:
                    chunks += [data[at: at + write_request] for at in
                               range(cursor, cursor + size, write_request)]
                    chunks[-1] += bytes(-size % PAGE_SIZE)
                for start, count in runs:
                    append_run(start, count)
                payloads += [size // k] * k
                cursor += size
                # The background cleaner runs concurrently with the
                # insert: one tick per write request lets freed pages
                # trickle back *between* a BLOB's chunks, so successive
                # chunks can land on opposite sides of the allocation
                # frontier — the per-request scatter behind "one
                # fragment per 64 KB".
                ghost.on_operation(k)
        finally:
            self.pagefile.device.write_each(
                chunk_runs(self.pagefile.spans_of(planned), write_request),
                chunks)
            self.wal.log_operations(payloads)

    def get(self, blob_id: int, offset: int = 0,
            length: int | None = None) -> bytes | None:
        """Timed read of a byte range of the BLOB."""
        record = self._lookup(blob_id)
        length = checked_read_range(offset, length, record.size)
        if length == 0:
            return b"" if self.pagefile.device.stores_data else None
        first_page = offset // PAGE_SIZE
        last_page = (offset + length - 1) // PAGE_SIZE
        runs = record.tree.runs_in_range(first_page,
                                         last_page - first_page + 1)
        raw = self.pagefile.device.read_extents(self.pagefile.spans_of(runs))
        if raw is None:
            return None
        skip = offset - first_page * PAGE_SIZE
        return raw[skip: skip + length]

    def delete(self, blob_id: int) -> None:
        """Delete a BLOB; its pages ghost until the cleaner sweeps.

        The pages ride the WAL's ghost record and reach the cleaner
        only when the deleting transaction's commit is forced — freed
        space is never reallocatable before the delete is durable.
        """
        record = self._blobs.pop(self._lookup(blob_id).blob_id)
        # Node pages free via callback; the data runs ghost.
        self.wal.log_ghost(record.tree.destroy(), token=blob_id)

    def size_of(self, blob_id: int) -> int:
        return self._lookup(blob_id).size

    def exists(self, blob_id: int) -> bool:
        return blob_id in self._blobs

    def blob_ids(self) -> list[int]:
        return list(self._blobs)

    def blob_spans(self, blob_id: int) -> list[Span]:
        """Device spans of the BLOB's data pages in logical order: its
        layout (whole pages, so the last may carry padding)."""
        return self.pagefile.spans_of(
            self._lookup(blob_id).tree.all_runs())

    def append(self, blob_id: int, *, size: int | None = None,
               data: bytes | None = None,
               write_request: int = 64 * 1024) -> None:
        """Grow a BLOB at its end, one write request at a time.

        The new pages land wherever the allocator puts them, exactly as
        ``put``'s do: a BLOB grown in several calls with other writes in
        between interleaves with them on disk.  The blob size and the
        appended length must be whole pages, so the append starts on a
        fresh page and ``size_of`` stays exact.
        """
        total = checked_write_size(size, data)
        record = self._lookup(blob_id)
        if record.size % PAGE_SIZE or total % PAGE_SIZE:
            raise ConfigError(
                "append requires a page-aligned blob size and length"
            )
        check_write_request(write_request)
        self._write_chunks(record.tree, total, data, write_request)
        record.size += total

    def tree_of(self, blob_id: int) -> LobTree:
        """The BLOB's LOB tree (for invariant checks and tests)."""
        return self._lookup(blob_id).tree

    def _lookup(self, blob_id: int) -> _BlobRecord:
        try:
            return self._blobs[blob_id]
        except KeyError:
            raise BlobNotFoundError(f"no blob {blob_id}") from None
