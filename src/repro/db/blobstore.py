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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.alloc.extent import Extent
from repro.db.btree import LobTree
from repro.db.gam import GamAllocator
from repro.db.ghost import GhostCleaner
from repro.db.page import Run
from repro.db.pagefile import PageFile
from repro.db.wal import WriteAheadLog
from repro.errors import AllocationError, BlobNotFoundError, ConfigError
from repro.units import PAGE_SIZE, ceil_div


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
        if (size is None) == (data is None):
            raise ConfigError("pass exactly one of size or data")
        total = len(data) if data is not None else int(size)  # type: ignore[arg-type]
        if total <= 0:
            raise ConfigError("blob size must be positive")
        check_write_request(write_request)
        record = _BlobRecord(
            blob_id=next(self._next_id), size=total, tree=self._new_tree()
        )
        self._write_chunks(record.tree, 0, total, data, write_request)
        self._blobs[record.blob_id] = record
        return record.blob_id

    def _write_chunks(self, tree: LobTree, position: int, total: int,
                      data: bytes | None, write_request: int) -> None:
        """Write ``total`` bytes as new pages from logical page
        ``position`` on, zero-padded to whole pages.  Per write request,
        in this order: allocate, one data-device request, the tree
        update (may allocate node pages), one log record, one tick.
        """
        append = position == tree.total_pages
        alloc_runs = self.gam.alloc_runs
        write_extents = self.pagefile.device.write_extents
        log_operation, tick = self.wal.log_operation, self.ghost.on_operation
        for cursor in range(0, total, write_request):
            chunk = min(write_request, total - cursor)
            npages = ceil_div(chunk, PAGE_SIZE)
            chunk_data = None if data is None \
                else data[cursor: cursor + chunk] + bytes(-chunk % PAGE_SIZE)
            runs = self._alloc(alloc_runs, npages)
            write_extents(self._extents(runs), chunk_data)
            for start, count in runs:
                if append:
                    tree.append_run(start, count)
                else:
                    tree.insert_run(position, start, count)
                    position += count
            log_operation(payload_bytes=chunk)
            # The background cleaner runs concurrently with the insert:
            # one tick per write request lets freed pages trickle back
            # *between* a BLOB's chunks, so successive chunks can land
            # on opposite sides of the allocation frontier — the
            # per-request scatter behind "one fragment per 64 KB".
            tick()

    def _extents(self, runs: list[Run]) -> list[Extent]:
        """Device byte extents of page runs, order preserved."""
        base = self.pagefile.base
        return [Extent(base + start * PAGE_SIZE, count * PAGE_SIZE)
                for start, count in runs]

    def get(self, blob_id: int, offset: int = 0,
            length: int | None = None) -> bytes | None:
        """Timed read of a byte range of the BLOB."""
        record = self._lookup(blob_id)
        if length is None:
            length = record.size - offset
        if offset < 0 or length < 0 or offset + length > record.size:
            raise ConfigError(
                f"read [{offset}, {offset + length}) outside blob of "
                f"{record.size} bytes"
            )
        if length == 0:
            return b"" if self.pagefile.device.stores_data else None
        first_page = offset // PAGE_SIZE
        last_page = (offset + length - 1) // PAGE_SIZE
        runs = record.tree.runs_in_range(first_page,
                                         last_page - first_page + 1)
        raw = self.pagefile.device.read_extents(self._extents(runs))
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

    def blob_extents(self, blob_id: int) -> list[Extent]:
        """Physical byte extents of the BLOB's data pages, logical order."""
        return self._extents(self._lookup(blob_id).tree.all_runs())

    # ------------------------------------------------------------------
    # Range updates (the Exodus capability, paper Section 2)
    # ------------------------------------------------------------------
    def insert_range(self, blob_id: int, offset: int, *,
                     size: int | None = None,
                     data: bytes | None = None,
                     write_request: int = 64 * 1024) -> None:
        """Insert bytes *inside* a BLOB without rewriting its tail.

        This is the B-tree storage advantage the paper's background
        section contrasts with filesystems ("insertions and deletions
        within an object" are efficient, at the cost of fragmentation —
        the inserted pages land wherever the allocator puts them, never
        adjacent to their logical neighbours).

        ``offset`` and the inserted length must be page-aligned: SQL
        Server's LOB trees shuffle whole fragments, and modelling
        sub-page splits would add read-modify-write of neighbour pages
        without changing any layout behaviour.
        """
        if (size is None) == (data is None):
            raise ConfigError("pass exactly one of size or data")
        total = len(data) if data is not None else int(size)  # type: ignore[arg-type]
        record = self._lookup(blob_id)
        if offset % PAGE_SIZE or total % PAGE_SIZE:
            raise ConfigError(
                "insert_range requires page-aligned offset and length"
            )
        if not 0 <= offset <= record.size:
            raise ConfigError(f"offset {offset} outside blob")
        check_write_request(write_request)
        self._write_chunks(record.tree, offset // PAGE_SIZE, total, data,
                           write_request)
        record.size += total

    def delete_range(self, blob_id: int, offset: int, length: int) -> None:
        """Remove a page-aligned byte range from inside a BLOB.

        The removed pages ghost like a whole-object delete; logical
        bytes after the range shift down without any page moving.
        """
        record = self._lookup(blob_id)
        if offset % PAGE_SIZE or length % PAGE_SIZE:
            raise ConfigError(
                "delete_range requires page-aligned offset and length"
            )
        if offset < 0 or length < 0 or offset + length > record.size:
            raise ConfigError("range outside blob")
        if length == 0:
            return
        removed = record.tree.delete_range(offset // PAGE_SIZE,
                                           length // PAGE_SIZE)
        self.wal.log_ghost(removed, token=blob_id)
        self.ghost.on_operation()
        record.size -= length

    def tree_of(self, blob_id: int) -> LobTree:
        """The BLOB's LOB tree (for range-update extensions and tests)."""
        return self._lookup(blob_id).tree

    def _lookup(self, blob_id: int) -> _BlobRecord:
        try:
            return self._blobs[blob_id]
        except KeyError:
            raise BlobNotFoundError(f"no blob {blob_id}") from None
