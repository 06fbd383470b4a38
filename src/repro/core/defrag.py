"""Defragmentation utilities.

The paper's conclusions: "When fragmentation is a significant concern,
the system must be defragmented regularly.  However, defragmentation may
require additional application logic and imposes read/write performance
impacts that can outweigh its benefits."  These tools let the benches
quantify both sides:

* For the filesystem backend, an NTFS-defragmenter-style **move**: read
  the file, allocate best-effort contiguous space, rewrite, free the old
  runs.  Supports full and budget-limited (incremental, most-fragmented-
  first) passes, like the Windows online defragmenter.
* For the database backend, the procedure Microsoft recommended to the
  authors (Section 5.3): rebuild — copy every BLOB out and back in after
  draining ghost pages, so the address-ordered allocator repacks them
  (:func:`rebuild_database`; :class:`Defragmenter` refuses a database).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.alloc.extent import fragment_count
from repro.backends.base import ObjectStore
from repro.backends.blob_backend import BlobBackend
from repro.backends.file_backend import FileBackend
from repro.core.fragmentation import fragment_counts
from repro.errors import AllocationError, ConfigError


@dataclass
class DefragStats:
    """What a defragmentation pass did and what it cost."""

    objects_examined: int = 0
    objects_moved: int = 0
    bytes_moved: int = 0
    fragments_before: int = 0
    fragments_after: int = 0

    @property
    def improvement(self) -> float:
        """Fraction of fragments eliminated."""
        if self.fragments_before == 0:
            return 0.0
        return 1.0 - self.fragments_after / max(1, self.fragments_before)


class Defragmenter:
    """NTFS-style defragmentation passes over a filesystem store.

    A database is not defragmented object by object: its procedure is
    :func:`rebuild_database`, and a :class:`BlobBackend` is refused here
    with that pointer.
    """

    def __init__(self, store: ObjectStore) -> None:
        if isinstance(store, BlobBackend):
            raise ConfigError(
                "a database store is defragmented by rebuild_database(store)"
                " (Section 5.3), not by Defragmenter")
        self.store = store

    # ------------------------------------------------------------------
    def run(self, *, budget_bytes: int | None = None,
            min_fragments: int = 2) -> DefragStats:
        """One pass: most-fragmented objects first, optional byte budget.

        ``min_fragments`` skips objects already at or below that count
        (1 = fully contiguous).
        """
        counts = fragment_counts(self.store)
        stats = DefragStats(
            fragments_before=sum(counts.values()),
        )
        order = sorted(counts, key=lambda k: counts[k], reverse=True)
        for key in order:
            if counts[key] < min_fragments:
                break
            stats.objects_examined += 1
            size = self.store.meta(key).size
            if budget_bytes is not None and \
                    stats.bytes_moved + size > budget_bytes:
                continue
            if self._move(key, size):
                stats.objects_moved += 1
                stats.bytes_moved += size
        stats.fragments_after = sum(fragment_counts(self.store).values())
        return stats

    # ------------------------------------------------------------------
    def _move(self, key: str, size: int) -> bool:
        """NTFS-style file move: new contiguous allocation, then switch."""
        store = self.store
        if not isinstance(store, FileBackend):
            raise ConfigError(
                f"no defragmentation strategy for backend {store.name!r}")
        fs = store.fs
        row = store.meta_table.get(key)
        name = row["path"]
        record = fs.table.lookup(name)
        old_extents = list(record.extents)
        # Force pending frees into the pool so the mover sees all space.
        fs.journal.commit()
        try:
            new_extents = fs.allocator.allocate_full(size)
        except AllocationError:
            return False
        if fragment_count(new_extents) >= fragment_count(old_extents):
            # No improvement available; put the space back.
            for ext in new_extents:
                fs.free_index.add(ext)
            return False
        data = fs.device.read_extents(                  # read old copy
            [(ext.start, ext.length) for ext in old_extents])
        fs.device.write_extents(                        # write new copy
            [(ext.start, ext.length) for ext in new_extents], data)
        fs.device.flush()
        record.extents[:] = []
        for ext in new_extents:
            record.add_extent(ext)
        fs.journal.log_operation(frees=old_extents)
        return True


def rebuild_database(store: BlobBackend) -> DefragStats:
    """The recommended SQL Server BLOB "defragmentation" (Section 5.3):
    create a new table in a new filegroup, copy the old records to the
    new table, and drop the old table.

    The copy targets a *clean* filegroup, so the new table bulk-loads
    contiguously; dropping the old table then frees the old filegroup
    wholesale.  With a single data file we model the same effect by
    staging the copies (read every BLOB, charge the reads), dropping
    the old rows (drain the ghosts), and bulk-inserting the copies into
    the now-empty low region — the address-ordered allocator packs them
    exactly as the fresh filegroup would.  The I/O charged matches the
    real procedure: one full read plus one full sequential write of the
    table.
    """
    stats = DefragStats()
    counts = fragment_counts(store)
    stats.fragments_before = sum(counts.values())
    db = store.db

    # Phase 1: read every record out (the copy's read half), in
    # physical order like a table scan.
    def first_offset(key: str) -> int:
        extents = store.object_extents(key)
        return extents[0].start if extents else 0

    staged: list[tuple[str, int, bytes | None]] = []
    for key in sorted(store.keys(), key=first_offset):
        stats.objects_examined += 1
        row = store.meta_table.get(key)
        staged.append((key, row["size"], db.get_blob(row["blob_id"])))

    # Phase 2: drop the old table — every old BLOB's space frees.
    for key, _, _ in staged:
        row = store.meta_table.get(key)
        db.delete_blob(row["blob_id"], commit=False)
    db.ghost.drain()
    db.commit()

    # Phase 3: bulk-insert into the clean space (the copy's write half).
    for key, size, data in staged:
        if data is not None:
            new_id = db.put_blob(data=data, commit=False)
        else:
            new_id = db.put_blob(size=size, commit=False)
        store.meta_table.update(key, {"blob_id": new_id})
        stats.objects_moved += 1
        stats.bytes_moved += size
    db.commit()
    stats.fragments_after = sum(fragment_counts(store).values())
    return stats
