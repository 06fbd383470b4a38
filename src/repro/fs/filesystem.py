"""The simulated filesystem: NTFS-like semantics over a block device.

Volume layout (byte offsets)::

    [0 ............ mft_size)                MFT region (file records)
    [mft_size ..... mft_size + log_size)     $LogFile region (journal)
    [data_start ... capacity)                file stream data

Data allocation follows the paper's description of NTFS (per-append
allocation, banded run cache, contiguous-extension attempts, journal-
deferred free reuse).  Safe writes implement the temp-file + atomic
rename protocol of Section 4.

:meth:`SimFilesystem.append` is the one write-request loop (``safe_write``
and the backend's ``put`` call it once each): per request, allocate the
shortfall (in place when it extends the last run, see ``append``),
extend the run list, write one device request whose span is found from
the run list's tail.

When the underlying device stores content, appends carry real bytes and
reads return them — the marker-based fragmentation analyzer and crash
tests rely on this; the timing model is identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.alloc.extent import Extent, as_spans
from repro.alloc.freelist import FreeExtentIndex
from repro.disk.device import BlockDevice, Span, slice_spans
from repro.errors import AllocationError, ConfigError, FsError
from repro.fs.allocator import FsAllocator
from repro.fs.filetable import FileRecord, FileTable
from repro.fs.journal import Journal, RecoveryReport
from repro.fs.metadata_traffic import MetadataTraffic
from repro.units import (CLUSTER_SIZE, DEFAULT_WRITE_REQUEST, KB, MB,
                         checked_write_size)


@dataclass(frozen=True)
class FsConfig:
    """Tunable parameters of the simulated filesystem.

    Defaults follow the paper's setup (4 KB clusters, 64 KB application
    write requests) and NTFS's documented structure (bounded run cache,
    outer-band preference, log commit before free-space reuse).
    """

    cluster_size: int = CLUSTER_SIZE
    mft_zone_bytes: int = 4 * MB
    mft_record_bytes: int = 1 * KB
    log_bytes: int = 4 * MB
    commit_interval_ops: int = 8
    outer_band_fraction: float = 0.125
    run_cache_size: int = 64
    #: Sequential-append extension hysteresis (see NtfsRunCache.try_extend):
    #: a growing file keeps extending its current run only while that run
    #: stays at least this fraction of the largest cached run.
    extension_stickiness: float = 0.75
    #: Append requests between placement reviews of a growing file.
    reconsider_interval_requests: int = 16
    #: Namespace operations (create/delete/rename) between background
    #: metadata nibbles; 0 disables.
    metadata_interval_events: int = 2
    metadata_nibble_bytes: int = 4 * KB
    metadata_max_outstanding: int = 256
    #: Buffer appends and allocate on flush (XFS-style delayed allocation).
    delayed_allocation: bool = False
    #: Charge device I/O for MFT/journal writes (off simplifies unit tests).
    charge_metadata_io: bool = True
    #: Not an option: kept only as pickled layout (the retired naive
    #: engine's selector) until checkpoint bytes leave the modelled clock.
    index_kind: str = field(default_factory=lambda: "tiered", init=False)

    def __post_init__(self) -> None:
        if self.cluster_size <= 0:
            raise ConfigError("cluster_size must be positive")
        if self.mft_zone_bytes < self.mft_record_bytes:
            raise ConfigError("MFT zone smaller than one record")


class SimFilesystem:
    """A single-volume, single-directory filesystem simulator."""

    def __init__(self, device: BlockDevice, config: FsConfig | None = None) -> None:
        self.device = device
        self.config = config or FsConfig()
        cfg = self.config
        self.data_start = cfg.mft_zone_bytes + cfg.log_bytes
        if self.data_start >= device.geometry.capacity:
            raise ConfigError("volume too small for metadata regions")
        self.free_index = FreeExtentIndex(device.geometry.capacity,
                                          initially_free=False)
        self.free_index.add(
            Extent(self.data_start,
                   device.geometry.capacity - self.data_start)
        )
        self.table = FileTable()
        self.allocator = FsAllocator(
            self.free_index,
            cluster_size=cfg.cluster_size,
            outer_band_fraction=cfg.outer_band_fraction,
            cache_size=cfg.run_cache_size,
            extension_stickiness=cfg.extension_stickiness,
            reconsider_interval_requests=cfg.reconsider_interval_requests,
        )
        self.journal = Journal(
            device,
            self.free_index,
            log_base=cfg.mft_zone_bytes,
            log_size=cfg.log_bytes,
            commit_interval_ops=cfg.commit_interval_ops,
            charge_io=cfg.charge_metadata_io,
        )
        self.metadata_traffic = MetadataTraffic(
            self.allocator.runcache,
            interval_events=cfg.metadata_interval_events,
            nibble_bytes=cfg.metadata_nibble_bytes,
            max_outstanding=cfg.metadata_max_outstanding,
        )
        #: Delayed-allocation buffers: name -> buffered (bytes|int) chunks.
        self._write_buffers: dict[str, list[bytes | int]] = {}
        #: Optional fault-injection hook: called with a label at each
        #: crash point; raising aborts the operation there.
        self.crash_hook = None
        # Journal kill points route through the same hook (a bound
        # method, not a lambda, so checkpoints stay picklable).
        self.journal.crash_hook = self._crash
        #: Space whose delete was lost in a crash (log record never
        #: forced): on the real volume those files still exist, so the
        #: bytes stay unallocatable.  Populated by recovery only.
        self.orphaned_extents: list[Extent] = []
        self._tmp_seq = 0

    # ------------------------------------------------------------------
    # Metadata persistence charges
    # ------------------------------------------------------------------
    def _write_record(self, record: FileRecord) -> None:
        if not self.config.charge_metadata_io:
            return
        offset = self.table.mft_slot_offset(
            record,
            mft_base=0,
            record_size=self.config.mft_record_bytes,
            mft_size=self.config.mft_zone_bytes,
        )
        self.device.write(offset, self.config.mft_record_bytes)

    # ------------------------------------------------------------------
    # Namespace operations
    # ------------------------------------------------------------------
    def create(self, name: str) -> FileRecord:
        """Create an empty file; charges an MFT record write + log entry."""
        self.table.tick()
        record = self.table.create(name)
        self._write_record(record)
        self.journal.log_operation()
        self.metadata_traffic.on_event()
        return record

    def read_record(self, name: str) -> FileRecord:
        """Open path: fetch the file's MFT record (one small random read).

        With hundreds of thousands of large objects and a bounded cache,
        the record for a uniformly random object is effectively never
        resident — this read is most of the folklore's "file opens are
        expensive" (the rest is CPU, charged by the backend layer).
        """
        record = self.table.lookup(name)
        if self.config.charge_metadata_io:
            offset = self.table.mft_slot_offset(
                record,
                mft_base=0,
                record_size=self.config.mft_record_bytes,
                mft_size=self.config.mft_zone_bytes,
            )
            self.device.read(offset, self.config.mft_record_bytes)
        return record

    def extent_map(self, name: str) -> list[Span]:
        """The file's device spans in logical order: its layout."""
        return as_spans(self.table.lookup(name).extents)

    def delete(self, name: str) -> None:
        """Delete a file; space is reusable only after the next commit.

        The record update itself is journaled (charged by the log
        append) and written back lazily by the cache manager, so no
        synchronous in-place MFT write is charged here.
        """
        self.table.tick()
        self._write_buffers.pop(name, None)
        record = self.table.remove(name)
        self.journal.log_operation(frees=list(record.extents))
        self.metadata_traffic.on_event()

    def rename(self, src: str, dst: str) -> None:
        """Atomic rename; replaces ``dst`` if it exists (ReplaceFile).

        Durability comes from the journal append; the MFT pages are
        lazily written back, so only the log I/O is charged.
        """
        self._flush_buffers(src)
        self.table.tick()
        record = self.table.lookup(src)
        displaced = self.table.replace(src, dst)
        frees = list(displaced.extents) if displaced is not None else []
        self.journal.log_operation(frees=frees)
        self.metadata_traffic.on_event()

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def append(self, name: str, nbytes: int | None = None,
               data: bytes | None = None, *,
               write_request: int | None = None) -> None:
        """Append to ``name`` in ``write_request``-byte write requests.

        Exactly one of ``nbytes`` (timing-only) or ``data`` must be
        given; ``write_request=None`` makes the whole append one
        request.  Without delayed allocation, space is allocated *now*,
        per request — the behaviour responsible for most of the
        fragmentation in the paper.  Each request fills preallocated or
        cluster-slack space first, allocates the shortfall per the
        append policy, then writes as one device request.

        A non-review request whose rounded shortfall fits the free run
        at the allocation end is served in place (one ``carve_front``,
        the last run grown): exactly the requests ``allocate_append``
        serves whole from ``try_extend``, so nothing modelled moves.
        """
        total = checked_write_size(nbytes, data, write_request)
        if write_request is None:
            write_request = total
        record = self.table.lookup(name)
        requests = range(0, total, write_request)
        if self.config.delayed_allocation:
            self._write_buffers.setdefault(name, []).extend(
                min(write_request, total - cursor) if data is None
                else data[cursor: cursor + write_request]
                for cursor in requests)
            return
        extents = record.extents
        size = record.size
        allocated = record.allocated_bytes
        allocator = self.allocator
        allocate = allocator.allocate_append
        cluster = allocator.cluster_size
        interval = allocator.reconsider_interval_requests
        run_length_at = self.free_index.run_length_at
        carve_front = self.free_index.carve_front
        write_extents = self.device.write_extents
        for cursor in requests:
            length = min(write_request, total - cursor)
            if size + length > allocated:
                needed = -(-(size + length - allocated) // cluster) * cluster
                if extents and record.append_requests % interval and \
                        run_length_at(extents[-1].end) >= needed:
                    # No review, so no stickiness; the run fits, so no
                    # band refusal: ``try_extend`` would carve it whole.
                    record.append_requests += 1
                    last = extents[-1]
                    carve_front(last.end, needed)
                    extents[-1] = Extent(last.start, last.length + needed)
                    allocated += needed
                else:
                    for ext in self._allocate_under_pressure(
                            allocate, record, size + length - allocated):
                        record.add_extent(ext)
                        allocated += ext.length
            last, back = extents[-1], allocated - size
            write_extents([(last.start + last.length - back, length)]
                          if back <= last.length
                          else _tail_span(extents, back, length),
                          None if data is None
                          else data[cursor: cursor + length])
            size += length
            record.size = size

    def _allocate_under_pressure(self, allocate, *args):
        """Retry a failed allocation after forcing the journal commit.

        On a nearly full volume the space deleted by recent operations
        may all be sitting in the journal's pending-free list; a real
        filesystem forces the log and retries before reporting ENOSPC.
        """
        try:
            return allocate(*args)
        except AllocationError:
            self.journal.commit()
            return allocate(*args)

    def _flush_buffers(self, name: str) -> None:
        """Materialize delayed-allocation buffers for ``name``."""
        chunks = self._write_buffers.pop(name, None)
        if not chunks:
            return
        record = self.table.lookup(name)
        total = sum(len(c) if isinstance(c, bytes) else c for c in chunks)
        data: bytes | None = None
        if all(isinstance(c, bytes) for c in chunks):
            data = b"".join(chunks)  # type: ignore[arg-type]
        allocated = record.allocated_bytes
        shortfall = record.size + total - allocated
        if shortfall > 0:
            # The whole buffered amount is allocated at once: delayed
            # allocation turns N append requests into one large one.
            for ext in self._allocate_under_pressure(
                    self.allocator.allocate_full, shortfall):
                record.add_extent(ext)
                allocated += ext.length
        self.device.write_extents(
            _tail_span(record.extents, allocated - record.size, total), data)
        record.size += total

    def preallocate(self, name: str, expected_size: int) -> None:
        """Size-hint interface: reserve (best-effort contiguous) space.

        This is the interface change the paper proposes in its
        conclusions: pass the known object size at creation.  Subsequent
        appends fill the reservation instead of allocating per request.
        """
        if expected_size <= 0:
            raise ConfigError("expected_size must be positive")
        record = self.table.lookup(name)
        if record.size or record.extents:
            raise FsError("preallocate requires an empty file")
        for ext in self._allocate_under_pressure(
                self.allocator.allocate_full, expected_size):
            record.add_extent(ext)

    def read(self, name: str, offset: int = 0,
             length: int | None = None) -> bytes | None:
        """Timed read of ``[offset, offset+length)`` of the file."""
        self._flush_buffers(name)
        record = self.table.lookup(name)
        if length is None:
            length = record.size - offset
        if offset < 0 or length < 0 or offset + length > record.size:
            raise FsError(
                f"read [{offset}, {offset + length}) outside file of "
                f"{record.size} bytes"
            )
        if length == 0:
            return b"" if self.device.stores_data else None
        return self.device.read_extents(slice_spans(
            as_spans(record.extents), offset, length))

    def fsync(self, name: str) -> None:
        """Force the file's data to the platter."""
        self._flush_buffers(name)
        self.device.flush()

    # ------------------------------------------------------------------
    # Safe writes (Section 4)
    # ------------------------------------------------------------------
    def safe_write(self, name: str, *, size: int | None = None,
                   data: bytes | None = None,
                   write_request: int = DEFAULT_WRITE_REQUEST,
                   size_hint: bool = False) -> None:
        """Atomically replace ``name`` with new contents.

        Writes a temp file in ``write_request``-byte appends, forces it,
        then renames it over the target — the protocol the paper uses so
        NTFS matches the database's update semantics.  With
        ``size_hint=True`` the temp file is preallocated at its final
        size first (the paper's proposed interface).
        """
        total = checked_write_size(size, data, write_request)
        self._tmp_seq += 1
        tmp = f"{name}.tmp{self._tmp_seq}"
        self.create(tmp)
        if size_hint:
            self.preallocate(tmp, total)
        self.append(tmp, size, data, write_request=write_request)
        self._crash("safe_write:after_data")
        self.fsync(tmp)
        self._crash("safe_write:after_fsync")
        self.rename(tmp, name)

    def _crash(self, label: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(label)

    # ------------------------------------------------------------------
    # Crash recovery (the "mount after crash" path)
    # ------------------------------------------------------------------
    def recover_after_crash(self) -> RecoveryReport:
        """Replay or discard in-flight frees per the deferred-free rule.

        Journal frees whose commit was durable are replayed into the
        free index; frees whose log record never hit the platter are
        discarded — their deletes never happened, so the space stays
        unallocatable and is tracked in :attr:`orphaned_extents` (the
        real volume still holds those files).  Delayed-allocation
        buffers are volatile and are dropped, like a page cache.
        """
        self._write_buffers.clear()
        report = self.journal.recover()
        self.orphaned_extents.extend(report.discarded)
        return report

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.device.geometry.capacity

    @property
    def data_capacity(self) -> int:
        return self.capacity - self.data_start

    @property
    def free_bytes(self) -> int:
        """Allocatable bytes (committed free space only)."""
        return self.free_index.total_free

    def check_invariants(self) -> None:
        """Free index is sane and every file's run list is consistent."""
        self.free_index.check_invariants()
        for record in self.table:
            record.check_invariants()


def _tail_span(extents: list[Extent], back: int,
               length: int) -> list[Span]:
    """Device spans of the ``length`` bytes that start ``back`` bytes
    before the end of the run list, found from its tail (the write
    position of an append sits in the last run or two)."""
    i = len(extents)
    while back > 0:
        i -= 1
        back -= extents[i].length
    out: list[Span] = []
    while length > 0:
        ext = extents[i]
        take = min(ext.length + back, length)
        out.append((ext.start - back, take))
        length -= take
        back = 0
        i += 1
    return out
