"""The database facade: devices, allocation maps, tables, BLOBs, WAL.

:class:`SimDatabase` wires the substrate together the way the paper's
SQL Server instance was configured (Section 4.2): a dedicated data
device holding one page file, a dedicated log device, bulk-logged mode,
out-of-row BLOB storage, metadata heap tables in the same file, ghost
deallocation.  Operations auto-commit by default (each safe write in the
paper is one transaction); bulk loaders may batch commits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.blobstore import BlobStore, check_write_request
from repro.db.bufferpool import BufferPool
from repro.db.gam import GamAllocator
from repro.db.ghost import GhostCleaner
from repro.db.heap import HeapTable
from repro.db.page import Run
from repro.db.pagefile import PageFile
from repro.db.wal import WriteAheadLog
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.errors import ConfigError, CorruptionError
from repro.units import (DEFAULT_WRITE_REQUEST, MB, PAGE_SIZE,
                         PAGES_PER_EXTENT, ceil_div)


@dataclass(frozen=True)
class DbConfig:
    """Tunables for the simulated database."""

    #: Application write request size (must be a multiple of the page size).
    write_request: int = DEFAULT_WRITE_REQUEST
    #: Buffer pool frames for metadata pages.
    buffer_pool_pages: int = 4096
    #: Cleaner ticks between ghost-cleanup sweeps (0 = immediate frees).
    #: A tick is one write request or one namespace operation.
    ghost_cleanup_interval_ops: int = 16
    #: Pages deallocated per sweep (None = whole eligible backlog).
    ghost_max_pages_per_sweep: int | None = 128
    #: Minimum ticks a page stays ghost before it may be freed.
    ghost_min_age_ops: int = 256
    #: LOB-tree fanout (runs per leaf / children per node).
    lob_fanout: int = 128
    #: Bulk-logged mode: BLOB payloads bypass the log (paper Section 4).
    bulk_logged: bool = True
    #: Log device capacity when the facade creates it.
    log_device_bytes: int = 64 * MB
    #: Charge device I/O for log writes (off simplifies unit tests).
    charge_log_io: bool = True

    def __post_init__(self) -> None:
        check_write_request(self.write_request)


class SimDatabase:
    """A single-database server over dedicated data and log devices."""

    def __init__(self, data_device: BlockDevice,
                 log_device: BlockDevice | None = None,
                 config: DbConfig | None = None) -> None:
        self.config = config or DbConfig()
        self.data_device = data_device
        if log_device is None:
            log_device = BlockDevice(scaled_disk(self.config.log_device_bytes))
        self.log_device = log_device
        # The largest log record must fit the circular log, or the first
        # put that writes one fails halfway, after pages and data I/O.
        record = WriteAheadLog.RECORD_BYTES
        if not self.config.bulk_logged:
            record += self.config.write_request
        if self.config.charge_log_io and record > log_device.geometry.capacity:
            raise ConfigError(
                f"log record of {record} bytes exceeds the log device's "
                f"{log_device.geometry.capacity} bytes")

        num_pages = data_device.geometry.capacity // PAGE_SIZE
        num_extents = num_pages // PAGES_PER_EXTENT
        if num_extents < 2:
            raise ConfigError("data device too small for a page file")
        self.pagefile = PageFile(data_device, base=0,
                                 num_pages=num_extents * PAGES_PER_EXTENT)
        self.gam = GamAllocator(num_extents)
        # Extent 0 holds the boot page and allocation maps.
        if self.gam.alloc_extent_runs(1) != [(0, 1)]:
            raise ConfigError("expected extent 0 for system pages")
        self.wal = WriteAheadLog(log_device,
                                 bulk_logged=self.config.bulk_logged,
                                 charge_io=self.config.charge_log_io)
        self.ghost = GhostCleaner(
            self.gam,
            cleanup_interval_ops=self.config.ghost_cleanup_interval_ops,
            max_pages_per_sweep=self.config.ghost_max_pages_per_sweep,
            min_age_ops=self.config.ghost_min_age_ops,
        )
        # Deletes ghost their pages *through* the log: the cleaner sees
        # them only once the deleting commit is forced (Section 2's
        # deferred-free rule, enforced by construction).
        self.wal.on_publish = self.ghost.ghost_pages
        #: Page runs of rolled-back (uncommitted) deletes found by crash
        #: recovery: still allocated, never freeable — the row survived.
        self.rolled_back_pages: list[Run] = []
        self.pool = BufferPool(self.pagefile,
                               capacity_pages=self.config.buffer_pool_pages)
        self.blobs = BlobStore(self.gam, self.pagefile, self.wal, self.ghost,
                               lob_fanout=self.config.lob_fanout)
        self._tables: dict[str, HeapTable] = {}

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def create_table(self, name: str, **kwargs) -> HeapTable:
        if name in self._tables:
            raise ConfigError(f"table {name!r} exists")
        table = HeapTable(name, self.gam, self.pool, **kwargs)
        self._tables[name] = table
        return table

    def table(self, name: str) -> HeapTable:
        try:
            return self._tables[name]
        except KeyError:
            raise ConfigError(f"no table {name!r}") from None

    # ------------------------------------------------------------------
    # BLOB transactions
    # ------------------------------------------------------------------
    def put_blob(self, *, size: int | None = None,
                 data: bytes | None = None, commit: bool = True) -> int:
        """Insert a BLOB; bulk-logged, forced at commit."""
        blob_id = self.blobs.put(size=size, data=data,
                                 write_request=self.config.write_request)
        self.ghost.on_operation()
        if commit:
            self.commit()
        return blob_id

    def get_blob(self, blob_id: int, offset: int = 0,
                 length: int | None = None) -> bytes | None:
        return self.blobs.get(blob_id, offset, length)

    def delete_blob(self, blob_id: int, *, commit: bool = True) -> None:
        self.blobs.delete(blob_id)
        self.ghost.on_operation()
        if commit:
            self.commit()

    def replace_blob(self, blob_id: int, *, size: int | None = None,
                     data: bytes | None = None, commit: bool = True) -> int:
        """The safe-update transaction: insert new value, delete old.

        Mirrors the paper's wholesale-replacement model — SQL Server
        writes the new BLOB to freshly allocated pages, the old ones
        ghost.  Returns the new blob id.
        """
        new_id = self.blobs.put(size=size, data=data,
                                write_request=self.config.write_request)
        self.blobs.delete(blob_id)
        self.ghost.on_operation()
        if commit:
            self.commit()
        return new_id

    def commit(self) -> None:
        """Force the log, then force bulk-logged data pages (Section 4:
        "newly allocated BLOBs are written to the page file and forced
        to disk at commit")."""
        self.wal.commit()
        self.data_device.flush()

    def checkpoint(self) -> None:
        """Flush dirty metadata pages and drain ghost pages.

        The commit runs before the drain: forcing the log publishes any
        buffered ghost records to the cleaner, so the drain reclaims the
        whole durable backlog.
        """
        self.pool.flush_all()
        self.commit()
        self.ghost.drain()

    def recover_after_crash(self):
        """Restart after a crash: redo durable ghost records, roll back
        the rest.

        Ghost records whose commit forced but whose cleaner hand-off was
        lost are republished (the cleaner will deallocate them); records
        never forced are rolled back — on a real server those rows still
        exist, so their pages stay allocated and are tracked in
        :attr:`rolled_back_pages` (never freed; the invariant the
        WAL kill-point matrix asserts).  Returns the
        :class:`~repro.db.wal.WalRecoveryReport`.
        """
        report = self.wal.recover()
        self.rolled_back_pages.extend(report.discarded_runs())
        return report

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def free_bytes(self) -> int:
        return self.gam.free_page_count * PAGE_SIZE

    @property
    def capacity(self) -> int:
        return self.pagefile.num_pages * PAGE_SIZE

    def occupancy(self) -> float:
        return 1.0 - self.gam.free_page_count / self.pagefile.num_pages

    def check_invariants(self) -> None:
        """The GAM and every LOB tree are sane, and each BLOB's tree
        holds exactly the pages its size needs."""
        self.gam.check_invariants()
        for blob_id in self.blobs.blob_ids():
            tree = self.blobs.tree_of(blob_id)
            tree.check_invariants()
            size = self.blobs.size_of(blob_id)
            if tree.total_pages != ceil_div(size, PAGE_SIZE):
                raise CorruptionError(
                    f"blob {blob_id} of {size} bytes holds "
                    f"{tree.total_pages} pages")
