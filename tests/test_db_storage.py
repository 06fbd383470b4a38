"""Tests for page file, WAL, ghost cleaner, buffer pool, and heap."""

import pytest

from repro.db.bufferpool import BufferPool
from repro.db.gam import GamAllocator
from repro.db.ghost import GhostCleaner
from repro.db.heap import HeapTable
from repro.db.page import extend_runs
from repro.db.pagefile import PageFile
from repro.db.wal import WriteAheadLog
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.errors import ConfigError, RowNotFoundError
from repro.units import MB, PAGE_SIZE


# ----------------------------------------------------------------------
# Page file
# ----------------------------------------------------------------------
def page_file(base: int = 0) -> PageFile:
    return PageFile(BlockDevice(scaled_disk(16 * MB)), base=base,
                    num_pages=1024)


def grouped(page_nos: list[int]) -> list[tuple[int, int]]:
    runs: list[tuple[int, int]] = []
    for page_no in page_nos:
        extend_runs(runs, page_no, 1)
    return runs


class TestPagesToExtents:
    """``PageFile.spans_of`` over page lists grouped into runs, as
    ``read_pages`` and ``write_pages`` group them."""

    def test_groups_consecutive(self):
        out = page_file().spans_of(grouped([0, 1, 2, 7]))
        assert out == [
            (0, 3 * PAGE_SIZE), (7 * PAGE_SIZE, PAGE_SIZE)
        ]

    def test_preserves_logical_order(self):
        out = page_file().spans_of(grouped([7, 0, 1]))
        assert out == [
            (7 * PAGE_SIZE, PAGE_SIZE), (0, 2 * PAGE_SIZE)
        ]

    def test_base_offset(self):
        out = page_file(base=1 * MB).spans_of(grouped([0]))
        assert out[0][0] == 1 * MB

    def test_empty(self):
        assert page_file().spans_of([]) == []


class TestPageFile:
    def make(self):
        pf = page_file()
        return pf, pf.device

    def test_offsets(self):
        pf, _ = self.make()
        assert pf.spans_of([(0, 1)]) == [(0, PAGE_SIZE)]
        assert pf.spans_of([(10, 1)]) == [(10 * PAGE_SIZE, PAGE_SIZE)]

    def test_bounds(self):
        pf, device = self.make()
        for page_nos in ([1024], [5, -1]):
            with pytest.raises(ConfigError):
                pf.read_pages(page_nos)
            with pytest.raises(ConfigError):
                pf.write_pages(page_nos)
        assert device.stats.requests == 0

    def test_reads_batch_consecutive_pages(self):
        pf, device = self.make()
        pf.read_pages(list(range(64)))
        assert device.stats.seeks <= 1
        assert device.stats.read_bytes == 64 * PAGE_SIZE

    def test_scattered_pages_seek_per_run(self):
        pf, device = self.make()
        pf.read_pages([100, 300, 500])
        assert device.stats.seeks == 3

    def test_file_must_fit_device(self):
        device = BlockDevice(scaled_disk(1 * MB))
        with pytest.raises(ConfigError):
            PageFile(device, base=0, num_pages=1024)


# ----------------------------------------------------------------------
# WAL
# ----------------------------------------------------------------------
class TestWal:
    def make(self, bulk_logged=True, charge_io=True):
        device = BlockDevice(scaled_disk(8 * MB))
        return WriteAheadLog(device, bulk_logged=bulk_logged,
                             charge_io=charge_io), device

    @staticmethod
    def books(wal, device):
        return (wal._cursor, wal.records, wal._pending_records,
                wal.logged_bytes, device.stats.snapshot(), device.clock_s,
                device.head_position)

    def test_bulk_logged_skips_payload(self):
        wal, device = self.make(bulk_logged=True)
        wal.log_operations([1 * MB])
        assert device.stats.write_bytes == WriteAheadLog.RECORD_BYTES

    def test_full_recovery_logs_payload(self):
        wal, device = self.make(bulk_logged=False)
        wal.log_operations([1 * MB])
        assert device.stats.write_bytes == \
            WriteAheadLog.RECORD_BYTES + 1 * MB

    def test_full_recovery_list_carries_each_payload(self):
        record = WriteAheadLog.RECORD_BYTES
        wal, device = self.make(bulk_logged=False)
        wal.log_operations([1 * MB, 0, 3])
        logged = 3 * record + 1 * MB + 3
        assert (device.stats.write_bytes, device.stats.requests) == \
            (logged, 3)
        assert (wal._cursor, wal.logged_bytes, wal.records) == \
            (logged, logged, 3)
        # The same records written one request each, at the same offsets.
        twin = BlockDevice(scaled_disk(8 * MB))
        twin.write(0, record + 1 * MB)
        twin.write(record + 1 * MB, record)
        twin.write(2 * record + 1 * MB, record + 3)
        assert (device.stats, device.clock_s, device.head_position) == \
            (twin.stats, twin.clock_s, twin.head_position)

    def test_commit_flushes_once(self):
        wal, device = self.make()
        wal.log_operations([0] * 5)
        requests_before = device.stats.requests
        wal.commit()
        assert device.stats.requests == requests_before + 1  # one flush
        assert wal.commits == 1

    def test_empty_commit_noop(self):
        wal, device = self.make()
        wal.commit()
        assert wal.commits == 0

    def test_log_wraps(self):
        wal, device = self.make()
        for _ in range(20000):
            wal.log_operations([0])
        assert wal.records == 20000  # no overflow error

    def test_cursor_wraps_mid_list(self):
        """Two records fit before the end; the third wraps to offset 0.
        The list charges what one write per record at the same offsets
        charges."""
        record = WriteAheadLog.RECORD_BYTES
        wal, device = self.make()
        capacity = device.geometry.capacity
        fill = capacity // record - 2
        wal.log_operations([0] * fill)
        twin = BlockDevice(scaled_disk(8 * MB))
        for at in range(fill):
            twin.write(at * record, record)
        wal.log_operations([0] * 5)
        for offset in (fill * record, (fill + 1) * record, 0, record,
                       2 * record):
            twin.write(offset, record)
        assert wal._cursor == 3 * record
        assert wal.records == wal._pending_records == fill + 5
        assert (device.stats, device.clock_s, device.head_position) == \
            (twin.stats, twin.clock_s, twin.head_position)

    def test_uncharged_log_moves_only_its_counters(self):
        wal, device = self.make(charge_io=False)
        wal.log_operations([5, 6])
        assert (wal._cursor, wal.records, wal.logged_bytes) == \
            (2 * WriteAheadLog.RECORD_BYTES, 2,
             2 * WriteAheadLog.RECORD_BYTES)
        assert device.stats == BlockDevice(scaled_disk(8 * MB)).stats
        assert device.clock_s == 0.0

    def test_empty_list_is_a_noop(self):
        wal, device = self.make()
        before = self.books(wal, device)
        wal.log_operations([])
        assert self.books(wal, device) == before

    def test_payload_validation(self):
        wal, _ = self.make()
        with pytest.raises(ConfigError):
            wal.log_operations([-1])

    @pytest.mark.parametrize("payloads", [[-1], [0, 7, -1], [-1, 0]])
    def test_a_negative_payload_anywhere_moves_nothing(self, payloads):
        wal, device = self.make(bulk_logged=False)
        wal.log_operations([3])
        before = self.books(wal, device)
        with pytest.raises(ConfigError):
            wal.log_operations(payloads)
        assert self.books(wal, device) == before


# ----------------------------------------------------------------------
# Ghost cleaner
# ----------------------------------------------------------------------
class TestGhostCleaner:
    def test_immediate_mode(self):
        gam = GamAllocator(8)
        ghost = GhostCleaner(gam, cleanup_interval_ops=0)
        ghost.ghost_pages(gam.alloc_runs(8))
        assert gam.free_page_count == 64

    def test_pages_unavailable_until_aged(self):
        gam = GamAllocator(8)
        ghost = GhostCleaner(gam, cleanup_interval_ops=1,
                             max_pages_per_sweep=None, min_age_ops=4)
        ghost.ghost_pages(gam.alloc_runs(8))
        for _ in range(3):
            ghost.on_operation()
        assert gam.free_page_count == 56  # still ghost
        ghost.on_operation()
        assert gam.free_page_count == 64  # aged out and swept

    def test_sweep_budget_trickles(self):
        gam = GamAllocator(8)
        ghost = GhostCleaner(gam, cleanup_interval_ops=1,
                             max_pages_per_sweep=2, min_age_ops=0)
        ghost.ghost_pages(gam.alloc_runs(8))
        ghost.on_operation()
        assert gam.free_page_count == 56 + 2
        ghost.on_operation()
        assert gam.free_page_count == 56 + 4

    def test_drain_frees_everything(self):
        gam = GamAllocator(8)
        ghost = GhostCleaner(gam, cleanup_interval_ops=10,
                             min_age_ops=100)
        ghost.ghost_pages(gam.alloc_runs(20))
        ghost.drain()
        assert gam.free_page_count == 64
        assert ghost.pending_pages == 0

    def test_fifo_order(self):
        gam = GamAllocator(8)
        ghost = GhostCleaner(gam, cleanup_interval_ops=1,
                             max_pages_per_sweep=1, min_age_ops=0)
        first = gam.alloc_page()
        second = gam.alloc_page()
        ghost.ghost_pages([(second, 1)])
        ghost.ghost_pages([(first, 1)])
        ghost.on_operation()
        # The first-ghosted page (second allocated) is freed first.
        assert not gam.is_page_used(second)
        assert gam.is_page_used(first)

    def test_counters(self):
        gam = GamAllocator(8)
        ghost = GhostCleaner(gam, cleanup_interval_ops=1, min_age_ops=0,
                             max_pages_per_sweep=None)
        ghost.ghost_pages(gam.alloc_runs(10))
        assert ghost.ghosted_pages == 10
        assert ghost.pending_pages == 10
        ghost.on_operation()
        assert ghost.cleaned_pages == 10
        assert ghost.pending_pages == 0

    @pytest.mark.parametrize("interval", [0, 3])
    def test_books_balance_in_both_modes(self, interval):
        """Immediate mode used to count pages cleaned but never ghosted."""
        gam = GamAllocator(8)
        ghost = GhostCleaner(gam, cleanup_interval_ops=interval,
                             min_age_ops=1, max_pages_per_sweep=4)
        for count in (10, 3, 17):
            ghost.ghost_pages(gam.alloc_runs(count))
            for _ in range(4):
                ghost.on_operation()
                assert ghost.cleaned_pages + ghost.pending_pages \
                    == ghost.ghosted_pages
                assert ghost.pending_pages == sum(
                    n for _, n in ghost.queued_runs())
                assert gam.used_page_count == ghost.pending_pages
        assert ghost.ghosted_pages == 30
        if interval == 0:
            assert ghost.cleaned_pages == 30 and ghost.sweeps == 0


# ----------------------------------------------------------------------
# Buffer pool
# ----------------------------------------------------------------------
class TestBufferPool:
    def make(self, capacity=4):
        device = BlockDevice(scaled_disk(16 * MB))
        pf = PageFile(device, base=0, num_pages=1024)
        return BufferPool(pf, capacity_pages=capacity), device

    def test_hit_costs_nothing(self):
        pool, device = self.make()
        pool.access(1)
        io_after_miss = device.stats.total_bytes
        pool.access(1)
        assert device.stats.total_bytes == io_after_miss
        assert pool.hits == 1
        assert pool.misses == 1

    def test_miss_reads_page(self):
        pool, device = self.make()
        pool.access(7)
        assert device.stats.read_bytes == PAGE_SIZE

    def test_write_miss_skips_read(self):
        pool, device = self.make()
        pool.access(7, for_write=True)
        assert device.stats.read_bytes == 0

    def test_eviction_respects_capacity(self):
        pool, _ = self.make(capacity=4)
        for page in range(10):
            pool.access(page)
        assert len(pool) <= 4
        assert pool.evictions >= 6

    def test_dirty_eviction_writes_back(self):
        pool, device = self.make(capacity=2)
        pool.access(0, for_write=True)
        pool.access(1, for_write=True)
        writes_before = device.stats.write_bytes
        pool.access(2)  # must evict a dirty frame eventually
        pool.access(3)
        assert device.stats.write_bytes > writes_before

    def test_clock_gives_second_chance(self):
        pool, _ = self.make(capacity=2)
        pool.access(0)
        pool.access(1)
        pool.access(2)  # evicts 0 after clearing both ref bits
        assert 0 not in pool._frames
        pool.access(3)  # second chance: 1 (ref cleared) goes, 2 stays
        assert 2 in pool._frames
        assert 3 in pool._frames

    def test_flush_all(self):
        pool, device = self.make(capacity=8)
        for page in range(4):
            pool.access(page, for_write=True)
        pool.flush_all()
        assert device.stats.write_bytes >= 4 * PAGE_SIZE
        pool.flush_all()  # second flush writes nothing new
        assert device.stats.write_bytes == 4 * PAGE_SIZE

    def test_invalidate(self):
        pool, _ = self.make()
        pool.access(5, for_write=True)
        pool.invalidate(5)
        assert 5 not in pool._frames


# ----------------------------------------------------------------------
# Heap table
# ----------------------------------------------------------------------
class TestHeapTable:
    def make(self):
        device = BlockDevice(scaled_disk(16 * MB))
        pf = PageFile(device, base=0, num_pages=2048)
        gam = GamAllocator(256)
        pool = BufferPool(pf, capacity_pages=64)
        return HeapTable("t", gam, pool, rows_per_page=4), gam

    def test_insert_get(self):
        table, _ = self.make()
        table.insert("k", {"a": 1})
        assert table.get("k") == {"a": 1}
        assert table.contains("k")
        assert len(table) == 1

    def test_get_returns_copy(self):
        table, _ = self.make()
        table.insert("k", {"a": 1})
        row = table.get("k")
        row["a"] = 99
        assert table.get("k")["a"] == 1

    def test_duplicate_insert_rejected(self):
        table, _ = self.make()
        table.insert("k", {})
        with pytest.raises(ConfigError):
            table.insert("k", {})

    def test_update(self):
        table, _ = self.make()
        table.insert("k", {"a": 1, "b": 2})
        table.update("k", {"b": 3})
        assert table.get("k") == {"a": 1, "b": 3}

    def test_missing_rows(self):
        table, _ = self.make()
        with pytest.raises(RowNotFoundError):
            table.get("ghost")
        with pytest.raises(RowNotFoundError):
            table.update("ghost", {})
        with pytest.raises(RowNotFoundError):
            table.delete("ghost")

    def test_delete(self):
        table, _ = self.make()
        table.insert("k", {})
        table.delete("k")
        assert not table.contains("k")

    def test_rows_pack_into_pages(self):
        table, gam = self.make()
        for i in range(8):  # 4 rows/page -> 2 heap pages
            table.insert(f"k{i}", {})
        heap_pages = len(table._page_slots)
        assert heap_pages == 2

    def test_scan(self):
        table, _ = self.make()
        for i in range(10):
            table.insert(f"k{i}", {"i": i})
        rows = dict(table.scan())
        assert len(rows) == 10
        assert rows["k3"] == {"i": 3}

    def test_keys(self):
        table, _ = self.make()
        table.insert("a", {})
        table.insert("b", {})
        assert sorted(table.keys()) == ["a", "b"]
