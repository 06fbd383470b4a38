"""Tests for file records and the MFT-like file table."""

import pytest

from repro.alloc.extent import Extent
from repro.errors import (
    CorruptionError,
    FileExistsFsError,
    FileNotFoundFsError,
)
from repro.fs.filetable import FileRecord, FileTable


class TestFileRecord:
    def test_add_extent_merges_contiguous(self):
        record = FileRecord(1, "a")
        record.add_extent(Extent(0, 100))
        record.add_extent(Extent(100, 50))
        assert record.extents == [Extent(0, 150)]

    def test_add_extent_keeps_discontiguous(self):
        record = FileRecord(1, "a")
        record.add_extent(Extent(0, 100))
        record.add_extent(Extent(200, 50))
        assert len(record.extents) == 2

    def test_allocated_bytes(self):
        record = FileRecord(1, "a")
        record.add_extent(Extent(0, 100))
        assert record.allocated_bytes == 100

    def test_invariants_reject_overlap(self):
        record = FileRecord(1, "a", extents=[Extent(0, 100), Extent(50, 10)])
        with pytest.raises(CorruptionError):
            record.check_invariants()

    def test_invariants_reject_size_over_allocation(self):
        record = FileRecord(1, "a", size=200, extents=[Extent(0, 100)])
        with pytest.raises(CorruptionError):
            record.check_invariants()


class TestFileTable:
    def test_create_lookup(self):
        table = FileTable()
        record = table.create("x")
        assert table.lookup("x") is record
        assert table.exists("x")
        assert len(table) == 1

    def test_duplicate_create_rejected(self):
        table = FileTable()
        table.create("x")
        with pytest.raises(FileExistsFsError):
            table.create("x")

    def test_lookup_missing(self):
        with pytest.raises(FileNotFoundFsError):
            FileTable().lookup("ghost")

    def test_remove(self):
        table = FileTable()
        table.create("x")
        table.remove("x")
        assert not table.exists("x")

    def test_file_ids_unique_and_increasing(self):
        table = FileTable()
        ids = [table.create(f"f{i}").file_id for i in range(10)]
        assert len(set(ids)) == 10
        assert ids == sorted(ids)

    def test_replace_over_existing(self):
        table = FileTable()
        old = table.create("target")
        old.add_extent(Extent(0, 100))
        tmp = table.create("target.tmp")
        displaced = table.replace("target.tmp", "target")
        assert displaced is old
        assert table.lookup("target") is tmp
        assert not table.exists("target.tmp")

    def test_replace_without_existing(self):
        table = FileTable()
        table.create("src")
        assert table.replace("src", "dst") is None
        assert table.exists("dst")

    def test_names(self):
        table = FileTable()
        table.create("a")
        table.create("b")
        assert sorted(record.name for record in table) == ["a", "b"]

    def test_mft_slot_assignment(self):
        table = FileTable()
        record = table.create("a")
        offset = table.mft_slot_offset(record, mft_base=0,
                                       record_size=1024,
                                       mft_size=1024 * 16)
        assert offset % 1024 == 0
        assert 0 <= offset < 1024 * 16

    def test_mft_slots_recycle(self):
        table = FileTable()
        records = [table.create(f"f{i}") for i in range(40)]
        offsets = {
            table.mft_slot_offset(r, mft_base=0, record_size=1024,
                                  mft_size=16 * 1024)
            for r in records
        }
        assert len(offsets) <= 16
