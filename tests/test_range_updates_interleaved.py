"""Tests for BLOB appends and interleaved append loads."""

import pytest

from repro.core.interleaved import interleaved_db_load, interleaved_fs_load
from repro.db.database import DbConfig, SimDatabase
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.errors import ConfigError
from repro.fs.filesystem import FsConfig, SimFilesystem
from repro.units import KB, MB, PAGE_SIZE


def make_db(store_data=False):
    device = BlockDevice(scaled_disk(64 * MB), store_data=store_data)
    return SimDatabase(device, config=DbConfig())


class TestBlobInsertRange:
    """``BlobStore.append``: an insert at the logical end, the only
    range update the store keeps."""

    def test_insert_grows_size(self):
        db = make_db()
        blob_id = db.put_blob(size=64 * KB)
        db.blobs.append(blob_id, size=16 * KB)
        assert db.blobs.size_of(blob_id) == 80 * KB
        db.check_invariants()

    def test_insert_at_end_is_append(self):
        """Content lands after the old tail, and the old pages stay put:
        no data page is rewritten."""
        db = make_db(store_data=True)
        blob_id = db.put_blob(data=b"A" * (64 * KB))
        old_pages = db.blobs.tree_of(blob_id).all_runs()
        db.blobs.append(blob_id, data=b"B" * (16 * KB))
        assert db.get_blob(blob_id) == b"A" * (64 * KB) + b"B" * (16 * KB)
        assert db.blobs.tree_of(blob_id).runs_in_range(0, 8) == old_pages

    def test_alignment_enforced(self):
        db = make_db()
        blob_id = db.put_blob(size=64 * KB)
        with pytest.raises(ConfigError):
            db.blobs.append(blob_id, size=100)
        with pytest.raises(ConfigError):
            db.blobs.append(blob_id)  # neither size nor data
        assert db.blobs.size_of(blob_id) == 64 * KB

    def test_offset_bounds(self):
        """An append's offset is the blob's end, which must be a page
        boundary: a blob put with a ragged size cannot grow."""
        db = make_db()
        ragged = db.put_blob(size=64 * KB + 100)
        with pytest.raises(ConfigError, match="page-aligned blob size"):
            db.blobs.append(ragged, size=PAGE_SIZE)
        assert db.blobs.size_of(ragged) == 64 * KB + 100


class TestInterleavedLoads:
    def test_serial_fs_contiguous(self):
        fs = SimFilesystem(BlockDevice(scaled_disk(256 * MB)))
        result = interleaved_fs_load(fs, nstreams=1, object_size=1 * MB,
                                     total_objects=20)
        assert result.fragments_per_object == 1.0
        assert result.objects == 20

    def test_interleaving_fragments_fs(self):
        fs = SimFilesystem(BlockDevice(scaled_disk(256 * MB)))
        result = interleaved_fs_load(fs, nstreams=4, object_size=1 * MB,
                                     total_objects=20)
        assert result.fragments_per_object > 4.0

    def test_delayed_allocation_immune(self):
        fs = SimFilesystem(BlockDevice(scaled_disk(256 * MB)),
                           FsConfig(delayed_allocation=True))
        result = interleaved_fs_load(fs, nstreams=4, object_size=1 * MB,
                                     total_objects=20)
        assert result.fragments_per_object == 1.0

    def test_interleaving_fragments_db(self):
        db = SimDatabase(BlockDevice(scaled_disk(256 * MB)))
        serial = interleaved_db_load(db, nstreams=1, object_size=1 * MB,
                                     total_objects=10)
        db2 = SimDatabase(BlockDevice(scaled_disk(256 * MB)))
        inter = interleaved_db_load(db2, nstreams=4, object_size=1 * MB,
                                    total_objects=10)
        assert serial.fragments_per_object == 1.0
        assert inter.fragments_per_object > 4.0

    def test_object_sizes_exact(self):
        fs = SimFilesystem(BlockDevice(scaled_disk(256 * MB)))
        interleaved_fs_load(fs, nstreams=3, object_size=1 * MB + 1000,
                            total_objects=7)
        sizes = {record.size for record in fs.table}
        assert sizes == {1 * MB + 1000}

    def test_validation(self):
        fs = SimFilesystem(BlockDevice(scaled_disk(256 * MB)))
        with pytest.raises(ConfigError):
            interleaved_fs_load(fs, nstreams=0, object_size=1 * MB,
                                total_objects=5)
        # An empty object has no request to append.
        with pytest.raises(ConfigError):
            interleaved_fs_load(fs, nstreams=1, object_size=0,
                                total_objects=1)
