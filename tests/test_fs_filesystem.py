"""Tests for the simulated filesystem's core semantics."""

import pytest

from repro.alloc.extent import fragment_count
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.errors import (
    ConfigError,
    FileExistsFsError,
    FileNotFoundFsError,
    FsError,
)
from repro.fs.filesystem import FsConfig, SimFilesystem
from repro.units import CLUSTER_SIZE, KB, MB


class TestNamespace:
    def test_create_and_exists(self, quiet_fs):
        quiet_fs.create("a")
        assert quiet_fs.table.exists("a")
        assert quiet_fs.table.lookup("a").size == 0

    def test_duplicate_create(self, quiet_fs):
        quiet_fs.create("a")
        with pytest.raises(FileExistsFsError):
            quiet_fs.create("a")

    def test_delete(self, quiet_fs):
        quiet_fs.create("a")
        quiet_fs.delete("a")
        assert not quiet_fs.table.exists("a")
        with pytest.raises(FileNotFoundFsError):
            quiet_fs.read("a")

    def test_rename_plain(self, quiet_fs):
        quiet_fs.create("a")
        quiet_fs.append("a", nbytes=1000)
        quiet_fs.rename("a", "b")
        assert not quiet_fs.table.exists("a")
        assert quiet_fs.table.lookup("b").size == 1000

    def test_rename_replaces_and_frees_old(self, quiet_fs):
        quiet_fs.create("victim")
        quiet_fs.append("victim", nbytes=64 * KB)
        quiet_fs.create("new")
        quiet_fs.append("new", nbytes=32 * KB)
        free_before = quiet_fs.free_bytes
        quiet_fs.rename("new", "victim")
        quiet_fs.journal.commit()
        assert quiet_fs.free_bytes == free_before + 64 * KB
        assert quiet_fs.table.lookup("victim").size == 32 * KB


class TestAppendRead:
    def test_append_grows_size(self, quiet_fs):
        quiet_fs.create("a")
        quiet_fs.append("a", nbytes=100)
        quiet_fs.append("a", nbytes=100)
        assert quiet_fs.table.lookup("a").size == 200

    def test_append_rounds_to_clusters(self, quiet_fs):
        quiet_fs.create("a")
        quiet_fs.append("a", nbytes=100)
        record = quiet_fs.table.lookup("a")
        assert record.allocated_bytes == CLUSTER_SIZE

    def test_cluster_slack_reused(self, quiet_fs):
        quiet_fs.create("a")
        quiet_fs.append("a", nbytes=100)
        quiet_fs.append("a", nbytes=100)
        record = quiet_fs.table.lookup("a")
        assert record.allocated_bytes == CLUSTER_SIZE  # no new cluster

    def test_sequential_appends_contiguous_on_clean_volume(self, quiet_fs):
        quiet_fs.create("a")
        for _ in range(16):
            quiet_fs.append("a", nbytes=64 * KB)
        assert fragment_count(quiet_fs.extent_map("a")) == 1

    def test_bulk_load_files_contiguous(self, quiet_fs):
        # Clean-volume bulk load: every file lands in one extent
        # (the paper's fast age-0 reads depend on this).
        for i in range(10):
            name = f"f{i}"
            quiet_fs.create(name)
            for _ in range(4):
                quiet_fs.append(name, nbytes=64 * KB)
        for i in range(10):
            assert fragment_count(quiet_fs.extent_map(f"f{i}")) == 1

    def test_read_range_validation(self, quiet_fs):
        quiet_fs.create("a")
        quiet_fs.append("a", nbytes=1000)
        with pytest.raises(FsError):
            quiet_fs.read("a", offset=500, length=600)
        with pytest.raises(FsError):
            quiet_fs.read("a", offset=-1, length=10)

    def test_read_charges_io(self, quiet_fs):
        quiet_fs.create("a")
        quiet_fs.append("a", nbytes=1 * MB)
        before = quiet_fs.device.stats.read_bytes
        quiet_fs.read("a")
        assert quiet_fs.device.stats.read_bytes - before == 1 * MB

    def test_append_requires_exactly_one_form(self, quiet_fs):
        quiet_fs.create("a")
        with pytest.raises(ConfigError):
            quiet_fs.append("a")
        with pytest.raises(ConfigError):
            quiet_fs.append("a", nbytes=10, data=b"xx")


class TestContent:
    def test_round_trip(self, content_fs):
        content_fs.create("a")
        payload = bytes(range(256)) * 16
        content_fs.append("a", data=payload)
        assert content_fs.read("a") == payload

    def test_multi_append_round_trip(self, content_fs):
        content_fs.create("a")
        content_fs.append("a", data=b"hello ")
        content_fs.append("a", data=b"world")
        assert content_fs.read("a") == b"hello world"

    def test_range_read(self, content_fs):
        content_fs.create("a")
        content_fs.append("a", data=b"0123456789")
        assert content_fs.read("a", offset=3, length=4) == b"3456"

    def test_content_survives_rename(self, content_fs):
        content_fs.create("a")
        content_fs.append("a", data=b"payload")
        content_fs.rename("a", "b")
        assert content_fs.read("b") == b"payload"


class TestSpaceAccounting:
    def test_occupancy_rises_with_data(self, quiet_fs):
        free0 = quiet_fs.free_bytes
        quiet_fs.create("a")
        quiet_fs.append("a", nbytes=4 * MB)
        assert quiet_fs.free_bytes < free0

    def test_delete_returns_space_after_commit(self, quiet_fs):
        quiet_fs.create("a")
        quiet_fs.append("a", nbytes=1 * MB)
        free_after_write = quiet_fs.free_bytes
        quiet_fs.delete("a")
        quiet_fs.journal.commit()
        assert quiet_fs.free_bytes == free_after_write + 1 * MB

    def test_check_invariants(self, quiet_fs):
        for i in range(5):
            quiet_fs.create(f"f{i}")
            quiet_fs.append(f"f{i}", nbytes=100 * KB)
        quiet_fs.delete("f2")
        quiet_fs.check_invariants()


class TestPreallocate:
    def test_preallocate_then_append_uses_reservation(self, quiet_fs):
        quiet_fs.create("a")
        quiet_fs.preallocate("a", 1 * MB)
        free_after_prealloc = quiet_fs.free_bytes
        for _ in range(16):
            quiet_fs.append("a", nbytes=64 * KB)
        assert quiet_fs.free_bytes == free_after_prealloc
        assert fragment_count(quiet_fs.extent_map("a")) == 1

    def test_preallocate_requires_empty_file(self, quiet_fs):
        quiet_fs.create("a")
        quiet_fs.append("a", nbytes=10)
        with pytest.raises(FsError):
            quiet_fs.preallocate("a", 1 * MB)

    def test_preallocate_validation(self, quiet_fs):
        quiet_fs.create("a")
        with pytest.raises(ConfigError):
            quiet_fs.preallocate("a", 0)


class TestMetadataCharges:
    def test_create_writes_mft_record(self):
        device = BlockDevice(scaled_disk(64 * MB))
        fs = SimFilesystem(device, FsConfig(metadata_interval_events=0))
        before = device.stats.write_bytes
        fs.create("a")
        assert device.stats.write_bytes > before

    def test_read_record_charges_read(self):
        device = BlockDevice(scaled_disk(64 * MB))
        fs = SimFilesystem(device, FsConfig(metadata_interval_events=0))
        fs.create("a")
        before = device.stats.read_bytes
        fs.read_record("a")
        assert device.stats.read_bytes > before

    def test_quiet_config_charges_nothing(self, quiet_fs):
        quiet_fs.create("a")
        quiet_fs.read_record("a")
        assert quiet_fs.device.stats.total_bytes == 0

    def test_volume_too_small_rejected(self):
        with pytest.raises(ConfigError):
            SimFilesystem(BlockDevice(scaled_disk(4 * MB)))
