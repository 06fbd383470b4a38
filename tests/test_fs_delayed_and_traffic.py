"""Tests for delayed allocation and background metadata traffic."""

import pytest

from repro.alloc.extent import fragment_count
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.errors import ConfigError
from repro.fs.filesystem import FsConfig, SimFilesystem
from repro.fs.metadata_traffic import MetadataTraffic
from repro.units import KB, MB


def make_fs(**overrides):
    defaults = dict(metadata_interval_events=0, mft_zone_bytes=1 * MB,
                    log_bytes=1 * MB, charge_metadata_io=False)
    defaults.update(overrides)
    device = BlockDevice(scaled_disk(64 * MB))
    return SimFilesystem(device, FsConfig(**defaults))


class TestDelayedAllocation:
    def test_appends_buffer_until_flush(self):
        fs = make_fs(delayed_allocation=True)
        fs.create("a")
        fs.append("a", nbytes=64 * KB)
        record = fs.table.lookup("a")
        assert record.allocated_bytes == 0  # nothing allocated yet
        fs.fsync("a")
        assert fs.table.lookup("a").size == 64 * KB
        assert fs.table.lookup("a").allocated_bytes >= 64 * KB

    def test_whole_object_allocated_at_once(self):
        fs = make_fs(delayed_allocation=True)
        fs.create("a")
        for _ in range(16):
            fs.append("a", nbytes=64 * KB)
        fs.fsync("a")
        assert fragment_count(fs.extent_map("a")) == 1

    def test_read_triggers_flush(self):
        fs = make_fs(delayed_allocation=True)
        fs.create("a")
        fs.append("a", nbytes=10 * KB)
        fs.read("a")
        assert fs.table.lookup("a").size == 10 * KB

    def test_rename_triggers_flush(self):
        fs = make_fs(delayed_allocation=True)
        fs.create("a")
        fs.append("a", nbytes=10 * KB)
        fs.rename("a", "b")
        assert fs.table.lookup("b").size == 10 * KB

    def test_delete_discards_buffers(self):
        fs = make_fs(delayed_allocation=True)
        fs.create("a")
        fs.append("a", nbytes=10 * KB)
        fs.delete("a")
        fs.journal.commit()
        assert not fs.table.exists("a")

    def test_content_round_trip_through_buffer(self):
        device = BlockDevice(scaled_disk(64 * MB), store_data=True)
        fs = SimFilesystem(device, FsConfig(
            metadata_interval_events=0, mft_zone_bytes=1 * MB,
            log_bytes=1 * MB, charge_metadata_io=False,
            delayed_allocation=True,
        ))
        fs.create("a")
        fs.append("a", data=b"part one ")
        fs.append("a", data=b"part two")
        assert fs.read("a") == b"part one part two"


class TestMetadataTraffic:
    def test_disabled_when_interval_zero(self):
        fs = make_fs(metadata_interval_events=0)
        for i in range(50):
            fs.create(f"f{i}")
        assert fs.metadata_traffic.nibbles_allocated == 0

    def test_nibbles_allocate_on_schedule(self):
        fs = make_fs(metadata_interval_events=2)
        for i in range(10):
            fs.create(f"f{i}")
        assert fs.metadata_traffic.nibbles_allocated == 5

    def test_outstanding_bounded(self):
        fs = make_fs(metadata_interval_events=1,
                     metadata_max_outstanding=4)
        for i in range(50):
            fs.create(f"f{i}")
        traffic = fs.metadata_traffic
        assert sum(e.length for e in traffic.outstanding_extents) \
            <= 4 * 4 * KB
        assert traffic.nibbles_freed > 0

    def test_full_volume_skips_nibbles(self):
        fs = make_fs(metadata_interval_events=1)
        fs.create("big")
        fs.append("big", nbytes=fs.free_bytes)
        nibbles_before = fs.metadata_traffic.nibbles_allocated
        fs.create("x")  # triggers a nibble attempt on a full volume
        assert fs.metadata_traffic.nibbles_allocated == nibbles_before

    def test_validation(self):
        fs = make_fs()
        with pytest.raises(ConfigError):
            MetadataTraffic(fs.allocator.runcache, interval_events=-1)
        with pytest.raises(ConfigError):
            MetadataTraffic(fs.allocator.runcache, nibble_bytes=0)
        with pytest.raises(ConfigError):
            MetadataTraffic(fs.allocator.runcache, max_outstanding=0)
