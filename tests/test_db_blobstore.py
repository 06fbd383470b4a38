"""Tests for the BLOB store and the database facade."""

import pytest

from repro.alloc.extent import fragment_count
from repro.db.database import DbConfig, SimDatabase
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.errors import (AllocationError, BlobNotFoundError, ConfigError,
                          CorruptionError)
from repro.units import KB, MB, PAGE_SIZE


def make_db(capacity=64 * MB, store_data=False, **cfg):
    device = BlockDevice(scaled_disk(capacity), store_data=store_data)
    return SimDatabase(device, config=DbConfig(**cfg))


class TestPutGet:
    def test_put_returns_increasing_ids(self):
        db = make_db()
        a = db.put_blob(size=256 * KB)
        b = db.put_blob(size=256 * KB)
        assert b > a

    def test_size_tracked(self):
        db = make_db()
        blob_id = db.put_blob(size=100 * KB)
        assert db.blobs.size_of(blob_id) == 100 * KB

    def test_content_round_trip(self):
        db = make_db(store_data=True)
        payload = bytes(range(256)) * 200
        blob_id = db.put_blob(data=payload)
        assert db.get_blob(blob_id) == payload

    def test_range_read(self):
        db = make_db(store_data=True)
        payload = b"".join(bytes([i] * 1024) for i in range(64))
        blob_id = db.put_blob(data=payload)
        assert db.get_blob(blob_id, offset=10 * 1024, length=2048) == \
            payload[10 * 1024: 12 * 1024]

    def test_unaligned_size_round_trip(self):
        db = make_db(store_data=True)
        payload = b"x" * (100 * KB + 123)
        blob_id = db.put_blob(data=payload)
        assert db.get_blob(blob_id) == payload

    def test_range_validation(self):
        db = make_db()
        blob_id = db.put_blob(size=64 * KB)
        with pytest.raises(ConfigError):
            db.get_blob(blob_id, offset=0, length=65 * KB)

    def test_missing_blob(self):
        db = make_db()
        with pytest.raises(BlobNotFoundError):
            db.get_blob(42)

    def test_bulk_load_contiguous(self):
        db = make_db()
        blob_id = db.put_blob(size=1 * MB)
        extents = db.blobs.blob_extents(blob_id)
        assert fragment_count(extents) == 1

    def test_write_request_must_be_page_aligned(self):
        with pytest.raises(ConfigError):
            make_db(write_request=100 * KB)  # not an 8 KB multiple

    @pytest.mark.parametrize("write_request", [0, -PAGE_SIZE, -64 * KB])
    def test_write_request_must_be_positive(self, write_request):
        """0 and negative multiples of 8 KB pass the alignment check; they
        are refused up front rather than deep inside the GAM."""
        with pytest.raises(ConfigError, match="write_request must be positive"):
            make_db(write_request=write_request)
        db = make_db()
        blob_id = db.put_blob(size=64 * KB)
        free = db.gam.free_page_count
        with pytest.raises(ConfigError, match="write_request must be positive"):
            db.blobs.put(size=64 * KB, write_request=write_request)
        with pytest.raises(ConfigError, match="write_request must be positive"):
            db.blobs.append(blob_id, size=PAGE_SIZE,
                            write_request=write_request)
        assert db.gam.free_page_count == free
        assert db.blobs.blob_ids() == [blob_id]
        assert db.blobs.size_of(blob_id) == 64 * KB
        assert db.put_blob(size=64 * KB) == blob_id + 1

    def test_append_write_request_must_be_page_aligned(self):
        db = make_db()
        blob_id = db.put_blob(size=64 * KB)
        with pytest.raises(ConfigError, match="multiple of the page size"):
            db.blobs.append(blob_id, size=2 * PAGE_SIZE,
                            write_request=PAGE_SIZE + 1)
        assert db.blobs.size_of(blob_id) == 64 * KB

    @pytest.mark.parametrize("size", [0, -PAGE_SIZE])
    def test_append_length_must_be_positive(self, size):
        db = make_db()
        blob_id = db.put_blob(size=64 * KB)
        with pytest.raises(ConfigError, match="write size must be positive"):
            db.blobs.append(blob_id, size=size)
        assert db.blobs.size_of(blob_id) == 64 * KB
        db.check_invariants()


class TestDelete:
    def test_delete_ghosts_then_frees(self):
        db = make_db(ghost_cleanup_interval_ops=4,
                     ghost_max_pages_per_sweep=None, ghost_min_age_ops=0)
        blob_id = db.put_blob(size=1 * MB)
        used_before = db.gam.used_page_count
        db.delete_blob(blob_id)
        # Data pages stay ghost (only the LOB tree's node pages free
        # immediately), so nearly everything is still charged.
        assert db.gam.used_page_count >= used_before - 4
        for _ in range(8):
            db.ghost.on_operation()
        data_pages = (1 * MB) // PAGE_SIZE
        assert db.gam.used_page_count <= used_before - data_pages

    def test_delete_then_get_raises(self):
        db = make_db()
        blob_id = db.put_blob(size=64 * KB)
        db.delete_blob(blob_id)
        with pytest.raises(BlobNotFoundError):
            db.get_blob(blob_id)

    def test_space_fully_recovered_after_checkpoint(self):
        db = make_db()
        free0 = db.gam.free_page_count
        ids = [db.put_blob(size=256 * KB) for _ in range(10)]
        for blob_id in ids:
            db.delete_blob(blob_id)
        db.checkpoint()
        assert db.gam.free_page_count == free0

    def test_node_pages_freed_on_delete(self):
        db = make_db(lob_fanout=128)
        free0 = db.gam.free_page_count
        blob_id = db.put_blob(size=2 * MB)
        db.delete_blob(blob_id)
        db.checkpoint()
        assert db.gam.free_page_count == free0


class TestReplace:
    def test_replace_swaps_content(self):
        db = make_db(store_data=True)
        blob_id = db.put_blob(data=b"A" * 32 * KB)
        new_id = db.replace_blob(blob_id, data=b"B" * 32 * KB)
        assert db.get_blob(new_id) == b"B" * 32 * KB
        with pytest.raises(BlobNotFoundError):
            db.get_blob(blob_id)

    def test_replace_allocates_before_freeing(self):
        # The new value lands in fresh pages; the old ones ghost — the
        # safe-update ordering that drives the mixing frontier.
        db = make_db()
        blob_id = db.put_blob(size=256 * KB)
        old_extents = db.blobs.blob_extents(blob_id)
        new_id = db.replace_blob(blob_id, size=256 * KB)
        new_extents = db.blobs.blob_extents(new_id)
        for old in old_extents:
            for new in new_extents:
                assert not old.overlaps(new)


class TestAllocationPressure:
    def test_ghost_backlog_swept_under_pressure(self):
        db = make_db(capacity=16 * MB, ghost_cleanup_interval_ops=1000,
                     ghost_min_age_ops=10_000,
                     ghost_max_pages_per_sweep=1)
        # Fill most of the file, delete everything (all ghost), then
        # allocate again: the put must force cleanup rather than fail.
        ids = [db.put_blob(size=2 * MB) for _ in range(6)]
        for blob_id in ids:
            db.delete_blob(blob_id)
        blob_id = db.put_blob(size=4 * MB)
        assert db.blobs.size_of(blob_id) == 4 * MB

    def make_full_of_ghosts(self):
        """256 MB file: ~24 K ghost pages queued, under 1 K pages free."""
        db = make_db(capacity=256 * MB, write_request=1 * MB,
                     ghost_cleanup_interval_ops=100_000,
                     ghost_min_age_ops=1_000_000)
        doomed = [db.put_blob(size=96 * MB) for _ in range(2)]
        keeper = db.put_blob(size=64 * KB)
        db.put_blob(size=db.free_bytes - 4 * MB)
        for blob_id in doomed:
            db.delete_blob(blob_id)
        assert db.ghost.pending_pages >= 2 * 96 * MB // PAGE_SIZE
        assert db.gam.free_page_count < 1024
        return db, keeper

    def test_append_reclaims_like_put(self):
        """One request larger than the old fixed 8192-page pressure
        sweep: growing a BLOB must not give up with the space it needs
        still queued as ghosts, exactly as put does not."""
        db, keeper = self.make_full_of_ghosts()
        db.blobs.append(keeper, size=80 * MB, write_request=80 * MB)
        assert db.blobs.size_of(keeper) == 80 * MB + 64 * KB
        db.check_invariants()

    def test_allocation_fails_only_with_the_backlog_empty(self):
        db, keeper = self.make_full_of_ghosts()
        with pytest.raises(AllocationError):
            db.blobs.append(keeper, size=224 * MB, write_request=224 * MB)
        assert db.ghost.pending_pages == 0
        with pytest.raises(AllocationError):
            db.put_blob(size=224 * MB)
        db.check_invariants()


class TestIoAccounting:
    def test_put_charges_data_writes(self):
        db = make_db()
        before = db.data_device.stats.write_bytes
        db.put_blob(size=1 * MB, commit=False)
        written = db.data_device.stats.write_bytes - before
        assert written >= 1 * MB
        assert written <= 1 * MB + 16 * PAGE_SIZE

    def test_commit_forces_log_and_data(self):
        db = make_db()
        db.put_blob(size=64 * KB, commit=False)
        log_before = db.log_device.stats.requests
        db.commit()
        assert db.log_device.stats.requests > log_before

    def test_bulk_logged_log_volume_small(self):
        db = make_db()
        db.put_blob(size=4 * MB)
        assert db.log_device.stats.write_bytes < 64 * KB

    def test_log_record_larger_than_the_log_device_refused_up_front(self):
        """Full recovery logs each write request's payload; a record the
        circular log cannot hold is refused at construction, not halfway
        through a put after its pages and data writes were charged."""
        with pytest.raises(ConfigError, match="exceeds the log device"):
            make_db(write_request=8 * MB, bulk_logged=False,
                    log_device_bytes=4 * MB)

    @pytest.mark.parametrize("cfg", [
        dict(write_request=4 * MB - PAGE_SIZE, bulk_logged=False),
        dict(write_request=8 * MB),                       # bulk-logged
        dict(write_request=8 * MB, bulk_logged=False, charge_log_io=False),
    ])
    def test_log_records_that_fit_or_are_never_written_accepted(self, cfg):
        db = make_db(log_device_bytes=4 * MB, **cfg)
        db.put_blob(size=8 * MB)
        db.check_invariants()

    def test_get_charges_reads(self):
        db = make_db()
        blob_id = db.put_blob(size=1 * MB)
        before = db.data_device.stats.read_bytes
        db.get_blob(blob_id)
        assert db.data_device.stats.read_bytes - before >= 1 * MB


class TestTables:
    def test_create_and_fetch(self):
        db = make_db()
        table = db.create_table("meta")
        assert db.table("meta") is table
        with pytest.raises(ConfigError):
            db.create_table("meta")
        with pytest.raises(ConfigError):
            db.table("missing")


class TestInvariants:
    def test_churn_preserves_consistency(self):
        import random

        rng = random.Random(3)
        db = make_db(capacity=32 * MB)
        live = [db.put_blob(size=256 * KB) for _ in range(20)]
        for _ in range(100):
            victim = live.pop(rng.randrange(len(live)))
            live.append(db.replace_blob(victim, size=256 * KB))
        db.check_invariants()
        for blob_id in live:
            assert db.blobs.size_of(blob_id) == 256 * KB

    def test_a_size_its_pages_do_not_match_is_caught(self):
        db = make_db()
        blob_id = db.put_blob(size=64 * KB)
        db.blobs._blobs[blob_id].size -= PAGE_SIZE
        with pytest.raises(CorruptionError, match="holds 8 pages"):
            db.check_invariants()

    def test_occupancy(self):
        db = make_db()
        occ0 = db.occupancy()
        db.put_blob(size=8 * MB)
        assert db.occupancy() > occ0
