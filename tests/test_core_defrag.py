"""Tests for the defragmentation utilities."""

import pytest

from repro.core.defrag import Defragmenter, rebuild_database
from repro.core.fragmentation import fragment_report
from repro.core.workload import ConstantSize, WorkloadSpec, bulk_load, churn_to_age
from repro.errors import ConfigError
from repro.rng import substream
from repro.units import KB, MB


def age_store(store, *, size=256 * KB, occupancy=0.8, age=3.0, seed=21):
    spec = WorkloadSpec(sizes=ConstantSize(size),
                        target_occupancy=occupancy)
    state = bulk_load(store, spec, substream(seed, "w"))
    churn_to_age(store, state, age)
    return state


class TestFilesystemDefrag:
    def test_reduces_fragments(self, file_store):
        age_store(file_store)
        before = fragment_report(file_store)
        stats = Defragmenter(file_store).run()
        after = fragment_report(file_store)
        assert after.total_fragments <= before.total_fragments
        assert stats.fragments_before == before.total_fragments
        assert stats.fragments_after == after.total_fragments

    def test_moves_charge_io(self, file_store):
        age_store(file_store)
        if fragment_report(file_store).max < 2:
            pytest.skip("workload did not fragment")
        before = file_store.device.stats.total_bytes
        stats = Defragmenter(file_store).run()
        if stats.objects_moved:
            assert file_store.device.stats.total_bytes > before
            assert stats.bytes_moved > 0

    def test_budget_limits_work(self, file_store):
        age_store(file_store)
        report = fragment_report(file_store)
        if report.max < 2:
            pytest.skip("workload did not fragment")
        stats = Defragmenter(file_store).run(budget_bytes=256 * KB)
        assert stats.bytes_moved <= 256 * KB

    def test_clean_store_is_noop(self, file_store):
        file_store.put("a", size=1 * MB)
        stats = Defragmenter(file_store).run()
        assert stats.objects_moved == 0
        assert stats.improvement == 0.0

    def test_content_preserved(self, content_file_store):
        payload = bytes(range(256)) * (256 * KB // 256)
        content_file_store.put("a", data=payload)
        for _ in range(3):
            content_file_store.overwrite("a", data=payload)
        Defragmenter(content_file_store).run(min_fragments=1)
        assert content_file_store.get("a") == payload


class TestDatabaseDefrag:
    def test_defragmenter_refuses_blob_backend_for_rebuild(self, blob_store):
        # The database's one defragmentation procedure is the rebuild.
        with pytest.raises(ConfigError, match="rebuild_database"):
            Defragmenter(blob_store)

    def test_rebuild_restores_near_contiguity(self, blob_store):
        age_store(blob_store, occupancy=0.6, age=3.0)
        before = fragment_report(blob_store)
        assert before.mean > 1.2  # aged DB must be fragmented
        stats = rebuild_database(blob_store)
        after = fragment_report(blob_store)
        assert after.mean < before.mean
        assert stats.objects_moved == after.objects
        assert stats.improvement > 0

    def test_rebuild_preserves_content(self, content_blob_store):
        payloads = {}
        for i in range(6):
            payloads[f"k{i}"] = bytes([i + 1]) * (128 * KB)
            content_blob_store.put(f"k{i}", data=payloads[f"k{i}"])
        for i in range(6):
            payloads[f"k{i}"] = bytes([i + 100]) * (128 * KB)
            content_blob_store.overwrite(f"k{i}", data=payloads[f"k{i}"])
        rebuild_database(content_blob_store)
        for key, payload in payloads.items():
            assert content_blob_store.get(key) == payload


class TestUnsupportedBackend:
    def test_gfs_has_no_strategy(self):
        from repro.backends.gfs_backend import GfsChunkBackend
        from repro.disk.device import BlockDevice
        from repro.disk.geometry import scaled_disk

        store = GfsChunkBackend(BlockDevice(scaled_disk(64 * MB)),
                                chunk_size=8 * MB)
        store.put("a", size=1 * MB)
        store.overwrite("a", size=1 * MB)
        # GFS objects are always contiguous, so a pass finds nothing to
        # move and never needs the (missing) move strategy.
        stats = Defragmenter(store).run()
        assert stats.objects_moved == 0
        # Asking it to move contiguous objects anyway hits the guard.
        with pytest.raises(ConfigError):
            Defragmenter(store).run(min_fragments=1)
