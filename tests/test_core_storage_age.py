"""Tests for the storage-age tracker (Section 4.4 of the paper)."""

import pytest

from repro.core.storage_age import StorageAgeTracker
from repro.units import MB


class TestDefinition:
    def test_fresh_volume_is_age_zero(self):
        tracker = StorageAgeTracker()
        for _ in range(10):
            tracker.on_put(10 * MB)
        assert tracker.storage_age == 0.0

    def test_safe_writes_per_object(self):
        # "In a safe-write system, storage age is ... safe writes per
        # object" — N objects each overwritten once -> age 1.
        tracker = StorageAgeTracker()
        for _ in range(10):
            tracker.on_put(10 * MB)
        for _ in range(10):
            tracker.on_overwrite(10 * MB, 10 * MB)
        assert tracker.storage_age == pytest.approx(1.0)

    def test_deletes_count_as_dead_bytes(self):
        tracker = StorageAgeTracker()
        tracker.on_put(10 * MB)
        tracker.on_put(10 * MB)
        tracker.on_delete(10 * MB)
        # 10 MB dead over 10 MB live.
        assert tracker.storage_age == pytest.approx(1.0)

    def test_size_changes_tracked(self):
        tracker = StorageAgeTracker()
        tracker.on_put(10 * MB)
        tracker.on_overwrite(10 * MB, 20 * MB)
        assert tracker.live_bytes == 20 * MB
        assert tracker.dead_bytes == 10 * MB

    def test_empty_volume_age_zero(self):
        assert StorageAgeTracker().storage_age == 0.0

    def test_volume_size_independence(self):
        # The same per-object churn produces the same age regardless of
        # object count — the property that makes ages comparable.
        small = StorageAgeTracker()
        for _ in range(5):
            small.on_put(1 * MB)
        for _ in range(10):
            small.on_overwrite(1 * MB, 1 * MB)
        large = StorageAgeTracker()
        for _ in range(500):
            large.on_put(1 * MB)
        for _ in range(1000):
            large.on_overwrite(1 * MB, 1 * MB)
        assert small.storage_age == pytest.approx(large.storage_age)


class TestCounters:
    def test_event_counts(self):
        tracker = StorageAgeTracker()
        tracker.on_put(1)
        tracker.on_overwrite(1, 1)
        tracker.on_delete(1)
        assert (tracker.puts, tracker.overwrites, tracker.deletes) == \
            (1, 1, 1)

    def test_history(self):
        tracker = StorageAgeTracker()
        tracker.on_put(1 * MB)
        tracker.record_history()
        tracker.on_overwrite(1 * MB, 1 * MB)
        tracker.record_history()
        ages = [age for _, age in tracker.history]
        assert ages == [0.0, 1.0]
