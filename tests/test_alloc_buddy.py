"""Tests for the DTSS-style buddy allocator."""

import pytest

from repro.alloc.buddy import BuddyAllocator
from repro.errors import AllocationError, ConfigError, CorruptionError
from repro.units import KB, MB


@pytest.fixture
def buddy():
    return BuddyAllocator(1 * MB, min_block=4 * KB)


class TestConstruction:
    def test_requires_power_of_two_block_count(self):
        with pytest.raises(ConfigError):
            BuddyAllocator(3 * 4096, min_block=4096)

    def test_requires_power_of_two_min_block(self):
        with pytest.raises(ConfigError):
            BuddyAllocator(1 * MB, min_block=3000)

    def test_initially_all_free(self, buddy):
        assert buddy.total_free == 1 * MB


class TestAllocation:
    def test_rounds_to_power_of_two(self, buddy):
        ext = buddy.alloc(5 * KB)
        assert ext.length == 8 * KB

    def test_min_block_floor(self, buddy):
        assert buddy.alloc(1).length == 4 * KB

    def test_alignment(self, buddy):
        for _ in range(10):
            ext = buddy.alloc(8 * KB)
            assert ext.start % ext.length == 0

    def test_internal_waste(self, buddy):
        assert buddy.internal_waste(5 * KB) == 3 * KB
        assert buddy.internal_waste(8 * KB) == 0

    def test_exhaustion(self, buddy):
        for _ in range(256):
            buddy.alloc(4 * KB)
        with pytest.raises(AllocationError):
            buddy.alloc(4 * KB)

    def test_dtss_hard_limit(self):
        buddy = BuddyAllocator(1 * MB, min_block=4 * KB,
                               max_block=64 * KB)
        with pytest.raises(AllocationError):
            buddy.alloc(65 * KB)
        assert buddy.alloc(64 * KB).length == 64 * KB


class TestFree:
    def test_free_returns_space(self, buddy):
        ext = buddy.alloc(16 * KB)
        buddy.free(ext)
        assert buddy.total_free == 1 * MB

    def test_buddies_merge(self, buddy):
        a = buddy.alloc(4 * KB)
        b = buddy.alloc(4 * KB)
        buddy.free(a)
        buddy.free(b)
        # After both halves return, a full-size alloc must succeed.
        big = buddy.alloc(1 * MB)
        assert big.length == 1 * MB

    def test_double_free_rejected(self, buddy):
        ext = buddy.alloc(4 * KB)
        buddy.free(ext)
        with pytest.raises(CorruptionError):
            buddy.free(ext)

    def test_wrong_length_rejected(self, buddy):
        ext = buddy.alloc(8 * KB)
        from repro.alloc.extent import Extent

        with pytest.raises(CorruptionError):
            buddy.free(Extent(ext.start, 4 * KB))

    def test_foreign_extent_rejected(self, buddy):
        from repro.alloc.extent import Extent

        with pytest.raises(CorruptionError):
            buddy.free(Extent(12345 * 4096 % (1 * MB), 4 * KB))


class TestInvariants:
    def test_random_workload_conserves_space(self, buddy):
        import random

        rng = random.Random(7)
        live = []
        for _ in range(500):
            if live and rng.random() < 0.5:
                buddy.free(live.pop(rng.randrange(len(live))))
            else:
                try:
                    live.append(buddy.alloc(rng.choice(
                        [4 * KB, 8 * KB, 12 * KB, 64 * KB]
                    )))
                except AllocationError:
                    pass
            buddy.check_invariants()
        allocated = sum(e.length for e in live)
        assert allocated + buddy.total_free == 1 * MB

    def test_no_external_fragmentation_for_block_sizes(self, buddy):
        """The buddy discipline: after any alloc/free history, freeing
        everything always restores a maximal block — the predictability
        DTSS traded capacity for."""
        import random

        rng = random.Random(3)
        live = [buddy.alloc(rng.choice([4 * KB, 32 * KB]))
                for _ in range(8)]
        for ext in live:
            buddy.free(ext)
        assert buddy.alloc(1 * MB).length == 1 * MB
