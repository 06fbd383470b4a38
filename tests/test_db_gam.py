"""Tests for the GAM/PFS-style page and extent allocator."""

import pytest

from dboracle import alloc_pages

from repro.db.gam import GamAllocator
from repro.errors import AllocationError, ConfigError, CorruptionError
from repro.units import PAGES_PER_EXTENT


@pytest.fixture
def gam():
    return GamAllocator(16)  # 16 extents = 128 pages


class TestUniformExtents:
    def test_lowest_first(self, gam):
        assert gam.alloc_extent_runs(1) == [(0, 1)]
        assert gam.alloc_extent_runs(1) == [(1, 1)]

    def test_freed_extent_reused_lowest_first(self, gam):
        for _ in range(4):
            gam.alloc_extent_runs(1)
        gam.free_run(8, 8)   # free extent 1 entirely
        assert gam.alloc_extent_runs(1) == [(1, 1)]

    def test_exhaustion_returns_none(self, gam):
        for _ in range(16):
            assert gam.alloc_extent_runs(1) is not None
        assert gam.alloc_extent_runs(1) is None


class TestPageAllocation:
    def test_lowest_page_first(self, gam):
        assert gam.alloc_page() == 0
        assert gam.alloc_page() == 1

    def test_prefers_partial_extent_below_free(self, gam):
        gam.alloc_page()  # extent 0 now partial
        gam.alloc_extent_runs(1)  # extent 1 full
        assert gam.alloc_page() == 1 * 0 + 1  # next page in extent 0

    def test_address_order_across_frees(self, gam):
        pages = [gam.alloc_page() for _ in range(20)]
        gam.free_page(pages[3])
        gam.free_page(pages[11])
        assert gam.alloc_page() == pages[3]
        assert gam.alloc_page() == pages[11]

    def test_full_raises(self, gam):
        for _ in range(16 * PAGES_PER_EXTENT):
            gam.alloc_page()
        with pytest.raises(AllocationError):
            gam.alloc_page()


class TestAllocPages:
    def test_prefers_whole_extents(self, gam):
        pages = alloc_pages(gam, 20)
        assert pages[:8] == list(range(0, 8))
        assert pages[8:16] == list(range(8, 16))
        assert len(pages) == 20

    def test_remainder_uses_single_pages(self, gam):
        pages = alloc_pages(gam, 10)
        # 8 from a uniform extent, 2 singles from the next extent.
        assert len(pages) == 10
        assert len(set(pages)) == 10

    def test_falls_back_to_partials_when_no_free_extent(self, gam):
        alloc_pages(gam, 16 * PAGES_PER_EXTENT)  # fill the file
        # Free scattered single pages across several extents.
        for page in (5, 21, 77, 99):
            gam.free_page(page)
        got = alloc_pages(gam, 4)
        assert sorted(got) == [5, 21, 77, 99]

    def test_insufficient_space(self, gam):
        alloc_pages(gam, 120)
        with pytest.raises(AllocationError):
            alloc_pages(gam, 16)

    def test_count_validation(self, gam):
        with pytest.raises(ConfigError):
            alloc_pages(gam, 0)

    def test_runs_merge_in_logical_order(self, gam):
        gam.alloc_extent_runs(1)              # extent 0 taken
        gam.alloc_page()                      # page 8: extent 1 partial
        # Two whole extents (2, 3), then singles from the lowest hole:
        # pages 9 and 10 do not touch the extents logically before them.
        assert gam.alloc_runs(18) == [(16, 16), (9, 2)]
        # A remainder that continues the extents merges into their run.
        gam.free_run(9, 2)
        gam.alloc_runs(6)                     # 9..14
        gam.alloc_page()                      # 15: extent 1 full
        assert gam.alloc_runs(10) == [(32, 10)]


class TestFree:
    def test_double_free_rejected(self, gam):
        page = gam.alloc_page()
        gam.free_page(page)
        with pytest.raises(CorruptionError):
            gam.free_page(page)

    def test_free_unallocated_rejected(self, gam):
        with pytest.raises(CorruptionError):
            gam.free_page(42)

    def test_out_of_range_rejected(self, gam):
        with pytest.raises(CorruptionError):
            gam.free_page(128)
        with pytest.raises(CorruptionError):
            gam.free_run(120, 9)
        with pytest.raises(CorruptionError):
            gam.free_run(-1, 2)
        with pytest.raises(CorruptionError):
            gam.free_run(5, 0)

    def test_free_run_straddles_extents(self, gam):
        alloc_pages(gam, 32)
        gam.free_run(5, 20)     # tail of 0, all of 1 and 2, head of 3
        assert gam.free_page_count == 128 - 12
        assert gam.free_extent_count == 12 + 2
        assert gam.partial_extent_count == 2
        assert [gam.is_page_used(p) for p in (4, 5, 24, 25)] \
            == [True, False, False, True]
        gam.check_invariants()
        assert gam.alloc_extent_runs(1) == [(1, 1)]
        assert gam.alloc_page() == 5

    def test_double_free_inside_a_run_rejected(self, gam):
        alloc_pages(gam, 24)
        gam.free_page(13)
        with pytest.raises(CorruptionError, match="page 13"):
            gam.free_run(6, 12)
        assert gam.free_page_count == 128 - 23  # nothing else was freed

    def test_whole_extents_inside_a_run_freed_together(self):
        gam = GamAllocator(20)
        alloc_pages(gam, 160)
        gam.free_page(2)
        gam.free_run(5, 130)    # head 5-7, extents 1-15 whole, tail 128-134
        assert gam.free_page_count == 1 + 3 + 15 * PAGES_PER_EXTENT + 7
        assert gam.free_extent_count == 15
        assert gam._partial_extents == [0, 16]
        assert gam._lowest_free == 1
        gam.check_invariants()
        assert gam.alloc_extent_runs(1) == [(1, 1)]
        assert gam.alloc_page() == 2

    def test_double_free_inside_whole_extents_rejected(self):
        gam = GamAllocator(20)
        alloc_pages(gam, 160)
        gam.free_page(67)       # middle of extent 8
        before = bytes(gam._used_mask)
        with pytest.raises(CorruptionError, match="double free of page 67$"):
            gam.free_run(16, 16 * PAGES_PER_EXTENT)   # extents 2-17
        with pytest.raises(CorruptionError, match="double free of page 67$"):
            gam.free_run(3, 16 * PAGES_PER_EXTENT)    # partial head and tail
        assert bytes(gam._used_mask) == before
        assert gam.free_page_count == 1
        gam.check_invariants()

    def test_counts(self, gam):
        assert gam.free_page_count == 128
        alloc_pages(gam, 10)
        assert gam.free_page_count == 118
        assert gam.used_page_count == 10


class TestInvariants:
    def test_random_churn_consistent(self, gam):
        import random

        rng = random.Random(5)
        live: list[int] = []
        for _ in range(400):
            if live and rng.random() < 0.5:
                idx = rng.randrange(len(live))
                gam.free_page(live.pop(idx))
            else:
                try:
                    live.extend(alloc_pages(gam, rng.randint(1, 12)))
                except AllocationError:
                    pass
            gam.check_invariants()
        assert gam.used_page_count == len(live)

    @pytest.mark.parametrize("field, wrong", [
        ("_lowest_free", 3), ("_free_extents", 13), ("_free_pages", 99),
        ("_partial_extents", []), ("_used_mask", bytearray(15)),
    ])
    def test_every_derived_field_is_recomputed(self, gam, field, wrong):
        alloc_pages(gam, 20)                  # extents 0-1 full, 2 partial
        gam.free_run(0, 8)
        gam.check_invariants()
        setattr(gam, field, wrong)
        with pytest.raises(CorruptionError):
            gam.check_invariants()

    def test_extent_classification(self, gam):
        gam.alloc_page()
        assert gam.partial_extent_count == 1
        assert gam.free_extent_count == 15
        alloc_pages(gam, 7)  # fills extent 0
        assert gam.partial_extent_count == 0
        assert gam.is_page_used(0)
        assert not gam.is_page_used(8)


class TestPickle:
    def test_pickled_layout_is_the_three_lists(self, gam):
        """Checkpoint bytes are charged to the modelled clock, and every
        filesystem shard pickles a metadata GAM: what the bitmap pickles
        to is pinned to the sorted-list layout (benchmarks/e2e holds the
        exact bytes through ckpt_delta_resume's golden record)."""
        alloc_pages(gam, 20)
        gam.free_run(0, 8)
        assert gam.__getstate__() == {
            "num_extents": 16,
            "num_pages": 128,
            "_used_mask": [0, 255, 15] + [0] * 13,
            "_free_extents": [0] + list(range(3, 16)),
            "_partial_extents": [2],
        }
        assert list(gam.__getstate__()) == [
            "num_extents", "num_pages", "_used_mask", "_free_extents",
            "_partial_extents"]

    def test_round_trip_rebuilds_cursor_and_counters(self, gam):
        import pickle

        alloc_pages(gam, 20)
        gam.free_run(0, 8)
        loaded = pickle.loads(pickle.dumps(gam))
        loaded.check_invariants()
        assert vars(loaded) == vars(gam)
        assert loaded.alloc_runs(9) == gam.alloc_runs(9) == [(0, 8), (20, 1)]
