"""Tests for the coalescing free-extent index."""

import random

import pytest

from repro.alloc.extent import Extent
from repro.alloc.freelist import FreeExtentIndex
from repro.alloc.runcache import NtfsRunCache
from repro.errors import CorruptionError
from repro.struct.blockedlist import MaxWeightAugmentation

from freeindexoracle import NaiveFreeExtentIndex

#: The production engine and the flat-list oracle, by test id.
ENGINES = {"tiered": FreeExtentIndex, "naive": NaiveFreeExtentIndex}


@pytest.fixture
def index():
    return FreeExtentIndex(1000)


class TestInit:
    def test_initially_free(self, index):
        assert index.total_free == 1000
        assert len(index) == 1
        assert list(index) == [Extent(0, 1000)]

    def test_initially_empty(self):
        idx = FreeExtentIndex(1000, initially_free=False)
        assert idx.total_free == 0
        assert len(idx) == 0


class TestRemoveAdd:
    def test_remove_front(self, index):
        index.remove(Extent(0, 100))
        assert list(index) == [Extent(100, 900)]

    def test_remove_middle_splits(self, index):
        index.remove(Extent(400, 100))
        assert list(index) == [Extent(0, 400), Extent(500, 500)]
        assert index.total_free == 900

    def test_remove_not_free_rejected(self, index):
        index.remove(Extent(0, 500))
        with pytest.raises(CorruptionError):
            index.remove(Extent(100, 10))

    def test_remove_straddling_rejected(self, index):
        index.remove(Extent(100, 100))
        with pytest.raises(CorruptionError):
            index.remove(Extent(150, 100))

    def test_add_coalesces_left(self, index):
        index.remove(Extent(100, 200))
        index.add(Extent(100, 100))  # touches [0,100) free run
        assert list(index) == [Extent(0, 200), Extent(300, 700)]

    def test_add_coalesces_right(self, index):
        index.remove(Extent(100, 200))
        index.add(Extent(200, 100))
        assert list(index) == [Extent(0, 100), Extent(200, 800)]

    def test_add_coalesces_both_sides(self, index):
        index.remove(Extent(100, 200))
        index.add(Extent(100, 200))
        assert list(index) == [Extent(0, 1000)]

    def test_double_free_rejected(self, index):
        with pytest.raises(CorruptionError):
            index.add(Extent(0, 10))

    def test_partial_overlap_free_rejected(self, index):
        index.remove(Extent(0, 100))
        with pytest.raises(CorruptionError):
            index.add(Extent(50, 100))

    def test_add_past_capacity_rejected(self):
        idx = FreeExtentIndex(100, initially_free=False)
        with pytest.raises(CorruptionError):
            idx.add(Extent(50, 100))


class TestQueries:
    def test_run_at(self, index):
        index.remove(Extent(100, 100))
        assert index.run_at(50) == Extent(0, 100)
        assert index.run_at(150) is None
        assert index.run_at(250) == Extent(200, 800)

    def test_run_length_at(self, index):
        index.remove(Extent(0, 100))
        assert index.run_length_at(100) == 900
        assert index.run_length_at(50) == 0

    def test_first_fit(self, index):
        index.remove(Extent(0, 100))    # free: [100, 1000)
        index.remove(Extent(200, 700))  # free: [100,200) and [900,1000)
        assert index.first_fit(50) == Extent(100, 100)
        assert index.first_fit(150) is None
        assert index.first_fit(100, min_start=150) == Extent(900, 100)

    def test_first_fit_min_start_inside_run(self, index):
        # A run straddling min_start counts if its usable tail fits.
        assert index.first_fit(100, min_start=900) == Extent(0, 1000)
        assert index.first_fit(100, min_start=901) is None

    def test_best_fit_prefers_smallest(self, index):
        index.remove(Extent(100, 100))  # [0,100), [200,1000)
        index.remove(Extent(250, 700))  # [0,100), [200,250), [950,1000)
        assert index.best_fit(40) == Extent(200, 50)
        assert index.best_fit(60) == Extent(0, 100)
        assert index.best_fit(200) is None

    def test_best_fit_tie_lowest_address(self, index):
        index.remove(Extent(100, 100))
        index.remove(Extent(300, 100))
        index.remove(Extent(500, 500))
        # Two 100-byte runs at 200 and 400? free: [0,100),[200,300),[400,500)
        assert index.best_fit(100) == Extent(0, 100)

    @pytest.mark.parametrize("size", [-300, -5, -2, -1, 0, 1])
    def test_best_fit_of_a_non_positive_size_is_the_smallest_run(self, size):
        """Every run fits a size of 0 or less, so the answer is the
        smallest run, as on the flat-list oracle.  A negative size's
        ``bit_length()`` is its magnitude's: the bucket search must not
        start from it."""
        tiered, naive = FreeExtentIndex(1000), NaiveFreeExtentIndex(1000)
        for index in (tiered, naive):
            index.remove(Extent(1, 99))       # [0,1) [100,1000)
            index.remove(Extent(102, 400))    # ... [100,102) [502,1000)
            index.remove(Extent(505, 100))    # ... [502,505) [605,1000)
        assert naive.best_fit(size) == Extent(0, 1)
        assert tiered.best_fit(size) == naive.best_fit(size)

    def test_worst_fit_takes_largest(self, index):
        index.remove(Extent(0, 600))
        assert index.worst_fit(100) == Extent(600, 400)
        assert index.worst_fit(500) is None

    def test_next_fit_wraps(self, index):
        index.remove(Extent(100, 800))  # [0,100) and [900,1000)
        assert index.next_fit(50, cursor=500) == Extent(900, 100)
        assert index.next_fit(50, cursor=950) == Extent(900, 100)

    def test_largest(self, index):
        index.remove(Extent(0, 300))
        index.remove(Extent(400, 100))
        assert index.largest() == Extent(500, 500)

    def test_runs_by_size_desc(self, index):
        index.remove(Extent(100, 100))  # [0,100), [200,1000)
        sizes = [r.length for r in index.runs_by_size_desc()]
        assert sizes == [800, 100]

    @pytest.mark.parametrize("kind", ENGINES)
    def test_largest_runs(self, kind):
        index = ENGINES[kind](1000, initially_free=False)
        for start, length in ((0, 100), (200, 100), (400, 50), (500, 100),
                              (700, 300)):
            index.add(Extent(start, length))
        everything = [(300, 700), (100, 500), (100, 200), (100, 0),
                      (50, 400)]
        assert index.largest_runs(10) == everything
        assert index.largest_runs(2) == everything[:2]
        assert index.largest_runs(10, 101) == everything[:1]
        assert index.largest_runs(10, 100) == everything[:4]
        assert index.largest_runs(3, 100) == everything[:3]
        assert index.largest_runs(10, 301) == []
        assert index.largest_runs(0) == []
        assert ENGINES[kind](8, initially_free=False).largest_runs(4) == []


class TestInvariants:
    def test_check_invariants_clean(self, index):
        index.remove(Extent(100, 100))
        index.add(Extent(150, 10))
        index.check_invariants()

    def test_many_operations_stay_consistent(self, index):
        import random

        rng = random.Random(42)
        allocated: list[Extent] = []
        for _ in range(300):
            if allocated and rng.random() < 0.45:
                ext = allocated.pop(rng.randrange(len(allocated)))
                index.add(ext)
            else:
                size = rng.randint(1, 40)
                run = index.first_fit(size)
                if run is None:
                    continue
                taken, _ = run.take_front(size)
                index.remove(taken)
                allocated.append(taken)
            index.check_invariants()
        total = index.total_free + sum(e.length for e in allocated)
        assert total == 1000


class _CountingDict(dict):
    """Dict that counts every bulk traversal of its contents.

    Op-count instrumentation for the O(1) accounting regression: the
    naive engine recomputed ``total_free`` with ``sum(values())`` on
    every property access, so any traversal during reads is a
    regression.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.traversals = 0

    def values(self):
        self.traversals += 1
        return super().values()

    def items(self):
        self.traversals += 1
        return super().items()

    def keys(self):
        self.traversals += 1
        return super().keys()

    def __iter__(self):
        self.traversals += 1
        return super().__iter__()


class TestIncrementalAccounting:
    def test_total_free_is_o1(self):
        """Reading total_free must not traverse the per-run state."""
        index = FreeExtentIndex(1 << 16)
        for i in range(100):
            index.remove(Extent(i * 512, 256))
        counting = _CountingDict(index._len_by_start)
        index._len_by_start = counting
        expected = (1 << 16) - 100 * 256
        for _ in range(50):
            assert index.total_free == expected
        assert counting.traversals == 0

    def test_total_free_tracks_mutation(self):
        index = FreeExtentIndex(4096)
        index.remove(Extent(0, 1024))
        assert index.total_free == 3072
        index.add(Extent(0, 1024))
        assert index.total_free == 4096
        assert index.total_free == sum(e.length for e in index)


class TestLazySummaries:
    def test_first_fit_refreshes_a_stale_block(self):
        """Carving the block's largest run leaves its max-run summary
        stale; the next first_fit answers as the flat-list oracle does and
        caches the rescan."""
        tiered = FreeExtentIndex(4096, initially_free=False)
        naive = NaiveFreeExtentIndex(4096, initially_free=False)
        for start, length in ((0, 64), (256, 512), (1024, 128), (2048, 96)):
            for index in (tiered, naive):
                index.add(Extent(start, length))
        for index in (tiered, naive):
            index.remove(Extent(256, 448))        # 512 -> 64: max shrinks
        assert tiered._addr.sums == [None]
        for size in (65, 128, 129, 97):
            assert tiered.first_fit(size) == naive.first_fit(size)
        assert tiered.first_fit(100) == Extent(1024, 128)
        assert tiered._addr.sums == [(128, 1)]
        tiered.check_invariants()

    def test_run_cache_allocations_never_summarize(self, monkeypatch):
        """Op-count regression: the run-cache allocator reads only the
        size tier, so aging through it never rescans an address block,
        and each ``choose`` mints the one Extent it returns."""
        rng = random.Random(13)
        index = FreeExtentIndex(1 << 26)
        cache = NtfsRunCache(index)
        live: list[Extent] = []

        def churn(steps):
            # Hover near full: free one object whenever < 4 MiB is left.
            for _ in range(steps):
                if index.total_free < 1 << 22:
                    index.add(live.pop(rng.randrange(len(live))))
                else:
                    live.extend(cache.allocate(rng.randrange(1, 64) << 10))

        churn(8000)
        assert len(index._addr.blocks) > 1        # aged past a split
        summarized: list[int] = []
        minted: list[int] = []
        summarize = MaxWeightAugmentation.summarize
        init = Extent.__init__
        monkeypatch.setattr(
            MaxWeightAugmentation, "summarize",
            lambda self, block: summarized.append(1) or summarize(self, block))
        monkeypatch.setattr(
            Extent, "__init__",
            lambda self, *args: minted.append(1) or init(self, *args))
        churn(2000)
        assert summarized == []
        for size in (4 << 10, 64 << 10, 1 << 20, 1 << 27):
            before = len(minted)
            run = cache.choose(size)
            assert len(minted) - before == (0 if run is None else 1)
        monkeypatch.undo()
        index.check_invariants()
