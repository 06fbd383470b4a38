"""Tests for the NTFS-style run cache allocator."""

import random
from itertools import islice

import pytest

from repro.alloc.extent import Extent
from repro.alloc.freelist import FreeExtentIndex, make_free_index
from repro.alloc.runcache import NtfsRunCache
from repro.errors import AllocationError, ConfigError
from repro.units import KB, MB


def make_cache(capacity=100 * MB, band=0.125, cache_size=64):
    index = FreeExtentIndex(capacity)
    return NtfsRunCache(index, outer_band_fraction=band,
                        cache_size=cache_size), index


class TestChoose:
    def test_outer_band_preferred(self):
        cache, index = make_cache()
        # Carve the volume so a band hole and a bigger non-band run exist.
        index.remove(Extent(0, 100 * MB))
        index.add(Extent(1 * MB, 2 * MB))       # in band (limit 12.5 MB)
        index.add(Extent(50 * MB, 40 * MB))     # larger, out of band
        assert cache.choose(1 * MB) == Extent(1 * MB, 2 * MB)

    def test_band_rule_picks_lowest_offset(self):
        cache, index = make_cache()
        index.remove(Extent(0, 100 * MB))
        index.add(Extent(4 * MB, 2 * MB))
        index.add(Extent(1 * MB, 2 * MB))
        assert cache.choose(1 * MB).start == 1 * MB

    def test_band_hole_too_small_falls_to_largest(self):
        cache, index = make_cache()
        index.remove(Extent(0, 100 * MB))
        index.add(Extent(1 * MB, 1 * MB))       # band, too small
        index.add(Extent(40 * MB, 20 * MB))
        index.add(Extent(70 * MB, 10 * MB))
        assert cache.choose(5 * MB) == Extent(40 * MB, 20 * MB)

    def test_largest_rule_breaks_ties_to_lower_offset(self):
        cache, index = make_cache()
        index.remove(Extent(0, 100 * MB))
        index.add(Extent(60 * MB, 10 * MB))
        index.add(Extent(30 * MB, 10 * MB))
        assert cache.choose(5 * MB).start == 30 * MB

    def test_none_when_nothing_fits(self):
        cache, index = make_cache()
        index.remove(Extent(0, 100 * MB))
        index.add(Extent(20 * MB, 1 * MB))
        assert cache.choose(2 * MB) is None

    def test_cache_size_limits_visibility(self):
        cache, index = make_cache(cache_size=2)
        index.remove(Extent(0, 100 * MB))
        # Three runs; only the two largest are cached.  The small exact
        # fit is invisible, so the larger run gets split instead.
        index.add(Extent(90 * MB, 64 * KB))
        index.add(Extent(40 * MB, 10 * MB))
        index.add(Extent(60 * MB, 20 * MB))
        chosen = cache.choose(64 * KB)
        assert chosen.start in (40 * MB, 60 * MB)


def oracle_choose(cache, size):
    """The generator-based ``choose`` that ``largest_runs`` replaced,
    kept verbatim as the placement oracle: one pass over the first
    ``cache_size`` runs of ``runs_by_size_desc``."""
    band_limit = cache.outer_band_limit
    best_band = None
    best_large = None
    for run in islice(cache.index.runs_by_size_desc(), cache.cache_size):
        if run.length < size:
            break
        if run.start < band_limit and \
                (best_band is None or run.start < best_band.start):
            best_band = run
        if best_band is None and (
                best_large is None or
                (run.length, -run.start) >
                (best_large.length, -best_large.start)):
            best_large = run
    return best_band if best_band is not None else best_large


class TestChooseMatchesOracle:
    def test_band_hit(self):
        cache, index = make_cache()
        index.remove(Extent(0, 100 * MB))
        index.add(Extent(6 * MB, 1 * MB))       # band, not the lowest
        index.add(Extent(2 * MB, 1 * MB))       # band, lowest
        index.add(Extent(50 * MB, 40 * MB))     # larger, out of band
        for size in (64 * KB, 1 * MB, 2 * MB, 41 * MB):
            assert cache.choose(size) == oracle_choose(cache, size)
        assert cache.choose(1 * MB) == Extent(2 * MB, 1 * MB)

    def test_equal_lengths_at_the_cache_cut_off(self):
        """100 equal runs outside the band, 64 visible: the visible ones
        are the *highest* starts, and the pick is the lowest of those."""
        cache, index = make_cache()
        index.remove(Extent(0, 100 * MB))
        for i in range(100):
            index.add(Extent(20 * MB + i * 128 * KB, 64 * KB))
        chosen = cache.choose(64 * KB)
        assert chosen == oracle_choose(cache, 64 * KB)
        assert chosen == Extent(20 * MB + 36 * 128 * KB, 64 * KB)
        # One longer run ahead of them pushes one more out of view.
        index.add(Extent(90 * MB, 96 * KB))
        assert cache.choose(64 * KB) == oracle_choose(cache, 64 * KB) \
            == Extent(90 * MB, 96 * KB)

    def test_no_fit(self):
        cache, index = make_cache()
        index.remove(Extent(0, 100 * MB))
        assert cache.choose(4 * KB) is None is oracle_choose(cache, 4 * KB)
        index.add(Extent(1 * MB, 64 * KB))
        index.add(Extent(40 * MB, 128 * KB))
        assert cache.choose(256 * KB) is None is \
            oracle_choose(cache, 256 * KB)

    @pytest.mark.parametrize("kind", ["tiered", "naive"])
    @pytest.mark.parametrize("cache_size", [1, 3, 64])
    def test_random_aging(self, kind, cache_size):
        rng = random.Random(cache_size)
        index = make_free_index(16 * MB, kind=kind)
        cache = NtfsRunCache(index, cache_size=cache_size)
        live = []
        for _ in range(5000):
            if index.total_free < 1 * MB:
                index.add(live.pop(rng.randrange(len(live))))
                continue
            size = rng.choice((4, 8, 8, 16, 64)) * KB
            assert cache.choose(size) == oracle_choose(cache, size)
            live.extend(cache.allocate(size))
        assert len(index) > cache_size


class TestAllocate:
    def test_contiguous_when_run_fits(self):
        cache, index = make_cache()
        pieces = cache.allocate(1 * MB)
        assert len(pieces) == 1
        assert pieces[0].length == 1 * MB
        assert index.total_free == 99 * MB

    def test_fragments_largest_first(self):
        cache, index = make_cache()
        index.remove(Extent(0, 100 * MB))
        index.add(Extent(10 * MB, 3 * MB))
        index.add(Extent(50 * MB, 2 * MB))
        index.add(Extent(80 * MB, 1 * MB))
        pieces = cache.allocate(5 * MB)
        assert sum(p.length for p in pieces) == 5 * MB
        assert pieces[0] == Extent(10 * MB, 3 * MB)   # largest first
        assert pieces[1] == Extent(50 * MB, 2 * MB)

    def test_raises_when_volume_full(self):
        cache, index = make_cache()
        index.remove(Extent(0, 100 * MB))
        index.add(Extent(0, 1 * MB))
        with pytest.raises(AllocationError):
            cache.allocate(2 * MB)

    def test_size_validation(self):
        cache, _ = make_cache()
        with pytest.raises(ConfigError):
            cache.allocate(0)


class TestTryExtend:
    def test_extends_into_free_neighbour(self):
        cache, index = make_cache()
        [first] = cache.allocate(1 * MB)
        ext = cache.try_extend(first.end, 64 * KB)
        assert ext == Extent(first.end, 64 * KB)

    def test_no_extension_when_space_taken(self):
        cache, index = make_cache()
        [first] = cache.allocate(1 * MB)
        index.remove(Extent(first.end, 4 * KB))  # someone else took it
        assert cache.try_extend(first.end, 64 * KB) is None

    def test_partial_extension_in_band(self):
        cache, index = make_cache()
        index.remove(Extent(0, 100 * MB))
        index.add(Extent(1 * MB, 32 * KB))  # small band run
        ext = cache.try_extend(1 * MB, 64 * KB)
        assert ext == Extent(1 * MB, 32 * KB)  # takes what's there

    def test_out_of_band_requires_full_fit(self):
        cache, index = make_cache()
        index.remove(Extent(0, 100 * MB))
        index.add(Extent(50 * MB, 32 * KB))
        assert cache.try_extend(50 * MB, 64 * KB) is None

    def test_stickiness_hysteresis(self):
        cache, index = make_cache()
        index.remove(Extent(0, 100 * MB))
        index.add(Extent(50 * MB, 2 * MB))    # the run being eaten
        index.add(Extent(70 * MB, 10 * MB))   # a much larger competitor
        # 2 MB < 0.5 * 10 MB: the growing file abandons its run.
        assert cache.try_extend(50 * MB, 64 * KB, stickiness=0.5) is None
        # With stickiness 0 it always extends.
        ext = cache.try_extend(50 * MB, 64 * KB, stickiness=0.0)
        assert ext == Extent(50 * MB, 64 * KB)

    def test_band_runs_always_sticky(self):
        cache, index = make_cache()
        index.remove(Extent(0, 100 * MB))
        index.add(Extent(1 * MB, 2 * MB))     # in band
        index.add(Extent(70 * MB, 20 * MB))   # huge competitor
        ext = cache.try_extend(1 * MB, 64 * KB, stickiness=0.9)
        assert ext == Extent(1 * MB, 64 * KB)

    def test_stickiness_validation(self):
        cache, _ = make_cache()
        with pytest.raises(ConfigError):
            cache.try_extend(0, 64 * KB, stickiness=1.5)
