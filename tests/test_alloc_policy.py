"""Tests for the textbook allocation policies."""

import pytest

from repro.alloc.extent import Extent
from repro.alloc.freelist import FreeExtentIndex
from repro.alloc.policy import (
    BestFit,
    FirstFit,
    NextFit,
    WorstFit,
    allocate_contiguous,
    allocate_fragmented,
    make_policy,
    policy_names,
)
from repro.errors import AllocationError, ConfigError


def make_index_with_holes() -> FreeExtentIndex:
    """Free runs: [0,100) [200,250) [400,700)."""
    index = FreeExtentIndex(1000)
    index.remove(Extent(100, 100))
    index.remove(Extent(250, 150))
    index.remove(Extent(700, 300))
    return index


class TestPolicyChoices:
    def test_first_fit(self):
        index = make_index_with_holes()
        assert FirstFit().choose(index, 40) == Extent(0, 100)
        assert FirstFit().choose(index, 120) == Extent(400, 300)

    def test_best_fit(self):
        index = make_index_with_holes()
        assert BestFit().choose(index, 40) == Extent(200, 50)
        assert BestFit().choose(index, 60) == Extent(0, 100)

    def test_worst_fit(self):
        index = make_index_with_holes()
        assert WorstFit().choose(index, 40) == Extent(400, 300)
        assert WorstFit().choose(index, 400) is None

    def test_next_fit_roves(self):
        index = make_index_with_holes()
        policy = NextFit()
        first = policy.choose(index, 40)
        assert first == Extent(0, 100)
        index.remove(first.take_front(40)[0])
        second = policy.choose(index, 40)
        assert second.start >= 40  # cursor moved past the first carve

    def test_registry(self):
        assert set(policy_names()) == {
            "first_fit", "best_fit", "worst_fit", "next_fit"
        }
        for name in policy_names():
            assert make_policy(name).name == name

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            make_policy("magic_fit")


class TestAllocateContiguous:
    def test_carves_from_front(self):
        index = make_index_with_holes()
        ext = allocate_contiguous(index, 40, FirstFit())
        assert ext == Extent(0, 40)
        assert index.run_length_at(40) == 60

    def test_raises_when_no_run_fits(self):
        index = make_index_with_holes()
        with pytest.raises(AllocationError):
            allocate_contiguous(index, 301, FirstFit())

    def test_size_must_be_positive(self):
        with pytest.raises(ConfigError):
            allocate_contiguous(make_index_with_holes(), 0, FirstFit())


class TestAllocateFragmented:
    def test_single_piece_when_possible(self):
        index = make_index_with_holes()
        pieces = allocate_fragmented(index, 250, FirstFit())
        assert pieces == [Extent(400, 250)]

    def test_splits_when_needed(self):
        index = make_index_with_holes()
        pieces = allocate_fragmented(index, 420, BestFit())
        assert sum(p.length for p in pieces) == 420
        assert len(pieces) >= 2
        # No overlap among the pieces.
        for i, a in enumerate(pieces):
            for b in pieces[i + 1:]:
                assert not a.overlaps(b)

    def test_volume_full(self):
        index = make_index_with_holes()
        with pytest.raises(AllocationError):
            allocate_fragmented(index, 500, FirstFit())

    def test_conservation(self):
        index = make_index_with_holes()
        before = index.total_free
        pieces = allocate_fragmented(index, 300, WorstFit())
        assert index.total_free == before - 300
        for piece in pieces:
            index.add(piece)
        assert index.total_free == before


class TestSingleSizeOptimality:
    """Best/first/worst fit all behave optimally when every object has
    the same size (the paper's Section 5.4 intuition) — in a pure
    serial alloc/free cycle with no perturbation, no fragmentation."""

    @pytest.mark.parametrize("policy_name", policy_names())
    def test_constant_size_no_fragmentation(self, policy_name):
        index = FreeExtentIndex(1000)
        policy = make_policy(policy_name)
        live: list[Extent] = []
        for _ in range(10):
            live.append(allocate_contiguous(index, 100, policy))
        import random

        rng = random.Random(1)
        for _ in range(200):
            victim = live.pop(rng.randrange(len(live)))
            index.add(victim)
            replacement = allocate_contiguous(index, 100, policy)
            live.append(replacement)
            index.check_invariants()
        # Every allocation remained a single extent — and the free space
        # never became so diced that a request had to fail.
        assert len(live) == 10
