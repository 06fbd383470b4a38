"""The free index's boundary moves held to the retired path (``freelistoracle``).

Twin indexes run the same operation sequence: one through the shipped
``FreeExtentIndex`` (each tier searched once per boundary move, a run
that keeps its size bucket moved with one ``BlockedList.move``, the
max-weight arithmetic inline in the blocked list), the other through
``freelistoracle``.  After every operation they must agree on every
tier's raw state — blocks, minima, stale summaries included, the
length map in insertion order, the bucket hint and the free total —
and, every few operations and at the end, on their pickled bytes.
Small load factors make block splits and block deletions constant.

The blocked-list seams are held the same way: ``move`` to ``remove``
then ``insert``, ``replace`` to the hook-driven update, and
``neighbours`` to ``pred_le``/``succ_gt``.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freelistoracle
from repro.alloc.extent import Extent
from repro.alloc.freelist import FreeExtentIndex
from repro.errors import CorruptionError
from repro.struct.blockedlist import BlockedList, MaxWeightAugmentation


def twins(capacity: int, load: int) -> tuple[FreeExtentIndex, FreeExtentIndex]:
    pair = FreeExtentIndex(capacity), FreeExtentIndex(capacity)
    for index in pair:
        for blist in (index._addr, *index._buckets):
            blist.load = load
    return pair


def raw(index: FreeExtentIndex) -> tuple:
    """Everything a mutation writes, stale summaries included."""
    addr = index._addr
    return (list(index._len_by_start.items()), addr.blocks, addr.mins,
            addr.sums, len(addr),
            [(b.blocks, b.mins, len(b)) for b in index._buckets],
            index._btop, index._total_free)


def walk(seed: int, capacity: int, load: int, steps: int) -> None:
    rng = random.Random(seed)
    shipped, oracle = twins(capacity, load)
    allocated: list[Extent] = []
    for i in range(steps):
        runs = list(shipped)
        roll = rng.random()
        if roll < 0.35 and runs:
            # A carve off a run's front: whole runs, one byte, anything.
            run = rng.choice(runs)
            nbytes = rng.choice([run.length, 1, rng.randint(1, run.length)])
            got = shipped.carve_front(run.start, nbytes)
            assert got == freelistoracle.carve_front(oracle, run.start,
                                                     nbytes)
            allocated.append(got)
        elif roll < 0.55 and runs:
            # A front, tail, middle or whole-run allocation.
            run = rng.choice(runs)
            lo = rng.randint(run.start, run.end - 1)
            ext = Extent(lo, rng.randint(lo + 1, run.end) - lo)
            shipped.remove(ext)
            freelistoracle.remove(oracle, ext)
            allocated.append(ext)
        elif roll < 0.95 and allocated:
            # Free an allocated piece, or one side of it: merges left,
            # right, bridges and lone inserts.
            ext = allocated.pop(rng.randrange(len(allocated)))
            if ext.length > 1 and rng.random() < 0.3:
                left, right = ext.split_at(rng.randint(ext.start + 1,
                                                       ext.end - 1))
                kept, ext = (left, right) if rng.random() < 0.5 \
                    else (right, left)
                allocated.append(kept)
            shipped.add(ext)
            freelistoracle.add(oracle, ext)
        elif runs:
            # Refused calls leave both twins untouched.
            run = rng.choice(runs)
            with pytest.raises(CorruptionError):
                shipped.add(run)
            with pytest.raises(CorruptionError):
                freelistoracle.add(oracle, run)
            with pytest.raises(CorruptionError):
                shipped.carve_front(run.start, run.length + 1)
            with pytest.raises(CorruptionError):
                freelistoracle.carve_front(oracle, run.start, run.length + 1)
        assert raw(shipped) == raw(oracle), f"step {i}"
        if i % 16 == 0:
            assert pickle.dumps(shipped) == pickle.dumps(oracle), f"step {i}"
    shipped.check_invariants()
    assert pickle.dumps(shipped) == pickle.dumps(oracle)
    assert list(shipped) == list(oracle)


@pytest.mark.parametrize("capacity,load", [
    (4096, 2), (4096, 3), (1 << 20, 4), (1 << 16, 256),
])
@pytest.mark.parametrize("seed", range(4))
def test_random_walk_matches_the_retired_path(seed, capacity, load):
    walk(seed, capacity, load, steps=600)


def test_carving_the_only_run_of_a_bucket_rewrites_it_in_place():
    """The sole-key move: a run alone in its bucket shrinking inside it."""
    shipped, oracle = twins(1 << 20, 2)
    for start in (0, 1000, 2000):
        shipped.carve_front(start, 1000)
        freelistoracle.carve_front(oracle, start, 1000)
        assert raw(shipped) == raw(oracle)
    assert pickle.dumps(shipped) == pickle.dumps(oracle)


# ----------------------------------------------------------------------
# The blocked-list seams
# ----------------------------------------------------------------------
pairs = st.tuples(st.integers(1, 40), st.integers(0, 400))


@given(st.lists(pairs, min_size=1, max_size=60, unique=True),
       st.lists(st.tuples(st.integers(0, 10 ** 6), pairs), max_size=40),
       st.integers(2, 5))
@settings(max_examples=200, deadline=None)
def test_move_is_remove_then_insert(keys, moves, load):
    shipped, oracle = BlockedList(load=load), BlockedList(load=load)
    for key in keys:
        shipped.insert(key)
        freelistoracle.bl_insert(oracle, key)
    present = sorted(keys)
    for pick, new in moves:
        old = present[pick % len(present)]
        if new in present and new != old:
            continue
        shipped.move(old, new)
        assert freelistoracle.bl_remove(oracle, old)
        freelistoracle.bl_insert(oracle, new)
        present.remove(old)
        present.append(new)
        present.sort()
        assert (shipped.blocks, shipped.mins, len(shipped)) == \
            (oracle.blocks, oracle.mins, len(oracle))
        shipped.check("move")
    assert pickle.dumps(shipped) == pickle.dumps(oracle)


def test_move_of_an_absent_key_raises():
    blist = BlockedList(load=2)
    for key in (1, 2, 3):
        blist.insert(key)
    with pytest.raises(CorruptionError):
        blist.move(5, 6)
    assert list(blist) == [1, 2, 3]


@given(st.lists(st.tuples(st.integers(0, 300), st.integers(1, 9)),
                min_size=1, max_size=50, unique_by=lambda p: p[0]),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(-3, 3),
                          st.integers(1, 9)), max_size=60),
       st.integers(2, 5))
@settings(max_examples=200, deadline=None)
def test_augmented_mutations_match_the_hooks(entries, edits, load):
    """insert/remove/replace keep summaries exactly as the retired
    ``MaxWeightAugmentation.add``/``discard`` did, stale entries and
    all; a zero shift is a reweight (``replace(key, key)``)."""
    lists = []
    for _ in range(2):
        weights: dict[int, int] = {}
        lists.append((BlockedList(load=load, augment=MaxWeightAugmentation(
            weights.__getitem__)), weights))
    (shipped, w_shipped), (oracle, w_oracle) = lists
    for key, weight in entries:
        w_shipped[key] = w_oracle[key] = weight
        shipped.insert(key, weight=weight)
        freelistoracle.bl_insert(oracle, key, weight=weight)
    for pick, shift, weight in edits:
        keys = list(shipped)
        if not keys:
            break
        i = pick % len(keys)
        old = keys[i]
        new = old + shift
        lo = keys[i - 1] if i else -1
        hi = keys[i + 1] if i + 1 < len(keys) else 10 ** 9
        old_weight = w_shipped.pop(old)
        w_oracle.pop(old)
        if shift == -3:
            shipped.remove(old, weight=old_weight)
            freelistoracle.bl_remove(oracle, old, weight=old_weight)
        elif lo < new < hi:
            w_shipped[new] = w_oracle[new] = weight
            shipped.replace(old, new, old_weight=old_weight,
                            new_weight=weight)
            freelistoracle.bl_replace(oracle, old, new, old_weight=old_weight,
                                      new_weight=weight)
        else:
            w_shipped[old] = w_oracle[old] = old_weight
        assert (shipped.blocks, shipped.mins, shipped.sums) == \
            (oracle.blocks, oracle.mins, oracle.sums)
        shipped.check("augmented")
    assert pickle.dumps(shipped) == pickle.dumps(oracle)


@given(st.lists(st.integers(0, 200), max_size=80, unique=True),
       st.integers(-5, 205), st.integers(2, 6))
@settings(max_examples=200, deadline=None)
def test_neighbours_is_pred_le_and_succ_gt(keys, probe, load):
    blist = BlockedList(load=load)
    for key in keys:
        blist.insert(key)
    assert blist.neighbours(probe) == (
        blist.pred_le(probe), freelistoracle.bl_succ_gt(blist, probe))
