"""Property-based tests: buddy allocator, GAM, LOB tree and KeyList
invariants."""

import pickle
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from dboracle import alloc_pages

from repro.alloc.buddy import BuddyAllocator
from repro.db.btree import LobTree
from repro.db.gam import GamAllocator
from repro.errors import AllocationError
from repro.struct import KeyList, keylist
from repro.units import KB, MB, PAGES_PER_EXTENT


# ----------------------------------------------------------------------
# Buddy allocator
# ----------------------------------------------------------------------
@given(st.lists(
    st.one_of(
        st.tuples(st.just("alloc"),
                  st.integers(min_value=1, max_value=64 * KB)),
        st.tuples(st.just("free"), st.integers(min_value=0)),
    ),
    max_size=80,
))
@settings(max_examples=100, deadline=None)
def test_buddy_tiles_volume_always(ops):
    buddy = BuddyAllocator(1 * MB, min_block=4 * KB)
    live = []
    for op, value in ops:
        if op == "alloc":
            try:
                live.append(buddy.alloc(value))
            except AllocationError:
                pass
        elif live:
            buddy.free(live.pop(value % len(live)))
    buddy.check_invariants()
    assert buddy.total_free + sum(e.length for e in live) == 1 * MB


@given(st.lists(st.integers(min_value=1, max_value=32 * KB),
                min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_buddy_full_release_restores_everything(sizes):
    buddy = BuddyAllocator(1 * MB, min_block=4 * KB)
    live = []
    for size in sizes:
        try:
            live.append(buddy.alloc(size))
        except AllocationError:
            break
    for ext in live:
        buddy.free(ext)
    assert buddy.total_free == 1 * MB
    assert buddy.alloc(1 * MB).length == 1 * MB


# ----------------------------------------------------------------------
# GAM allocator
# ----------------------------------------------------------------------
@given(st.lists(
    st.one_of(
        st.tuples(st.just("pages"),
                  st.integers(min_value=1, max_value=24)),
        st.tuples(st.just("extent"), st.just(0)),
        st.tuples(st.just("free"), st.integers(min_value=0)),
    ),
    max_size=100,
))
@settings(max_examples=100, deadline=None)
def test_gam_page_accounting(ops):
    gam = GamAllocator(32)
    live: list[int] = []
    for op, value in ops:
        if op == "pages":
            try:
                live.extend(alloc_pages(gam, value))
            except AllocationError:
                pass
        elif op == "extent":
            extent_id = gam.alloc_uniform_extent()
            if extent_id is not None:
                base = extent_id * PAGES_PER_EXTENT
                live.extend(range(base, base + PAGES_PER_EXTENT))
        elif live:
            gam.free_page(live.pop(value % len(live)))
    gam.check_invariants()
    assert gam.used_page_count == len(live)
    assert len(set(live)) == len(live)  # no page handed out twice


@given(st.integers(min_value=1, max_value=255))
@settings(max_examples=40, deadline=None)
def test_gam_alloc_free_is_identity(npages):
    gam = GamAllocator(32)
    for start, count in gam.alloc_runs(npages):
        gam.free_run(start, count)
    gam.check_invariants()
    assert gam.free_page_count == 32 * PAGES_PER_EXTENT


# ----------------------------------------------------------------------
# LOB tree
# ----------------------------------------------------------------------
@st.composite
def tree_operations(draw):
    return draw(st.lists(
        st.one_of(
            st.tuples(st.just("insert"),
                      st.integers(min_value=0, max_value=10**6),
                      st.integers(min_value=1, max_value=8)),
            st.tuples(st.just("delete"),
                      st.integers(min_value=0, max_value=10**6),
                      st.integers(min_value=1, max_value=8)),
        ),
        max_size=80,
    ))


@given(tree_operations(),
       st.integers(min_value=4, max_value=16))
@settings(max_examples=100, deadline=None)
def test_lobtree_matches_list_model(ops, fanout):
    tree = LobTree(fanout=fanout)
    model: list[int] = []
    next_page = 0
    for op, position, count in ops:
        if op == "insert":
            pos = position % (len(model) + 1)
            tree.insert_run(pos, next_page, count)
            model[pos:pos] = range(next_page, next_page + count)
            next_page += count + 5
        elif model:
            start = position % len(model)
            take = min(count, len(model) - start)
            removed = tree.delete_range(start, take)
            flat = [
                page
                for run_start, run_count in removed
                for page in range(run_start, run_start + run_count)
            ]
            assert flat == model[start:start + take]
            del model[start:start + take]
        tree.check_invariants()
        assert tree.total_pages == len(model)
    # Final full reconstruction agrees with the model.
    pages = [
        page
        for run_start, run_count in tree.all_runs()
        for page in range(run_start, run_start + run_count)
    ]
    assert pages == model
    # And random-access lookups agree point-wise.
    for idx in range(0, len(model), max(1, len(model) // 16)):
        assert tree.page_at(idx) == model[idx]


@given(st.lists(st.integers(min_value=1, max_value=12),
                min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_lobtree_append_then_read_everything(counts):
    tree = LobTree(fanout=4)
    expected: list[int] = []
    page = 0
    for count in counts:
        tree.append_run(page, count)
        expected.extend(range(page, page + count))
        page += count  # physically consecutive: must merge into 1 run
    assert tree.all_runs() == [(0, len(expected))]
    assert tree.total_pages == len(expected)


def leaf_runs(node) -> list[list[tuple[int, int]]]:
    if node.leaf:
        return [list(node.runs)]
    return [runs for child in node.children for runs in leaf_runs(child)]


def allocating_tree(fanout: int) -> tuple[LobTree, list[int]]:
    """A tree whose node pages are numbered by allocation call, so equal
    ``node_pages()`` means the same nodes were allocated in the same
    order."""
    allocated: list[int] = []

    def alloc() -> int:
        allocated.append(1000 + len(allocated))
        return allocated[-1]

    return LobTree(fanout=fanout, alloc_node_page=alloc), allocated


@given(prefix=st.lists(st.tuples(st.integers(min_value=0, max_value=10**6),
                                 st.integers(min_value=1, max_value=6)),
                       max_size=30),
       appends=st.lists(st.tuples(st.one_of(st.none(),
                                            st.integers(0, 10**6)),
                                  st.integers(min_value=1, max_value=6)),
                        max_size=150),
       fanout=st.integers(min_value=4, max_value=6))
@settings(max_examples=100, deadline=None)
def test_spine_append_equals_the_general_insert(prefix, appends, fanout):
    """``append_run`` against ``insert_run(total_pages, ...)`` on a twin:
    leaves run for run, node pages, depth and allocation order all equal,
    through leaf, interior and root splits.  Both trees first take the
    same general inserts, so appends also meet a tree of any shape; an
    append start of None continues the last run physically (a merge)."""
    spine, spine_pages = allocating_tree(fanout)
    general, general_pages = allocating_tree(fanout)
    next_page = 0
    for position, count in prefix:
        for tree in (spine, general):
            tree.insert_run(position % (tree.total_pages + 1), next_page,
                            count)
        next_page += count + 1
    for start, count in appends:
        start = next_page if start is None else start
        spine.append_run(start, count)
        general.insert_run(general.total_pages, start, count)
        next_page = start + count
        assert leaf_runs(spine._root) == leaf_runs(general._root)
        assert spine.node_pages() == general.node_pages()
        assert spine.depth() == general.depth()
        assert spine.total_pages == general.total_pages
    assert spine_pages == general_pages
    spine.check_invariants()
    target(float(spine.depth()))  # steer towards root splits


# ----------------------------------------------------------------------
# KeyList
# ----------------------------------------------------------------------
KEY_DOMAIN = [f"key-{n}" for n in range(24)]


def assert_same_sequence(seq: KeyList, model: list) -> None:
    seq.check()
    assert list(seq) == model
    assert len(seq) == len(model) and bool(seq) == bool(model)
    for key in KEY_DOMAIN:
        assert (key in seq) == (key in model)
    for i in range(-len(model) - 2, len(model) + 2):
        if -len(model) <= i < len(model):
            assert seq[i] == model[i]
        else:
            with pytest.raises(IndexError):
                seq[i]
    if model:
        assert Random(0).choice(seq) == Random(0).choice(model)


@given(st.lists(st.tuples(st.sampled_from(["append", "remove"]),
                          st.sampled_from(KEY_DOMAIN)),
                max_size=60))
@settings(max_examples=150, deadline=None)
def test_keylist_matches_list_model(ops):
    with mock.patch.object(keylist, "BLOCK", 4):
        seq, model = KeyList(), []
        for op, key in ops:
            if (op == "append") == (key in model):
                # Appending a present key or removing an absent one is
                # refused and leaves the sequence as it was.
                with pytest.raises(ValueError):
                    getattr(seq, op)(key)
            else:
                getattr(seq, op)(key)
                getattr(model, op)(key)
            assert_same_sequence(seq, model)


def test_keylist_drops_an_emptied_interior_block():
    with mock.patch.object(keylist, "BLOCK", 4):
        seq, model = KeyList(KEY_DOMAIN[:12]), KEY_DOMAIN[:12]
        for key in KEY_DOMAIN[4:8]:
            seq.remove(key)
            model.remove(key)
            assert_same_sequence(seq, model)
        seq.append(KEY_DOMAIN[20])
        assert_same_sequence(seq, model + [KEY_DOMAIN[20]])


@given(st.lists(st.tuples(st.sampled_from(KEY_DOMAIN), st.booleans()),
                unique_by=lambda pair: pair[0]))
@settings(max_examples=100, deadline=None)
def test_keylist_pickles_as_its_sequence_alone(pairs):
    """Two histories, one sequence, equal bytes: the dict and the block
    layout never reach the pickle (a resumed run and an uninterrupted
    one must write the same checkpoint)."""
    kept = [key for key, keep in pairs if keep]
    with mock.patch.object(keylist, "BLOCK", 4):
        direct = KeyList(kept)
        carved = KeyList(key for key, _ in pairs)
        for key, keep in pairs:
            if not keep:
                carved.remove(key)
        blob = pickle.dumps(direct)
        assert pickle.dumps(carved) == blob
        assert_same_sequence(pickle.loads(blob), kept)


def test_keylist_remove_and_membership_scan_one_block():
    """Comparison-count regression: a plain list compares the probe
    with every key before the match (thousands here)."""
    calls = [0]

    class CountedKey:
        def __init__(self, n):
            self.n = n

        def __hash__(self):
            return hash(self.n)

        def __eq__(self, other):
            calls[0] += 1
            return self.n == other.n

    seq = KeyList(CountedKey(n) for n in range(10_000))
    probe = CountedKey(5_400)  # equal to a stored key, not identical
    calls[0] = 0
    assert probe in seq
    assert 1 <= calls[0] <= 2
    calls[0] = 0
    seq.remove(probe)
    assert 1 <= calls[0] <= keylist.BLOCK + 2
    assert probe not in seq and len(seq) == 9_999
