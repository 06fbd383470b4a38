"""The BLOB chunk loop's run steps against their one-at-a-time forms.

``BlobStore._write_chunks`` serves a run of whole-extent chunks with
three calls, each of which must leave exactly what the per-chunk calls
it replaces leave:

(a) ``GamAllocator.alloc_extent_runs(n)`` is ``n`` calls of
``alloc_uniform_extent()``: its ``(first, count)`` address runs flatten
to the same ids, each run is maximal (a used extent separates two), and
masks, cursor, counters and pickled bytes are equal; with fewer than
``n`` free extents it moves nothing.

(b) ``LobTree.append_runs(runs)`` is one ``append_run`` per run, and
both are the oracle's ``general_insert`` at the logical end, node for
node; a bad run or too many runs is refused before anything changes.

(c) ``GhostCleaner.on_operation(k)`` is ``k`` calls of
``on_operation()``, the sweep landing at the same operation.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dboracle import general_insert

from repro.db.btree import LobTree
from repro.db.gam import GamAllocator
from repro.db.ghost import GhostCleaner
from repro.errors import ConfigError
from repro.units import PAGES_PER_EXTENT

NUM_EXTENTS = 16
NUM_PAGES = NUM_EXTENTS * PAGES_PER_EXTENT
FULL = (1 << PAGES_PER_EXTENT) - 1


def gam_state(gam: GamAllocator):
    return (bytes(gam._used_mask), gam._lowest_free, gam.free_extent_count,
            list(gam._partial_extents), gam.free_page_count,
            pickle.dumps(gam))


def gam_of(masks: list[int]) -> GamAllocator:
    """A GAM holding ``masks``, cursor and counters derived as an
    unpickled one derives them."""
    gam = GamAllocator(len(masks))
    gam.__setstate__({"num_extents": len(masks),
                      "num_pages": len(masks) * PAGES_PER_EXTENT,
                      "_used_mask": masks})
    gam.check_invariants()
    return gam


#: Free, full and partly used extents, free ones often side by side.
MASKS = st.lists(st.one_of(st.just(0), st.just(0), st.just(FULL),
                           st.integers(min_value=1, max_value=FULL - 1)),
                 min_size=1, max_size=48)


def flatten(runs: list[tuple[int, int]]) -> list[int]:
    return [extent for first, count in runs
            for extent in range(first, first + count)]


# ----------------------------------------------------------------------
# (a) the GAM run
# ----------------------------------------------------------------------
@given(masks=MASKS, data=st.data())
@settings(max_examples=300, deadline=None)
def test_the_gam_run_equals_n_lowest_free_picks(masks, data):
    run = gam_of(masks)
    free = run.free_extent_count
    before = gam_state(run)
    assert run.alloc_extent_runs(free + 1) is None
    assert gam_state(run) == before
    if not free:
        return
    n = data.draw(st.integers(min_value=1, max_value=free), label="n")
    serial = copy.deepcopy(run)
    taken = run.alloc_extent_runs(n)
    assert flatten(taken) == [serial.alloc_uniform_extent()
                              for _ in range(n)]
    assert all(count > 0 for _, count in taken)
    for (first, count), (after, _) in zip(taken, taken[1:]):
        assert first + count < after and masks[first + count] != 0
    assert gam_state(run) == gam_state(serial)
    run.check_invariants()


def test_the_gam_run_can_empty_the_file():
    gam = GamAllocator(NUM_EXTENTS)
    gam.alloc_page()
    assert gam.alloc_extent_runs(NUM_EXTENTS) is None
    assert gam.alloc_extent_runs(0) == []
    assert gam.alloc_extent_runs(NUM_EXTENTS - 1) == [(1, NUM_EXTENTS - 1)]
    assert gam._lowest_free == NUM_EXTENTS
    assert gam.alloc_uniform_extent() is None
    gam.check_invariants()


def test_a_used_extent_cuts_the_gam_run():
    gam = gam_of([0, 0, FULL, 3, 0, 0, 0, FULL, 0, 0])
    assert gam.alloc_extent_runs(6) == [(0, 2), (4, 3), (8, 1)]
    assert gam._lowest_free == 9
    gam.check_invariants()


# ----------------------------------------------------------------------
# (b) the leaf append
# ----------------------------------------------------------------------
def leaf_runs(node) -> list[list[tuple[int, int]]]:
    if node.leaf:
        return [list(node.runs)]
    return [runs for child in node.children for runs in leaf_runs(child)]


def tree_state(tree: LobTree, pages: list[int]):
    return (leaf_runs(tree._root), tree.node_pages(), tree.depth(),
            tree.total_pages, tree._count, list(pages))


def allocating_tree(fanout: int) -> tuple[LobTree, list[int]]:
    allocated: list[int] = []

    def alloc() -> int:
        allocated.append(1000 + len(allocated))
        return allocated[-1]

    return LobTree(fanout=fanout, alloc_node_page=alloc), allocated


@given(prefix=st.lists(st.tuples(st.integers(0, 10**6),
                                 st.integers(min_value=1, max_value=6)),
                       max_size=60),
       runs=st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 10**6)),
                               st.integers(min_value=1,
                                           max_value=4 * PAGES_PER_EXTENT)),
                     max_size=12),
       fanout=st.integers(min_value=4, max_value=8))
@settings(max_examples=200, deadline=None)
def test_the_leaf_append_equals_one_append_run_per_start(prefix, runs,
                                                         fanout):
    """Three twin trees take the same appends (any shape, splits
    included), then the same runs: ``append_runs`` on one, one
    ``append_run`` per run on the next, ``general_insert`` at the end
    on the last.  A start of None continues the last run physically."""
    step, serial, general = (allocating_tree(fanout) for _ in range(3))
    for start, length in prefix:
        step[0].append_run(start, length)
        serial[0].append_run(start, length)
        general_insert(general[0], general[0].total_pages, start, length)
    room = step[0].leaf_room()
    last = prefix[-1][0] + prefix[-1][1] if prefix else 0
    appended = []
    for start, count in runs[:room]:
        appended.append((last if start is None else start, count))
        last = appended[-1][0] + count
    step[0].append_runs(appended)
    for start, count in appended:
        serial[0].append_run(start, count)
        general_insert(general[0], general[0].total_pages, start, count)
    assert tree_state(*step) == tree_state(*serial) == tree_state(*general)
    step[0].check_invariants()


def test_the_leaf_append_refuses_what_would_split():
    tree, pages = allocating_tree(4)
    tree.append_run(0, 1)
    assert tree.leaf_room() == 3
    before = tree_state(tree, pages)
    for runs in ([(10, 1), (20, 1), (30, 1), (40, 1)], [(10, 0)],
                 [(10, 2), (20, -1)], [(10, 1), (-1, 1)],
                 [(1, 8), (20, 1), (30, 1), (40, 1)]):
        with pytest.raises(ConfigError):
            tree.append_runs(runs)
        assert tree_state(tree, pages) == before
    tree.append_runs([(1, 8), (20, 1), (30, 2)])
    assert tree.leaf_room() == 1
    assert tree.total_pages == 12
    assert tree_state(tree, pages)[0] == [[(0, 9), (20, 1), (30, 2)]]


# ----------------------------------------------------------------------
# (c) the cleaner tick
# ----------------------------------------------------------------------
def cleaner_state(ghost: GhostCleaner):
    return (ghost.queued_runs(), ghost._ops, ghost.sweeps,
            ghost.ghosted_pages, ghost.cleaned_pages, gam_state(ghost.gam))


def sweeping_cleaner(interval: int, budget: int | None, min_age: int,
                     swept_at: list[int]) -> GhostCleaner:
    gam = GamAllocator(NUM_EXTENTS)
    gam.alloc_runs(NUM_PAGES)
    ghost = GhostCleaner(gam, cleanup_interval_ops=interval,
                         max_pages_per_sweep=budget, min_age_ops=min_age)
    ghost.crash_hook = lambda label: swept_at.append(ghost._ops)
    return ghost


@given(interval=st.integers(min_value=0, max_value=6),
       budget=st.one_of(st.none(), st.integers(min_value=1, max_value=20)),
       min_age=st.integers(min_value=0, max_value=8),
       history=st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                                  st.integers(min_value=1, max_value=9)),
                        max_size=12),
       wanted=st.integers(min_value=1, max_value=10))
@settings(max_examples=200, deadline=None)
def test_k_ticks_in_one_call_equal_k_single_ticks(interval, budget, min_age,
                                                  history, wanted):
    """Twin cleaners ghost the same runs between the same single
    ticks; then one takes the ``k`` ticks the next sweep allows as one
    call and the other as ``k`` calls.  Books, backlog, GAM and the
    operation at which each sweep ran are equal."""
    run_swept: list[int] = []
    serial_swept: list[int] = []
    run = sweeping_cleaner(interval, budget, min_age, run_swept)
    serial = sweeping_cleaner(interval, budget, min_age, serial_swept)
    page = 0
    for ticks, pages in history:
        for ghost in (run, serial):
            ghost.ghost_pages([(page, pages)])
            for _ in range(ticks):
                ghost.on_operation()
        page += pages
    k = run.ops_before_sweep(wanted)
    assert 1 <= k <= wanted
    if interval:
        assert k == wanted or (run._ops + k) % interval == 0
    run.on_operation(k)
    for _ in range(k):
        serial.on_operation()
    assert cleaner_state(run) == cleaner_state(serial)
    assert run_swept == serial_swept


def test_ticks_that_would_pass_a_sweep_are_refused():
    gam = GamAllocator(NUM_EXTENTS)
    ghost = GhostCleaner(gam, cleanup_interval_ops=4)
    ghost.on_operation(3)
    assert ghost.ops_before_sweep(5) == 1
    with pytest.raises(ConfigError):
        ghost.on_operation(2)
    assert (ghost._ops, ghost.sweeps) == (3, 0)
    ghost.on_operation(1)
    assert (ghost._ops, ghost.sweeps) == (4, 1)
    assert ghost.ops_before_sweep(9) == 4
