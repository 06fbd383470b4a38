"""The BLOB chunk loop's run steps against their one-at-a-time forms.

``BlobStore._write_chunks`` serves a run of whole-extent chunks with
three calls, each of which must leave exactly what the per-chunk calls
it replaces leave:

(a) ``GamAllocator.alloc_uniform_extents(n)`` is ``n`` calls of
``alloc_uniform_extent()``: the same ids, masks, cursor, counters and
pickled bytes; with fewer than ``n`` free extents it moves nothing.

(b) ``LobTree.append_runs(starts, count)`` is one ``append_run`` per
start, and both are the oracle's ``general_insert`` at the logical end,
node for node.

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


def gam_state(gam: GamAllocator):
    return (bytes(gam._used_mask), gam._lowest_free, gam.free_extent_count,
            list(gam._partial_extents), gam.free_page_count,
            pickle.dumps(gam))


def churned_gam(ops) -> GamAllocator:
    """A GAM after page and extent allocations and frees of any shape."""
    gam = GamAllocator(NUM_EXTENTS)
    used: list[int] = []
    for kind, arg in ops:
        if kind == "extent" and (extent := gam.alloc_uniform_extent()) \
                is not None:
            used.extend(range(extent * PAGES_PER_EXTENT,
                              (extent + 1) * PAGES_PER_EXTENT))
        elif kind == "page" and gam.free_page_count:
            used.append(gam.alloc_page())
        elif kind == "free" and used:
            gam.free_page(used.pop(arg % len(used)))
    gam.check_invariants()
    return gam


GAM_OPS = st.lists(st.tuples(st.sampled_from(["extent", "page", "free"]),
                             st.integers(0, 10**6)), max_size=80)


# ----------------------------------------------------------------------
# (a) the GAM run
# ----------------------------------------------------------------------
@given(ops=GAM_OPS, n=st.integers(min_value=0, max_value=NUM_EXTENTS + 2))
@settings(max_examples=200, deadline=None)
def test_the_gam_run_equals_n_lowest_free_picks(ops, n):
    run = churned_gam(ops)
    serial = copy.deepcopy(run)
    before = gam_state(run)
    taken = run.alloc_uniform_extents(n)
    if n > serial.free_extent_count:
        assert taken is None
        assert gam_state(run) == before
        return
    assert taken == [serial.alloc_uniform_extent() for _ in range(n)]
    assert gam_state(run) == gam_state(serial)
    run.check_invariants()


def test_the_gam_run_can_empty_the_file():
    gam = GamAllocator(NUM_EXTENTS)
    gam.alloc_page()
    assert gam.alloc_uniform_extents(NUM_EXTENTS) is None
    assert gam.alloc_uniform_extents(NUM_EXTENTS - 1) \
        == list(range(1, NUM_EXTENTS))
    assert gam._lowest_free == NUM_EXTENTS
    assert gam.alloc_uniform_extent() is None
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
            tree.total_pages, list(pages))


def allocating_tree(fanout: int) -> tuple[LobTree, list[int]]:
    allocated: list[int] = []

    def alloc() -> int:
        allocated.append(1000 + len(allocated))
        return allocated[-1]

    return LobTree(fanout=fanout, alloc_node_page=alloc), allocated


@given(prefix=st.lists(st.tuples(st.integers(0, 10**6),
                                 st.integers(min_value=1, max_value=6)),
                       max_size=60),
       starts=st.lists(st.one_of(st.none(), st.integers(0, 10**6)),
                       max_size=12),
       count=st.integers(min_value=1, max_value=PAGES_PER_EXTENT),
       fanout=st.integers(min_value=4, max_value=8))
@settings(max_examples=200, deadline=None)
def test_the_leaf_append_equals_one_append_run_per_start(prefix, starts,
                                                         count, fanout):
    """Three twin trees take the same appends (any shape, splits
    included), then the same runs: ``append_runs`` on one, one
    ``append_run`` per start on the next, ``general_insert`` at the end
    on the last.  A start of None continues the last run physically."""
    step, serial, general = (allocating_tree(fanout) for _ in range(3))
    for start, length in prefix:
        step[0].append_run(start, length)
        serial[0].append_run(start, length)
        general_insert(general[0], general[0].total_pages, start, length)
    room = step[0].leaf_room()
    last = prefix[-1][0] + prefix[-1][1] if prefix else 0
    run_starts = []
    for start in starts[:room]:
        run_starts.append(last if start is None else start)
        last = run_starts[-1] + count
    step[0].append_runs(run_starts, count)
    for start in run_starts:
        serial[0].append_run(start, count)
        general_insert(general[0], general[0].total_pages, start, count)
    assert tree_state(*step) == tree_state(*serial) == tree_state(*general)
    step[0].check_invariants()


def test_the_leaf_append_refuses_what_would_split():
    tree, pages = allocating_tree(4)
    tree.append_run(0, 1)
    assert tree.leaf_room() == 3
    before = tree_state(tree, pages)
    for starts, count in (([10, 20, 30, 40], 1), ([10], 0), ([10, -1], 1)):
        with pytest.raises(ConfigError):
            tree.append_runs(starts, count)
        assert tree_state(tree, pages) == before
    tree.append_runs([10, 20, 30], 1)
    assert tree.leaf_room() == 0
    assert tree_state(tree, pages)[0] == [[(0, 1), (10, 1), (20, 1), (30, 1)]]


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
