"""Property tests: the run-granular database free-space path against
its per-page reference models (``dboracle.py``).

(a) :class:`GamAllocator` — bitmap, lowest-free cursor, counters —
against a plain list of masks searched by linear scan: same pages
handed out, same errors, ``check_invariants`` after every step, and a
pickle that depends on the masks only, never on how they were reached.

(b) The run-queue :class:`GhostCleaner` against a queue with one entry
per page: same pages freed in the same order, same books.

(c) ``GamAllocator.free_run``'s whole-extent step — a run's full inner
extents cleared by one mask write — against the same oracle, on runs
with a partial head extent, whole middle extents and a partial tail.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from dboracle import (FULL, LoggingGam, OracleGam, PerPageGhostQueue,
                      runs_to_pages)

from repro.db.gam import GamAllocator
from repro.db.ghost import GhostCleaner
from repro.errors import ReproError
from repro.units import PAGES_PER_EXTENT

NUM_EXTENTS = 12
NUM_PAGES = NUM_EXTENTS * PAGES_PER_EXTENT


def outcome(call, *args):
    """``("ok", result)`` or ``("error", type, message)`` of a call."""
    try:
        return ("ok", call(*args))
    except ReproError as exc:
        return ("error", type(exc), str(exc))


# ----------------------------------------------------------------------
# (a) GAM bitmap vs. the list-of-masks oracle
# ----------------------------------------------------------------------
class GamEquivalence(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.gam = GamAllocator(NUM_EXTENTS)
        self.oracle = OracleGam(NUM_EXTENTS)

    def both(self, name: str, *args) -> None:
        assert outcome(getattr(self.gam, name), *args) \
            == outcome(getattr(self.oracle, name), *args)

    @rule(count=st.integers(min_value=-1, max_value=3 * PAGES_PER_EXTENT + 3))
    def alloc_runs(self, count):
        self.both("alloc_runs", count)

    @rule()
    def alloc_page(self):
        self.both("alloc_page")

    @rule(n=st.integers(min_value=0, max_value=4))
    def alloc_extent_runs(self, n):
        self.both("alloc_extent_runs", n)

    # Starts and counts reach past both ends of the file, and most runs
    # name some free page once the file has holes: the rejection paths
    # (range, double free, nothing freed on rejection) run as often as
    # the good ones.
    @rule(start=st.integers(min_value=-2, max_value=NUM_PAGES + 1),
          count=st.integers(min_value=-1, max_value=3 * PAGES_PER_EXTENT))
    def free_run(self, start, count):
        self.both("free_run", start, count)

    @rule(page_no=st.integers(min_value=-1, max_value=NUM_PAGES))
    def free_page(self, page_no):
        self.both("free_page", page_no)

    @rule(data=st.data())
    def free_a_used_run(self, data):
        """A run that is certainly allocated (may straddle extents)."""
        used = [p for p in range(NUM_PAGES) if self.oracle.is_page_used(p)]
        if not used:
            return
        start = data.draw(st.sampled_from(used))
        longest = 1
        while (start + longest < NUM_PAGES
               and self.oracle.is_page_used(start + longest)):
            longest += 1
        self.both("free_run", start,
                  data.draw(st.integers(min_value=1, max_value=longest)))

    @invariant()
    def same_masks_and_derived_state(self):
        assert list(self.gam._used_mask) == self.oracle.masks
        self.gam.check_invariants()
        assert self.gam.free_page_count == self.oracle.free_page_count
        assert self.gam.used_page_count \
            == NUM_PAGES - self.oracle.free_page_count
        assert self.gam.free_extent_count == self.oracle.masks.count(0)
        assert self.gam.partial_extent_count == sum(
            0 < mask < FULL for mask in self.oracle.masks)

    @invariant()
    def pickle_depends_on_the_masks_only(self):
        """Fill a fresh file, then carve the same holes top-down."""
        other = GamAllocator(NUM_EXTENTS)
        other.alloc_runs(NUM_PAGES)
        for page_no in reversed(range(NUM_PAGES)):
            if not self.oracle.is_page_used(page_no):
                other.free_page(page_no)
        blob = pickle.dumps(self.gam)
        assert pickle.dumps(other) == blob
        loaded = pickle.loads(blob)
        loaded.check_invariants()
        assert loaded._used_mask == self.gam._used_mask
        assert outcome(loaded.alloc_runs, 11) \
            == outcome(other.alloc_runs, 11)


GamEquivalence.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestGamEquivalence = GamEquivalence.TestCase


# ----------------------------------------------------------------------
# (b) Run-queue ghost cleaner vs. the per-page queue
# ----------------------------------------------------------------------
GHOST_OPS = st.lists(st.one_of(
    # Ghost `count` freshly allocated pages, cut into pieces of at most
    # `piece` pages: one call carries several runs, and with a small
    # free list the runs straddle extents.
    st.tuples(st.just("ghost"), st.integers(min_value=1, max_value=30),
              st.integers(min_value=1, max_value=30)),
    st.tuples(st.just("tick"), st.integers(min_value=1, max_value=6),
              st.just(0)),
    # budget 0 = the cleaner's own max_pages_per_sweep.
    st.tuples(st.just("sweep"), st.integers(min_value=0, max_value=20),
              st.booleans()),
    st.tuples(st.just("drain"), st.just(0), st.just(0)),
), max_size=60)


def cut(runs, piece: int) -> list[tuple[int, int]]:
    out = []
    for start, count in runs:
        for offset in range(0, count, piece):
            out.append((start + offset, min(piece, count - offset)))
    return out


@given(ops=GHOST_OPS,
       interval=st.sampled_from([0, 1, 3]),
       per_sweep=st.sampled_from([None, 1, 5, 8, 13]),
       min_age=st.sampled_from([0, 2, 5]))
@settings(max_examples=150, deadline=None)
def test_run_queue_frees_what_the_per_page_queue_frees(
        ops, interval, per_sweep, min_age):
    knobs = dict(cleanup_interval_ops=interval,
                 max_pages_per_sweep=per_sweep, min_age_ops=min_age)
    real_gam, ref_gam = LoggingGam(NUM_EXTENTS), LoggingGam(NUM_EXTENTS)
    real = GhostCleaner(real_gam, **knobs)
    ref = PerPageGhostQueue(ref_gam, **knobs)
    # Pre-fragment the file so later allocations come back as several
    # short runs rather than one long one.
    for gam in (real_gam, ref_gam):
        gam.alloc_runs(NUM_PAGES // 2)
        for page_no in range(3, NUM_PAGES // 2, 5):
            gam.free_page(page_no)
        gam.freed.clear()
    for op, a, b in ops:
        if op == "ghost":
            count = min(a, real_gam.free_page_count)
            if count == 0:
                continue
            runs = real_gam.alloc_runs(count)
            assert ref_gam.alloc_runs(count) == runs
            real.ghost_pages(cut(runs, b))
            ref.ghost_pages(cut(runs, b))
        elif op == "tick":
            for _ in range(a):
                real.on_operation()
                ref.on_operation()
        elif op == "sweep":
            kwargs = dict(ignore_age=b, max_pages=a or None)
            assert real.sweep(**kwargs) == ref.sweep(**kwargs)
        else:
            real.drain()
            ref.drain()
        assert real_gam.freed == ref_gam.freed
        assert real_gam._used_mask == ref_gam._used_mask
        assert real.sweeps == ref.sweeps
        assert real.pending_pages == ref.pending_pages
        assert real.cleaned_pages == ref.cleaned_pages
        assert real.ghosted_pages == ref.ghosted_pages
        assert real.cleaned_pages + real.pending_pages == real.ghosted_pages
        assert runs_to_pages(real.queued_runs()) \
            == [page_no for _, page_no in ref._queue]
        real_gam.check_invariants()


class TestSweepSplitsTheHeadRun:
    """The two shapes the property leans on, spelled out once."""

    def make(self, **knobs):
        gam = LoggingGam(4)
        return gam, GhostCleaner(gam, cleanup_interval_ops=1,
                                 min_age_ops=0, **knobs)

    def test_budget_inside_a_run_straddling_extents(self):
        gam, ghost = self.make(max_pages_per_sweep=5)
        gam.alloc_runs(20)
        ghost.ghost_pages([(6, 12)])           # extents 0, 1 and 2
        assert ghost.sweep() == 5
        assert gam.freed == [6, 7, 8, 9, 10]
        assert ghost.queued_runs() == [(11, 7)]
        assert ghost.pending_pages == 7
        assert ghost.sweep(max_pages=100) == 7
        assert ghost.queued_runs() == []
        gam.check_invariants()

    def test_split_remainder_keeps_its_age(self):
        gam, ghost = self.make(max_pages_per_sweep=3)
        ghost.min_age_ops = 2
        gam.alloc_runs(16)
        ghost.ghost_pages([(0, 8)])
        ghost.on_operation()
        ghost.ghost_pages([(8, 8)])            # one tick younger
        ghost.on_operation()                  # first run is now 2 old
        assert gam.freed == [0, 1, 2]
        assert ghost.sweep(max_pages=100) == 5  # rest of the old run only
        assert ghost.queued_runs() == [(8, 8)]

    def test_rejected_run_frees_nothing(self):
        gam = GamAllocator(4)
        gam.alloc_runs(12)
        gam.free_page(9)
        before = bytes(gam._used_mask)
        with pytest.raises(ReproError, match="double free of page 9"):
            gam.free_run(2, 10)
        with pytest.raises(ReproError, match="out of range"):
            gam.free_run(30, 3)
        assert bytes(gam._used_mask) == before
        gam.check_invariants()


# ----------------------------------------------------------------------
# (c) Whole-extent frees vs. the per-page oracle
# ----------------------------------------------------------------------
WIDE_EXTENTS = 40
WIDE_PAGES = WIDE_EXTENTS * PAGES_PER_EXTENT

SPAN_OPS = st.lists(st.one_of(
    st.tuples(st.just("alloc_runs"),
              st.integers(min_value=1, max_value=6 * PAGES_PER_EXTENT + 7)),
    st.tuples(st.just("alloc_page")),
    # A span around extent `e`: `head` pages before it (0 = aligned
    # start), `whole` extents from it, `tail` pages after them.  Spans
    # may reach past either end of the file or name a free page.
    st.tuples(st.just("free_span"),
              st.integers(min_value=0, max_value=WIDE_EXTENTS),
              st.integers(min_value=0, max_value=PAGES_PER_EXTENT - 1),
              st.integers(min_value=0, max_value=18),
              st.integers(min_value=0, max_value=PAGES_PER_EXTENT - 1)),
), max_size=50)


@given(ops=SPAN_OPS)
@settings(max_examples=150, deadline=None)
def test_whole_extent_free_matches_the_per_page_oracle(ops):
    gam, oracle = GamAllocator(WIDE_EXTENTS), OracleGam(WIDE_EXTENTS)
    # Start full, so most spans name used pages until holes open up.
    assert gam.alloc_runs(WIDE_PAGES) == oracle.alloc_runs(WIDE_PAGES)
    for op, *args in ops:
        if op == "free_span":
            extent_id, head, whole, tail = args
            start = extent_id * PAGES_PER_EXTENT - head
            end = (extent_id + whole) * PAGES_PER_EXTENT + tail
            args = [start, end - start]
            op = "free_run"
        assert outcome(getattr(gam, op), *args) \
            == outcome(getattr(oracle, op), *args)
        masks = oracle.masks
        assert list(gam._used_mask) == masks
        assert gam._free_pages == oracle.free_page_count
        assert gam._free_extents == masks.count(0)
        assert gam._partial_extents == [
            e for e, mask in enumerate(masks) if 0 < mask < FULL]
        assert gam._lowest_free == next(
            (e for e, mask in enumerate(masks) if mask == 0), WIDE_EXTENTS)
