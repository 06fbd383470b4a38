"""Property suite for the overlap model and shard rebalancing.

Two families:

* :func:`repro.disk.schedule.round_makespan` is held to its envelope on
  arbitrary lane-time vectors — ``max(lanes) <= makespan <= sum(lanes)``
  for every parallelism cap, with exact equality at ``parallelism=1``
  (the serial model) and ``parallelism >= lanes`` (pure critical path)
  — and the :class:`ShardScheduler`'s windows/totals are held to agree
  with round-by-round accumulation.
* Rebalancing conserves accounting: per-shard IoStats bytes/ops are
  neither lost nor double-counted (untouched shards' devices don't
  move, touched shards only grow by the migration I/O charged through
  the normal submit path), composite logical state — key order, object
  count, live bytes, readability — is invariant, and the overlapped
  wall time of the migration round stays inside the makespan envelope
  of its lane deltas.
* The event-queue model (:mod:`repro.disk.events`) reduces to this
  round model: with closed arrivals and no cross-round queueing, the
  :class:`~repro.disk.events.EventScheduler` wall equals
  :func:`round_makespan` **to the float** for every lane vector and
  parallelism cap (``parallelism=1`` equals the serial sum exactly),
  and its sojourn percentiles are monotone in the quantile.
"""

import math

import makespanoracle
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.registry import build_store
from repro.backends.spec import StoreSpec
from repro.disk.schedule import (ShardScheduler, lpt_placement,
                                 round_makespan, throttle_pause)
from repro.units import KB, MB

lane_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
              allow_infinity=False),
    min_size=0, max_size=24,
)

#: Relative slack for float-sum comparisons (subset sums of lanes can
#: differ from the straight total in the last few ulps).
REL_EPS = 1e-9


@given(lanes=lane_vectors, parallelism=st.integers(0, 32))
@settings(max_examples=200, deadline=None)
def test_makespan_envelope(lanes, parallelism):
    busy = [t for t in lanes if t > 0.0]
    wall = round_makespan(lanes, parallelism)
    if not busy:
        assert wall == 0.0
        return
    lo, hi = max(busy), sum(busy)
    assert wall >= lo - REL_EPS * max(1.0, lo)
    assert wall <= hi + REL_EPS * max(1.0, hi)


@given(lanes=lane_vectors)
@settings(max_examples=120, deadline=None)
def test_parallelism_one_is_the_serial_model(lanes):
    # The serial model is the left-to-right fold, longest lane first —
    # not builtin sum(), which is compensated from CPython 3.12.
    busy = sorted((t for t in lanes if t > 0.0), reverse=True)
    assert round_makespan(lanes, 1) == makespanoracle.serial_sum(busy)


@given(lanes=lane_vectors)
@settings(max_examples=200, deadline=None)
def test_placement_kernel_equals_both_retired_implementations(lanes):
    """The one kernel against ``tests/makespanoracle.py`` — the PR 5
    makespan function and the event scheduler's closed-round replay it
    replaced — with ``==``: the frontier and every lane's completion
    time, for every worker cap from 0 (one per lane) past the lane
    count."""
    for parallelism in range(len(lanes) + 3):
        completions, frontier = lpt_placement(lanes, parallelism)
        assert (completions, frontier) == makespanoracle.closed_round(
            lanes, parallelism)
        assert frontier == makespanoracle.round_makespan(lanes, parallelism)
        assert round_makespan(lanes, parallelism) == frontier


@given(lanes=lane_vectors, extra=st.integers(0, 8))
@settings(max_examples=120, deadline=None)
def test_enough_workers_is_the_critical_path(lanes, extra):
    busy = [t for t in lanes if t > 0.0]
    workers = len(busy) + extra
    expected = max(busy) if busy else 0.0
    assert round_makespan(lanes, workers) == expected
    # parallelism=0 means one worker per lane: same thing.
    assert round_makespan(lanes, 0) == expected


@given(rounds=st.lists(lane_vectors, min_size=0, max_size=10),
       parallelism=st.integers(0, 4),
       overhead=st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=100, deadline=None)
def test_scheduler_accumulates_rounds_and_windows(rounds, parallelism,
                                                  overhead):
    sched = ShardScheduler(parallelism=parallelism,
                           dispatch_overhead_s=overhead)
    win = sched.start_window("phase")
    expected_wall = 0.0
    expected_lanes = 0.0
    busy_rounds = 0
    for lanes in rounds:
        wall = sched.record_round(lanes)
        span = round_makespan(lanes, parallelism)
        if span > 0.0:
            busy_rounds += 1
            expected_wall += span + overhead
            expected_lanes += sum(t for t in lanes if t > 0.0)
            assert wall == span + overhead
        else:
            # Idle rounds cost nothing, not even dispatch overhead.
            assert wall == 0.0
    sched.end_window(win)
    assert sched.rounds == busy_rounds == win.rounds
    assert math.isclose(sched.wall_time_s, expected_wall,
                        rel_tol=REL_EPS, abs_tol=1e-12)
    assert math.isclose(win.wall_time_s, expected_wall,
                        rel_tol=REL_EPS, abs_tol=1e-12)
    assert math.isclose(sched.lane_time_s, expected_lanes,
                        rel_tol=REL_EPS, abs_tol=1e-12)
    # The cumulative totals honour the same envelope as each round.
    assert sched.wall_time_s <= sched.lane_time_s \
        + busy_rounds * overhead + REL_EPS * max(1.0, sched.lane_time_s)


# ----------------------------------------------------------------------
# Rebalancing conservation
# ----------------------------------------------------------------------
SHARDS = 4


def build_sharded(overlap: bool = True):
    spec = StoreSpec("lfs", volume_bytes=96 * MB, shards=SHARDS,
                     overlap=overlap)
    return build_store(spec)


def device_totals(store):
    """Per-shard (read_bytes, write_bytes, requests, clock) tuples."""
    totals = []
    for shard in store.shards:
        r = w = q = 0
        c = 0.0
        for dev in shard.devices():
            r += dev.stats.read_bytes
            w += dev.stats.write_bytes
            q += dev.stats.requests
            c += dev.clock_s
        totals.append((r, w, q, c))
    return totals


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=64),  # 16 KB units
                   min_size=4, max_size=28),
    mode=st.sampled_from(["even", "placement"]),
)
@settings(max_examples=25, deadline=None)
def test_rebalance_conserves_iostats_and_state(sizes, mode):
    store = build_sharded()
    for i, units in enumerate(sizes):
        store.put(f"obj-{i}", size=units * 16 * KB)
    keys_before = store.keys()
    stats_before = store.store_stats()
    totals_before = device_totals(store)
    wall_before = store.scheduler.wall_time_s
    lanes_before = store.scheduler.lane_time_s

    report = store.rebalance(mode=mode)

    # Logical state is invariant: same keys in the same order, same
    # object count and live bytes, every object still readable.
    assert store.keys() == keys_before
    stats_after = store.store_stats()
    assert stats_after.objects == stats_before.objects
    assert stats_after.live_bytes == stats_before.live_bytes
    for i, units in enumerate(sizes):
        assert store.meta(f"obj-{i}").size == units * 16 * KB

    # Migration accounting: the report and StoreStats agree, and bytes
    # are the sum of the moved objects' sizes (counted exactly once).
    assert stats_after.migrated_objects == report.moved_objects
    assert stats_after.migrated_bytes == report.moved_bytes
    assert report.moved_bytes <= sum(sizes) * 16 * KB

    # Per-shard IoStats conservation: counters only ever grow, and a
    # shard no migration touched has byte-identical device stats.
    totals_after = device_totals(store)
    touched = set()
    for index, (before, after) in enumerate(zip(totals_before,
                                                totals_after)):
        rb, wb, qb, cb = before
        ra, wa, qa, ca = after
        assert ra >= rb and wa >= wb and qa >= qb and ca >= cb - 1e-12
        if (ra, wa, qa) != (rb, wb, qb):
            touched.add(index)
    if report.moved_objects == 0:
        assert not touched
    # The migration reads exactly the moved bytes from source shards
    # (whole-object copies; metadata reads ride the same submit path).
    read_delta = sum(a[0] - b[0]
                     for a, b in zip(totals_after, totals_before))
    write_delta = sum(a[1] - b[1]
                      for a, b in zip(totals_after, totals_before))
    assert read_delta >= report.moved_bytes
    assert write_delta >= report.moved_bytes

    # Overlap accounting: the migration's wall time stays inside the
    # makespan envelope of the summed lane deltas.
    wall_delta = store.scheduler.wall_time_s - wall_before
    lane_delta = store.scheduler.lane_time_s - lanes_before
    clock_delta = sum(a[3] - b[3]
                      for a, b in zip(totals_after, totals_before))
    assert wall_delta <= lane_delta + REL_EPS * max(1.0, lane_delta)
    assert math.isclose(lane_delta, clock_delta,
                        rel_tol=1e-9, abs_tol=1e-12)


@given(sizes=st.lists(st.integers(min_value=1, max_value=64),
                      min_size=6, max_size=24))
@settings(max_examples=25, deadline=None)
def test_even_rebalance_never_widens_the_spread(sizes):
    store = build_sharded(overlap=False)
    for i, units in enumerate(sizes):
        store.put(f"obj-{i}", size=units * 16 * KB)

    def live_spread():
        live = [s.live_bytes for s in store.shard_stats()]
        return max(live) - min(live)

    before = live_spread()
    store.rebalance(mode="even")
    assert live_spread() <= before


# ----------------------------------------------------------------------
# Event-model reduction (PR 7): zero queueing == round makespan
# ----------------------------------------------------------------------
@given(rounds=st.lists(lane_vectors, min_size=0, max_size=8),
       parallelism=st.integers(0, 32),
       overhead=st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=150, deadline=None)
def test_event_model_reduces_to_round_makespan(rounds, parallelism,
                                               overhead):
    """Closed arrivals, unbounded depth: the event simulator IS the
    round model — equal wall per round and cumulatively, to the float,
    for every parallelism cap."""
    from repro.disk.events import EventScheduler

    event = EventScheduler(24, parallelism=parallelism,
                           dispatch_overhead_s=overhead)
    base = ShardScheduler(parallelism=parallelism,
                          dispatch_overhead_s=overhead)
    for lanes in rounds:
        event_wall = event.record_round(lanes, indices=range(len(lanes)))
        assert event_wall == base.record_round(lanes)
        assert event.wall_time_s == base.wall_time_s
    assert event.rounds == base.rounds
    assert event.lane_time_s == base.lane_time_s


@given(lanes=lane_vectors)
@settings(max_examples=100, deadline=None)
def test_event_model_serializes_like_parallelism_one(lanes):
    from repro.disk.events import EventScheduler

    event = EventScheduler(24, parallelism=1)
    event.record_round(lanes, indices=range(len(lanes)))
    assert event.wall_time_s == round_makespan(lanes, 1)
    assert event.wall_time_s == makespanoracle.serial_sum(
        sorted((t for t in lanes if t > 0.0), reverse=True))


@given(rounds=st.lists(lane_vectors, min_size=1, max_size=6),
       parallelism=st.integers(0, 8))
@settings(max_examples=100, deadline=None)
def test_event_model_percentiles_are_monotone(rounds, parallelism):
    from repro.disk.events import EventScheduler

    event = EventScheduler(24, parallelism=parallelism)
    for lanes in rounds:
        event.record_round(lanes, indices=range(len(lanes)))
    if event.latency.count == 0:
        return
    quantiles = [event.latency.percentile(q)
                 for q in (0, 25, 50, 75, 95, 99, 100)]
    assert quantiles == sorted(quantiles)
    assert quantiles[-1] <= event.latency.max_s


@given(spent=st.floats(min_value=0.0, max_value=1e6),
       rate=st.floats(min_value=1e-3, max_value=1.0))
def test_throttle_pause_is_the_duty_cycle_stall(spent, rate):
    """The one helper keeps the float expression (and so the bits) of
    the four stalls it replaced, and makes work ``rate`` of its span."""
    pause = throttle_pause(spent, rate)
    assert pause == spent * (1.0 - rate) / rate
    assert throttle_pause(spent, 1.0) == 0.0
    assert math.isclose(spent, rate * (spent + pause), abs_tol=1e-9)
