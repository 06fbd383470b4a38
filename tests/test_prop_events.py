"""Property suite tying the event model to the PR 5 makespan model.

The contract the tentpole rests on:

* **Reduction** — with closed-round arrivals (and therefore no
  cross-round queueing), the event scheduler's wall time equals the
  dispatch-round makespan **to the float** for every lane vector and
  parallelism cap; ``parallelism=1`` equals the serial sum exactly.
* **Conservation** — the queue model never creates or destroys work:
  for any generated workload interleaving, a ``queue=event`` store
  and its ``queue=round`` twin see byte-identical per-device IoStats
  (the event layer re-times requests, it does not issue different
  I/O); after a drain, ``submitted == completed ==`` the histogram's
  sample count, and summed lane time matches the devices' clocks.
* **Monotone percentiles** — p50 ≤ p95 ≤ p99 ≤ max sojourn for any
  recorded sample set.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st
from makespanoracle import serial_sum

from repro.backends.registry import build_store
from repro.backends.spec import StoreSpec
from repro.disk.events import EventScheduler, LatencyHistogram
from repro.disk.schedule import ShardScheduler, round_makespan
from repro.units import KB, MB

lane_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
              allow_infinity=False),
    min_size=0, max_size=16,
)

REL_EPS = 1e-9


# ----------------------------------------------------------------------
# Reduction: closed-mode event wall == round makespan, exactly
# ----------------------------------------------------------------------
@given(rounds=st.lists(lane_vectors, min_size=0, max_size=8),
       parallelism=st.integers(0, 20),
       overhead=st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=200, deadline=None)
def test_closed_event_model_reduces_to_makespan_exactly(rounds,
                                                        parallelism,
                                                        overhead):
    event = EventScheduler(16, parallelism=parallelism,
                           dispatch_overhead_s=overhead)
    base = ShardScheduler(parallelism=parallelism,
                          dispatch_overhead_s=overhead)
    for lanes in rounds:
        event_wall = event.record_round(lanes,
                                        indices=range(len(lanes)))
        base_wall = base.record_round(lanes)
        # Per-round and cumulative equality, both to the float.
        assert event_wall == base_wall
        assert event.wall_time_s == base.wall_time_s
        assert event.lane_time_s == base.lane_time_s
    assert event.rounds == base.rounds
    # Unbounded depth + closed rounds: nothing queues across rounds,
    # so every submitted request completed inside its round.
    assert event.submitted == event.completed == event.latency.count


@given(lanes=lane_vectors)
@settings(max_examples=120, deadline=None)
def test_closed_parallelism_one_is_the_serial_sum(lanes):
    event = EventScheduler(16, parallelism=1)
    event.record_round(lanes, indices=range(len(lanes)))
    busy = sorted((t for t in lanes if t > 0.0), reverse=True)
    # Not builtin sum(): compensated from CPython 3.12, so not a model.
    assert event.wall_time_s == serial_sum(busy)
    assert event.wall_time_s == round_makespan(lanes, 1)


@given(lanes=lane_vectors, parallelism=st.integers(0, 20))
@settings(max_examples=150, deadline=None)
def test_closed_sojourns_stay_inside_the_round(lanes, parallelism):
    """Every sojourn covers its service time and none exceeds the
    round's wall time: queueing delays requests, it never shrinks or
    escapes the round."""
    event = EventScheduler(16, parallelism=parallelism)
    event.record_round(lanes, indices=range(len(lanes)))
    busy = [t for t in lanes if t > 0.0]
    if not busy:
        assert event.latency.count == 0
        return
    assert event.latency.count == len(busy)
    assert event.latency.min_s >= min(busy) - REL_EPS * max(1.0, min(busy))
    assert event.latency.max_s <= event.wall_time_s \
        + REL_EPS * max(1.0, event.wall_time_s)


# ----------------------------------------------------------------------
# Monotone percentiles
# ----------------------------------------------------------------------
@given(samples=st.lists(
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=300))
@settings(max_examples=150, deadline=None)
def test_percentiles_are_monotone_and_bounded(samples):
    hist = LatencyHistogram()
    for value in samples:
        hist.record(value)
    p50 = hist.percentile(50)
    p95 = hist.percentile(95)
    p99 = hist.percentile(99)
    assert p50 <= p95 <= p99 <= hist.max_s
    assert hist.min_s <= p50
    assert hist.max_s == max(samples)
    assert hist.count == len(samples)


# ----------------------------------------------------------------------
# Conservation under arbitrary interleavings (event vs round twins)
# ----------------------------------------------------------------------
SHARDS = 4

#: An op is (kind, key-index, size-units); generated sequences mix
#: puts, re-reads, overwrites, deletes, and fan-out sweeps in any
#: order, so conservation is checked under arbitrary interleavings.
ops = st.lists(
    st.tuples(st.sampled_from(["put", "get", "overwrite", "delete",
                               "sweep"]),
              st.integers(0, 11),
              st.integers(1, 24)),
    min_size=1, max_size=40,
)


def apply_ops(store, sequence):
    live = set()
    for kind, idx, units in sequence:
        key = f"obj-{idx}"
        size = units * 16 * KB
        if kind == "put":
            if key not in live:
                store.put(key, size=size)
                live.add(key)
        elif key not in live:
            continue
        elif kind == "get":
            store.get(key)
        elif kind == "overwrite":
            store.overwrite(key, size=size)
        elif kind == "delete":
            store.delete(key)
            live.discard(key)
        elif kind == "sweep":
            store.read_many(sorted(live))


def device_totals(store):
    return [(dev.stats.read_bytes, dev.stats.write_bytes,
             dev.stats.requests, dev.stats.seeks, dev.clock_s)
            for dev in store.devices()]


@given(sequence=ops,
       arrival=st.sampled_from(["closed", "poisson:rate=2000",
                                "poisson:rate=50:clients=8"]),
       depth=st.sampled_from([0, 2, 64]))
@settings(max_examples=30, deadline=None)
def test_event_queue_conserves_device_iostats(sequence, arrival, depth):
    def build(queue, **extra):
        text = f"lfs:shards={SHARDS},overlap=true,queue={queue}"
        return build_store(StoreSpec.parse(
            text, volume_bytes=96 * MB, **extra))

    event_store = build("event", arrival=arrival, queue_depth=depth)
    round_store = build("round")
    apply_ops(event_store, sequence)
    apply_ops(round_store, sequence)
    event_store.scheduler.drain()

    # The event layer re-times requests; it must not change what I/O
    # the devices served.  Bytes, requests, seeks, and device clocks
    # are identical to the round twin's, device by device.
    assert device_totals(event_store) == device_totals(round_store)
    # Identical lane accounting too: summed lane seconds are the same
    # device time, whichever queue model re-times it.
    assert event_store.scheduler.lane_time_s == \
        round_store.scheduler.lane_time_s
    assert event_store.scheduler.rounds == round_store.scheduler.rounds

    sched = event_store.scheduler
    # No request is lost, duplicated, or double-counted.
    assert sched.submitted == sched.completed == sched.latency.count
    assert sched.queued == 0 and sched.in_flight == 0
    if arrival == "closed":
        # Zero queueing: the reduction holds through a real store too.
        assert sched.wall_time_s == round_store.scheduler.wall_time_s
    # Logical state is identical as well.
    assert event_store.keys() == round_store.keys()
    assert event_store.store_stats() == round_store.store_stats()


@given(sequence=ops, parallelism=st.integers(1, SHARDS))
@settings(max_examples=20, deadline=None)
def test_poisson_worker_cap_floors_the_wall_time(sequence, parallelism):
    """With a global worker cap below the shard count, at most
    ``parallelism`` requests can be in service at any instant of the
    timeline, so wall time is at least the devices' summed clocks
    divided by the cap — a capped run can't secretly overlap more
    lanes than it has workers."""
    store = build_store(StoreSpec.parse(
        f"lfs:shards={SHARDS},overlap=true,queue=event,"
        f"parallelism={parallelism},arrival=poisson:rate=1000",
        volume_bytes=96 * MB))
    apply_ops(store, sequence)
    sched = store.scheduler
    sched.drain()
    total_clock = sum(dev.clock_s for dev in store.devices())
    assert sched.wall_time_s >= total_clock / parallelism \
        - REL_EPS * max(1.0, total_clock)
    assert sched.submitted == sched.completed == sched.latency.count


@given(sequence=ops)
@settings(max_examples=20, deadline=None)
def test_event_wall_time_respects_the_makespan_envelope(sequence):
    """Open-loop wall time can exceed the makespan (queueing) but
    never beats the critical path: with one request in service per
    shard, total wall covers at least the busiest device's clock."""
    store = build_store(StoreSpec.parse(
        f"lfs:shards={SHARDS},overlap=true,queue=event,"
        "arrival=poisson:rate=1000", volume_bytes=96 * MB))
    apply_ops(store, sequence)
    store.scheduler.drain()
    busiest = max(dev.clock_s for dev in store.devices())
    assert store.scheduler.wall_time_s >= busiest - REL_EPS
    # And lane time equals the devices' summed clocks exactly (the
    # scheduler measured the same deltas the devices recorded).
    total_clock = sum(dev.clock_s for dev in store.devices())
    assert math.isclose(store.scheduler.lane_time_s, total_clock,
                        rel_tol=1e-9, abs_tol=1e-12)


# ----------------------------------------------------------------------
# Stalls: background throttling must not bend the timeline contract
# ----------------------------------------------------------------------
@given(plan=st.lists(
    st.one_of(
        st.tuples(st.just("round"),
                  st.floats(min_value=1e-4, max_value=0.5)),
        st.tuples(st.just("stall"),
                  st.floats(min_value=1e-3, max_value=5.0)),
    ),
    min_size=1, max_size=24))
@settings(max_examples=60, deadline=None)
def test_stalls_interleave_without_breaking_the_books(plan):
    """Random stalls interleaved with poisson rounds (the shape a
    throttled rebalance or charged checkpoint produces): conservation
    holds — every submission completes exactly once — wall time covers
    the sum of stalls, and after every stall the arrival cursor sits at
    or past the charged frontier (no arrival backdates into a window
    the submitting driver slept through)."""
    sched = EventScheduler(2, arrival="poisson:rate=500:seed=9", depth=8)
    stalled = 0.0
    for kind, value in plan:
        if kind == "round":
            sched.record_round([value, value / 2], indices=(0, 1))
        else:
            sched.record_stall(value)
            stalled += value
            assert sched._arrival_cursor >= sched._charged - REL_EPS
    sched.drain()
    assert sched.submitted == sched.completed == sched.latency.count
    assert sched.queued == 0 and sched.in_flight == 0
    assert sched.wall_time_s >= stalled - REL_EPS * max(1.0, stalled)
    # Two lanes: wall still covers the busiest lane's share.
    assert sched.wall_time_s >= sched.lane_time_s / 2 \
        - REL_EPS * max(1.0, sched.lane_time_s)
