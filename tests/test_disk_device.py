"""Tests for the block device: service times, head tracking, content."""

import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costoracle import OracleDevice, cost_of, device_totals

from repro.disk.device import BlockDevice
from repro.disk.faults import DeviceFaults, FaultyBlockDevice
from repro.disk.geometry import DiskGeometry, Zone, make_disk, scaled_disk
from repro.disk.policy import DevicePolicy
from repro.errors import ConfigError
from repro.units import KB, MB


@pytest.fixture
def dev():
    return BlockDevice(scaled_disk(64 * MB))


class TestServiceModel:
    def test_random_read_charges_seek_and_rotation(self, dev):
        dev.read(32 * MB, 64 * KB)
        stats = dev.stats
        assert stats.seeks == 1
        geometry = dev.geometry
        floor = (geometry.settle_s + geometry.avg_rotational_latency_s
                 + geometry.per_request_overhead_s)
        assert stats.read_time_s > floor

    def test_sequential_read_avoids_second_seek(self, dev):
        dev.read(1 * MB, 64 * KB)
        dev.read(1 * MB + 64 * KB, 64 * KB)  # continues at head position
        assert dev.stats.seeks == 1

    def test_small_forward_gap_is_sequential(self, dev):
        dev.read(1 * MB, 64 * KB)
        dev.read(1 * MB + 80 * KB, 16 * KB)  # within track-buffer window
        assert dev.stats.seeks == 1

    def test_initial_access_at_head_position_is_free(self, dev):
        dev.read(0, 64 * KB)  # head parks at 0; no seek charged
        assert dev.stats.seeks == 0

    def test_backward_gap_seeks(self, dev):
        dev.read(1 * MB, 64 * KB)
        dev.read(0, 64 * KB)
        assert dev.stats.seeks == 2

    def test_fragmented_request_costs_one_seek_per_fragment(self, dev):
        contiguous = BlockDevice(dev.geometry)
        contiguous.read_extents([(4 * MB, 256 * KB)])
        fragmented = BlockDevice(dev.geometry)
        fragmented.read_extents([
            (4 * MB, 64 * KB),
            (8 * MB, 64 * KB),
            (16 * MB, 64 * KB),
            (24 * MB, 64 * KB),
        ])
        assert fragmented.stats.seeks == 4
        assert contiguous.stats.seeks == 1
        assert fragmented.stats.read_time_s > \
            contiguous.stats.read_time_s * 2

    def test_write_and_read_accounted_separately(self, dev):
        dev.write(0, 1 * MB)
        dev.read(0, 2 * MB)
        assert dev.stats.write_bytes == 1 * MB
        assert dev.stats.read_bytes == 2 * MB
        assert dev.stats.write_time_s > 0
        assert dev.stats.read_time_s > 0

    def test_flush_costs_a_rotation(self, dev):
        before = dev.stats.write_time_s
        dev.flush()
        assert dev.stats.write_time_s - before == pytest.approx(
            dev.geometry.rotation_s
        )

    def test_clock_accumulates(self, dev):
        assert dev.clock_s == 0.0
        dev.read(0, 1 * MB)
        t1 = dev.clock_s
        dev.write(32 * MB, 1 * MB)
        assert dev.clock_s > t1

    def test_extent_outside_volume_rejected(self, dev):
        with pytest.raises(ConfigError):
            dev.read(64 * MB - 1024, 64 * KB)

    def test_throughput_of_sequential_stream_approaches_media_rate(self):
        disk = make_disk(64 * MB, nzones=1, outer_rate=50 * MB,
                         inner_rate=50 * MB)
        dev = BlockDevice(disk)
        for i in range(64):
            dev.write(i * MB, 1 * MB)
        rate = dev.stats.write_bytes / dev.stats.write_time_s
        assert rate == pytest.approx(50 * MB, rel=0.05)


class TestHeadTracking:
    def test_head_moves_to_end_of_request(self, dev):
        dev.read(1 * MB, 64 * KB)
        assert dev.head_position == 1 * MB + 64 * KB

    def test_multi_extent_head_at_last(self, dev):
        dev.read_extents([(0, KB), (2 * MB, KB)])
        assert dev.head_position == 2 * MB + KB


class TestContentStore:
    def test_timing_only_device_returns_none(self, dev):
        dev.write(0, 1024)
        assert dev.read(0, 1024) is None

    def test_round_trip(self):
        dev = BlockDevice(scaled_disk(4 * MB), store_data=True)
        payload = bytes(range(256)) * 4
        dev.write(4096, len(payload), payload)
        assert dev.read(4096, len(payload)) == payload

    def test_unwritten_reads_zeros(self):
        dev = BlockDevice(scaled_disk(4 * MB), store_data=True)
        assert dev.read(0, 16) == b"\x00" * 16

    def test_overwrite_replaces(self):
        dev = BlockDevice(scaled_disk(4 * MB), store_data=True)
        dev.write(0, 8, b"AAAAAAAA")
        dev.write(4, 8, b"BBBBBBBB")
        assert dev.peek(0, 12) == b"AAAABBBBBBBB"

    def test_partial_overlap_left_and_right(self):
        dev = BlockDevice(scaled_disk(4 * MB), store_data=True)
        dev.write(10, 10, b"X" * 10)
        dev.write(5, 10, b"Y" * 10)   # covers [5, 15)
        dev.write(18, 4, b"Z" * 4)    # covers [18, 22)
        assert dev.peek(5, 17) == b"Y" * 10 + b"X" * 3 + b"ZZZZ"

    def test_write_inside_existing_segment(self):
        dev = BlockDevice(scaled_disk(4 * MB), store_data=True)
        dev.write(0, 16, b"A" * 16)
        dev.write(4, 4, b"BBBB")
        assert dev.peek(0, 16) == b"AAAA" + b"BBBB" + b"A" * 8

    def test_multi_extent_write_and_read(self):
        dev = BlockDevice(scaled_disk(4 * MB), store_data=True)
        spans = [(0, 4), (100, 4)]
        dev.write_extents(spans, b"ABCDEFGH")
        assert dev.read_extents(spans) == b"ABCDEFGH"
        assert dev.peek(100, 4) == b"EFGH"

    def test_data_length_mismatch_rejected(self):
        dev = BlockDevice(scaled_disk(4 * MB), store_data=True)
        with pytest.raises(ConfigError):
            dev.write_extents([(0, 8)], b"short")

    def test_peek_poke_do_not_charge_time(self):
        dev = BlockDevice(scaled_disk(4 * MB), store_data=True)
        dev.poke(0, b"hello")
        assert dev.peek(0, 5) == b"hello"
        assert dev.stats.busy_time_s == 0.0

    def test_peek_requires_content_mode(self, dev):
        with pytest.raises(ConfigError):
            dev.peek(0, 4)

    @pytest.mark.parametrize("access", [
        pytest.param(lambda dev: dev.poke(64 * MB + 10, b"past"),
                     id="poke-past-the-end"),
        pytest.param(lambda dev: dev.peek(64 * MB - 2, 4),
                     id="peek-past-the-end"),
        pytest.param(lambda dev: dev.discard(-5, 8),
                     id="discard-before-the-start"),
    ])
    def test_untimed_access_outside_the_volume_is_refused(self, access):
        dev = BlockDevice(scaled_disk(64 * MB), store_data=True)
        dev.poke(0, b"head")
        dev.poke(64 * MB - 4, b"tail")
        with pytest.raises(ConfigError, match="outside volume"):
            access(dev)
        assert dev.peek(0, 4) == b"head"
        assert dev.peek(64 * MB - 4, 4) == b"tail"
        assert dev.stats.busy_time_s == 0.0

    def test_an_empty_range_at_the_volume_end_is_untimed_access(self):
        dev = BlockDevice(scaled_disk(64 * MB), store_data=True)
        dev.poke(64 * MB, b"")
        dev.discard(64 * MB, 0)
        assert dev.peek(64 * MB, 0) == b""


class TestWindows:
    def test_window_captures_subset(self, dev):
        dev.read(0, 1 * MB)
        win = dev.stats.start_window("phase")
        dev.read(2 * MB, 1 * MB)
        dev.stats.end_window(win)
        dev.read(4 * MB, 1 * MB)
        assert win.read_bytes == 1 * MB
        assert dev.stats.read_bytes == 3 * MB

    def test_nested_windows(self, dev):
        outer = dev.stats.start_window("outer")
        dev.write(0, 1 * MB)
        inner = dev.stats.start_window("inner")
        dev.write(1 * MB, 1 * MB)
        dev.stats.end_window(inner)
        dev.write(2 * MB, 1 * MB)
        dev.stats.end_window(outer)
        assert inner.write_bytes == 1 * MB
        assert outer.write_bytes == 3 * MB

    def test_cpu_time_lands_in_windows(self, dev):
        win = dev.stats.start_window("w")
        dev.stats.record_cpu(0.25)
        dev.stats.end_window(win)
        assert win.cpu_time_s == 0.25
        assert win.total_time_s == pytest.approx(0.25)


# ----------------------------------------------------------------------
# The costing kernel against the composed model (costoracle.py)
# ----------------------------------------------------------------------
@st.composite
def zoned_geometries(draw):
    """1-8 zones of unequal size and rate; small, so boundaries are hit."""
    sizes = draw(st.lists(st.integers(1, 4096), min_size=1, max_size=8))
    zones, start = [], 0
    for size in sizes:
        rate = draw(st.floats(1e3, 1e8, allow_nan=False))
        zones.append(Zone(start, start + size, rate))
        start += size
    return DiskGeometry(capacity=start, zones=tuple(zones))


def resolve_span(geometry, window, head, pick):
    """Turn drawn integers into a span placed relative to ``head``:
    gap 0 / inside the window / window + 1 / backwards / on a zone end /
    anywhere, ending in-zone / on the next zone end / on capacity /
    anywhere (straddling zero or more boundaries)."""
    where, x, how, y = pick
    capacity = geometry.capacity
    ends = [zone.end for zone in geometry.zones]
    start = (head,
             head + 1 + x % max(window, 1),
             head + window + 1,
             x % max(head, 1),
             ends[x % len(ends)],
             x % capacity)[where]
    if start >= capacity:
        start = x % capacity
    zone_end = geometry.zone_at(start).end
    length = (1, zone_end - start, capacity - start,
              1 + y % (capacity - start))[how]
    return start, length


span_picks = st.tuples(st.integers(0, 5), st.integers(0, 1 << 20),
                         st.integers(0, 3), st.integers(0, 1 << 20))
#: One batch: its direction and, per request, the span picks.
batch_picks = st.tuples(st.booleans(), st.lists(
    st.lists(span_picks, max_size=4), min_size=1, max_size=3))


def ones(batch):
    """``batch`` as count-1 runs, the kernel's input."""
    return [(spans, 1) for spans in batch]


def chained(dev, batch, head):
    """``_cost_of``'s answer for ``batch``, one request per call."""
    costed = []
    for spans in batch:
        (entry,), head = dev._cost_of([(spans, 1)], head)
        costed.append(entry)
    return costed, head


@given(zoned_geometries(), st.sampled_from([0, 1, 64, 64 * KB]),
       st.sampled_from([1.0, 4.0]),
       st.lists(batch_picks, max_size=8))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_composed_model(geometry, window, slow, steps):
    """``==`` on every float: per request, for the batch costed as one
    list against its requests chained one call at a time, and on head,
    clock and stats after every step, for a batch submitted whole, one
    request at a time, and in elevator order."""
    def device(policy):
        if slow == 1.0:
            return BlockDevice(geometry, sequential_window=window,
                               policy=policy)
        return FaultyBlockDevice(geometry, sequential_window=window,
                                 faults=DeviceFaults(slow_factor=slow),
                                 policy=policy)

    modes = ("whole", "single", "reorder")
    devs = {mode: device(CLOOK if mode == "reorder" else DevicePolicy())
            for mode in modes}
    oracles = {mode: OracleDevice(geometry, window, slow) for mode in modes}
    for is_write, step in steps:
        for mode in modes:
            dev, oracle = devs[mode], oracles[mode]
            batch, head = [], oracle.head
            for picks in step:
                spans = []
                for pick in picks:
                    start, length = resolve_span(geometry, window, head, pick)
                    spans.append((start, length))
                    head = start + length
                batch.append(spans)
                ((_, service, seeks, _),), final = dev._cost_of(
                    [(spans, 1)], oracle.head)
                assert (seeks, service, final) == cost_of(
                    geometry, window, spans, oracle.head, slow)
            assert dev._cost_of(ones(batch), oracle.head) == chained(
                dev, batch, oracle.head)
            if mode == "single":
                for spans in batch:
                    dev.submit([spans], is_write=is_write)
                    oracle.submit([spans], is_write)
            elif mode == "reorder":
                oracle.submit(dev._elevator(batch), is_write)
                dev.submit(batch, is_write=is_write)
            else:
                dev.submit(batch, is_write=is_write)
                oracle.submit(batch, is_write)
            assert device_totals(dev) == oracle.totals()
    # Submission order is free of batching except for the request count
    # and the association of the float sums.
    whole, single = device_totals(devs["whole"]), device_totals(devs["single"])
    assert (whole[0], whole[2:4], whole[6]) == (single[0], single[2:4],
                                                single[6])


#: One run of equal one-span requests, placed relative to the head:
#: continue at it, end exactly on a zone end, straddle a zone end
#: mid-run, start on one, come back to a lower zone after a seek, or a
#: count-1 entry of two spans between runs.
run_moves = st.lists(st.tuples(
    st.sampled_from(["next", "next", "on_end", "straddle", "from_end",
                     "lower", "split"]),
    st.integers(0, 1 << 20), st.integers(1, 300)), min_size=1, max_size=12)


def place_run(geometry, head, length, move, x, count):
    """A ``(spans, count)`` run of ``length``-byte requests placed by
    ``move``, its count cut to what fits before the capacity."""
    zones = geometry.zones
    end = zones[x % len(zones)].end
    if move == "on_end":
        start = end - count * length
    elif move == "straddle" and length > 1:
        start = end - (x % count) * length - 1 - x % (length - 1)
    elif move == "from_end":
        start = end
    elif move == "lower":
        below = [zone for zone in zones if zone.end <= head] or zones[:1]
        zone = below[x % len(below)]
        start = zone.start + x % (zone.end - zone.start)
    else:
        start = head
    start = max(0, min(start, geometry.capacity - length))
    if move == "split" and length > 1:
        cut = 1 + x % (length - 1)
        return [(start, cut), (start + cut, length - cut)], 1
    return [(start, length)], max(1, min(count, (geometry.capacity - start)
                                         // length))


@given(zoned_geometries(), st.sampled_from([0, 64]),
       st.sampled_from([1.0, 4.0]), st.integers(0, 1 << 20),
       st.integers(0, 1 << 20), run_moves)
@settings(max_examples=300, deadline=None)
def test_kernel_costs_repeat_runs_as_the_composed_model(
        geometry, window, slow, x, y, moves):
    """Runs of equal one-span requests, which the kernel costs as
    entries of a count: every request's books, each entry repeated
    ``count`` times, and the final head ``==`` the composed model's, for
    runs that end on a zone end, straddle one, start on one, and come
    back to a lower zone after a seek."""
    capacity = geometry.capacity
    length = 1 + y % min(capacity, (1, 8, 512)[x % 3])
    head = first = x % (capacity + 1)
    runs, expected = [], []
    for move, pick, count in moves:
        spans, count = place_run(geometry, head, length, move, pick, count)
        runs.append((spans, count))
        (start, _), *_ = spans
        requests = [spans] if count == 1 else [
            [(start + t * length, length)] for t in range(count)]
        for request in requests:
            seeks, service, head = cost_of(geometry, window, request, head,
                                           slow)
            expected.append((length, service, seeks))
    if slow == 1.0:
        dev = BlockDevice(geometry, sequential_window=window)
    else:
        dev = FaultyBlockDevice(geometry, sequential_window=window,
                                faults=DeviceFaults(slow_factor=slow))
    costed, final = dev._cost_of(runs, first)
    assert [entry[:3] for entry in costed
            for _ in range(entry[3])] == expected
    assert final == head


class TestKernelEdges:
    """The named corners of the kernel, without a generator in the way."""

    GEOMETRY = DiskGeometry(capacity=1000, zones=(
        Zone(0, 100, 1e4), Zone(100, 400, 7e3), Zone(400, 1000, 3e3)))

    EDGES = [
        ([(0, 1000)], 0),                    # straddles every zone
        ([(50, 50), (100, 1)], 0),     # head lands on a zone end
        ([(900, 100), (0, 10)], 0),    # head lands on capacity
        ([(10, 10), (95, 10)], 10),    # in-window gap straddles
        ([(20, 10)], 20),                    # gap 0
        ([(85, 5)], 20),                     # gap == window + 1
        ([(5, 5)], 20),                      # backwards
        ([], 20),                                  # empty request
    ]

    @pytest.mark.parametrize("extents, head", EDGES)
    @pytest.mark.parametrize("window", [0, 64])
    def test_equals_composed_model(self, extents, head, window):
        dev = BlockDevice(self.GEOMETRY, sequential_window=window)
        ((nbytes, service, seeks, count),), final = dev._cost_of(
            [(extents, 1)], head)
        assert count == 1
        assert (seeks, service, final) == cost_of(self.GEOMETRY, window,
                                                  extents, head)
        assert nbytes == sum(length for _, length in extents)

    @pytest.mark.parametrize("window", [0, 64])
    def test_list_equals_requests_chained(self, window):
        """Every edge request in one list, the head chaining through
        them, costs what the same requests cost one call at a time."""
        dev = BlockDevice(self.GEOMETRY, sequential_window=window)
        batch = [extents for extents, _ in self.EDGES]
        assert dev._cost_of(ones(batch), 20) == chained(dev, batch, 20)
        assert dev._cost_of([], 20) == ([], 20)

    def test_negative_window_rejected(self):
        with pytest.raises(ConfigError):
            BlockDevice(self.GEOMETRY, sequential_window=-1)


# ----------------------------------------------------------------------
# Derived tables are not device state; validation is atomic
# ----------------------------------------------------------------------
DEVICE_KEYS = {"geometry", "stats", "policy", "_store", "_head",
               "_sequential_window", "clock_s"}


def drive(dev, offsets):
    for offset in offsets:
        dev.write(offset, 96 * KB)
        dev.read_extents([(offset, 32 * KB),
                          (offset + 40 * KB, 8 * KB)])


class TestPickleNeutral:
    def test_zone_table_is_not_in_the_bytes(self):
        warm = BlockDevice(make_disk(64 * MB))
        cold = BlockDevice(make_disk(64 * MB))
        fresh = pickle.dumps(warm)
        warm.geometry.zone_at(0)  # builds the table for this geometry only
        assert pickle.dumps(warm) == fresh == pickle.dumps(cold)
        offsets = [48 * MB, 7 * MB, 7 * MB + 100 * KB, 8 * MB - 16 * KB]
        drive(warm, offsets)
        drive(cold, offsets)
        assert pickle.dumps(warm) == pickle.dumps(cold)
        assert set(vars(warm)) == DEVICE_KEYS

    def test_unpickled_device_costs_like_its_twin(self):
        twin = BlockDevice(make_disk(64 * MB))
        drive(twin, [48 * MB, 7 * MB])
        copy = pickle.loads(pickle.dumps(twin))
        assert copy.geometry is not twin.geometry
        offsets = [8 * MB - 16 * KB, 60 * MB, 60 * MB + 128 * KB]
        drive(twin, offsets)
        drive(copy, offsets)
        assert device_totals(copy) == device_totals(twin)
        assert pickle.dumps(copy) == pickle.dumps(twin)


CLOOK = DevicePolicy(reorder="clook")


def stored_device(slow: float, capacity: int = 8 * MB,
                  policy: DevicePolicy | None = None) -> BlockDevice:
    """A content-storing device, slowed through the fault seam if asked."""
    if slow == 1.0:
        return BlockDevice(scaled_disk(capacity), store_data=True,
                           policy=policy)
    return FaultyBlockDevice(scaled_disk(capacity), store_data=True,
                             faults=DeviceFaults(slow_factor=slow),
                             policy=policy)


def device_state(dev):
    return (dev.head_position, dev.clock_s, copy.copy(dev.stats),
            dev.peek(0, 64), dev.peek(1 * MB, 64))


class TestAtomicValidation:
    @pytest.mark.parametrize("slow", [1.0, 4.0])
    def test_short_data_leaves_the_device_untouched(self, slow):
        """A data length that misses the span bytes is refused in the
        costing pass: by ``_serve`` and by ``submit``, even when an
        earlier request of the batch is well formed."""
        dev = stored_device(slow)
        dev.write(0, 8, data=b"original")
        before = device_state(dev)
        with pytest.raises(ConfigError, match="data length 100 != span"):
            dev.write_extents([(0, 4096)], b"x" * 100)
        with pytest.raises(ConfigError, match="data length"):
            dev.write(1 * MB, 8, b"short")
        assert device_state(dev) == before
        batch = [[(0, 8)], [(1 * MB, 8)]]
        for policy in (None, CLOOK):
            dev = stored_device(slow, policy=policy)
            dev.write(0, 8, data=b"original")
            before = device_state(dev)
            with pytest.raises(ConfigError, match="data length 4 != span"):
                dev.submit(batch, is_write=True, data=[b"y" * 8, b"z" * 4])
            assert device_state(dev) == before

    def test_bad_last_extent_of_a_request(self):
        dev = BlockDevice(scaled_disk(8 * MB), store_data=True)
        dev.write(0, 8, data=b"original")
        before = device_state(dev)
        with pytest.raises(ConfigError, match="outside volume of"):
            dev.write_extents([(0, 8), (8 * MB - 4, 8)],
                              data=b"x" * 16)
        assert device_state(dev) == before

    def test_bad_last_request_of_a_batch(self):
        batch = [[(0, 8)], [(1 * MB, 8)], [(2 * MB, 8), (8 * MB - 4, 8)]]
        for policy, data in itertools.product(
                (None, CLOOK), (None, [b"y" * 8, b"z" * 8, b"w" * 16])):
            dev = BlockDevice(scaled_disk(8 * MB), store_data=True,
                              policy=policy)
            dev.write(0, 8, data=b"original")
            before = device_state(dev)
            with pytest.raises(ConfigError, match="outside volume of"):
                dev.submit(batch, is_write=data is not None, data=data)
            assert device_state(dev) == before


CAPACITY = 8 * MB
good_spans = st.tuples(st.integers(0, CAPACITY - 64 * KB),
                       st.integers(1, 64 * KB))
bad_spans = st.one_of(
    st.tuples(st.integers(max_value=-1), st.integers(1, 64 * KB)),
    st.tuples(st.integers(0, CAPACITY), st.integers(max_value=0)),
    st.tuples(st.integers(0, 64 * KB), st.integers(1, 64 * KB)).map(
        lambda pick: (CAPACITY - pick[0], pick[0] + pick[1])),
)


@given(bad_spans, st.lists(good_spans, max_size=3), st.integers(0, 3),
       st.booleans(), st.sampled_from(["single", "batch", "reorder"]),
       st.sampled_from([1.0, 4.0]))
@settings(max_examples=150, deadline=None)
def test_a_bad_span_is_refused_before_any_state_moves(bad, good, where,
                                                      is_write, mode, slow):
    """A span with ``start < 0``, ``length <= 0`` or an end past capacity,
    anywhere in a request, raises before the head, the clock, the stats
    or the stored bytes change: alone, or as the last request of a
    batch (in submission or elevator order)."""
    dev = stored_device(slow, CAPACITY,
                        CLOOK if mode == "reorder" else None)
    dev.write(0, 8, data=b"original")
    before = device_state(dev)
    spans = list(good)
    spans.insert(where % (len(spans) + 1), bad)
    with pytest.raises(ConfigError, match="outside volume of"):
        if mode == "single":
            (dev.write_extents if is_write else dev.read_extents)(spans)
        else:
            dev.submit([[(1 * MB, 8)], spans], is_write=is_write)
    assert device_state(dev) == before
