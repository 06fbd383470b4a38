"""Tests for the block device: service times, head tracking, content."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costoracle import OracleDevice, cost_of, device_totals

from repro.alloc.extent import Extent
from repro.disk.device import BlockDevice, IoRequest
from repro.disk.faults import DeviceFaults, FaultyBlockDevice
from repro.disk.geometry import DiskGeometry, Zone, make_disk, scaled_disk
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
        contiguous.read_extents([Extent(4 * MB, 256 * KB)])
        fragmented = BlockDevice(dev.geometry)
        fragmented.read_extents([
            Extent(4 * MB, 64 * KB),
            Extent(8 * MB, 64 * KB),
            Extent(16 * MB, 64 * KB),
            Extent(24 * MB, 64 * KB),
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
        dev.read_extents([Extent(0, KB), Extent(2 * MB, KB)])
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
        extents = [Extent(0, 4), Extent(100, 4)]
        dev.write_extents(extents, b"ABCDEFGH")
        assert dev.read_extents(extents) == b"ABCDEFGH"
        assert dev.peek(100, 4) == b"EFGH"

    def test_data_length_mismatch_rejected(self):
        dev = BlockDevice(scaled_disk(4 * MB), store_data=True)
        with pytest.raises(ConfigError):
            dev.write_extents([Extent(0, 8)], b"short")

    def test_peek_poke_do_not_charge_time(self):
        dev = BlockDevice(scaled_disk(4 * MB), store_data=True)
        dev.poke(0, b"hello")
        assert dev.peek(0, 5) == b"hello"
        assert dev.stats.busy_time_s == 0.0

    def test_peek_requires_content_mode(self, dev):
        with pytest.raises(ConfigError):
            dev.peek(0, 4)


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

    def test_throughput_computation(self, dev):
        win = dev.stats.start_window("w")
        dev.read(0, 10 * MB)
        dev.stats.end_window(win)
        assert win.read_throughput() == pytest.approx(
            win.read_bytes / win.read_time_s
        )
        assert win.throughput() > 0


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


def resolve_extent(geometry, window, head, pick):
    """Turn drawn integers into an extent placed relative to ``head``:
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
    return Extent(start, length)


extent_picks = st.tuples(st.integers(0, 5), st.integers(0, 1 << 20),
                         st.integers(0, 3), st.integers(0, 1 << 20))
request_picks = st.tuples(st.booleans(), st.lists(extent_picks, max_size=4))


@given(zoned_geometries(), st.sampled_from([0, 1, 64, 64 * KB]),
       st.sampled_from([1.0, 4.0]),
       st.lists(st.lists(request_picks, min_size=1, max_size=3), max_size=8))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_composed_model(geometry, window, slow, steps):
    """``==`` on every float: per request, and on head, clock and stats
    after every step, for a batch submitted whole, one request at a
    time, and in elevator order."""
    def device():
        if slow == 1.0:
            return BlockDevice(geometry, sequential_window=window)
        return FaultyBlockDevice(geometry, sequential_window=window,
                                 faults=DeviceFaults(slow_factor=slow))

    modes = ("whole", "single", "reorder")
    devs = {mode: device() for mode in modes}
    oracles = {mode: OracleDevice(geometry, window, slow) for mode in modes}
    for step in steps:
        for mode in modes:
            dev, oracle = devs[mode], oracles[mode]
            batch, head = [], oracle.head
            for is_write, picks in step:
                extents = []
                for pick in picks:
                    extents.append(
                        resolve_extent(geometry, window, head, pick))
                    head = extents[-1].end
                batch.append(IoRequest(is_write, extents))
                assert dev._cost_of(extents, oracle.head)[:3] == cost_of(
                    geometry, window, extents, oracle.head, slow)
            if mode == "single":
                for req in batch:
                    dev.submit([req])
                    oracle.submit([req])
            elif mode == "reorder":
                oracle.submit(dev._elevator(batch))
                dev.submit(batch, reorder=True)
            else:
                dev.submit(batch, reorder=False)
                oracle.submit(batch)
            assert device_totals(dev) == oracle.totals()
    # Submission order is free of batching except for the request count
    # and the association of the float sums.
    whole, single = device_totals(devs["whole"]), device_totals(devs["single"])
    assert (whole[0], whole[2:4], whole[6]) == (single[0], single[2:4],
                                                single[6])


class TestKernelEdges:
    """The named corners of the kernel, without a generator in the way."""

    GEOMETRY = DiskGeometry(capacity=1000, zones=(
        Zone(0, 100, 1e4), Zone(100, 400, 7e3), Zone(400, 1000, 3e3)))

    @pytest.mark.parametrize("extents, head", [
        ([Extent(0, 1000)], 0),                    # straddles every zone
        ([Extent(50, 50), Extent(100, 1)], 0),     # head lands on a zone end
        ([Extent(900, 100), Extent(0, 10)], 0),    # head lands on capacity
        ([Extent(10, 10), Extent(95, 10)], 10),    # in-window gap straddles
        ([Extent(20, 10)], 20),                    # gap 0
        ([Extent(85, 5)], 20),                     # gap == window + 1
        ([Extent(5, 5)], 20),                      # backwards
        ([], 20),                                  # empty request
    ])
    @pytest.mark.parametrize("window", [0, 64])
    def test_equals_composed_model(self, extents, head, window):
        dev = BlockDevice(self.GEOMETRY, sequential_window=window)
        *cost, nbytes = dev._cost_of(extents, head)
        assert tuple(cost) == cost_of(self.GEOMETRY, window, extents, head)
        assert nbytes == sum(e.length for e in extents)

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
        dev.read_extents([Extent(offset, 32 * KB),
                          Extent(offset + 40 * KB, 8 * KB)])


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


class TestAtomicValidation:
    def state(self, dev):
        return (dev.head_position, dev.clock_s, dev.stats.snapshot(),
                dev.peek(0, 64), dev.peek(1 * MB, 64))

    def test_bad_last_extent_of_a_request(self):
        dev = BlockDevice(scaled_disk(8 * MB), store_data=True)
        dev.write(0, 8, data=b"original")
        before = self.state(dev)
        with pytest.raises(ConfigError, match="outside volume of"):
            dev.write_extents([Extent(0, 8), Extent(8 * MB - 4, 8)],
                              data=b"x" * 16)
        assert self.state(dev) == before

    def test_bad_last_request_of_a_batch(self):
        dev = BlockDevice(scaled_disk(8 * MB), store_data=True)
        dev.write(0, 8, data=b"original")
        before = self.state(dev)
        batch = [IoRequest.write([Extent(0, 8)], b"y" * 8),
                 IoRequest.write([Extent(1 * MB, 8)], b"z" * 8),
                 IoRequest.read([Extent(2 * MB, 8),
                                 Extent(8 * MB - 4, 8)])]
        for reorder in (False, True):
            with pytest.raises(ConfigError, match="outside volume of"):
                dev.submit(batch, reorder=reorder)
            assert self.state(dev) == before
