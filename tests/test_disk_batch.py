"""Batch submission path and segment-store parity tests.

Two contracts from the scatter/gather port:

* The blocked :class:`_SegmentStore` is byte-identical to the seed's
  flat-list implementation (``segmentoracle.FlatSegmentStore``) under
  any write/trim/read sequence.
* ``BlockDevice.submit`` records exactly one ``IoStats`` entry per
  batch (one direction per batch) and, with reordering off, charges
  exactly what per-request submission charges.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segmentoracle import FlatSegmentStore

from repro.disk.device import BlockDevice, _SegmentStore
from repro.disk.geometry import scaled_disk
from repro.disk.policy import DevicePolicy
from repro.errors import ConfigError
from repro.units import KB, MB

CLOOK = DevicePolicy(reorder="clook")


# ----------------------------------------------------------------------
# Segment-store parity
# ----------------------------------------------------------------------
SPACE = 512  # keep offsets small so overlaps are frequent


@st.composite
def store_operations(draw):
    return draw(st.lists(
        st.one_of(
            st.tuples(st.just("write"),
                      st.integers(min_value=0, max_value=SPACE),
                      st.binary(min_size=1, max_size=40)),
            st.tuples(st.just("trim"),
                      st.integers(min_value=0, max_value=SPACE),
                      st.integers(min_value=0, max_value=60)),
            st.tuples(st.just("read"),
                      st.integers(min_value=0, max_value=SPACE),
                      st.integers(min_value=0, max_value=60)),
        ),
        max_size=60,
    ))


@given(store_operations())
@settings(max_examples=200, deadline=None)
def test_segment_store_parity_with_flat_model(ops):
    """Blocked and flat stores are byte-identical under any sequence."""
    blocked = _SegmentStore()
    flat = FlatSegmentStore()
    for op, offset, arg in ops:
        if op == "write":
            blocked.write(offset, arg)
            flat.write(offset, arg)
        elif op == "trim":
            blocked.trim(offset, arg)
            flat.trim(offset, arg)
        else:
            assert blocked.read(offset, arg) == flat.read(offset, arg)
        assert len(blocked) == len(flat)
    full = SPACE + 128
    assert blocked.read(0, full) == flat.read(0, full)
    blocked._index.check("segment store")


def test_segment_store_many_segments_stay_consistent():
    """Enough disjoint segments to force directory splits."""
    store = _SegmentStore()
    for i in range(3000):
        store.write(i * 8, bytes([i % 251]) * 4)
    assert len(store) == 3000
    store._index.check("segment store")
    assert store.read(16, 4) == bytes([2]) * 4
    # One giant overwrite swallows everything.
    store.write(0, b"\xff" * 3000 * 8)
    assert len(store) == 1
    assert store.read(123, 1) == b"\xff"


def test_trim_reads_back_zeros():
    store = _SegmentStore()
    store.write(10, b"A" * 20)
    store.trim(15, 5)
    assert store.read(10, 20) == b"A" * 5 + b"\x00" * 5 + b"A" * 10
    # Trim splitting one segment into two pieces.
    assert len(store) == 2


def test_device_discard():
    dev = BlockDevice(scaled_disk(4 * MB), store_data=True)
    dev.write(0, 16, b"A" * 16)
    busy = dev.stats.busy_time_s
    dev.discard(4, 8)
    assert dev.stats.busy_time_s == busy  # untimed, like peek/poke
    assert dev.peek(0, 16) == b"A" * 4 + b"\x00" * 8 + b"A" * 4


def test_discard_requires_content_mode():
    dev = BlockDevice(scaled_disk(4 * MB))
    with pytest.raises(ConfigError):
        dev.discard(0, 4)


# ----------------------------------------------------------------------
# Batch submission accounting
# ----------------------------------------------------------------------
def scattered_requests():
    return [[(i * 3 * MB, 64 * KB)] for i in range(8)]


def retired_fold(dev, requests):
    """The stats and clock bits a write batch left when ``submit``
    recorded it in two entries — a read entry carrying the request and
    the seeks, then a write entry with ``requests=0`` — applied by hand
    to a copy of ``dev``'s stats (the device itself is not touched)."""
    order = dev._elevator(requests) if dev.policy.reorder_flag else requests
    costed, _ = dev._cost_of([(spans, 1) for spans in order],
                             dev.head_position)
    seeks = write_bytes = 0
    read_s = write_s = 0.0
    for nbytes, service, count, _ in costed:
        seeks += count
        write_bytes += nbytes
        write_s += service
    stats = pickle.loads(pickle.dumps(dev.stats))
    for acc in (stats, *stats._windows):       # record(False, 0, 0.0, seeks)
        acc.requests += 1
        acc.seeks += seeks
        acc.read_bytes += 0
        acc.read_time_s += read_s
    for acc in (stats, *stats._windows):       # record(True, ..., requests=0)
        acc.requests += 0
        acc.seeks += 0
        acc.write_bytes += write_bytes
        acc.write_time_s += write_s
    return stats, (dev.clock_s + (read_s + write_s)).hex()


class TestBatchAccounting:
    def test_one_stats_record_per_batch(self):
        dev = BlockDevice(scaled_disk(64 * MB))
        dev.submit(scattered_requests(), is_write=True)
        assert dev.stats.requests == 1

    def test_batch_cost_identical_to_per_request(self):
        batched = BlockDevice(scaled_disk(64 * MB))
        serial = BlockDevice(scaled_disk(64 * MB))
        batched.submit(scattered_requests(), is_write=True)
        for spans in scattered_requests():
            serial.submit([spans], is_write=True)
        assert batched.stats.write_bytes == serial.stats.write_bytes
        assert batched.stats.write_time_s == pytest.approx(
            serial.stats.write_time_s
        )
        assert batched.stats.seeks == serial.stats.seeks
        assert batched.clock_s == pytest.approx(serial.clock_s)
        assert batched.head_position == serial.head_position
        assert batched.stats.requests == 1
        assert serial.stats.requests == 8

    @pytest.mark.parametrize("policy", [DevicePolicy(), CLOOK])
    def test_a_write_batch_is_one_entry_equal_to_the_retired_fold(
            self, policy):
        """Totals and an open window: ``requests``, ``seeks``, bytes and
        both times (``==`` on the floats), and the clock's bits."""
        dev = BlockDevice(scaled_disk(64 * MB), policy=policy)
        dev.read(40 * MB, 8 * KB)
        win = dev.stats.start_window("open")
        dev.write(10 * MB, 4 * KB)
        requests = scattered_requests()[::-1]
        expected, clock = retired_fold(dev, requests)
        dev.submit(requests, is_write=True)
        assert dev.stats == expected
        assert dev.stats._windows == [win] and win == expected._windows[0]
        assert dev.clock_s.hex() == clock

    @pytest.mark.parametrize("count", [1, 3])
    def test_a_read_batch_given_payloads_moves_nothing(self, count):
        dev = BlockDevice(scaled_disk(4 * MB), store_data=True)
        dev.write(0, 4, b"abcd")
        dev.stats.start_window("open")
        before = (dev.head_position, dev.clock_s.hex(),
                  pickle.dumps(dev.stats), dev.peek(0, 4 * KB))
        requests = [[(at * KB, 4)] for at in range(count)]
        with pytest.raises(ConfigError, match="read requests"):
            dev.submit(requests, data=[b"wxyz"] * count)
        assert (dev.head_position, dev.clock_s.hex(),
                pickle.dumps(dev.stats), dev.peek(0, 4 * KB)) == before

    def test_batch_lands_once_in_open_windows(self):
        dev = BlockDevice(scaled_disk(64 * MB))
        win = dev.stats.start_window("batch")
        dev.submit(scattered_requests(), is_write=True)
        dev.stats.end_window(win)
        assert win.requests == 1
        assert win.write_bytes == 8 * 64 * KB

    def test_empty_batch_is_a_noop(self):
        dev = BlockDevice(scaled_disk(64 * MB))
        assert dev.submit([]) == []
        assert dev.stats.requests == 0
        assert dev.clock_s == 0.0

    def test_batch_validates_every_request(self):
        dev = BlockDevice(scaled_disk(64 * MB))
        with pytest.raises(ConfigError):
            dev.submit([
                [(0, 64 * KB)],
                [(64 * MB, 64 * KB)],  # off the end
            ], is_write=True)
        assert dev.stats.requests == 0  # rejected before any accounting

    @pytest.mark.parametrize("policy", [DevicePolicy(batch_size=2),
                                        DevicePolicy(batch_size=2,
                                                     reorder="clook")])
    def test_a_policy_cut_list_is_refused_before_its_first_batch(
            self, policy):
        """A bad request in a later batch: nothing of the first batch
        is served, recorded or stored."""
        dev = BlockDevice(scaled_disk(4 * MB), store_data=True, policy=policy)
        dev.write(0, 4, b"keep")
        dev.stats.start_window("open")
        before = (dev.head_position, dev.clock_s.hex(),
                  pickle.dumps(dev.stats), dev.peek(0, 4 * MB))
        with pytest.raises(ConfigError):
            dev.submit_policy([[(1 * MB, 8)], [(2 * MB, 8)], [(4 * MB, 8)]],
                              is_write=True, data=[b"a" * 8, b"b" * 8,
                                                   b"c" * 8])
        assert (dev.head_position, dev.clock_s.hex(),
                pickle.dumps(dev.stats), dev.peek(0, 4 * MB)) == before

    def test_read_results_in_submission_order(self):
        dev = BlockDevice(scaled_disk(4 * MB), store_data=True, policy=CLOOK)
        dev.poke(0, b"aaaa")
        dev.poke(100, b"bbbb")
        results = dev.submit([[(100, 4)], [(0, 4)]])
        assert results == [b"bbbb", b"aaaa"]


class TestElevator:
    def test_reorder_reduces_seek_cost(self):
        """Descending submissions served ascending cost fewer seeks."""
        requests = [[((7 - i) * 8 * MB, 64 * KB)] for i in range(8)]
        ordered = BlockDevice(scaled_disk(64 * MB), policy=CLOOK)
        ordered.submit(list(requests))
        unordered = BlockDevice(scaled_disk(64 * MB))
        unordered.submit(list(requests))
        assert ordered.stats.read_time_s < unordered.stats.read_time_s
        assert ordered.stats.read_bytes == unordered.stats.read_bytes

    def test_reorder_wraps_around_head(self):
        """C-LOOK: requests behind the head go last, still ascending."""
        dev = BlockDevice(scaled_disk(64 * MB), policy=CLOOK)
        dev.read(32 * MB, 64 * KB)  # park the head mid-volume
        behind = (1 * MB, 64 * KB)
        ahead = (48 * MB, 64 * KB)
        dev.submit([[behind], [ahead]])
        # Served ahead-first, so the head finishes past the wrapped one.
        assert dev.head_position == 1 * MB + 64 * KB

    def test_reorder_is_stable_on_equal_starts(self):
        """Requests that start at the same byte keep submission order."""
        dev = BlockDevice(scaled_disk(64 * MB), policy=CLOOK)
        first, second = [(8 * MB, 64 * KB)], [(8 * MB, 4 * KB)]
        low = [(1 * MB, 1)]
        assert dev._elevator([first, second, low]) == [low, first, second]
        assert dev._elevator([second, low, first]) == [low, second, first]

    def test_reorder_never_changes_stored_bytes(self):
        """Overlapping writes resolve in submission order regardless."""
        plain = BlockDevice(scaled_disk(4 * MB), store_data=True)
        shuffled = BlockDevice(scaled_disk(4 * MB), store_data=True,
                               policy=CLOOK)
        requests = [[(2 * MB, 8)], [(2 * MB + 4, 8)], [(0, 4)]]
        data = [b"X" * 8, b"Y" * 8, b"Z" * 4]
        plain.submit(requests, is_write=True, data=data)
        shuffled.submit(requests, is_write=True, data=data)
        assert plain.peek(2 * MB, 12) == b"X" * 4 + b"Y" * 8
        assert shuffled.peek(2 * MB, 12) == plain.peek(2 * MB, 12)
        assert shuffled.peek(0, 4) == b"Z" * 4
