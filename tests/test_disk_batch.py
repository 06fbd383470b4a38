"""Batch submission path and segment-store parity tests.

Two contracts from the scatter/gather port:

* The blocked :class:`_SegmentStore` is byte-identical to the seed's
  flat-list implementation (``segmentoracle.FlatSegmentStore``) under
  any write/trim/read sequence.
* ``BlockDevice.submit`` records exactly one ``IoStats`` entry per
  batch and, with reordering off, charges exactly what per-request
  submission charges.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segmentoracle import FlatSegmentStore

from repro.disk.device import BlockDevice, IoRequest, _SegmentStore
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
    return [
        IoRequest(True, [(i * 3 * MB, 64 * KB)])
        for i in range(8)
    ]


class TestBatchAccounting:
    def test_one_stats_record_per_batch(self):
        dev = BlockDevice(scaled_disk(64 * MB))
        dev.submit(scattered_requests())
        assert dev.stats.requests == 1

    def test_batch_cost_identical_to_per_request(self):
        batched = BlockDevice(scaled_disk(64 * MB))
        serial = BlockDevice(scaled_disk(64 * MB))
        batched.submit(scattered_requests())
        for req in scattered_requests():
            serial.submit([req])
        assert batched.stats.write_bytes == serial.stats.write_bytes
        assert batched.stats.write_time_s == pytest.approx(
            serial.stats.write_time_s
        )
        assert batched.stats.seeks == serial.stats.seeks
        assert batched.clock_s == pytest.approx(serial.clock_s)
        assert batched.head_position == serial.head_position
        assert batched.stats.requests == 1
        assert serial.stats.requests == 8

    def test_mixed_batch_splits_read_and_write_accounting(self):
        dev = BlockDevice(scaled_disk(64 * MB))
        dev.submit([
            IoRequest(False, [(0, 1 * MB)]),
            IoRequest(True, [(32 * MB, 2 * MB)]),
        ])
        assert dev.stats.read_bytes == 1 * MB
        assert dev.stats.write_bytes == 2 * MB
        assert dev.stats.read_time_s > 0
        assert dev.stats.write_time_s > 0
        assert dev.stats.requests == 1

    def test_batch_lands_once_in_open_windows(self):
        dev = BlockDevice(scaled_disk(64 * MB))
        win = dev.stats.start_window("batch")
        dev.submit(scattered_requests())
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
                IoRequest(True, [(0, 64 * KB)]),
                IoRequest(True, [(64 * MB, 64 * KB)]),  # off the end
            ])
        assert dev.stats.requests == 0  # rejected before any accounting

    def test_read_results_in_submission_order(self):
        dev = BlockDevice(scaled_disk(4 * MB), store_data=True, policy=CLOOK)
        dev.poke(0, b"aaaa")
        dev.poke(100, b"bbbb")
        results = dev.submit([
            IoRequest.read([(100, 4)]),
            IoRequest.read([(0, 4)]),
        ])
        assert results == [b"bbbb", b"aaaa"]


class TestElevator:
    def test_reorder_reduces_seek_cost(self):
        """Descending submissions served ascending cost fewer seeks."""
        requests = [
            IoRequest(False, [((7 - i) * 8 * MB, 64 * KB)])
            for i in range(8)
        ]
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
        dev.submit([IoRequest.read([behind]), IoRequest.read([ahead])])
        # Served ahead-first, so the head finishes past the wrapped one.
        assert dev.head_position == 1 * MB + 64 * KB

    def test_reorder_never_changes_stored_bytes(self):
        """Overlapping writes resolve in submission order regardless."""
        plain = BlockDevice(scaled_disk(4 * MB), store_data=True)
        shuffled = BlockDevice(scaled_disk(4 * MB), store_data=True,
                               policy=CLOOK)
        batch = [
            IoRequest.write([(2 * MB, 8)], b"X" * 8),
            IoRequest.write([(2 * MB + 4, 8)], b"Y" * 8),
            IoRequest.write([(0, 4)], b"Z" * 4),
        ]
        plain.submit([IoRequest(r.is_write, r.spans, r.data)
                      for r in batch])
        shuffled.submit([IoRequest(r.is_write, r.spans, r.data)
                         for r in batch])
        assert plain.peek(2 * MB, 12) == b"X" * 4 + b"Y" * 8
        assert shuffled.peek(2 * MB, 12) == plain.peek(2 * MB, 12)
        assert shuffled.peek(0, 4) == b"Z" * 4
