"""``write_stream`` against the request list it stands for.

``BlockDevice.write_stream(start, length, request, data)`` writes a
contiguous range as consecutive ``request``-byte write requests under
the device policy (under the default policy as two kernel runs,
without building them).  The oracle is
:meth:`BlockDevice.submit_policy` of those requests, materialised: both
must leave the device identical — every ``IoStats`` field and open
window (floats compared with ``==``), the clock's bits, the head,
stored bytes and the pickled device.  A faulty device keeps the
request-list form, so its crash ticks, torn bytes, transient draws and
slow factor are the materialised form's too.  A bad stream is refused
before anything moves.
"""

import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.disk.device import BlockDevice
from repro.disk.faults import CrashClock, DeviceFaults, FaultyBlockDevice
from repro.disk.geometry import make_disk
from repro.disk.policy import DevicePolicy
from repro.errors import ConfigError, CrashPoint, TransientIoError
from repro.units import KB, MB

CAPACITY = 8 * MB


def materialised(dev, start, length, request, data):
    """``submit_policy`` of the write requests a stream stands for, in
    submission order, on ``dev``."""
    starts = range(start, start + length, request)
    dev.submit_policy(
        [[(pos, min(request, start + length - pos))] for pos in starts],
        is_write=True,
        data=None if data is None
        else [data[pos - start: pos - start + request] for pos in starts])


def device_state(dev, start=0, length=64 * KB):
    """Everything a stream may move; stored bytes are read back over
    the stream's range (the pickle holds the rest of the store)."""
    return (dev.stats, dev.clock_s.hex(), dev.head_position,
            dev.peek(start, length) if dev.stores_data else None,
            pickle.dumps(dev))


@st.composite
def streams(draw):
    """A device configuration, a head position and one stream."""
    nzones = draw(st.sampled_from([1, 3, 8]))
    request = draw(st.sampled_from([4 * KB, 64 * KB, 10_000]))
    length = draw(st.integers(min_value=1, max_value=12 * request))
    # Half the streams cross a zone boundary somewhere inside.
    boundary = CAPACITY * draw(st.integers(1, max(1, nzones - 1))) // nzones
    start = draw(st.one_of(
        st.integers(min_value=0, max_value=CAPACITY - length),
        st.integers(min_value=max(0, boundary - length),
                    max_value=min(boundary, CAPACITY - length))))
    inside = draw(st.integers(min_value=start, max_value=start + length))
    head = draw(st.one_of(st.just(min(inside, CAPACITY - 1)),
                          st.integers(min_value=0, max_value=CAPACITY - 1)))
    return {
        "nzones": nzones,
        "window": draw(st.sampled_from([0, 4 * KB, 64 * KB])),
        "policy": DevicePolicy(
            batch_size=draw(st.sampled_from([0, 1, 2, 3, 5])),
            reorder=draw(st.sampled_from(["none", "clook"]))),
        "store": draw(st.booleans()),
        "with_data": draw(st.booleans()),
        "head": head,
        "stream": (start, length, request),
    }


def case_of(stream, *, nzones=8, window=64 * KB, policy=DevicePolicy(),
            store=True, head=0):
    """A :func:`streams` case, written out."""
    return {"nzones": nzones, "window": window, "policy": policy,
            "store": store, "with_data": store, "head": head,
            "stream": stream}


#: Streams that pin the run cut: no tail, a tail only, whole requests
#: ending on a zone end (1 MB here) and one straddling it, a head parked
#: inside the stream under C-LOOK, and batches of one and three.
EDGES = [
    case_of((1 * MB, 8 * 64 * KB, 64 * KB), nzones=3),
    case_of((3 * MB, 10_000, 64 * KB), nzones=1, window=0, store=False,
            head=5 * MB),
    case_of((1 * MB - 4 * 64 * KB, 6 * 64 * KB + 100, 64 * KB),
            window=4 * KB),
    case_of((2 * MB - 25_000, 11 * 10_000 + 1, 10_000), window=0,
            store=False, head=7 * MB),
    case_of((1 * MB, 6 * 64 * KB, 64 * KB), nzones=3,
            policy=DevicePolicy(reorder="clook"),
            head=1 * MB + 2 * 64 * KB + 100),
    case_of((1 * MB, 7 * 64 * KB + 9, 64 * KB),
            policy=DevicePolicy(batch_size=3, reorder="clook"),
            head=1 * MB + 4 * 64 * KB + 100),
    case_of((2 * MB - 3 * 4 * KB, 7 * 4 * KB + 5, 4 * KB),
            policy=DevicePolicy(batch_size=1)),
    case_of((2 * MB - 3 * 4 * KB, 7 * 4 * KB + 5, 4 * KB),
            policy=DevicePolicy(batch_size=3), store=False, head=6 * MB),
]


def edge_examples(*extra):
    """``@example`` of every :data:`EDGES` case (then ``extra``)."""
    def apply(test):
        for case in EDGES:
            test = example(case, *extra)(test)
        return test
    return apply


def twins(case, cls=BlockDevice, **kwargs):
    """Two equal devices, a window open and the head parked."""
    made = []
    for _ in range(2):
        dev = cls(make_disk(CAPACITY, nzones=case["nzones"]),
                  store_data=case["store"],
                  sequential_window=case["window"],
                  policy=case["policy"], **kwargs)
        dev.stats.start_window("stream")
        dev.read(case["head"], 1)
        made.append(dev)
    return made


def payload(case):
    start, length, _ = case["stream"]
    if not case["with_data"]:
        return None
    return bytes((start + i) % 251 for i in range(length))


@edge_examples()
@given(streams())
@settings(max_examples=300, deadline=None)
def test_a_stream_charges_what_its_request_list_charges(case):
    stream, oracle = twins(case)
    data = payload(case)
    span = case["stream"][:2]
    for _ in range(2):     # the second stream starts where the first ended
        stream.write_stream(*case["stream"], data)
        materialised(oracle, *case["stream"], data)
        assert device_state(stream, *span) == device_state(oracle, *span)


@edge_examples(2.5, 7)
@given(streams(), st.sampled_from([1.0, 2.5]), st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_a_faulty_stream_is_its_request_list(case, factor, seed):
    """Slow factor and transient draws: the same service, the same
    refusals, the same injection stream afterwards."""
    def faults():
        return DeviceFaults(transient_rate=0.3, slow_factor=factor,
                            seed=seed)
    stream, oracle = twins(case, FaultyBlockDevice)
    stream.faults, oracle.faults = faults(), faults()
    data = payload(case)
    span = case["stream"][:2]
    for _ in range(3):
        outcomes = []
        for call in (
                lambda: stream.write_stream(*case["stream"], data),
                lambda: materialised(oracle, *case["stream"], data)):
            try:
                call()
                outcomes.append(None)
            except TransientIoError:
                outcomes.append("transient")
        assert outcomes[0] == outcomes[1]
        assert stream.write_events == oracle.write_events
        assert device_state(stream, *span) == device_state(oracle, *span)


@edge_examples(1)
@given(streams(), st.integers(min_value=0, max_value=6))
@settings(max_examples=150, deadline=None)
def test_a_faulty_stream_crashes_and_tears_like_its_request_list(case, kill):
    stream, oracle = twins(case, FaultyBlockDevice, torn=True)
    stream.clock = CrashClock(kill_after=kill)
    oracle.clock = CrashClock(kill_after=kill)
    data = payload(case)
    span = case["stream"][:2]
    crashed = []
    for call in (
            lambda: stream.write_stream(*case["stream"], data),
            lambda: materialised(oracle, *case["stream"], data)):
        try:
            call()
            crashed.append(False)
        except CrashPoint:
            crashed.append(True)
    assert crashed[0] == crashed[1]
    assert stream.clock.events == oracle.clock.events
    assert device_state(stream, *span) == device_state(oracle, *span)


BAD_STREAMS = [
    pytest.param((CAPACITY - 64 * KB, 128 * KB, 64 * KB), id="past-end"),
    pytest.param((-4 * KB, 64 * KB, 64 * KB), id="negative-start"),
    pytest.param((0, 0, 64 * KB), id="empty"),
    pytest.param((0, -1, 64 * KB), id="negative-length"),
    pytest.param((0, 128 * KB, 0), id="zero-request"),
    pytest.param((0, 128 * KB, -64 * KB), id="negative-request"),
]


@pytest.mark.parametrize("cls", [BlockDevice, FaultyBlockDevice])
@pytest.mark.parametrize("batch_size", [0, 1])
@pytest.mark.parametrize("stream", BAD_STREAMS)
def test_a_bad_stream_is_refused_before_anything_moves(cls, batch_size,
                                                       stream):
    policy = DevicePolicy(batch_size=batch_size)
    dev = cls(make_disk(CAPACITY), store_data=True, policy=policy)
    dev.write(2 * MB, 4, b"keep")
    before = device_state(dev)
    with pytest.raises(ConfigError):
        dev.write_stream(*stream)
    assert device_state(dev) == before


@pytest.mark.parametrize("cls", [BlockDevice, FaultyBlockDevice])
@pytest.mark.parametrize("batch_size", [0, 1])
@pytest.mark.parametrize("size", [128 * KB - 1, 128 * KB + 1])
def test_a_stored_stream_needs_data_of_its_length(cls, batch_size, size):
    dev = cls(make_disk(CAPACITY), store_data=True,
              policy=DevicePolicy(batch_size=batch_size))
    before = device_state(dev)
    with pytest.raises(ConfigError):
        dev.write_stream(1 * MB, 128 * KB, 64 * KB, bytes(size))
    assert device_state(dev) == before
    if cls is FaultyBlockDevice:
        assert dev.write_events == 0


def test_a_timing_only_device_ignores_stream_data():
    dev = BlockDevice(make_disk(CAPACITY))
    twin = BlockDevice(make_disk(CAPACITY))
    dev.write_stream(0, 200 * KB, 64 * KB, b"short")
    twin.write_stream(0, 200 * KB, 64 * KB)
    assert device_state(dev) == device_state(twin)
