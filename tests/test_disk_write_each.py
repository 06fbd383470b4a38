"""``write_each`` against one ``write_extents`` per request.

``BlockDevice.write_each(requests, data)`` serves a list of span lists
as that many write requests, in order, after one costing pass over the
whole list.  The oracle is the serial form — one ``write_extents`` per
span list — on a twin device: both must leave the device identical —
the head, the clock's bits, every ``IoStats`` field and every field of
each nested open window (floats compared with ``==``), stored bytes and
the pickled device.  A faulty device serves each request on its own, so
its crash ticks, torn bytes and slow factor are the serial form's too.
A bad span or a payload of the wrong length anywhere in the list is
refused before anything moves.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.device import BlockDevice
from repro.disk.faults import CrashClock, DeviceFaults, FaultyBlockDevice
from repro.disk.geometry import make_disk
from repro.errors import ConfigError, CrashPoint
from repro.units import KB, MB

CAPACITY = 2 * MB
WINDOW = 16 * KB


def pick_span(draw, head: int, nzones: int) -> tuple[int, int]:
    """A span placed relative to ``head``: a continuation, a gap inside
    the sequential window, a backward seek, one across a zone boundary,
    or anywhere."""
    kind = draw(st.sampled_from(
        ["continue", "gap", "backward", "straddle", "anywhere"]))
    length = draw(st.integers(1, 96 * KB))
    if kind == "continue":
        start = head
    elif kind == "gap":
        start = head + draw(st.integers(1, WINDOW))
    elif kind == "backward":
        start = draw(st.integers(0, max(0, head - 1)))
    elif kind == "straddle":
        boundary = CAPACITY * draw(st.integers(1, max(1, nzones - 1))) \
            // nzones
        start = max(0, boundary - draw(st.integers(1, length)))
    else:
        start = draw(st.integers(0, CAPACITY - 1))
    start = min(start, CAPACITY - 1)
    return start, min(length, CAPACITY - start)


@st.composite
def cases(draw):
    """A device configuration, a parked head and a list of requests
    (each one to three spans)."""
    nzones = draw(st.sampled_from([1, 3, 8]))
    head = draw(st.integers(0, CAPACITY - 1))
    requests, at = [], head
    for _ in range(draw(st.integers(0, 8))):
        spans = []
        for _ in range(draw(st.integers(1, 3))):
            start, length = pick_span(draw, at, nzones)
            spans.append((start, length))
            at = start + length
        requests.append(spans)
    return {"nzones": nzones, "head": head, "requests": requests,
            "store": draw(st.booleans()), "with_data": draw(st.booleans())}


def payloads(requests):
    return [bytes((at + i) % 251
                  for i in range(sum(length for _, length in spans)))
            for at, spans in enumerate(requests)]


def twins(case, cls=BlockDevice, **kwargs):
    """Two equal devices with two nested windows open (a request lands
    between them) and the head parked."""
    made = []
    for _ in range(2):
        dev = cls(make_disk(CAPACITY, nzones=case["nzones"]),
                  store_data=case["store"], sequential_window=WINDOW,
                  **kwargs)
        dev.stats.start_window("outer")
        dev.write(CAPACITY // 2, 4 * KB)
        dev.stats.start_window("inner")
        dev.read(case["head"], 1)
        made.append(dev)
    return made


def device_state(dev):
    """Everything a write may move; ``IoStats`` equality compares every
    field of the totals and of each open window, and the pickled device
    holds a copy of them all."""
    return (dev.head_position, dev.clock_s.hex(), dev.stats,
            dev.peek(0, CAPACITY) if dev.stores_data else None,
            pickle.dumps(dev))


def serial(dev, requests, data):
    for at, spans in enumerate(requests):
        dev.write_extents(spans, None if data is None else data[at])


@given(cases())
@settings(max_examples=300, deadline=None)
def test_a_list_charges_what_one_write_per_request_charges(case):
    each, oracle = twins(case)
    data = payloads(case["requests"]) if case["with_data"] else None
    for _ in range(2):     # the second list starts where the first ended
        each.write_each(case["requests"], data)
        serial(oracle, case["requests"], data)
        assert device_state(each) == device_state(oracle)


@given(cases(), st.sampled_from([1.0, 2.5]), st.integers(0, 10))
@settings(max_examples=200, deadline=None)
def test_a_faulty_list_crashes_and_tears_like_its_serial_form(
        case, factor, kill):
    """Slow factor and a crash clock: the same service, the same tick
    count, the same doomed request torn the same way."""
    each, oracle = twins(case, FaultyBlockDevice, torn=True,
                         faults=DeviceFaults(slow_factor=factor))
    each.clock, oracle.clock = CrashClock(kill), CrashClock(kill)
    data = payloads(case["requests"]) if case["with_data"] else None
    outcomes = []
    for call in (lambda: each.write_each(case["requests"], data),
                 lambda: serial(oracle, case["requests"], data)):
        try:
            call()
            outcomes.append(None)
        except CrashPoint:
            outcomes.append("crash")
    assert outcomes[0] == outcomes[1]
    assert each.clock.events == oracle.clock.events
    assert each.clock.fired == oracle.clock.fired
    assert device_state(each) == device_state(oracle)


BAD_SPANS = [(CAPACITY - 1, 2), (0, 0), (-1, 4 * KB)]


@given(cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_a_bad_request_anywhere_leaves_the_device_untouched(case, data):
    requests = case["requests"] or [[(0, 4 * KB)]]
    where = data.draw(st.integers(0, len(requests) - 1))
    dev = twins({**case, "store": True})[0]
    before = device_state(dev)
    bad = [list(spans) for spans in requests]
    bad[where] = bad[where] + [data.draw(st.sampled_from(BAD_SPANS))]
    with pytest.raises(ConfigError):
        dev.write_each(bad)
    assert device_state(dev) == before
    short = payloads(requests)
    short[where] = short[where][:-1]
    with pytest.raises(ConfigError):
        dev.write_each(requests, short)
    assert device_state(dev) == before
    with pytest.raises(ConfigError):
        dev.write_each(requests, payloads(requests)[1:])
    assert device_state(dev) == before


def test_an_empty_list_moves_nothing():
    dev = BlockDevice(make_disk(CAPACITY), store_data=True)
    dev.read(1 * MB, 1)
    before = device_state(dev)
    dev.write_each([])
    dev.write_each([], [])
    assert device_state(dev) == before


def test_a_faulty_list_with_a_payload_count_mismatch_is_refused():
    dev = FaultyBlockDevice(make_disk(CAPACITY), store_data=True)
    before = device_state(dev)
    with pytest.raises(ConfigError):
        dev.write_each([[(0, 4)], [(4, 4)]], [b"abcd"])
    assert device_state(dev) == before
    assert dev.clock.events == 0
