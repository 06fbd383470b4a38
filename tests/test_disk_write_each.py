"""``write_each`` against one ``write_extents`` per request.

``BlockDevice.write_each(runs, data)`` serves a list of ``(spans,
count)`` runs as that many write requests, in order, after one costing
pass over the whole list: a count-1 entry is one request of any span
list, and a longer run is ``count`` requests of one span's length, each
starting where the last ended.  The oracle is the serial form — one
``write_extents`` per expanded request — on a twin device: both must
leave the device identical — the head, the clock's bits, every
``IoStats`` field and every field of each nested open window (floats
compared with ``==``), stored bytes and the pickled device.  Runs are
drawn to end exactly on a zone end, straddle one, start on one, follow
a seek and sit between multi-span count-1 entries.  A faulty device
serves each request on its own, so its crash ticks, torn bytes and slow
factor are the serial form's too.  A bad span or run, or a payload list
that does not match the expanded requests, anywhere in the list is
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


def zone_ends(nzones):
    return [zone.end for zone in make_disk(CAPACITY, nzones=nzones).zones]


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
        boundary = draw(st.sampled_from(zone_ends(nzones)))
        start = max(0, boundary - draw(st.integers(1, length)))
    else:
        start = draw(st.integers(0, CAPACITY - 1))
    start = min(start, CAPACITY - 1)
    return start, min(length, CAPACITY - start)


def pick_run(draw, head: int, nzones: int) -> tuple[list, int]:
    """A run of one span's length placed relative to ``head``: it
    continues at the head, follows a seek or a gap, ends exactly on a
    zone end, straddles one mid-run, or starts on one."""
    kind = draw(st.sampled_from(
        ["continue", "continue", "seek", "gap", "on_end", "straddle",
         "from_end"]))
    length = draw(st.sampled_from([1, 512, 4 * KB, 8 * KB])
                  | st.integers(1, 8 * KB))
    count = draw(st.integers(2, 300))
    boundary = draw(st.sampled_from(zone_ends(nzones)))
    if kind == "continue":
        start = head
    elif kind == "seek":
        start = draw(st.integers(0, CAPACITY - 1))
    elif kind == "gap":
        start = head + draw(st.integers(1, WINDOW))
    elif kind == "on_end":
        start = boundary - count * length
    elif kind == "straddle":
        start = (boundary - draw(st.integers(0, count - 1)) * length
                 - draw(st.integers(1, max(1, length - 1))))
    else:
        start = boundary
    start = max(0, min(start, CAPACITY - length))
    count = max(1, min(count, (CAPACITY - start) // length))
    return [(start, length)], count


@st.composite
def cases(draw):
    """A device configuration, a parked head and a list of runs: longer
    runs of one span mixed with count-1 entries of one to three spans."""
    nzones = draw(st.sampled_from([1, 3, 8]))
    head = draw(st.integers(0, CAPACITY - 1))
    runs, at = [], head
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            spans, count = pick_run(draw, at, nzones)
        else:
            spans, count = [], 1
            for _ in range(draw(st.integers(1, 3))):
                start, length = pick_span(draw, at, nzones)
                spans.append((start, length))
                at = start + length
        runs.append((spans, count))
        at = spans[-1][0] + count * spans[-1][1]
    return {"nzones": nzones, "head": head, "runs": runs,
            "store": draw(st.booleans()), "with_data": draw(st.booleans())}


def expanded(runs):
    """The serial form's requests: a longer run's ``t``-th request is
    ``(start + t * length, length)``."""
    requests = []
    for spans, count in runs:
        if count == 1:
            requests.append(spans)
        else:
            ((start, length),) = spans
            requests += [[(start + t * length, length)]
                         for t in range(count)]
    return requests


PATTERN = bytes(range(251)) * (CAPACITY // 251 + 2)


def payloads(runs):
    out = []
    for at, spans in enumerate(expanded(runs)):
        nbytes = sum(length for _, length in spans)
        out.append(PATTERN[at % 251: at % 251 + nbytes])
    return out


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


def serial(dev, runs, data):
    for at, spans in enumerate(expanded(runs)):
        dev.write_extents(spans, None if data is None else data[at])


@given(cases())
@settings(max_examples=300, deadline=None)
def test_a_list_charges_what_one_write_per_request_charges(case):
    each, oracle = twins(case)
    data = payloads(case["runs"]) if case["with_data"] else None
    for _ in range(2):     # the second list starts where the first ended
        each.write_each(case["runs"], data)
        serial(oracle, case["runs"], data)
        assert device_state(each) == device_state(oracle)


@given(cases(), st.sampled_from([1.0, 2.5]), st.data())
@settings(max_examples=200, deadline=None)
def test_a_faulty_list_crashes_and_tears_like_its_serial_form(
        case, factor, draw):
    """Slow factor and a crash clock: the same service, the same tick
    count, the same doomed request torn the same way."""
    each, oracle = twins(case, FaultyBlockDevice, torn=True,
                         faults=DeviceFaults(slow_factor=factor))
    kill = draw.draw(st.integers(0, len(expanded(case["runs"])) + 2))
    each.clock, oracle.clock = CrashClock(kill), CrashClock(kill)
    data = payloads(case["runs"]) if case["with_data"] else None
    outcomes = []
    for call in (lambda: each.write_each(case["runs"], data),
                 lambda: serial(oracle, case["runs"], data)):
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
    runs = [(spans, 1) for spans in expanded(case["runs"])[:40]] \
        or [([(0, 4 * KB)], 1)]
    where = data.draw(st.integers(0, len(runs) - 1))
    dev = twins({**case, "store": True})[0]
    before = device_state(dev)
    bad = list(runs)
    bad[where] = (bad[where][0] + [data.draw(st.sampled_from(BAD_SPANS))], 1)
    with pytest.raises(ConfigError):
        dev.write_each(bad)
    assert device_state(dev) == before
    short = payloads(runs)
    short[where] = short[where][:-1]
    with pytest.raises(ConfigError):
        dev.write_each(runs, short)
    assert device_state(dev) == before
    with pytest.raises(ConfigError):
        dev.write_each(runs, payloads(runs)[1:])
    assert device_state(dev) == before


#: Three good runs; each bad entry below replaces one of them.
GOOD_RUNS = [([(0, 4 * KB)], 3), ([(64 * KB, 1 * KB), (96 * KB, 2 * KB)], 1),
             ([(1 * MB, 8 * KB)], 5)]
BAD_RUNS = {
    "count_zero": ([(0, 4 * KB)], 0),
    "count_negative": ([(0, 4 * KB)], -2),
    "two_spans": ([(0, 4 * KB), (8 * KB, 4 * KB)], 2),
    "no_span": ([], 2),
    "past_capacity": ([(CAPACITY - 12 * KB, 4 * KB)], 4),
}


def refusing_devices():
    made = []
    for cls in (BlockDevice, FaultyBlockDevice):
        dev = cls(make_disk(CAPACITY), store_data=True,
                  sequential_window=WINDOW)
        dev.stats.start_window("outer")
        dev.write(CAPACITY // 2, 4 * KB, b"x" * 4 * KB)
        made.append(dev)
    return made


def faulty_ticks(dev):
    return dev.clock.events if isinstance(dev, FaultyBlockDevice) else None


@pytest.mark.parametrize("where", [0, 1, 2])
@pytest.mark.parametrize("bad", sorted(BAD_RUNS))
def test_a_bad_run_is_refused_before_anything_moves(bad, where):
    """A count below one, a longer run that is not one span, or a run
    whose last request passes the capacity, at the first, middle or
    last position: ``ConfigError``, and the head, clock, stats, stored
    bytes and crash clock stay as they were."""
    runs = list(GOOD_RUNS)
    runs[where] = BAD_RUNS[bad]
    for dev in refusing_devices():
        before, ticks = device_state(dev), faulty_ticks(dev)
        with pytest.raises(ConfigError):
            dev.write_each(runs)
        assert (device_state(dev), faulty_ticks(dev)) == (before, ticks)


def test_a_run_that_ends_on_the_capacity_is_served():
    for dev in refusing_devices():
        dev.write_each([([(CAPACITY - 12 * KB, 4 * KB)], 3)])
        assert dev.head_position == CAPACITY
        assert dev.stats.requests == 4


@pytest.mark.parametrize("where", [0, 1, 2])
@pytest.mark.parametrize("how", ["missing", "extra", "short"])
def test_a_payload_list_off_the_expanded_requests_is_refused(how, where):
    """Payloads are one per expanded request (nine here): one missing or
    one extra at the first, middle or last request, or one a byte short
    there, is refused before anything moves."""
    data = payloads(GOOD_RUNS)
    at = (0, len(data) // 2, len(data) - 1)[where]
    if how == "missing":
        del data[at]
    elif how == "extra":
        data.insert(at, data[at])
    else:
        data[at] = data[at][:-1]
    for dev in refusing_devices():
        before, ticks = device_state(dev), faulty_ticks(dev)
        with pytest.raises(ConfigError):
            dev.write_each(GOOD_RUNS, data)
        assert (device_state(dev), faulty_ticks(dev)) == (before, ticks)


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
        dev.write_each([([(0, 4)], 2)], [b"abcd"])
    assert device_state(dev) == before
    assert dev.clock.events == 0
