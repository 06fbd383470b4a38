"""The filesystem write path held to the retired one (``fsoracle``).

Twin stores run the same operation sequence: one through the shipped
``FileBackend.put``/``overwrite`` and ``SimFilesystem.append`` (one
loop of write requests, carves through ``carve_front``, spans found
from the run list's tail), the other through the per-request loop of
``fsoracle``.  After every operation they must agree on every file's
size and run list, the free runs, each device's books, clock and head;
at checkpoints of the run, and at its end, on the pickled bytes of the
whole store.
"""

import itertools
import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsoracle
from crashsim import CrashClock, FaultyDevice, kill_point_matrix
from freeindexoracle import NaiveFreeExtentIndex
from repro.alloc import freelist
from repro.alloc.extent import Extent
from repro.alloc.freelist import FreeExtentIndex
from repro.alloc.runcache import NtfsRunCache
from repro.backends.file_backend import FileBackend
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.errors import AllocationError, CorruptionError
from repro.fs import filesystem
from repro.fs.allocator import FsAllocator
from repro.fs.filesystem import FsConfig, SimFilesystem
from repro.units import CLUSTER_SIZE, KB, MB, round_up

#: 64 KB (the paper's), a cluster multiple that is not a power of two,
#: and a request that is not a cluster multiple at all.
WRITE_REQUESTS = [64 * KB, 48 * KB, 10_000]


class Coverage:
    """Counts the paths only a churned or nearly full volume reaches:
    a span that starts before the last run (slack spread over several
    runs), and an append or preallocation whose allocation failed until
    the journal's pending frees were committed."""

    def __init__(self, monkeypatch) -> None:
        self.multi_run_spans = 0
        self.pressure_retries = 0
        tail_span = filesystem._tail_span

        def counting_span(extents, back, length):
            self.multi_run_spans += back > extents[-1].length
            return tail_span(extents, back, length)

        def counting(allocate):
            def wrapped(*args):
                try:
                    return allocate(*args)
                except AllocationError:
                    self.pressure_retries += 1
                    raise
            return wrapped

        monkeypatch.setattr(filesystem, "_tail_span", counting_span)
        for name in ("allocate_append", "allocate_full"):
            monkeypatch.setattr(FsAllocator, name,
                                counting(getattr(FsAllocator, name)))


def twins(capacity: int, *, store_data: bool = False,
          fs_config: dict | None = None,
          **backend) -> tuple[FileBackend, FileBackend]:
    def make():
        config = FsConfig(mft_zone_bytes=1 * MB, log_bytes=1 * MB,
                          **(fs_config or {}))
        device = BlockDevice(scaled_disk(capacity), store_data=store_data)
        return FileBackend(device, fs_config=config, **backend)
    return make(), make()


def slack_spans_runs(write_request: int, size_hints: bool) -> bool:
    """Whether a request can start in an earlier run than the last: the
    slack it fills was preallocated, or left by an unaligned request."""
    return size_hints or write_request % CLUSTER_SIZE != 0


def books(store: FileBackend):
    fs = store.fs
    return {
        "files": [(r.name, r.size, list(r.extents), r.append_requests)
                  for r in fs.table],
        "free": list(fs.free_index),
        "devices": [(d.stats, d.clock_s, d.head_position)
                    for d in store.devices()],
    }


def run_twins(shipped: FileBackend, oracle: FileBackend, *, ops: int,
              sizes: tuple[int, int], seed: int, content: bool,
              pickle_every: int = 10) -> None:
    """Puts, overwrites and deletes drawn from ``seed``; a write is
    drawn only when the volume (free plus journal-pending) can take it,
    so a full free index is met by the commit-and-retry, not an error."""
    rng = random.Random(seed)
    live: list[str] = []
    fs = shipped.fs
    for step in range(ops):
        size = rng.randint(*sizes)
        room = fs.free_bytes + fs.journal.pending_free_bytes
        kwargs = {"data": rng.randbytes(size)} if content else {"size": size}
        roll = rng.random()
        if live and (roll < 0.2 or room < 2 * size + 256 * KB):
            key = live.pop(rng.randrange(len(live)))
            shipped.delete(key)
            oracle.delete(key)
        elif live and roll < 0.7:
            key = rng.choice(live)
            shipped.overwrite(key, **kwargs)
            fsoracle.overwrite(oracle, key, **kwargs)
        else:
            key = f"k{step}"
            shipped.put(key, **kwargs)
            fsoracle.put(oracle, key, **kwargs)
            live.append(key)
        assert books(shipped) == books(oracle), f"step {step}"
        if step % pickle_every == 0:
            assert pickle.dumps(shipped) == pickle.dumps(oracle)
    for key in live:
        assert shipped.get(key) == oracle.get(key)
    assert books(shipped) == books(oracle)
    assert pickle.dumps(shipped) == pickle.dumps(oracle)
    shipped.fs.check_invariants()


@pytest.mark.parametrize("write_request", WRITE_REQUESTS)
@pytest.mark.parametrize("size_hints", [False, True])
def test_churn_with_content(monkeypatch, write_request, size_hints):
    """Stored bytes, sizes that are not cluster-aligned, and (with size
    hints) preallocations carved from several runs of an aged volume."""
    seen = Coverage(monkeypatch)
    shipped, oracle = twins(8 * MB, store_data=True,
                            write_request=write_request,
                            size_hints=size_hints)
    run_twins(shipped, oracle, ops=120, sizes=(20 * KB + 1, 300 * KB + 7),
              seed=write_request + size_hints, content=True)
    if slack_spans_runs(write_request, size_hints):
        assert seen.multi_run_spans > 0


@pytest.mark.parametrize("write_request", WRITE_REQUESTS)
def test_delayed_allocation(write_request):
    shipped, oracle = twins(8 * MB, store_data=True,
                            write_request=write_request,
                            fs_config={"delayed_allocation": True})
    run_twins(shipped, oracle, ops=80, sizes=(1, 300 * KB),
              seed=write_request + 7, content=True)


@pytest.mark.parametrize("write_request", WRITE_REQUESTS)
@pytest.mark.parametrize("size_hints", [False, True])
def test_nearly_full_volume_commits_and_retries(monkeypatch, write_request,
                                                size_hints):
    """A long commit interval keeps deleted space pending in the journal,
    so appends on the nearly full volume fail once and retry after the
    forced commit."""
    seen = Coverage(monkeypatch)
    shipped, oracle = twins(12 * MB, write_request=write_request,
                            size_hints=size_hints,
                            fs_config={"commit_interval_ops": 64})
    run_twins(shipped, oracle, ops=300, sizes=(100 * KB, 400 * KB + 3),
              seed=write_request * 3 + size_hints, content=False,
              pickle_every=25)
    assert seen.pressure_retries > 0
    if slack_spans_runs(write_request, size_hints):
        assert seen.multi_run_spans > 0


@pytest.mark.parametrize("delayed", [False, True])
def test_appends_across_files_and_slack(delayed):
    """Direct multi-request appends to files that already hold slack
    from earlier unaligned appends, interleaved across files."""
    def make():
        device = BlockDevice(scaled_disk(16 * MB), store_data=True)
        return SimFilesystem(device, FsConfig(
            mft_zone_bytes=1 * MB, log_bytes=1 * MB,
            delayed_allocation=delayed))
    shipped, oracle = make(), make()
    rng = random.Random(11 + delayed)
    names = [f"f{i}" for i in range(6)]
    for fs in (shipped, oracle):
        for name in names:
            fs.create(name)
    for _ in range(60):
        name = rng.choice(names)
        data = rng.randbytes(rng.randint(1, 90 * KB))
        request = rng.choice(WRITE_REQUESTS + [None])
        shipped.append(name, data=data, write_request=request)
        fsoracle.write(oracle, name, len(data), data,
                       request or len(data))
        if rng.random() < 0.2:
            shipped.fsync(name)
            fsoracle.flush(oracle, name)
            oracle.fsync(name)
    for name in names:
        fsoracle.flush(oracle, name)
        assert shipped.read(name) == oracle.read(name)
    assert pickle.dumps(shipped) == pickle.dumps(oracle)


# ----------------------------------------------------------------------
# The run cache and the carve primitive
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", [FreeExtentIndex, NaiveFreeExtentIndex],
                         ids=["tiered", "naive"])
def test_run_cache_allocate_matches_the_retired_carves(engine):
    """``NtfsRunCache.allocate``/``try_extend`` against ``fsoracle``'s
    remove-based versions on twin indexes, through fragmenting
    allocations and frees."""
    rng = random.Random(5)
    capacity = 8 * MB
    caches = []
    for _ in range(2):
        index = engine(capacity)
        caches.append(NtfsRunCache(index, cache_size=4,
                                   outer_band_fraction=0.25))
    shipped, oracle = caches
    held: list[Extent] = []
    for _ in range(400):
        if held and rng.random() < 0.45:
            ext = held.pop(rng.randrange(len(held)))
            shipped.index.add(ext)
            oracle.index.add(ext)
            continue
        size = rng.randint(1, 64) * 4 * KB
        if held and rng.random() < 0.5:
            at = held[-1].end
            stickiness = rng.choice([0.0, 0.75, 1.0])
            got = shipped.try_extend(at, size, stickiness=stickiness)
            want = fsoracle.try_extend(oracle, at, size,
                                       stickiness=stickiness)
            pieces = [] if got is None else [got]
            assert got == want
        elif size <= shipped.index.total_free:
            pieces = shipped.allocate(size)
            assert pieces == fsoracle.allocate(oracle, size)
        else:
            continue
        held.extend(pieces)
        assert pickle.dumps(shipped.index) == pickle.dumps(oracle.index)
    shipped.index.check_invariants()


@given(
    st.lists(st.tuples(st.booleans(),
                       st.integers(min_value=0, max_value=4095),
                       st.integers(min_value=1, max_value=96)),
             max_size=80),
    st.lists(st.tuples(st.integers(min_value=0, max_value=10**6),
                       st.integers(min_value=1, max_value=200)),
             min_size=1, max_size=20),
    st.sampled_from([2, 3, 256]),
)
@settings(max_examples=120, deadline=None)
def test_carve_front_is_remove_of_the_front(ops, carves, load):
    """On both engines, ``carve_front(start, n)`` on a free run that
    begins at ``start`` leaves the index pickle-equal to
    ``remove(Extent(start, n))``; anything else raises without a
    mutation.  Small ``load`` values make the size tier split blocks."""
    capacity = 4096
    with mock.patch.object(freelist, "_LOAD", load):
        pairs = [(FreeExtentIndex(capacity, initially_free=False),
                  FreeExtentIndex(capacity, initially_free=False)),
                 (NaiveFreeExtentIndex(capacity, initially_free=False),
                  NaiveFreeExtentIndex(capacity, initially_free=False))]
    free = bytearray(capacity)
    for adding, start, length in ops:
        end = min(start + length, capacity)
        want = 0 if adding else 1
        stop = start
        while stop < end and free[stop] == want:
            stop += 1
        if stop == start:
            continue
        free[start:stop] = bytes([1 - want]) * (stop - start)
        for pair in pairs:
            for index in pair:
                (index.add if adding else index.remove)(
                    Extent(start, stop - start))
    for pick, nbytes in carves:
        for carved, removed in pairs:
            runs = list(carved)
            if not runs:
                return
            run = runs[pick % len(runs)]
            if pick % 7 == 0:
                # Inside a run, or past its end: refused, nothing moved.
                before = pickle.dumps(carved)
                for start, n in ((run.start + 1, 1),
                                 (run.start, run.length + 1)):
                    with pytest.raises(CorruptionError):
                        carved.carve_front(start, n)
                assert pickle.dumps(carved) == before
                continue
            nbytes = min(nbytes, run.length)
            taken = carved.carve_front(run.start, nbytes)
            removed.remove(Extent(run.start, nbytes))
            assert taken == Extent(run.start, nbytes)
            assert pickle.dumps(carved) == pickle.dumps(removed)
            carved.check_invariants()


# ----------------------------------------------------------------------
# Requests served in place, killed anywhere
# ----------------------------------------------------------------------
class InPlaceProbe:
    """Classifies the shipped twin's allocating requests.

    A ``carve_front`` outside the allocator is a request served in
    place; ``ends`` counts how each run of such requests ended: at a
    review request, at a non-review request whose adjacent run was
    partially carved (in band) or refused though free (out of band),
    or at the end of the append.  A non-review request that
    ``try_extend`` served whole should never reach the allocator."""

    def __init__(self, monkeypatch, engine) -> None:
        self.in_place = 0
        self.in_place_from_slack = 0
        self.whole_outside_review = 0
        self.ends: dict[str, int] = {}
        seen: dict[int, int] = {}
        state = {"allocating": False, "carved": False, "extend": None}

        def end(kind: str) -> None:
            self.ends[kind] = self.ends.get(kind, 0) + 1

        carve_front = engine.carve_front

        def probe_carve(index, start, nbytes):
            if not state["allocating"]:
                self.in_place += 1
                state["carved"] = True
            return carve_front(index, start, nbytes)

        try_extend = NtfsRunCache.try_extend

        def probe_extend(cache, at, size, *, stickiness):
            free = cache.index.run_length_at(at)
            got = try_extend(cache, at, size, stickiness=stickiness)
            state["extend"] = ("no-run" if not free
                               else "refused" if got is None
                               else "whole" if got.length == size
                               else "partial")
            return got

        allocate_append = FsAllocator.allocate_append

        def probe_allocate(allocator, record, nbytes):
            streak = record.append_requests > seen.get(record.file_id, 0)
            review = (record.append_requests
                      % allocator.reconsider_interval_requests == 0)
            state["allocating"], state["extend"] = True, None
            try:
                pieces = allocate_append(allocator, record, nbytes)
            finally:
                state["allocating"] = False
            if not review and state["extend"] == "whole":
                self.whole_outside_review += 1
            if streak:
                end("review" if review else state["extend"])
            seen[record.file_id] = record.append_requests
            return pieces

        allocate_full = FsAllocator.allocate_full

        def probe_full(allocator, nbytes):
            state["allocating"] = True
            try:
                return allocate_full(allocator, nbytes)
            finally:
                state["allocating"] = False

        write_extents = BlockDevice.write_extents

        def probe_write(device, spans, data=None):
            if state["carved"] and spans[0][0] % CLUSTER_SIZE:
                self.in_place_from_slack += 1
            state["carved"] = False
            return write_extents(device, spans, data)

        append = SimFilesystem.append

        def probe_append(fs, name, *args, **kwargs):
            append(fs, name, *args, **kwargs)
            record = fs.table.lookup(name)
            if record.append_requests > seen.get(record.file_id, 0):
                end("append")
            seen[record.file_id] = record.append_requests

        monkeypatch.setattr(engine, "carve_front", probe_carve)
        monkeypatch.setattr(NtfsRunCache, "try_extend", probe_extend)
        monkeypatch.setattr(FsAllocator, "allocate_append", probe_allocate)
        monkeypatch.setattr(FsAllocator, "allocate_full", probe_full)
        monkeypatch.setattr(BlockDevice, "write_extents", probe_write)
        monkeypatch.setattr(SimFilesystem, "append", probe_append)


def in_place_workload(fs: SimFilesystem, write, preallocate, *,
                      write_request: int) -> None:
    """Runs of in-place requests ending every way a run can end.

    ``b`` grows from the start of the free tail past its review request
    and, unaligned, starts its second append in cluster slack.  A hole
    of ~3.5 requests is then left as the volume's lowest *and* largest
    free run (a filler preallocation leaves ~2 requests of tail), so
    ``a``'s first request lands in it under either band rule and its
    fourth meets a run too short for it: partially carved in the band,
    refused outside it."""
    rng = random.Random(write_request)
    w = write_request

    def put(name: str, total: int, request: int | None = w) -> None:
        if not fs.table.exists(name):
            fs.create(name)
        write(fs, name, rng.randbytes(total), request or total)

    put("b", 20 * w + 1000)
    put("b", 3 * w)
    put("h", round_up(7 * w // 2, CLUSTER_SIZE), None)
    put("keep", CLUSTER_SIZE, None)
    tail = fs.free_index.run_length_at(fs.table.lookup("keep").extents[-1].end)
    fs.create("filler")
    preallocate(fs, "filler", tail - round_up(2 * w, CLUSTER_SIZE))
    fs.delete("h")
    fs.journal.commit()
    put("a", 5 * w)
    fs.delete("b")
    fs.journal.commit()


def shipped_write(fs, name, data, request):
    fs.append(name, data=data, write_request=request)


def oracle_write(fs, name, data, request):
    fsoracle.write(fs, name, len(data), data, request)


@pytest.mark.parametrize("engine", [FreeExtentIndex, NaiveFreeExtentIndex],
                         ids=["tiered", "naive"])
@pytest.mark.parametrize("band", [1.0, 0.01], ids=["in-band", "out-of-band"])
@pytest.mark.parametrize("write_request", [64 * KB, 10_000])
def test_in_place_requests_match_the_oracle_at_every_kill_point(
        monkeypatch, engine, band, write_request):
    """Kill the twins at every write event of :func:`in_place_workload`:
    the shipped ``append`` (requests served in place) and the oracle's
    per-request loop (every request through ``allocate_append``) must
    leave filesystems that pickle alike, crashed or not."""
    monkeypatch.setattr(filesystem, "FreeExtentIndex", engine)
    probe = InPlaceProbe(monkeypatch, engine)

    def build(clock: CrashClock) -> SimFilesystem:
        device = FaultyDevice(scaled_disk(16 * MB), clock=clock,
                              store_data=True)
        fs = SimFilesystem(device, FsConfig(
            mft_zone_bytes=1 * MB, log_bytes=64 * KB,
            commit_interval_ops=4, metadata_interval_events=0,
            outer_band_fraction=band))
        fs.crash_hook = clock.tick
        return fs

    def run(write, preallocate):
        return lambda fs: in_place_workload(
            fs, write, preallocate, write_request=write_request)

    shipped = kill_point_matrix(
        build, run(shipped_write, SimFilesystem.preallocate))
    # Drawing the first kill point runs the unarmed baseline, so the
    # probe has seen the whole workload once by then.
    first = next(shipped)
    assert probe.in_place > 0
    assert probe.in_place_from_slack > 0
    assert probe.whole_outside_review == 0
    short_run = "partial" if band == 1.0 else "refused"
    assert {"review", short_run, "append"} <= set(probe.ends), probe.ends
    oracle = kill_point_matrix(build, run(oracle_write, fsoracle.preallocate))
    kills = 0
    for (k, crashed, fs), (_, oracle_crashed, oracle_fs) in zip(
            itertools.chain([first], shipped), oracle, strict=True):
        assert crashed == oracle_crashed, f"kill point {k}"
        assert pickle.dumps(fs) == pickle.dumps(oracle_fs), f"kill point {k}"
        kills += crashed
    assert kills > 40
