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

import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsoracle
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
from repro.units import CLUSTER_SIZE, KB, MB

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
