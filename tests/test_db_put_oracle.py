"""``BlobStore.put`` held to the retired chunk loop (``dboracle.oracle_put``).

Twin databases run the same operation sequence; one stores every BLOB
through the shipped ``put``, the other through the oracle.  After every
operation the two must agree on everything a put touches: GAM masks and
counters, each LOB tree's leaves and node pages, both devices' books
and head, the log cursor and record count, the ghost backlog, and the
bytes stored on the data device.
"""

import itertools
import random

import pytest

from dboracle import oracle_put

from repro.db.database import DbConfig, SimDatabase
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.errors import AllocationError, CrashPoint
from repro.units import EXTENT_SIZE, KB, MB, PAGE_SIZE, PAGES_PER_EXTENT

WRITE_REQUESTS = [8 * KB, 64 * KB, 72 * KB, 128 * KB, 256 * KB]


def leaf_runs(node) -> list[list[tuple[int, int]]]:
    if node.leaf:
        return [list(node.runs)]
    return [runs for child in node.children for runs in leaf_runs(child)]


def tree_state(tree):
    return (leaf_runs(tree._root), tree.node_pages(), tree.depth(),
            tree.total_pages)


def device_state(device):
    return (device.stats, device.clock_s, device.head_position)


def state(db: SimDatabase):
    blobs, ghost = db.blobs, db.ghost
    data = db.data_device
    return {
        "gam": (bytes(db.gam._used_mask), db.gam._lowest_free,
                db.gam.free_extent_count, db.gam._partial_extents,
                db.gam.free_page_count),
        "trees": {blob_id: (blobs.size_of(blob_id),
                            tree_state(blobs.tree_of(blob_id)))
                  for blob_id in blobs.blob_ids()},
        "data": device_state(data),
        "log": device_state(db.log_device),
        "wal": (db.wal._cursor, db.wal.records),
        "ghost": (ghost.queued_runs(), ghost._ops, ghost.sweeps,
                  ghost.ghosted_pages, ghost.cleaned_pages),
        "bytes": data.peek(0, data.geometry.capacity),
    }


class Coverage:
    """Counts the put paths that only a churned or stressed file reaches:
    tick sweeps that free pages inside a put, sweep-and-retry under
    allocation pressure, page-at-a-time data allocation, and the chunk
    loop's runs: all runs, runs of two or more chunks (and the longest),
    runs that end at a tick sweep, runs that end where the next chunk
    splits the LOB leaf, and whole-extent chunks that fell back to the
    one-chunk step (a full leaf, less than a chunk of free extents),
    and runs cut at the free extents (a run that leaves less than a
    chunk of them, followed in the same put by a whole-extent chunk).
    Of the GAM calls that serve a run: address runs of two or more
    extents, and calls cut into two or more address runs by a used
    extent.
    ``sweep_ordinals`` numbers (from 1, counting every sweep) the sweeps
    that end a run of two or more chunks."""

    def __init__(self, db: SimDatabase) -> None:
        self.mid_blob_frees = 0
        self.pressure_sweeps = 0
        self.fallback_pages = 0
        self.runs = 0
        self.long_runs = 0
        self.longest_run = 0
        self.sweep_cut_runs = 0
        self.split_cut_runs = 0
        self.fallback_chunks = 0
        self.free_cut_runs = 0
        self.long_address_runs = 0
        self.cut_runs = 0
        self.sweep_ordinals: list[int] = []
        inside = {"put": False, "alloc_runs": False}
        #: Chunks in the run the last allocation served (0: one-chunk
        #: step), and whether that run left less than a chunk of free
        #: extents.
        last = {"run": 0, "after_run": False, "drained": False}
        blobs, gam, ghost = db.blobs, db.gam, db.ghost
        extents = db.config.write_request // EXTENT_SIZE

        def during(name, call):
            def wrapped(*args, **kwargs):
                inside[name] = True
                try:
                    return call(*args, **kwargs)
                finally:
                    inside[name] = False
            return wrapped

        def counting_alloc_page(alloc_page=gam.alloc_page):
            self.fallback_pages += inside["alloc_runs"]
            return alloc_page()

        def counting_alloc_runs(count, alloc_runs=during("alloc_runs",
                                                          gam.alloc_runs)):
            if inside["put"]:
                whole = extents > 0 and count == extents * PAGES_PER_EXTENT
                self.fallback_chunks += whole
                self.free_cut_runs += whole and last["drained"]
                last.update(run=0, after_run=last["run"] > 0,
                            drained=False)
            return alloc_runs(count)

        def counting_alloc_extents(n, alloc=gam.alloc_extent_runs):
            taken = alloc(n)
            if taken is not None and inside["put"] \
                    and not inside["alloc_runs"]:
                last.update(run=n // extents, after_run=False,
                            drained=gam.free_extent_count < extents)
                self.runs += 1
                self.long_runs += last["run"] >= 2
                self.longest_run = max(self.longest_run, last["run"])
                self.long_address_runs += sum(count >= 2
                                              for _, count in taken)
                self.cut_runs += len(taken) >= 2
            return taken

        def counting_sweep(sweep=ghost.sweep, **kwargs):
            released = sweep(**kwargs)
            if kwargs.get("ignore_age", False):
                self.pressure_sweeps += 1
            elif inside["put"] and released:
                self.mid_blob_frees += 1
            return released

        def counting_tick(ops=1, tick=ghost.on_operation):
            sweeps = ghost.sweeps
            # A run whose last tick is the sweeping one.
            if inside["put"] and last["run"] \
                    and ghost.ops_before_sweep(ops + 1) == ops:
                self.sweep_cut_runs += 1
                if last["run"] >= 2:
                    self.sweep_ordinals.append(sweeps + 1)
            tick(ops)

        def counting_new_tree(new_tree=blobs._new_tree):
            tree = new_tree()

            def split_leaf(node, split=tree._split_leaf):
                self.split_cut_runs += last["after_run"]
                last["after_run"] = False
                return split(node)
            tree._split_leaf = split_leaf
            return tree

        def counting_put(*args, put=during("put", blobs.put), **kwargs):
            last.update(run=0, after_run=False, drained=False)
            return put(*args, **kwargs)

        blobs.put = counting_put
        blobs._new_tree = counting_new_tree
        gam.alloc_runs = counting_alloc_runs
        gam.alloc_extent_runs = counting_alloc_extents
        gam.alloc_page = counting_alloc_page
        ghost.sweep = counting_sweep
        ghost.on_operation = counting_tick


def twins(capacity: int, lob_fanout: int = 4,
          **cfg) -> tuple[SimDatabase, SimDatabase]:
    def make():
        device = BlockDevice(scaled_disk(capacity), store_data=True)
        return SimDatabase(device, config=DbConfig(lob_fanout=lob_fanout,
                                                   **cfg))
    return make(), make()


def run_twins(shipped: SimDatabase, oracle: SimDatabase, sizes: list[int],
              *, keep: int, seed: int) -> None:
    """Put ``sizes`` one by one (deleting the oldest beyond ``keep``
    live BLOBs), comparing the twins after every put and delete."""
    rng = random.Random(seed)
    live: list[int] = []
    assert state(shipped) == state(oracle)
    for size in sizes:
        data = rng.randbytes(size)
        request = shipped.config.write_request
        try:
            blob_id = shipped.blobs.put(data=data, write_request=request)
        except CrashPoint:
            with pytest.raises(CrashPoint):
                oracle_put(oracle.blobs, data=data, write_request=request)
            assert state(shipped) == state(oracle)
            raise
        assert oracle_put(oracle.blobs, data=data,
                          write_request=request) == blob_id
        for db in (shipped, oracle):
            db.ghost.on_operation()
            db.commit()
        assert state(shipped) == state(oracle)
        live.append(blob_id)
        if len(live) > keep:
            victim = live.pop(0)
            for db in (shipped, oracle):
                db.delete_blob(victim)
            assert state(shipped) == state(oracle)
    for blob_id in live:
        assert shipped.get_blob(blob_id) == oracle.get_blob(blob_id)
    assert state(shipped) == state(oracle)
    shipped.check_invariants()


@pytest.mark.parametrize("write_request", WRITE_REQUESTS)
def test_sweeps_land_mid_blob(write_request):
    """A cleaner tick every other request with a small budget: freed
    pages come back between one BLOB's chunks, and every size ends in a
    partial chunk."""
    shipped, oracle = twins(8 * MB, write_request=write_request,
                            ghost_cleanup_interval_ops=2,
                            ghost_max_pages_per_sweep=5,
                            ghost_min_age_ops=3)
    seen = Coverage(shipped)
    sizes = [256 * KB + 123, 600 * KB + 5, 64 * KB - 1, 1 * MB + 4097,
             40 * KB, 300 * KB + 7] * 3
    run_twins(shipped, oracle, sizes, keep=3, seed=write_request)
    assert seen.mid_blob_frees > 0
    if write_request % EXTENT_SIZE:
        assert seen.runs == 0
        return
    assert seen.sweep_cut_runs > 0
    assert seen.split_cut_runs > 0
    assert seen.fallback_chunks > 0
    assert seen.long_address_runs > 0
    assert seen.cut_runs > 0
    if write_request <= 2 * EXTENT_SIZE:  # two such chunks fit a leaf
        assert seen.long_runs > 0


@pytest.mark.parametrize("write_request", WRITE_REQUESTS)
def test_nearly_full_file(write_request):
    """Ghosts too young for the cleaner fill a small file, so puts take
    the sweep-and-retry path and, with no whole extent left, allocate
    page at a time."""
    shipped, oracle = twins(4 * MB, write_request=write_request,
                            ghost_cleanup_interval_ops=3,
                            ghost_max_pages_per_sweep=7,
                            ghost_min_age_ops=10_000)
    seen = Coverage(shipped)
    sizes = [384 * KB + 100, 320 * KB + 8191, 448 * KB + 1,
             200 * KB] * 6
    run_twins(shipped, oracle, sizes, keep=2, seed=write_request + 1)
    assert seen.pressure_sweeps > 0
    assert seen.fallback_pages > 0
    if write_request % EXTENT_SIZE == 0:
        assert seen.fallback_chunks > 0
    if write_request in (EXTENT_SIZE, 2 * EXTENT_SIZE):
        # A 256 KB run needs an empty 4-run leaf, so the leaf, not the
        # free extents, ends it.
        assert seen.free_cut_runs > 0


def test_partial_last_chunk_is_zero_padded():
    shipped, oracle = twins(4 * MB)
    run_twins(shipped, oracle, [PAGE_SIZE + 1, 64 * KB + 3], keep=5, seed=3)
    blob_id = shipped.blobs.blob_ids()[0]
    ((start, length),) = shipped.blobs.blob_spans(blob_id)
    assert length == 2 * PAGE_SIZE
    stored = shipped.data_device.peek(start, length)
    assert stored[PAGE_SIZE + 1:] == bytes(PAGE_SIZE - 1)


def test_a_put_that_runs_out_midway_keeps_the_serial_books():
    """A put that runs out of pages partway through a BLOB: the chunks
    planned before the refusal are still written and logged, so each
    device's books equal the serial loop's at the raise."""
    shipped, oracle = twins(2 * MB, ghost_min_age_ops=10_000)
    rng = random.Random(7)
    for _ in range(3):
        data = rng.randbytes(400 * KB + 11)
        assert shipped.blobs.put(data=data) == oracle_put(oracle.blobs,
                                                          data=data)
    free_bytes = shipped.gam.free_page_count * PAGE_SIZE
    requests_before = shipped.data_device.stats.requests
    data = rng.randbytes(free_bytes + 200 * KB)
    with pytest.raises(AllocationError):
        shipped.blobs.put(data=data)
    with pytest.raises(AllocationError):
        oracle_put(oracle.blobs, data=data)
    assert shipped.data_device.stats.requests > requests_before + 1
    assert shipped.wal.records > 3 * 7
    assert state(shipped) == state(oracle)


def test_a_leaf_split_with_no_page_left_keeps_the_serial_books():
    """The last chunk of a put takes the file's last free pages, and
    its leaf append must split the rightmost leaf: the new node finds
    no page, even after the age-blind sweep.  The chunk's request and
    data were planned before the append, so they are still written; its
    log record, due after the append, is not.  The twins agree."""
    shipped, oracle = twins(1 * MB, ghost_min_age_ops=10_000)
    rng = random.Random(5)
    request = 72 * KB
    for size in (256 * KB, 320 * KB):
        data = rng.randbytes(size)
        assert shipped.blobs.put(data=data, write_request=request) \
            == oracle_put(oracle.blobs, data=data, write_request=request)
    data = rng.randbytes(320 * KB)
    with pytest.raises(AllocationError) as raised:
        shipped.blobs.put(data=data, write_request=request)
    assert "_split_leaf" in [entry.name for entry in raised.traceback]
    with pytest.raises(AllocationError):
        oracle_put(oracle.blobs, data=data, write_request=request)
    assert shipped.gam.free_page_count == shipped.ghost.pending_pages == 0
    assert state(shipped) == state(oracle)


#: The shipped sweep cadence; a 16-run leaf lets a run of 64 KB chunks
#: reach the whole interval, and a short ghost age lets freed space come
#: back inside the small file.
DEFAULT_CADENCE = dict(lob_fanout=16, ghost_cleanup_interval_ops=16,
                       ghost_max_pages_per_sweep=128, ghost_min_age_ops=24)
CADENCE_SIZES = [1 * MB + 3, 2 * MB, 640 * KB + 8191, 3 * MB - 5, 512 * KB,
                 1536 * KB + 1] * 4


@pytest.mark.parametrize("write_request", WRITE_REQUESTS)
def test_default_cleaner_cadence(write_request):
    """The shipped cleaner cadence (a sweep of 128 pages every 16
    ticks) on a churned file: whole-extent chunks go in runs as long
    as the sweep interval and the leaf allow, each ending at a sweep,
    at the leaf's room or at the BLOB's last whole chunk."""
    shipped, oracle = twins(16 * MB, write_request=write_request,
                            **DEFAULT_CADENCE)
    seen = Coverage(shipped)
    run_twins(shipped, oracle, CADENCE_SIZES, keep=4, seed=write_request)
    assert seen.mid_blob_frees > 0
    extents, odd = divmod(write_request, EXTENT_SIZE)
    if odd:
        assert seen.runs == 0
        return
    assert seen.long_runs > 0
    assert seen.sweep_cut_runs > 0
    assert seen.longest_run == min(16, 16 // extents)
    assert seen.long_address_runs > 0
    assert seen.cut_runs > 0


def kill_at_sweep(ordinal: int):
    """A ``crash_hook`` that raises at the ``ordinal``-th sweep."""
    calls = itertools.count(1)

    def hook(label: str) -> None:
        if label == "ghost:sweep" and next(calls) == ordinal:
            raise CrashPoint(label)
    return hook


@pytest.mark.parametrize("write_request", [64 * KB, 128 * KB])
def test_a_kill_at_the_sweep_that_ends_a_run(write_request):
    """A crash at the ``ghost:sweep`` hook of the tick that ends a run
    of two or more chunks.  A probe pair finds which sweep that is;
    fresh twins then die there, the shipped put with the run's chunks
    planned but not yet issued, the oracle with each chunk written and
    logged before its tick.  The twins still agree after the raise."""
    cfg = dict(write_request=write_request, **DEFAULT_CADENCE)
    probe, probe_oracle = twins(16 * MB, **cfg)
    seen = Coverage(probe)
    run_twins(probe, probe_oracle, CADENCE_SIZES, keep=4, seed=write_request)
    ordinal = seen.sweep_ordinals[len(seen.sweep_ordinals) // 2]
    shipped, oracle = twins(16 * MB, **cfg)
    for db in (shipped, oracle):
        db.ghost.crash_hook = kill_at_sweep(ordinal)
    with pytest.raises(CrashPoint):
        run_twins(shipped, oracle, CADENCE_SIZES, keep=4, seed=write_request)
    assert shipped.ghost.sweeps == oracle.ghost.sweeps == ordinal - 1
    assert state(shipped) == state(oracle)
