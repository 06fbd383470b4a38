"""``BlobStore.put`` held to the retired chunk loop (``dboracle.oracle_put``).

Twin databases run the same operation sequence; one stores every BLOB
through the shipped ``put``, the other through the oracle.  After every
operation the two must agree on everything a put touches: GAM masks and
counters, each LOB tree's leaves and node pages, both devices' books
and head, the log cursor and record count, the ghost backlog, and the
bytes stored on the data device.
"""

import random

import pytest

from dboracle import oracle_put

from repro.db.database import DbConfig, SimDatabase
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.units import KB, MB, PAGE_SIZE

WRITE_REQUESTS = [8 * KB, 64 * KB, 72 * KB]


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
    allocation pressure, and page-at-a-time data allocation."""

    def __init__(self, db: SimDatabase) -> None:
        self.mid_blob_frees = 0
        self.pressure_sweeps = 0
        self.fallback_pages = 0
        inside = {"put": False, "alloc_runs": False}
        blobs, gam, ghost = db.blobs, db.gam, db.ghost

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

        def counting_sweep(sweep=ghost.sweep, **kwargs):
            released = sweep(**kwargs)
            if kwargs.get("ignore_age", False):
                self.pressure_sweeps += 1
            elif inside["put"] and released:
                self.mid_blob_frees += 1
            return released

        blobs.put = during("put", blobs.put)
        gam.alloc_runs = during("alloc_runs", gam.alloc_runs)
        gam.alloc_page = counting_alloc_page
        ghost.sweep = counting_sweep


def twins(capacity: int, **cfg) -> tuple[SimDatabase, SimDatabase]:
    def make():
        device = BlockDevice(scaled_disk(capacity), store_data=True)
        return SimDatabase(device, config=DbConfig(lob_fanout=4, **cfg))
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
        blob_id = shipped.blobs.put(data=data, write_request=request)
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


def test_partial_last_chunk_is_zero_padded():
    shipped, oracle = twins(4 * MB)
    run_twins(shipped, oracle, [PAGE_SIZE + 1, 64 * KB + 3], keep=5, seed=3)
    blob_id = shipped.blobs.blob_ids()[0]
    (extent,) = shipped.blobs.blob_extents(blob_id)
    assert extent.length == 2 * PAGE_SIZE
    stored = shipped.data_device.peek(extent.start, extent.length)
    assert stored[PAGE_SIZE + 1:] == bytes(PAGE_SIZE - 1)
