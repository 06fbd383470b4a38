"""Property-based tests at the system level: filesystem and blob store.

The heavyweight invariant: after ANY sequence of get/put operations,
every object's content reads back byte-exact, the free-space accounting
balances, and the marker scanner agrees with the extent maps.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends import StoreSpec, build_store
from repro.backends.blob_backend import BlobBackend
from repro.backends.file_backend import FileBackend
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.units import KB, MB


@st.composite
def store_scripts(draw):
    """A schedule of put/overwrite/delete ops on a small key space."""
    return draw(st.lists(
        st.tuples(
            st.sampled_from(["put", "overwrite", "delete", "read"]),
            st.integers(min_value=0, max_value=5),        # key index
            st.integers(min_value=1, max_value=48),       # size in 4 KB
        ),
        max_size=40,
    ))


def run_script(store, script):
    """Apply a script, returning the expected content model."""
    model: dict[str, bytes] = {}
    for op, key_idx, size_units in script:
        key = f"k{key_idx}"
        size = size_units * 4 * KB
        payload = bytes([(key_idx * 37 + size_units) % 255 + 1]) * size
        if op == "put" and key not in model:
            store.put(key, data=payload)
            model[key] = payload
        elif op == "overwrite" and key in model:
            store.overwrite(key, data=payload)
            model[key] = payload
        elif op == "delete" and key in model:
            store.delete(key)
            del model[key]
        elif op == "read" and key in model:
            assert store.get(key) == model[key]
    return model


@given(store_scripts())
@settings(max_examples=40, deadline=None)
def test_filesystem_store_byte_exact(script):
    device = BlockDevice(scaled_disk(32 * MB), store_data=True)
    store = FileBackend(device)
    model = run_script(store, script)
    for key, payload in model.items():
        assert store.get(key) == payload
    store.fs.check_invariants()
    # Conservation: free + live allocations + pending + metadata tile
    # the data region.
    fs = store.fs
    fs.journal.commit()
    live = sum(r.allocated_bytes for r in fs.table)
    nibbles = sum(e.length for e in fs.metadata_traffic.outstanding_extents)
    assert fs.free_bytes + live + nibbles == fs.data_capacity


@given(store_scripts())
@settings(max_examples=25, deadline=None)
def test_sharded_store_byte_exact(script):
    """The composite honours the same heavyweight invariant: any op
    sequence reads back byte-exact, per-shard filesystem invariants
    hold, and composite stats equal the sum of shard stats."""
    store = build_store(StoreSpec("filesystem", volume_bytes=96 * MB,
                                  store_data=True, shards=3))
    model = run_script(store, script)
    for key, payload in model.items():
        assert store.get(key) == payload
    assert store.keys() == list(model)  # insertion order survives
    for shard in store.shards:
        shard.fs.check_invariants()
    per = store.shard_stats()
    total = store.store_stats()
    assert total.objects == sum(s.objects for s in per) == len(model)
    assert total.live_bytes == sum(s.live_bytes for s in per)
    assert total.free_bytes == sum(s.free_bytes for s in per)
    assert total.capacity == sum(s.capacity for s in per)


@given(store_scripts())
@settings(max_examples=40, deadline=None)
def test_database_store_byte_exact(script):
    device = BlockDevice(scaled_disk(32 * MB), store_data=True)
    store = BlobBackend(device)
    model = run_script(store, script)
    for key, payload in model.items():
        assert store.get(key) == payload
    store.db.check_invariants()


@given(store_scripts())
# Put, delete, put the same key smaller: the second copy carves the
# front of the first one's freed run, over its stale markers.
@example([("put", 0, 2), ("delete", 0, 2), ("put", 0, 1)])
@settings(max_examples=25, deadline=None)
def test_marker_scan_agrees_with_extent_maps(script):
    """Key ``k<i>`` is marker object ``i + 1``, and each write tags its
    content one version up.  A key's version outlives its delete: a
    recreated key keeps its id, so its markers must outrank the deleted
    copy's stale ones for the scanner's newest-version filter to drop
    them."""
    from repro.core.fragmentation import (
        MarkerScanner,
        fragment_counts,
        make_marker_content,
    )

    device = BlockDevice(scaled_disk(32 * MB), store_data=True)
    store = FileBackend(device)
    versions: dict[str, int] = {}
    for op, key_idx, size_units in script:
        key = f"k{key_idx}"
        live = store.exists(key)
        if op == "delete" and live:
            store.delete(key)
        elif (op, live) in (("put", False), ("overwrite", True)):
            versions[key] = versions.get(key, 0) + 1
            data = make_marker_content(key_idx + 1, size_units * 4 * KB,
                                       version=versions[key])
            (store.overwrite if live else store.put)(key, data=data)
    object_id = {key: int(key[1:]) + 1 for key in store.keys()}
    marker_counts = MarkerScanner(device).fragment_counts(
        live_ids=set(object_id.values())
    )
    extent_counts = {
        object_id[key]: count
        for key, count in fragment_counts(store).items()
    }
    assert marker_counts == extent_counts


@given(st.lists(st.integers(min_value=1, max_value=64),
                min_size=1, max_size=12))
@settings(max_examples=30, deadline=None)
def test_blob_sizes_round_trip_exactly(size_units):
    """Arbitrary (page-unaligned) blob sizes read back exactly, even
    though storage rounds to pages internally."""
    device = BlockDevice(scaled_disk(32 * MB), store_data=True)
    store = BlobBackend(device)
    for i, units in enumerate(size_units):
        size = units * 1000 + i  # deliberately unaligned
        payload = bytes([i % 255 + 1]) * size
        store.put(f"k{i}", data=payload)
    for i, units in enumerate(size_units):
        size = units * 1000 + i
        got = store.get(f"k{i}")
        assert len(got) == size
        assert got == bytes([i % 255 + 1]) * size
