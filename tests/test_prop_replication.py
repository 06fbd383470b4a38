"""Property-based replication invariants on the ShardedStore.

For ANY schedule of put/overwrite/delete operations on a replicated
store:

* no shard ever holds more than one copy of a key;
* after losing any single shard, every surviving object reads back
  byte-identical to the model;
* rebuild conserves logical content (keys, order, bytes) while its
  accounting matches what was physically copied; and
* a second rebuild pass is a no-op.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.lfs_backend import LfsBackend
from repro.backends.sharded import ShardedStore
from repro.backends.spec import StoreSpec
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.units import KB, MB


@st.composite
def store_scripts(draw):
    """A schedule of mutations over a small key space."""
    return draw(st.lists(
        st.tuples(
            st.sampled_from(["put", "overwrite", "delete"]),
            st.integers(min_value=0, max_value=7),        # key index
            st.integers(min_value=1, max_value=16),       # size in 4 KB
        ),
        max_size=30,
    ))


def make_store(n=4, replicas=2):
    shards = [
        LfsBackend(BlockDevice(scaled_disk(24 * MB), store_data=True),
                   segment_size=2 * MB)
        for _ in range(n)
    ]
    return ShardedStore(shards, StoreSpec("lfs", shards=n, replicas=replicas))


def run_script(store, script):
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
    return model


def assert_at_most_one_copy_per_shard(store):
    # Stale copies on dead shards died with their devices and are not
    # counted; live shards must hold exactly the routed copy set.
    dead = set(store.dead_shards)
    for key in store.keys():
        holders = store.holders_of(key)
        assert len(set(holders)) == len(holders)
        assert not dead.intersection(holders)
        physical = [i for i, shard in enumerate(store.shards)
                    if i not in dead and shard.exists(key)]
        assert sorted(physical) == sorted(holders)


@settings(max_examples=40, deadline=None)
@given(store_scripts(), st.integers(min_value=2, max_value=3))
def test_at_most_one_copy_per_shard(script, replicas):
    store = make_store(replicas=replicas)
    run_script(store, script)
    assert_at_most_one_copy_per_shard(store)


@settings(max_examples=30, deadline=None)
@given(store_scripts(), st.integers(min_value=0, max_value=3))
def test_single_shard_loss_preserves_every_object(script, victim):
    store = make_store(replicas=2)
    model = run_script(store, script)
    store.fail_shard(victim)
    for key, payload in model.items():
        assert store.get(key) == payload
    swept = store.read_many(sorted(model))
    assert swept == [model[k] for k in sorted(model)]


@settings(max_examples=30, deadline=None)
@given(store_scripts(), st.integers(min_value=0, max_value=3))
def test_rebuild_conserves_content_and_accounting(script, victim):
    store = make_store(replicas=2)
    model = run_script(store, script)
    store.fail_shard(victim)
    keys_before = store.keys()
    hurt = store.under_replicated()
    write_bytes_before = sum(d.stats.write_bytes for d in store.devices())

    report = store.rebuild()

    # Logical content, key order, and sizes are untouched.
    assert store.keys() == keys_before
    for key, payload in model.items():
        assert store.get(key) == payload
        assert store.meta(key).size == len(payload)
    # Accounting: every under-replicated key was rebuilt, its bytes
    # counted once, and the devices physically wrote at least that much
    # (segment padding and metadata may add more).
    assert report.rebuilt_objects == len(hurt)
    assert report.rebuilt_bytes == sum(len(model[k]) for k in hurt)
    written = sum(d.stats.write_bytes for d in store.devices()) \
        - write_bytes_before
    assert written >= report.rebuilt_bytes
    assert store.under_replicated() == []
    assert_at_most_one_copy_per_shard(store)


@settings(max_examples=30, deadline=None)
@given(store_scripts(), st.integers(min_value=0, max_value=3))
def test_rebuild_is_idempotent(script, victim):
    store = make_store(replicas=2)
    run_script(store, script)
    store.fail_shard(victim)
    store.rebuild()
    routing = {key: store.holders_of(key) for key in store.keys()}
    again = store.rebuild()
    assert again.rebuilt_objects == 0
    assert again.rebuilt_bytes == 0
    assert {key: store.holders_of(key) for key in store.keys()} == routing
