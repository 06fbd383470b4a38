"""Cross-backend contract tests: every backend honours ObjectStore.

One parametrized suite runs against all four backends plus a 3-shard
:class:`ShardedStore` composite, checking the get/put semantics the
experiment driver relies on.  Backend-specific behaviour lives in the
dedicated test modules.
"""

import copy
import pickle

import pytest
from dboracle import oracle_get

from repro.alloc.extent import fragment_count
from repro.backends import StoreSpec, build_store
from repro.backends.base import ObjectStore
from repro.backends.blob_backend import BlobBackend
from repro.backends.file_backend import FileBackend
from repro.backends.gfs_backend import GfsChunkBackend
from repro.backends.lfs_backend import LfsBackend
from repro.backends.sharded import ShardedStore
from repro.core.fragmentation import fragment_counts
from repro.db.database import DbConfig, SimDatabase
from repro.db.heap import HeapTable
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.disk.policy import DevicePolicy
from repro.errors import (ConfigError, ObjectNotFoundError, ReproError,
                          ShardUnavailableError)
from repro.units import KB, MB

BACKENDS = ["filesystem", "database", "gfs", "lfs", "sharded"]


def make_store(kind: str, *, store_data: bool = False,
               capacity: int = 64 * MB):
    device = BlockDevice(scaled_disk(capacity), store_data=store_data)
    if kind == "filesystem":
        return FileBackend(device)
    if kind == "database":
        return BlobBackend(device)
    if kind == "gfs":
        return GfsChunkBackend(device, chunk_size=8 * MB)
    if kind == "lfs":
        return LfsBackend(device, segment_size=2 * MB)
    if kind in ("sharded", "sharded-lfs"):
        # Three shards, each of `capacity`, so per-shard headroom
        # matches what the other backends get.
        inner = "filesystem" if kind == "sharded" else "lfs"
        return build_store(StoreSpec(inner, volume_bytes=3 * capacity,
                                     store_data=store_data, shards=3))
    raise AssertionError(kind)


@pytest.fixture(params=BACKENDS)
def store(request):
    return make_store(request.param)


@pytest.fixture(params=BACKENDS)
def content_store(request):
    return make_store(request.param, store_data=True)


class TestProtocol:
    def test_satisfies_runtime_protocol(self, store):
        assert isinstance(store, ObjectStore)

    def test_put_get_exists(self, store):
        store.put("a", size=256 * KB)
        assert store.exists("a")
        assert store.meta("a").size == 256 * KB
        store.get("a")  # timed read must not raise

    def test_keys(self, store):
        for i in range(5):
            store.put(f"k{i}", size=64 * KB)
        assert sorted(store.keys()) == [f"k{i}" for i in range(5)]

    def test_keys_insertion_order(self, store):
        """The protocol's ordering contract: keys() is insertion order;
        overwrite keeps a key's position, delete + fresh put moves it
        to the end.  Every backend (including the composite) must agree
        so reports and workloads are reproducible across backends."""
        for key in ("c", "a", "b"):
            store.put(key, size=64 * KB)
        assert store.keys() == ["c", "a", "b"]
        store.overwrite("a", size=96 * KB)
        assert store.keys() == ["c", "a", "b"]
        store.delete("c")
        assert store.keys() == ["a", "b"]
        store.put("c", size=64 * KB)
        assert store.keys() == ["a", "b", "c"]

    def test_read_many_matches_sequential_gets(self, content_store):
        payloads = {f"k{i}": bytes([i + 1]) * (32 * KB) for i in range(6)}
        for key, payload in payloads.items():
            content_store.put(key, data=payload)
        keys = list(payloads)[::-1]
        assert content_store.read_many(keys) == \
            [content_store.get(k) for k in keys]

    def test_missing_object_raises(self, store):
        with pytest.raises(ObjectNotFoundError):
            store.get("ghost")
        with pytest.raises(ObjectNotFoundError):
            store.meta("ghost")

    def test_delete(self, store):
        store.put("a", size=64 * KB)
        store.delete("a")
        assert not store.exists("a")
        with pytest.raises(ObjectNotFoundError):
            store.get("a")

    def test_overwrite_bumps_version_and_size(self, store):
        store.put("a", size=64 * KB)
        store.overwrite("a", size=128 * KB)
        meta = store.meta("a")
        assert meta.size == 128 * KB
        assert meta.version == 2

    def test_object_extents_cover_size(self, store):
        store.put("a", size=200 * KB)
        spans = store.object_extents("a")
        covered = sum(length for _, length in spans)
        assert covered >= 200 * KB  # rounding to clusters/pages allowed
        assert covered <= 200 * KB + 64 * KB

    def test_devices_nonempty(self, store):
        assert len(store.devices()) >= 1

    def test_store_stats(self, store):
        store.put("a", size=1 * MB)
        stats = store.store_stats()
        assert stats.objects == 1
        assert stats.live_bytes == 1 * MB
        assert 0 < stats.occupancy < 1
        assert stats.capacity > 0

    def test_free_bytes_decreases_with_data(self, store):
        before = store.free_bytes()
        store.put("a", size=1 * MB)
        assert store.free_bytes() < before


class TestContentParity:
    def test_round_trip(self, content_store):
        payload = bytes(range(256)) * (64 * KB // 256)
        content_store.put("a", data=payload)
        assert content_store.get("a") == payload

    def test_overwrite_round_trip(self, content_store):
        content_store.put("a", data=b"v1" * (32 * KB))
        content_store.overwrite("a", data=b"v2" * (48 * KB))
        assert content_store.get("a") == b"v2" * (48 * KB)

    def test_range_read(self, content_store):
        payload = b"".join(bytes([i] * KB) for i in range(128))
        content_store.put("a", data=payload)
        got = content_store.get("a", offset=37 * KB, length=3 * KB)
        assert got == payload[37 * KB: 40 * KB]

    def test_many_objects_independent(self, content_store):
        for i in range(8):
            content_store.put(f"k{i}", data=bytes([i]) * (16 * KB))
        for i in range(8):
            assert content_store.get(f"k{i}") == bytes([i]) * (16 * KB)


def device_books(store):
    return [(copy.deepcopy(dev.stats), dev.clock_s)
            for dev in store.devices()]


class TestRangeReads:
    """``get(key, offset, length)`` outside the object is refused with
    :class:`ConfigError`; an in-range zero-length read is empty.  The
    log and chunk stores (and a composite over logs) know an object's
    size without a charged lookup, so they refuse before any charge and
    serve an empty read without a device request."""

    UNCHARGED = ("gfs", "lfs", "sharded-lfs")

    @pytest.mark.parametrize("store_data", [False, True])
    @pytest.mark.parametrize("kind", BACKENDS + ["sharded-lfs"])
    def test_reads_outside_the_object_are_refused(self, kind, store_data):
        store = make_store(kind, store_data=store_data)
        size = 64 * KB
        store.put("a", size=size)
        before = device_books(store)
        for offset, length in [(0, -1), (-1, 4), (-1, None), (size + 1, None),
                               (size - 10, 11), (size, 1)]:
            with pytest.raises(ConfigError):
                store.get("a", offset, length)
        if kind in self.UNCHARGED:
            assert device_books(store) == before

    @pytest.mark.parametrize("store_data", [False, True])
    @pytest.mark.parametrize("kind", BACKENDS + ["sharded-lfs"])
    def test_a_zero_length_read_is_empty(self, kind, store_data):
        store = make_store(kind, store_data=store_data)
        size = 64 * KB
        store.put("a", size=size)
        requests = [dev.stats.requests for dev in store.devices()]
        empty = b"" if store_data else None
        for offset in (0, size // 2, size):
            assert store.get("a", offset, 0) == empty
        assert store.get("a", size) == empty
        if kind in self.UNCHARGED:
            assert [dev.stats.requests for dev in store.devices()] == requests
        assert store.get("a", size - KB) == (bytes(KB) if store_data else None)


class TestRefusedWrites:
    """Every store checks a write and the key before it charges: a
    refused ``put`` or ``overwrite`` raises and moves no device's books,
    no free space and no key, alone or under a two-shard composite."""

    OPTIONS = {"gfs": {"chunk_size": 8 * MB}, "lfs": {"segment_size": 2 * MB}}

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("kind", ["filesystem", "database", "lfs", "gfs"])
    def test_a_refused_write_moves_nothing(self, kind, shards):
        store = build_store(StoreSpec(kind, volume_bytes=shards * 64 * MB,
                                      shards=shards,
                                      options=self.OPTIONS.get(kind, {})))
        store.put("a", size=64 * KB)

        def books():
            return ([copy.copy(dev.stats) for dev in store.devices()],
                    store.free_bytes(), store.keys())

        before = books()
        refused = [
            lambda: store.put("a", size=64 * KB),          # duplicate key
            lambda: store.put("b", size=0),
            lambda: store.put("b"),                        # neither
            lambda: store.put("b", size=8, data=bytes(8)),  # both
            lambda: store.overwrite("missing", size=64 * KB),
            lambda: store.overwrite("a", size=0),
        ]
        for write in refused:
            with pytest.raises(ReproError):
                write()
            assert books() == before


class TestStoreRuleParity:
    """Rules every store states once, held alone and under a two-shard
    composite: the free bytes ``store_stats`` reports are
    ``free_bytes()``, and a ``read_many`` sweep reads the bytes per-key
    ``get`` reads."""

    OPTIONS = TestRefusedWrites.OPTIONS
    #: Not multiples of a cluster or a page.
    SIZES = [5000, 8885, 6143, 7001, 5555, 8191]

    def build(self, kind, shards, **spec):
        return build_store(StoreSpec(kind, volume_bytes=shards * 64 * MB,
                                     shards=shards,
                                     options=self.OPTIONS.get(kind, {}),
                                     **spec))

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("kind", ["filesystem", "database", "lfs", "gfs"])
    def test_store_stats_reports_free_bytes(self, kind, shards):
        store = self.build(kind, shards)
        for i in range(5):
            store.put(f"k{i}", size=300_000)
            assert store.store_stats().free_bytes == store.free_bytes()
        store.delete("k0")
        assert store.store_stats().free_bytes == store.free_bytes()

    @pytest.mark.parametrize("kind", ["lfs", "gfs"])
    def test_free_bytes_count_whole_units_only(self, kind):
        """A log store's space is its whole segments or chunks: the
        volume's tail past the last one is neither free nor capacity."""
        (unit,) = self.OPTIONS[kind].values()
        volume = 64 * MB + 5 * MB  # not a multiple of 2 MB or 8 MB
        store = build_store(StoreSpec(kind, volume_bytes=volume,
                                      options=self.OPTIONS[kind]))
        whole = volume // unit * unit
        assert store.free_bytes() == store.store_stats().capacity == whole
        store.put("a", size=300_000)
        assert store.free_bytes() == whole - 300_000

    @pytest.mark.parametrize("store_data", [False, True])
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("kind", ["filesystem", "database", "lfs", "gfs"])
    def test_read_many_reads_what_get_reads(self, kind, shards, store_data):
        policy = DevicePolicy(batch_size=4, reorder="clook")
        swept, fetched = (self.build(kind, shards, store_data=store_data,
                                     policy=policy) for _ in range(2))
        payloads = {f"k{i}": bytes([i + 1]) * size
                    for i, size in enumerate(self.SIZES)}
        for store in (swept, fetched):
            for key, payload in payloads.items():
                if store_data:
                    store.put(key, data=payload)
                else:
                    store.put(key, size=len(payload))
        keys = list(payloads)[::-1]

        def read_bytes(store):
            return sum(dev.stats.read_bytes for dev in store.devices())

        base = read_bytes(swept), read_bytes(fetched)
        results = swept.read_many(keys)
        expected = [fetched.get(key) for key in keys]
        # Bytes only: batching may reorder the metadata reads.
        assert read_bytes(swept) - base[0] == read_bytes(fetched) - base[1]
        assert results == expected
        if store_data:
            assert results == [payloads[key] for key in keys]


class TestChurnParity:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_sustained_churn_never_wedges(self, kind):
        import random

        rng = random.Random(13)
        store = make_store(kind, capacity=32 * MB)
        keys = [f"k{i}" for i in range(20)]
        for key in keys:
            store.put(key, size=512 * KB)
        for _ in range(150):
            store.overwrite(rng.choice(keys), size=512 * KB)
        stats = store.store_stats()
        assert stats.objects == 20
        assert stats.live_bytes == 20 * 512 * KB


def aged(kind: str):
    """A store churned into fragments; ``kind`` is a ``BACKENDS`` entry,
    a leaf store whose metadata pool holds 4 pages (so the reads miss,
    evict and write back), or a replicated composite, ``-failed`` after
    its shard 0 died (so keys route through their first live holder)."""
    import random

    if kind.endswith("-pool4"):
        device = BlockDevice(scaled_disk(32 * MB))
        small = DbConfig(buffer_pool_pages=4)
        store = (FileBackend(device, metadata_db=SimDatabase(
                     BlockDevice(scaled_disk(32 * MB)), config=small))
                 if kind.startswith("filesystem") else
                 BlobBackend(device, db_config=small))
    elif kind.startswith("replicated-"):
        inner = kind.split("-")[1]
        store = build_store(StoreSpec(inner, volume_bytes=3 * 32 * MB,
                                      shards=3, replicas=2))
    else:
        store = make_store(kind, capacity=32 * MB)
    rng = random.Random(5)
    keys = [f"k{i}" for i in range(24)]
    for key in keys:
        store.put(key, size=rng.choice([96, 256, 448]) * KB)
    for step in range(60):
        key = rng.choice(keys)
        if step % 7 == 3 and store.exists(key):
            store.delete(key)
        elif store.exists(key):
            store.overwrite(key, size=rng.choice([96, 256, 448]) * KB)
        else:
            store.put(key, size=320 * KB)
    if kind.endswith("-failed"):
        store.fail_shard(0)
    return store


def retired_extents(store, key: str):
    """``object_extents`` as each store read it before ``layouts``: one
    retired ``get`` per key, through the key's first live holder."""
    if isinstance(store, ShardedStore):
        return retired_extents(store.shards[store._first_live(key)], key)
    if isinstance(store, FileBackend):
        return store.fs.extent_map(oracle_get(store.meta_table, key)["path"])
    if isinstance(store, BlobBackend):
        row = oracle_get(store.meta_table, key)
        return store.db.blobs.blob_spans(row["blob_id"])
    return store._spans_of(store._lookup(key))


def retired_live_bytes(store) -> int:
    """``store_stats().live_bytes`` summed one retired ``get`` per key."""
    if isinstance(store, ShardedStore):
        return sum(retired_live_bytes(shard) for shard in store.shards)
    if isinstance(store, (FileBackend, BlobBackend)):
        return sum(oracle_get(store.meta_table, key)["size"]
                   for key in store.keys())
    return store.store_stats().live_bytes


class TestMeasurementReads:
    """``fragment_counts`` and ``store_stats`` read each table once,
    charging what the per-key reads charged: on triplet stores, against
    ``object_extents`` per key and against the retired per-key reads."""

    @pytest.mark.parametrize("kind", BACKENDS + [
        "filesystem-pool4", "database-pool4", "replicated-filesystem",
        "replicated-filesystem-failed", "replicated-database-failed"])
    def test_one_pass_equals_one_read_per_key(self, kind, monkeypatch):
        one, each, retired = aged(kind), aged(kind), aged(kind)
        assert pickle.dumps(one) == pickle.dumps(each) == pickle.dumps(retired)
        counts = fragment_counts(one)
        stats = one.store_stats()
        assert len(counts) == len(one.keys()) > 0
        assert list(counts.items()) == [
            (key, fragment_count(retired_extents(retired, key)))
            for key in retired.keys()]
        assert stats.live_bytes == retired_live_bytes(retired)
        # The public per-key form, its rows read one retired get each.
        monkeypatch.setattr(HeapTable, "read_rows", lambda table, keys: [
            oracle_get(table, key) for key in keys])
        assert list(counts.items()) == [
            (key, fragment_count(each.object_extents(key)))
            for key in each.keys()]
        assert stats == each.store_stats()
        assert pickle.dumps(one) == pickle.dumps(each) == pickle.dumps(retired)

    def test_an_unroutable_key_raises_after_the_keys_before_it(
            self, monkeypatch):
        """With one copy per key, a dead shard's keys have no holder:
        the one-pass read raises where the per-key reads raise, having
        charged the same keys."""
        def lost():
            store = build_store(StoreSpec(
                "filesystem", volume_bytes=3 * 32 * MB, shards=3))
            for i in range(12):
                store.put(f"k{i}", size=128 * KB)
            store.fail_shard(1)
            return store

        one, each = lost(), lost()
        keys = one.keys()
        first_lost = next(i for i, k in enumerate(keys)
                          if one.shard_for(k) == 1)
        assert first_lost > 0
        with pytest.raises(ShardUnavailableError):
            fragment_counts(one)
        monkeypatch.setattr(HeapTable, "read_rows", lambda table, keys: [
            oracle_get(table, key) for key in keys])
        for key in keys[:first_lost]:
            each.object_extents(key)
        with pytest.raises(ShardUnavailableError):
            each.object_extents(keys[first_lost])
        assert pickle.dumps(one) == pickle.dumps(each)
