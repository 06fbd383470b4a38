"""Unit tests for the ShardedStore composite: placement policies,
sticky ownership, cross-shard stats aggregation, and ordering."""

import zlib

import pytest

from repro.backends import ShardedStore, StoreSpec, build_store
from repro.backends.lfs_backend import LfsBackend
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.errors import ConfigError, ObjectNotFoundError
from repro.units import KB, MB


def make_sharded(n=3, *, placement="hash", store_data=False,
                 band_bytes=1 * MB, per_shard=32 * MB):
    shards = [
        LfsBackend(BlockDevice(scaled_disk(per_shard),
                               store_data=store_data),
                   segment_size=2 * MB)
        for _ in range(n)
    ]
    return ShardedStore(shards, StoreSpec("lfs", shards=n,
                                          placement=placement,
                                          band_bytes=band_bytes))


class TestConstruction:
    def test_needs_two_shards(self):
        # Only a spec with shards > 1 builds the composite, from exactly
        # the shards it names.
        assert not isinstance(build_store(StoreSpec("lfs",
                                                    volume_bytes=32 * MB)),
                              ShardedStore)
        assert len(build_store(
            StoreSpec.parse("lfs:shards=2,volume=64M")).shards) == 2
        with pytest.raises(ConfigError, match="shards=3, got 2 shards"):
            ShardedStore(make_sharded(2).shards, StoreSpec("lfs", shards=3))

    def test_rejects_bad_placement(self):
        with pytest.raises(ConfigError):
            make_sharded(3, placement="zodiac")

    def test_name_carries_layout(self):
        assert make_sharded(3).name == "sharded[3xlfs]"


class TestPlacement:
    def test_hash_is_stable_and_stateless(self):
        a, b = make_sharded(3), make_sharded(3)
        for i in range(20):
            key = f"k{i}"
            a.put(key, size=64 * KB)
            b.put(key, size=64 * KB)
            expected = zlib.crc32(key.encode()) % 3
            assert a.shard_for(key) == b.shard_for(key) == expected

    def test_round_robin_cycles(self):
        store = make_sharded(3, placement="round_robin")
        for i in range(7):
            store.put(f"k{i}", size=64 * KB)
        assert [store.shard_for(f"k{i}") for i in range(7)] == \
            [0, 1, 2, 0, 1, 2, 0]

    def test_size_banded_bands_double(self):
        store = make_sharded(3, placement="size_banded",
                             band_bytes=256 * KB)
        store.put("small", size=64 * KB)        # <= 256K  -> shard 0
        store.put("medium", size=400 * KB)      # <= 512K  -> shard 1
        store.put("large", size=1 * MB)         # beyond   -> last shard
        assert store.shard_for("small") == 0
        assert store.shard_for("medium") == 1
        assert store.shard_for("large") == 2

    def test_placement_is_sticky_across_overwrites(self):
        store = make_sharded(3, placement="size_banded",
                             band_bytes=256 * KB)
        store.put("a", size=64 * KB)
        before = store.shard_for("a")
        store.overwrite("a", size=1 * MB)  # would band elsewhere
        assert store.shard_for("a") == before
        assert store.meta("a").size == 1 * MB
        assert store.meta("a").version == 2

    def test_delete_then_put_replaces(self):
        store = make_sharded(3, placement="round_robin")
        for i in range(3):
            store.put(f"k{i}", size=64 * KB)
        store.delete("k0")
        store.put("k0", size=64 * KB)  # next rotation slot, end of keys
        assert store.shard_for("k0") == 0  # 3 puts later wraps to 0
        assert store.keys() == ["k1", "k2", "k0"]

    def test_duplicate_put_raises_inner_error(self):
        store = make_sharded(3, placement="round_robin")
        store.put("a", size=64 * KB)
        with pytest.raises(ConfigError):
            store.put("a", size=64 * KB)
        # The failed duplicate must not disturb ownership.
        assert store.shard_for("a") == 0

    def test_missing_key_raises(self):
        store = make_sharded(3)
        with pytest.raises(ObjectNotFoundError):
            store.get("ghost")
        with pytest.raises(ObjectNotFoundError):
            store.shard_for("ghost")


class TestAggregation:
    def test_stats_sum_over_shards(self):
        store = make_sharded(3)
        for i in range(12):
            store.put(f"k{i}", size=(i + 1) * 32 * KB)
        per = store.shard_stats()
        total = store.store_stats()
        assert total.objects == sum(s.objects for s in per) == 12
        assert total.live_bytes == sum(s.live_bytes for s in per)
        assert total.free_bytes == sum(s.free_bytes for s in per)
        assert total.capacity == sum(s.capacity for s in per)
        assert total.free_bytes == store.free_bytes()

    def test_devices_concatenate(self):
        store = make_sharded(3)
        devices = store.devices()
        assert len(devices) == 3
        assert len({id(d) for d in devices}) == 3

    def test_object_extents_delegate_to_owner(self):
        store = make_sharded(3)
        store.put("a", size=200 * KB)
        spans = store.object_extents("a")
        owner = store.shards[store.shard_for("a")]
        assert spans == owner.object_extents("a")
        assert sum(length for _, length in spans) >= 200 * KB

    def test_read_many_preserves_input_order(self):
        store = make_sharded(3, store_data=True)
        payloads = {f"k{i}": bytes([i + 1]) * (48 * KB) for i in range(9)}
        for key, payload in payloads.items():
            store.put(key, data=payload)
        keys = sorted(payloads, reverse=True)
        assert store.read_many(keys) == [payloads[k] for k in keys]


class TestSpecIntegration:
    def test_build_store_wires_placement(self):
        store = build_store(
            StoreSpec("lfs", volume_bytes=96 * MB, shards=3,
                      placement="round_robin"))
        assert isinstance(store, ShardedStore)
        assert store.placement == "round_robin"

    def test_band_bytes_flows_from_spec(self):
        store = build_store(
            StoreSpec.parse("lfs:volume=96M,shards=3,"
                            "placement=size_banded,band_bytes=128K"))
        assert store.band_bytes == 128 * KB
