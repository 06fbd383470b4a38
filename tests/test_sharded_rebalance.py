"""Rebalance invariants: contract, readability, accounting, resume.

The invariants every migration must hold:

* the :meth:`keys` insertion-order contract survives any rebalance (a
  move updates the routing map's value, never the key's position);
* every object is readable *mid*-migration (the copy lands on the
  target shard before the source copy is deleted) and byte-identical
  post-migration on content-storing devices;
* migration I/O is visible: ``StoreStats.migrated_objects`` /
  ``migrated_bytes`` report exactly what moved, and the devices were
  charged through the normal submit path;
* an aging run that rebalances at a sampled age can be killed after
  the post-rebalance checkpoint and resumed to a run record identical
  to the uninterrupted baseline.
"""

import pytest

from repro.backends.registry import build_store
from repro.backends.sharded import RebalanceReport, ShardedStore
from repro.backends.spec import StoreSpec
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.core.workload import ConstantSize
from repro.errors import ConfigError
from repro.units import KB, MB


def make_store(*, store_data: bool = False, placement: str = "hash",
               shards: int = 4, overlap: bool = False) -> ShardedStore:
    spec = StoreSpec("lfs", volume_bytes=96 * MB, shards=shards,
                     placement=placement, store_data=store_data,
                     overlap=overlap)
    return build_store(spec)


def payload(i: int, size: int) -> bytes:
    return bytes([i % 251 + 1]) * size


class TestRebalanceContract:
    def test_keys_order_preserved(self):
        store = make_store()
        names = [f"obj-{i}" for i in range(24)]
        for i, name in enumerate(names):
            store.put(name, size=(i % 5 + 1) * 64 * KB)
        # Interleave a delete + re-put so the order is non-trivial.
        store.delete(names[3])
        store.put(names[3], size=32 * KB)
        expected = store.keys()
        report = store.rebalance(mode="even")
        assert store.keys() == expected
        store.rebalance(mode="placement")
        assert store.keys() == expected
        assert isinstance(report, RebalanceReport)

    def test_unknown_mode_rejected(self):
        store = make_store()
        store.put("a", size=64 * KB)
        store.put("b", size=64 * KB)
        with pytest.raises(ConfigError):
            store.rebalance(mode="sideways")

    def test_placement_mode_restores_policy(self):
        store = make_store(placement="round_robin", shards=3)
        for i in range(9):
            store.put(f"obj-{i}", size=64 * KB)
        # delete + re-put drifts keys off the strict rotation.
        for i in (0, 3, 6):
            store.delete(f"obj-{i}")
            store.put(f"obj-{i}", size=64 * KB)
        store.rebalance(mode="placement")
        for pos, key in enumerate(store.keys()):
            assert store.shard_for(key) == pos % 3

    def test_even_mode_reduces_skew(self):
        # size_banded placement with one huge band is maximal skew:
        # every object lands on shard 0 until rebalanced.
        store = make_store(placement="size_banded")
        for i in range(12):
            store.put(f"obj-{i}", size=128 * KB)
        assert store.occupancy_skew() == float("inf")
        report = store.rebalance(mode="even")
        assert report.moved_objects > 0
        assert report.skew_after < report.skew_before
        live = [s.live_bytes for s in store.shard_stats()]
        assert min(live) > 0


class TestMigrationReadability:
    def test_readable_mid_and_post_migration(self):
        store = make_store(store_data=True, placement="size_banded")
        sizes = {}
        for i in range(10):
            size = (i % 3 + 1) * 64 * KB
            store.put(f"obj-{i}", data=payload(i, size))
            sizes[f"obj-{i}"] = size

        seen_mid_reads = []

        def on_move(key: str, src: int, dst: int) -> None:
            # Mid-migration: the moved key and every other key must
            # read back whole through the composite right now.
            assert src != dst
            for name, size in sizes.items():
                data = store.get(name)
                assert data == payload(int(name.split("-")[1]), size)
            seen_mid_reads.append(key)

        report = store.rebalance(mode="even", on_move=on_move)
        assert report.moved_objects == len(seen_mid_reads) > 0
        for name, size in sizes.items():
            assert store.get(name) == payload(int(name.split("-")[1]),
                                              size)
        # meta/versions survived the move.
        for name, size in sizes.items():
            assert store.meta(name).size == size

    def test_migration_io_visible_in_storestats(self):
        store = make_store(placement="size_banded")
        for i in range(8):
            store.put(f"obj-{i}", size=96 * KB)
        devices_before = sum(d.stats.total_bytes for d in store.devices())
        assert store.store_stats().migrated_objects == 0
        report = store.rebalance(mode="even")
        stats = store.store_stats()
        assert stats.migrated_objects == report.moved_objects > 0
        assert stats.migrated_bytes == report.moved_bytes > 0
        # The devices were actually charged for the migration.
        devices_after = sum(d.stats.total_bytes for d in store.devices())
        assert devices_after - devices_before >= 2 * report.moved_bytes

    def test_overlap_round_spans_source_and_target(self):
        store = make_store(placement="size_banded", overlap=True)
        for i in range(6):
            store.put(f"obj-{i}", size=96 * KB)
        rounds_before = store.scheduler.rounds
        wall_before = store.scheduler.wall_time_s
        report = store.rebalance(mode="even")
        assert report.moved_objects > 0
        # One dispatch round per migrated object, each costing wall
        # time between the slower lane and the two-lane sum.
        assert store.scheduler.rounds - rounds_before \
            == report.moved_objects
        wall_delta = store.scheduler.wall_time_s - wall_before
        assert 0.0 < wall_delta


class TestResumeAcrossRebalance:
    AGES = (0.0, 1.0, 2.0)

    def config(self) -> ExperimentConfig:
        # overlap=True so the resumed record must also reproduce the
        # scheduler's wall-time fields exactly.
        return ExperimentConfig(
            store=StoreSpec("filesystem", volume_bytes=96 * MB, shards=3,
                            overlap=True),
            sizes=ConstantSize(256 * KB),
            occupancy=0.4,
            ages=self.AGES,
            reads_per_sample=8,
            seed=13,
            rebalance_ages=(1.0,),
        )

    class _Killed(Exception):
        pass

    def test_killed_after_rebalance_checkpoint_resumes_identically(
            self, tmp_path):
        config = self.config()
        baseline = ExperimentRunner(config).run()
        assert baseline.config["rebalance_ages"] == [1.0]

        def killer(phase: str, value: float) -> None:
            if phase == "checkpoint" and value == 1.0:
                raise self._Killed

        runner = ExperimentRunner(config, progress=killer,
                                  checkpoint_dir=tmp_path)
        with pytest.raises(self._Killed):
            runner.run()
        resumed = ExperimentRunner(config, checkpoint_dir=tmp_path,
                                   resume=True).run()
        assert resumed.to_dict() == baseline.to_dict()

    def test_rebalance_ages_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                store=StoreSpec("filesystem", shards=3),
                sizes=ConstantSize(256 * KB),
                ages=(0.0, 2.0),
                rebalance_ages=(1.0,),   # not a sampled age
            )
        with pytest.raises(ConfigError):
            ExperimentConfig(
                store=StoreSpec("filesystem"),
                sizes=ConstantSize(256 * KB),
                ages=(0.0, 2.0),
                rebalance_ages=(2.0,),   # unsharded store
            )


class TestChargedBackgroundIo:
    """Throttled rebalance + background writes ride the normal lanes.

    The duty-cycle contract: at rate R, measured device seconds
    ``spent`` are followed by a ``spent * (1-R)/R`` stall, so the
    background stream occupies exactly an R fraction of the timeline
    it touches — visible to the event queue as real wall time.
    """

    def event_store(self, **kw) -> ShardedStore:
        spec = StoreSpec("lfs", volume_bytes=96 * MB, shards=4,
                         placement="round_robin", overlap=True,
                         queue="event", queue_depth=16, **kw)
        store = build_store(spec)
        for i in range(16):
            store.put(f"obj-{i}", size=128 * KB)
        return store

    def test_rebalance_rate_validation(self):
        store = make_store()
        store.put("a", size=64 * KB)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                store.rebalance(mode="even", rate=bad)

    def test_throttled_rebalance_stalls_the_timeline(self):
        # Same churn, two rates: the throttled run stalls the wall
        # clock by spent * (1-R)/R on top of the same copy time.
        def drift_then_rebalance(rate):
            store = self.event_store()
            # Placement drift: re-put a non-multiple of the shard
            # count so round-robin re-lands the keys elsewhere.
            for i in (1, 2, 3):
                store.delete(f"obj-{i}")
                store.put(f"obj-{i}", size=128 * KB)
            wall_before = store.scheduler.wall_time_s
            report = store.rebalance(mode="placement", rate=rate)
            store.scheduler.drain()
            return report, store.scheduler.wall_time_s - wall_before

        full, wall_full = drift_then_rebalance(1.0)
        slow, wall_slow = drift_then_rebalance(0.25)
        assert full.moved_objects == slow.moved_objects > 0
        assert full.stall_s == 0.0
        assert slow.copy_device_s > 0.0
        assert slow.stall_s == pytest.approx(
            slow.copy_device_s * 0.75 / 0.25, rel=1e-6)
        assert wall_slow > wall_full

    def test_background_write_charges_lanes_and_stalls(self):
        store = self.event_store(checkpoint_rate=0.5)
        written_before = sum(d.stats.write_bytes for d in store.devices())
        wall_before = store.scheduler.wall_time_s
        spent = store.background_write(1 * MB)
        store.scheduler.drain()
        written = sum(d.stats.write_bytes for d in store.devices())
        assert spent > 0.0
        assert written - written_before == 1 * MB
        # Duty cycle 0.5: the stall alone equals the summed device
        # seconds, and the dispatch round adds its makespan on top —
        # but never more than the fully serialized sum.
        wall_delta = store.scheduler.wall_time_s - wall_before
        assert spent < wall_delta <= 2 * spent + 1e-9

    def test_background_write_zero_rate_is_free(self):
        store = self.event_store()          # checkpoint_rate defaults 0
        clock_before = [d.clock_s for d in store.devices()]
        assert store.background_write(1 * MB) == 0.0
        assert store.background_write(0) == 0.0
        assert [d.clock_s for d in store.devices()] == clock_before
        with pytest.raises(ConfigError):
            store.background_write(1 * MB, rate=1.5)

    def test_background_write_splits_over_live_shards(self):
        store = self.event_store(checkpoint_rate=1.0)
        before = [d.stats.write_bytes for d in store.devices()]
        store.background_write(4 * MB + 3)
        store.scheduler.drain()
        deltas = [after - b for after, b in
                  zip((d.stats.write_bytes for d in store.devices()),
                      before)]
        assert sum(deltas) == 4 * MB + 3
        assert max(deltas) - min(deltas) <= 1  # even split + remainder
