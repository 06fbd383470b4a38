"""Replicated placement, degraded reads, and charged background
rebuild on the ShardedStore composite — including the rebuild
kill-point matrix (crash anywhere inside rebuild(), re-run it, full
redundancy restored with no copy lost or double-counted) and the
experiment-level loss/rebuild wiring."""

import pytest

from crashsim import CrashClock

from dataclasses import replace

from repro.backends import StoreSpec, resolve_spec
from repro.backends.lfs_backend import LfsBackend
from repro.backends.sharded import ShardedStore
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.workload import ConstantSize
from repro.disk.faults import (BACKOFF_BASE_S, BACKOFF_CAP_S, READ_RETRIES,
                               DeviceFaults, FaultyBlockDevice)
from repro.disk.geometry import scaled_disk
from repro.errors import (ConfigError, CrashPoint, ShardUnavailableError,
                          TransientIoError)
from repro.units import KB, MB


def content_for(key: str, size: int = 32 * KB) -> bytes:
    seed = key.encode()
    return (seed * (size // len(seed) + 1))[:size]


def make_replicated(n=4, replicas=2, *, store_data=True, overlap=False,
                    per_shard=32 * MB, clock=None, torn=False,
                    shard_faults=None, rebuild_rate=1.0, placement="hash"):
    """A ShardedStore of LfsBackends on faulty devices.

    ``shard_faults`` maps shard index -> DeviceFaults for that shard's
    device; ``clock`` (shared CrashClock) and ``torn`` arm the crash
    matrix.
    """
    shards = []
    for i in range(n):
        device = FaultyBlockDevice(
            scaled_disk(per_shard), store_data=store_data,
            clock=clock, torn=torn,
            faults=(shard_faults or {}).get(i))
        shards.append(LfsBackend(device, segment_size=2 * MB))
    return ShardedStore(shards, resolve_spec(StoreSpec(
        "lfs", shards=n, overlap=overlap, replicas=replicas,
        rebuild_rate=rebuild_rate, placement=placement)))


def load(store, count=12, size=32 * KB):
    keys = [f"obj-{i}" for i in range(count)]
    for key in keys:
        store.put(key, data=content_for(key, size))
    return keys


class TestPlacement:
    def test_replicas_land_on_distinct_shards(self):
        store = make_replicated(4, replicas=3)
        keys = load(store)
        for key in keys:
            holders = store.holders_of(key)
            assert len(holders) == 3
            assert len(set(holders)) == 3
            assert holders[0] == store.shard_for(key)

    def test_replica_set_is_ring_deterministic(self):
        a, b = make_replicated(4, replicas=2), make_replicated(4, replicas=2)
        for key in load(a):
            b.put(key, data=content_for(key))
            assert a.holders_of(key) == b.holders_of(key)
            primary = a.shard_for(key)
            assert a.holders_of(key)[1] == (primary + 1) % 4

    def test_single_replica_keeps_flat_maps(self):
        store = make_replicated(3, replicas=1)
        for key in load(store):
            assert store.holders_of(key) == (store.shard_for(key),)

    def test_put_fans_out_in_one_dispatch_round(self):
        store = make_replicated(4, replicas=2, overlap=True)
        store.put("obj", data=content_for("obj"))
        assert store.scheduler.rounds == 1
        # Two lanes wrote concurrently: wall < summed device time.
        devices = store.devices()
        assert store.scheduler.wall_time_s < sum(d.clock_s for d in devices)

    def test_replicas_need_enough_shards(self):
        with pytest.raises(ConfigError):
            make_replicated(2, replicas=3)

    def test_logical_object_count_and_physical_bytes(self):
        store = make_replicated(4, replicas=2)
        keys = load(store, count=10)
        stats = store.store_stats()
        assert stats.objects == 10  # logical, not 20 physical copies
        assert stats.live_bytes == 2 * sum(
            store.meta(k).size for k in keys)


class TestDegradedReads:
    def test_loss_leaves_every_object_readable_byte_identical(self):
        healthy = make_replicated(4, replicas=2)
        faulty = make_replicated(4, replicas=2)
        keys = load(healthy), load(faulty)
        assert keys[0] == keys[1]
        faulty.fail_shard(1)
        for key in keys[0]:
            assert faulty.get(key) == healthy.get(key) == content_for(key)
        assert faulty.degraded_reads > 0
        assert faulty.failovers > 0
        assert healthy.degraded_reads == healthy.failovers == 0

    def test_read_many_matches_per_key_gets(self):
        store = make_replicated(4, replicas=2)
        keys = load(store)
        store.fail_shard(2)
        swept = store.read_many(keys)
        assert swept == [content_for(k) for k in keys]
        assert store.degraded_reads > 0

    def test_read_many_none_still_means_contentless(self):
        store = make_replicated(4, replicas=2, store_data=False)
        keys = [f"obj-{i}" for i in range(8)]
        for key in keys:
            store.put(key, size=32 * KB)
        store.fail_shard(0)
        # Degraded but successful reads of size-only objects: None
        # means "no stored content", never "read failed".
        assert store.read_many(keys) == [None] * len(keys)

    def test_no_surviving_replica_raises(self):
        store = make_replicated(3, replicas=1)
        keys = load(store)
        victim = keys[0]
        store.fail_shard(store.shard_for(victim))
        with pytest.raises(ShardUnavailableError):
            store.get(victim)
        with pytest.raises(ShardUnavailableError):
            store.meta(victim)
        with pytest.raises(ShardUnavailableError):
            store.read_many([victim])

    @pytest.mark.parametrize("sweep", [False, True])
    def test_loss_the_device_finds_first_fails_over(self, sweep):
        """Shard 1's device dies without the composite being told: the
        first read that reaches it raises ShardLostError, the composite
        records the shard dead, and every read it would have served
        fails over to the replica (one failover per holder given up)."""
        store = make_replicated(4, replicas=2)
        keys = load(store)
        store.shards[1].devices()[0].mark_lost()
        assert store.dead_shards == ()
        on_lost = [k for k in keys if store.shard_for(k) == 1]
        assert on_lost
        if sweep:
            values = store.read_many(keys)
        else:
            values = [store.get(k) for k in keys]
        assert values == [content_for(k) for k in keys]
        assert store.dead_shards == (1,)
        assert store.failovers == len(on_lost)
        assert store.degraded_reads == len(on_lost)

    def test_exists_and_keys_survive_degradation(self):
        store = make_replicated(4, replicas=2)
        keys = load(store)
        store.fail_shard(3)
        assert store.keys() == keys
        assert all(store.exists(k) for k in keys)


class TestTransientRetry:
    def test_retries_then_fails_over_to_replica(self):
        # Shard 0's device fails every read; replicas rescue the key.
        store = make_replicated(
            4, replicas=2,
            shard_faults={0: DeviceFaults(transient_rate=1.0,
                                          transient_ops="read")})
        key = next(k for k in load(store) if store.shard_for(k) == 0)
        assert store.get(key) == content_for(key)
        assert store.retries == READ_RETRIES
        assert store.failovers == 1
        assert store.degraded_reads == 1

    def test_backoff_is_charged_as_modelled_time(self):
        store = make_replicated(
            4, replicas=2,
            shard_faults={0: DeviceFaults(transient_rate=1.0,
                                          transient_ops="read")})
        key = next(k for k in load(store) if store.shard_for(k) == 0)
        before = sum(d.stats.cpu_time_s for d in store.devices())
        store.get(key)
        spent = sum(d.stats.cpu_time_s for d in store.devices()) - before
        expected = sum(
            min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2 ** i))
            for i in range(READ_RETRIES))
        # The inner backend books a little lookup CPU of its own; the
        # backoff must account for (at least) the exponential schedule.
        assert spent >= expected
        assert spent == pytest.approx(expected, abs=3e-3)

    def test_unreplicated_key_exhausts_and_raises(self):
        store = make_replicated(
            3, replicas=1,
            shard_faults={i: DeviceFaults(transient_rate=1.0,
                                          transient_ops="read")
                          for i in range(3)})
        keys = load(store)
        with pytest.raises(ShardUnavailableError):
            store.get(keys[0])

    @staticmethod
    def flaky_reads(store, fails):
        """Make the next ``fails`` shard gets raise TransientIoError
        before touching a device (nothing charged, nothing read)."""
        left = [fails]
        for shard in store.shards:
            def get(key, *args, real=shard.get):
                if left[0] > 0:
                    left[0] -= 1
                    raise TransientIoError("injected")
                return real(key, *args)
            shard.get = get

    def test_rebuild_copy_retries_its_source_read(self):
        """A rebuild copy's source read gets the per-holder retry a
        foreground get has, inside the copy's own background round: a
        fault-free twin dispatches the same rounds, and the flaky run's
        extra wall time is exactly the backoff schedule."""
        healthy, flaky = (make_replicated(4, replicas=2, overlap=True)
                          for _ in range(2))
        keys = load(healthy), load(flaky)
        for store in (healthy, flaky):
            store.fail_shard(1)
        self.flaky_reads(flaky, READ_RETRIES)
        assert flaky.rebuild() == healthy.rebuild()
        assert flaky.retries == READ_RETRIES
        assert healthy.retries == 0
        assert flaky.scheduler.rounds == healthy.scheduler.rounds
        backoff = sum(
            min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2 ** i))
            for i in range(READ_RETRIES))
        assert flaky.scheduler.wall_time_s == pytest.approx(
            healthy.scheduler.wall_time_s + backoff)
        for key in keys[1]:
            assert flaky.get(key) == content_for(key)

    def test_rebuild_copy_gives_up_after_the_retry_budget(self):
        store = make_replicated(4, replicas=2)
        load(store)
        store.fail_shard(1)
        self.flaky_reads(store, READ_RETRIES + 1)
        with pytest.raises(TransientIoError):
            store.rebuild()
        assert store.retries == READ_RETRIES

    @staticmethod
    def age_under_read_faults(text):
        """Two unreplicated shards of ``text``, 32 MB, 256 KB objects,
        5 % of read batches failing, aged to 1.0 at seed 7."""
        spec = replace(
            StoreSpec.parse(text, volume_bytes=32 * MB,
                            write_request=64 * KB),
            shards=2, faults="transient:rate=5e-2:ops=read")
        result = run_experiment(ExperimentConfig(
            store=spec, sizes=ConstantSize(256 * KB), occupancy=0.5,
            ages=(0.0, 1.0), reads_per_sample=1, seed=7))
        assert [s.age for s in result.samples] == [0.0, 1.0]

    def test_cleaner_read_inside_a_write_is_retried(self):
        """Aging to 1.0 cleans LFS segments inside overwrites, and one
        of the cleaner's reads draws a fault (every seed from 0 to 5
        does): it retries instead of aborting the write."""
        self.age_under_read_faults("lfs")

    def test_collector_read_inside_a_write_is_retried(self):
        """The GFS twin: an overwrite's dead record tips a sealed 1 MB
        chunk over the GC threshold, and a fault on the collector's
        record read retries instead of aborting the write."""
        self.age_under_read_faults("gfs:chunk_size=1M")

    def test_writes_are_not_retried(self):
        store = make_replicated(
            4, replicas=2,
            shard_faults={i: DeviceFaults(transient_rate=1.0,
                                          transient_ops="write")
                          for i in range(4)})
        with pytest.raises(TransientIoError):
            store.put("obj", data=content_for("obj"))


class TestDegradedWrites:
    def test_overwrite_skips_dead_holder(self):
        store = make_replicated(4, replicas=2)
        keys = load(store)
        store.fail_shard(1)
        key = next(k for k in keys if 1 in store.holders_of(k))
        store.overwrite(key, data=content_for(key + "-v2"))
        assert store.get(key) == content_for(key + "-v2")
        assert key in store.under_replicated()

    def test_overwrite_with_no_live_holder_raises(self):
        store = make_replicated(3, replicas=1)
        keys = load(store)
        victim = keys[0]
        store.fail_shard(store.shard_for(victim))
        with pytest.raises(ShardUnavailableError):
            store.overwrite(victim, size=16 * KB)

    def test_delete_under_degradation_drops_the_key(self):
        store = make_replicated(4, replicas=2)
        keys = load(store)
        store.fail_shard(0)
        for key in keys:
            store.delete(key)
        assert store.keys() == []

    def test_new_puts_avoid_dead_shards(self):
        store = make_replicated(4, replicas=2)
        store.fail_shard(2)
        keys = load(store)
        for key in keys:
            assert 2 not in store.holders_of(key)
            assert len(set(store.holders_of(key))) == 2


class TestRebuild:
    def test_restores_full_redundancy(self):
        store = make_replicated(4, replicas=2)
        keys = load(store)
        store.fail_shard(1)
        hurt = store.under_replicated()
        assert hurt  # shard 1 held copies
        report = store.rebuild()
        assert report.rebuilt_objects == len(hurt)
        assert report.unreachable == 0
        assert store.under_replicated() == []
        for key in keys:
            holders = store.holders_of(key)
            assert 1 not in holders
            assert len(set(holders)) == 2
            assert store.get(key) == content_for(key)

    def test_second_pass_is_a_no_op(self):
        store = make_replicated(4, replicas=2)
        load(store)
        store.fail_shard(1)
        store.rebuild()
        again = store.rebuild()
        assert again.rebuilt_objects == 0
        assert again.rebuilt_bytes == 0

    def test_throttle_charges_stall_time(self):
        store = make_replicated(4, replicas=2)
        load(store)
        store.fail_shard(1)
        report = store.rebuild(rate=0.25)
        # Duty cycle: 25% copying means 3s of stall per busy second.
        assert report.stall_s == pytest.approx(3 * report.copy_device_s)
        full = make_replicated(4, replicas=2)
        load(full)
        full.fail_shard(1)
        assert full.rebuild(rate=1.0).stall_s == 0.0

    def test_max_objects_slices_the_pass(self):
        store = make_replicated(4, replicas=2)
        load(store, count=16)
        store.fail_shard(1)
        hurt = len(store.under_replicated())
        assert hurt > 2
        report = store.rebuild(max_objects=2)
        assert report.rebuilt_objects == 2
        assert report.under_replicated_after == hurt - 2
        while store.under_replicated():
            store.rebuild(max_objects=2)
        assert store.rebuild().rebuilt_objects == 0

    def test_counters_accumulate_into_store_stats(self):
        store = make_replicated(4, replicas=2)
        load(store)
        store.fail_shard(1)
        report = store.rebuild()
        stats = store.store_stats()
        assert stats.rebuilt_objects == report.rebuilt_objects
        assert stats.rebuilt_bytes == report.rebuilt_bytes

    def test_unreachable_objects_are_reported(self):
        store = make_replicated(3, replicas=1)
        keys = load(store)
        dead = store.shard_for(keys[0])
        store.fail_shard(dead)
        gone = sum(1 for k in keys if store.shard_for(k) == dead)
        assert store.rebuild().unreachable == gone

    def test_rebalance_refuses_degraded_store(self):
        store = make_replicated(4, replicas=2)
        load(store)
        store.fail_shard(1)
        with pytest.raises(ConfigError):
            store.rebalance()
        store.rebuild()
        # A lost shard stays lost: the migration planner has no healthy
        # target set to level over, so the guard is permanent.
        with pytest.raises(ConfigError):
            store.rebalance()


class TestRebuildKillMatrix:
    """Crash at every write event inside a background copy job —
    rebuild() or rebalance() — then run the job again: every key reads
    back byte-identical, no replica is lost or double-counted, and no
    shard keeps an orphan copy (a leftover is replaced, not adopted)."""

    KEYS = 8
    SIZE = 16 * KB

    def sweep(self, setup, job, *, replicas=2, placement="hash"):
        """Kill ``job(store)`` at each of its write events on a fresh
        ``setup``-prepared store, re-run it, and return the stores."""
        def prepared(clock):
            store = make_replicated(4, replicas=replicas, clock=clock,
                                    torn=True, per_shard=16 * MB,
                                    placement=placement)
            setup(store)
            return store

        baseline_clock = CrashClock(None)
        baseline = prepared(baseline_clock)
        keys = baseline.keys()
        first = baseline_clock.events  # the job's first write event
        job(baseline)
        total = baseline_clock.events
        assert total > first, "the job produced no write events"
        crashed = 0
        for k in range(first, total):
            store = prepared(CrashClock(k))
            try:
                job(store)
            except CrashPoint:
                crashed += 1
            # Recovery: the crash clock has fired; one more pass must
            # finish the job idempotently.
            job(store)
            assert store.keys() == keys
            self.check_copies(store)
            yield store
        assert crashed > 0

    def check_copies(self, store):
        for key in store.keys():
            holders = store.holders_of(key)
            assert len(set(holders)) == len(holders)
            # No orphan copies on live shards beyond the holder set.
            for s, shard in enumerate(store.shards):
                if s not in store.dead_shards:
                    assert shard.exists(key) == (s in holders)
            assert store.get(key) == content_for(key, self.SIZE)

    def test_every_kill_point_inside_rebuild_recovers(self):
        def setup(store):
            load(store, count=self.KEYS, size=self.SIZE)
            store.fail_shard(1)

        for store in self.sweep(setup, lambda store: store.rebuild()):
            assert store.under_replicated() == []
            for key in store.keys():
                holders = store.holders_of(key)
                assert len(holders) == 2 and 1 not in holders

    @pytest.mark.parametrize("replicas", [1, 2])
    @pytest.mark.parametrize("mode,placement", [
        ("even", "hash"), ("placement", "round_robin")])
    def test_every_kill_point_inside_rebalance_recovers(
            self, mode, placement, replicas):
        def setup(store):
            if placement == "round_robin":
                # Delete-and-re-put drift: the re-put keys move to the
                # end of the key order, off their rotation slots.
                load(store, count=self.KEYS, size=self.SIZE)
                for key in ("obj-0", "obj-1", "obj-5"):
                    store.delete(key)
                    store.put(key, data=content_for(key, self.SIZE))
            else:
                # Hash placement spreads 16 keys 4/4/4/4; emptying
                # shard 0 leaves a spread that takes three moves.
                for key in load(store, count=2 * self.KEYS, size=self.SIZE):
                    if store.shard_for(key) == 0:
                        store.delete(key)

        def job(store):
            return store.rebalance(mode=mode)

        for store in self.sweep(setup, job, replicas=replicas,
                                placement=placement):
            assert job(store).moved_objects == 0


class TestExperimentIntegration:
    def config(self, tmp_path=None, **kw):
        spec = StoreSpec.parse(
            "lfs", default_backend="lfs", volume_bytes=64 * MB,
            write_request=64 * KB)
        spec = replace(spec, shards=4, replicas=2,
                       faults="loss:shard=1:at_age=2")
        return ExperimentConfig(
            store=spec,
            sizes=ConstantSize(64 * KB),
            occupancy=0.4,
            ages=(0.0, 2.0, 4.0, 6.0),
            reads_per_sample=8,
            seed=7,
            rebuild_ages=(4.0,),
            **kw,
        )

    def test_loss_rebuild_run_records_counters(self):
        result = run_experiment(self.config())
        by_age = {s.age: s for s in result.samples}
        # The loss fires *after* the age-2 sample.
        assert by_age[2.0].dead_shards == 0
        # Age 4 samples the degraded store; rebuild runs after it.
        assert by_age[4.0].dead_shards == 1
        assert by_age[4.0].failovers > 0
        assert by_age[4.0].rebuilt_objects == 0
        # Age 6 sees the rebuilt store.
        assert by_age[6.0].rebuilt_objects > 0
        assert by_age[6.0].dead_shards == 1

    def test_rebuild_ages_must_be_sampled_ages(self):
        with pytest.raises(ConfigError):
            replace(self.config(), rebuild_ages=(3.0,))

    def test_checkpoint_resume_through_degraded_state(self, tmp_path):
        ckdir = tmp_path / "ck"
        full = run_experiment(self.config(), checkpoint_dir=ckdir)
        # Resume from the final checkpoint: nothing left to do, and the
        # pickled store must round-trip its fault state.
        resumed = run_experiment(self.config(), checkpoint_dir=ckdir,
                                 resume=True)
        assert [s.age for s in resumed.samples] == \
            [s.age for s in full.samples]
        assert resumed.samples[-1].dead_shards == \
            full.samples[-1].dead_shards == 1
        assert resumed.samples[-1].rebuilt_objects == \
            full.samples[-1].rebuilt_objects
