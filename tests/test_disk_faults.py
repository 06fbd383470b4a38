"""Tests for repro.disk.faults: the fault-spec grammar, per-shard
resolution, and the FaultyBlockDevice runtime injectors (transient
errors, slow factors, permanent loss, crash clock)."""

import pytest

from repro.disk.device import BlockDevice
from repro.disk.faults import (
    CrashClock,
    DeviceFaults,
    FaultProfile,
    FaultyBlockDevice,
)
from repro.disk.geometry import scaled_disk
from repro.errors import (
    ConfigError,
    CrashPoint,
    ShardLostError,
    TransientIoError,
)
from repro.rng import derive_seed
from repro.units import KB, MB

FULL = "transient:rate=0.0001;slow:shard=2,factor=8;loss:shard=1,at_age=3"


class TestGrammar:
    def test_parse_full_profile(self):
        profile = FaultProfile.parse(FULL)
        transient, slow, loss = profile.clauses
        assert transient.kind == "transient"
        assert transient.rate == pytest.approx(1e-4)
        assert transient.shard is None and transient.ops == "all"
        assert slow.kind == "slow"
        assert slow.shard == 2 and slow.factor == 8.0
        assert loss.kind == "loss"
        assert loss.shard == 1 and loss.at_age == 3.0

    def test_text_round_trips(self):
        profile = FaultProfile.parse(FULL)
        assert FaultProfile.parse(profile.text()) == profile

    def test_colon_and_comma_separators_are_equivalent(self):
        a = FaultProfile.parse("loss:shard=1,at_age=3")
        b = FaultProfile.parse("loss:shard=1:at_age=3")
        assert a == b

    def test_parameter_order_is_irrelevant(self):
        a = FaultProfile.parse("slow:shard=2:factor=8")
        b = FaultProfile.parse("slow:factor=8:shard=2")
        assert a == b

    def test_losses_and_max_shard(self):
        profile = FaultProfile.parse(FULL)
        assert [c.shard for c in profile.losses] == [1]
        assert profile.max_shard() == 2
        assert FaultProfile.parse("transient:rate=0.1").max_shard() is None

    @pytest.mark.parametrize("text", [
        "gremlin:rate=0.1",           # unknown kind
        "transient",                  # rate missing
        "transient:rate=1.5",         # rate out of range
        "transient:rate=0.1:ops=nap", # bad ops
        "slow:shard=2",               # factor missing
        "slow:factor=0",              # factor must be > 0
        "loss:at_age=3",              # shard missing
        "loss:shard=1:color=red",     # unknown parameter
        "transient:rate",             # not key=value
        "",                           # no clauses
    ])
    def test_bad_specs_raise(self, text):
        with pytest.raises(ConfigError):
            FaultProfile.parse(text)


class TestForShard:
    def test_scoped_clauses_follow_their_shard(self):
        profile = FaultProfile.parse(FULL)
        on_2 = profile.for_shard(2)
        assert [c.kind for c in on_2.clauses] == ["transient", "slow"]
        on_0 = profile.for_shard(0)
        assert [c.kind for c in on_0.clauses] == ["transient"]

    def test_loss_never_reaches_a_device(self):
        profile = FaultProfile.parse("loss:shard=1")
        assert profile.for_shard(1).clauses == ()
        assert profile.for_shard(1).device_faults() is None

    def test_transient_seeds_rekeyed_per_shard(self):
        profile = FaultProfile.parse("transient:rate=0.5:seed=9")
        seeds = {profile.for_shard(i).clauses[0].seed for i in range(4)}
        assert len(seeds) == 4  # independent streams per shard
        # ... but deterministically so, by the one derivation recipe.
        assert profile.for_shard(2) == profile.for_shard(2)
        assert profile.for_shard(2).clauses[0].seed == derive_seed(9, "shard2")

    def test_shard_scope_is_stripped(self):
        profile = FaultProfile.parse("slow:shard=2:factor=8")
        assert profile.for_shard(2).clauses[0].shard is None


class TestDeviceFaultsResolution:
    def test_none_when_nothing_applies(self):
        assert FaultProfile.parse("loss:shard=0").device_faults() is None
        assert (FaultProfile.parse("slow:shard=2:factor=8")
                .device_faults() is None)

    def test_slow_factors_compose(self):
        profile = FaultProfile.parse("slow:factor=2;slow:factor=3")
        assert profile.device_faults().slow_factor == 6.0

    def test_transient_carries_rate_ops_seed(self):
        faults = (FaultProfile.parse("transient:rate=0.25:ops=read:seed=5")
                  .device_faults())
        assert faults.transient_rate == 0.25
        assert faults.transient_ops == "read"

    def test_rejects_bad_runtime_values(self):
        with pytest.raises(ConfigError):
            DeviceFaults(transient_rate=2.0)
        with pytest.raises(ConfigError):
            DeviceFaults(slow_factor=0.0)


def make_faulty(text=None, **kwargs):
    faults = None
    if text is not None:
        faults = FaultProfile.parse(text).device_faults()
    return FaultyBlockDevice(scaled_disk(64 * MB), faults=faults, **kwargs)


class TestTransientInjection:
    def test_deterministic_across_devices(self):
        def failure_pattern():
            dev = make_faulty("transient:rate=0.5:seed=3")
            pattern = []
            for i in range(40):
                try:
                    dev.read(i * 128 * KB, 64 * KB)
                    pattern.append(False)
                except TransientIoError:
                    pattern.append(True)
            return pattern

        first, second = failure_pattern(), failure_pattern()
        assert first == second
        assert any(first) and not all(first)

    def test_failure_charges_no_time_or_stats(self):
        dev = make_faulty("transient:rate=1.0")
        with pytest.raises(TransientIoError):
            dev.read(1 * MB, 64 * KB)
        assert dev.clock_s == 0.0
        assert dev.stats.seeks == 0 and dev.stats.read_time_s == 0.0

    def test_write_failure_applies_no_content(self):
        dev = make_faulty("transient:rate=1.0:ops=write", store_data=True)
        with pytest.raises(TransientIoError):
            dev.write(0, 8, data=b"12345678")
        assert dev.peek(0, 8) == b"\x00" * 8

    def test_ops_scoping(self):
        dev = make_faulty("transient:rate=1.0:ops=write")
        dev.read(1 * MB, 64 * KB)  # reads pass
        with pytest.raises(TransientIoError):
            dev.write(0, 64 * KB)
        dev = make_faulty("transient:rate=1.0:ops=read")
        dev.write(0, 64 * KB)  # writes pass
        with pytest.raises(TransientIoError):
            dev.read(1 * MB, 64 * KB)


class TestSlowFactor:
    def test_service_times_scale(self):
        plain = BlockDevice(scaled_disk(64 * MB))
        slow = make_faulty("slow:factor=8")
        plain.read(32 * MB, 256 * KB)
        slow.read(32 * MB, 256 * KB)
        assert slow.clock_s == pytest.approx(8 * plain.clock_s)
        assert slow.stats.read_time_s == \
            pytest.approx(8 * plain.stats.read_time_s)

    def test_flush_scales_too(self):
        plain = BlockDevice(scaled_disk(64 * MB))
        slow = make_faulty("slow:factor=8")
        plain.flush()
        slow.flush()
        assert slow.clock_s == pytest.approx(8 * plain.clock_s)

    def test_checkpoint_write_back_scales_too(self):
        plain = BlockDevice(scaled_disk(64 * MB))
        slow = make_faulty("slow:factor=4")
        charged = slow.charge_sequential_write(1 * MB)
        assert charged == 4.0 * plain.charge_sequential_write(1 * MB)
        assert slow.clock_s == slow.stats.write_time_s == charged
        assert slow.stats.write_bytes == 1 * MB
        assert slow.head_position == 0


class TestLoss:
    def test_lost_device_raises_on_timed_io(self):
        dev = make_faulty(store_data=True)
        dev.write(0, 8, data=b"treasure")
        assert not dev.lost
        dev.mark_lost()
        assert dev.lost
        with pytest.raises(ShardLostError):
            dev.read(0, 8)
        with pytest.raises(ShardLostError):
            dev.write(0, 64 * KB)
        with pytest.raises(ShardLostError):
            dev.flush()
        before = (dev.clock_s, dev.stats.snapshot())
        with pytest.raises(ShardLostError):
            dev.charge_sequential_write(1 * MB)
        assert (dev.clock_s, dev.stats.snapshot()) == before

    def test_untimed_inspection_survives_loss(self):
        dev = make_faulty(store_data=True)
        dev.write(0, 8, data=b"treasure")
        dev.mark_lost()
        # Recovery tooling may still examine the platters.
        assert dev.peek(0, 8) == b"treasure"


class TestCrashClock:
    def test_counts_and_fires_once(self):
        clock = CrashClock(kill_after=2)
        dev = FaultyBlockDevice(scaled_disk(64 * MB), clock=clock)
        dev.write(0, 64 * KB)
        dev.read(1 * MB, 64 * KB)  # reads never tick
        dev.write(128 * KB, 64 * KB)
        with pytest.raises(CrashPoint):
            dev.write(256 * KB, 64 * KB)
        assert clock.fired
        assert dev.write_events == 2

    def test_shared_across_devices(self):
        clock = CrashClock(kill_after=1)
        a = FaultyBlockDevice(scaled_disk(64 * MB), clock=clock)
        b = FaultyBlockDevice(scaled_disk(64 * MB), clock=clock)
        a.write(0, 64 * KB)
        with pytest.raises(CrashPoint):
            b.write(0, 64 * KB)

    def test_torn_write_applies_half_content(self):
        clock = CrashClock(kill_after=0)
        dev = FaultyBlockDevice(scaled_disk(64 * MB), clock=clock,
                                torn=True, store_data=True)
        with pytest.raises(CrashPoint):
            dev.write(0, 8, data=b"ABCDEFGH")
        assert dev.peek(0, 8) == b"ABCD\x00\x00\x00\x00"

    def test_unarmed_clock_never_fires(self):
        dev = make_faulty()
        for i in range(50):
            dev.write(i * 64 * KB, 32 * KB)
        assert dev.write_events == 50
