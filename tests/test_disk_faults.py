"""Tests for repro.disk.faults: the fault-spec grammar, per-shard
resolution, the FaultyBlockDevice runtime injectors (transient
errors, slow factors, permanent loss, crash clock), and the one
admission seam every timed call passes."""

import copy
import pickle

import pytest

from repro.disk.device import BlockDevice
from repro.disk.faults import (
    CrashClock,
    DeviceFaults,
    FaultClause,
    FaultProfile,
    FaultyBlockDevice,
)
from repro.disk.geometry import scaled_disk
from repro.disk.policy import DevicePolicy
from repro.errors import (
    ConfigError,
    CrashPoint,
    ShardLostError,
    TransientIoError,
)
from repro.rng import derive_seed, substream
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
        # two transient clauses that reach one device
        "transient:rate=1e-3:ops=read;transient:rate=1e-4:ops=write",
        "transient:shard=1:rate=0.1;transient:shard=1:rate=0.2",
        "transient:rate=0.5;transient:shard=1:rate=1e-4",
        "transient:shard=1:rate=1e-4;slow:factor=2;transient:rate=0.5",
        # a negative shard scope or loss age
        "transient:shard=-1:rate=1.0",
        "slow:shard=-3:factor=5",
        "loss:shard=-1:at_age=2",
        "loss:shard=1:at_age=-2",
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

    def test_transient_clauses_for_different_shards_each_resolve(self):
        profile = FaultProfile.parse("transient:shard=0:rate=0.25:ops=read;"
                                     "transient:shard=1:rate=1e-4:ops=write")
        on_0 = profile.for_shard(0).device_faults()
        on_1 = profile.for_shard(1).device_faults()
        assert (on_0.transient_rate, on_0.transient_ops) == (0.25, "read")
        assert (on_1.transient_rate, on_1.transient_ops) == (1e-4, "write")
        assert profile.for_shard(2).device_faults() is None

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
            FaultClause("transient", rate=2.0)
        with pytest.raises(ConfigError):
            FaultClause("slow", factor=0.0)


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
        dev.mark_lost()
        with pytest.raises(ShardLostError):
            dev.read(0, 8)
        with pytest.raises(ShardLostError):
            dev.write(0, 64 * KB)
        with pytest.raises(ShardLostError):
            dev.flush()
        before = (dev.clock_s, copy.copy(dev.stats))
        with pytest.raises(ShardLostError):
            dev.charge_sequential_write(1 * MB)
        assert (dev.clock_s, copy.copy(dev.stats)) == before

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
        assert dev.clock.events == 2

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
        assert dev.clock.events == 50


# ----------------------------------------------------------------------
# The admission seam: every timed call admits once
# ----------------------------------------------------------------------
#: Every timed entry point: the call, the ``submit`` batch it equals as
#: ``(requests, is_write, data)``, and what a torn crash on it leaves
#: stored as ``(offset, bytes)`` (``None`` for a read, which never ticks
#: the crash clock).
SEAM_CALLS = [
    pytest.param(lambda d: d.read(1 * MB, 64 * KB),
                 ([[(1 * MB, 64 * KB)]], False, None), None,
                 id="read"),
    pytest.param(lambda d: d.write(0, 8, b"ABCDEFGH"),
                 ([[(0, 8)]], True, [b"ABCDEFGH"]),
                 (0, b"ABCD\x00\x00\x00\x00"), id="write"),
    pytest.param(lambda d: d.read_extents([(2 * MB, 8 * KB),
                                           (3 * MB, 8 * KB)]),
                 ([[(2 * MB, 8 * KB), (3 * MB, 8 * KB)]], False, None),
                 None, id="read_extents"),
    pytest.param(lambda d: d.write_extents([(4 * MB, 4),
                                            (5 * MB, 4)], b"WXYZwxyz"),
                 ([[(4 * MB, 4), (5 * MB, 4)]], True, [b"WXYZwxyz"]),
                 (4 * MB, b"WX\x00\x00"), id="write_extents"),
    pytest.param(lambda d: d.submit([[(6 * MB, 8)]], is_write=True,
                                    data=[b"12345678"]),
                 ([[(6 * MB, 8)]], True, [b"12345678"]),
                 (6 * MB, b"1234\x00\x00\x00\x00"), id="submit_one"),
    pytest.param(lambda d: d.submit([[(7 * MB, 8 * KB)], [(9 * MB, 8 * KB)]]),
                 ([[(7 * MB, 8 * KB)], [(9 * MB, 8 * KB)]], False, None),
                 None, id="submit_two_reads"),
    pytest.param(lambda d: d.submit([[(8 * MB, 8)], [(1 * MB, 8)]],
                                    is_write=True,
                                    data=[b"abcdefgh", b"ABCDEFGH"]),
                 ([[(8 * MB, 8)], [(1 * MB, 8)]], True,
                  [b"abcdefgh", b"ABCDEFGH"]),
                 (8 * MB, b"abcd\x00\x00\x00\x00"), id="submit_two"),
    pytest.param(lambda d: d.write_stream(10 * MB, 8, 4, b"stream!!"),
                 ([[(10 * MB, 4)], [(10 * MB + 4, 4)]], True,
                  [b"stre", b"am!!"]),
                 (10 * MB, b"st\x00\x00\x00\x00\x00\x00"),
                 id="write_stream"),
    pytest.param(lambda d: d.write_each([([(11 * MB, 8)], 1)], [b"eachdata"]),
                 ([[(11 * MB, 8)]], True, [b"eachdata"]),
                 (11 * MB, b"each\x00\x00\x00\x00"), id="write_each"),
    pytest.param(lambda d: d.submit_policy([[(12 * MB, 8)], [(13 * MB, 8)]],
                                           is_write=True,
                                           data=[b"policy!!", b"POLICY!!"]),
                 ([[(12 * MB, 8)], [(13 * MB, 8)]], True,
                  [b"policy!!", b"POLICY!!"]),
                 (12 * MB, b"poli\x00\x00\x00\x00"), id="submit_policy"),
]
seam = pytest.mark.parametrize("call, batch, torn", SEAM_CALLS)


def submit(dev, batch):
    requests, is_write, data = batch
    return dev.submit(requests, is_write=is_write, data=data)


#: A malformed call on every timed entry point: a bad span or run, or a
#: payload that does not fit its requests.
BAD_SEAM_CALLS = [
    pytest.param(lambda d: d.read(64 * MB - 4, 8), id="read-past-end"),
    pytest.param(lambda d: d.write(0, 0, b""), id="write-empty-span"),
    pytest.param(lambda d: d.write(0, 8, b"ABCDEFG"), id="write-short-data"),
    pytest.param(lambda d: d.read_extents([(2 * MB, 8 * KB), (-1, 8)]),
                 id="read_extents-negative"),
    pytest.param(lambda d: d.write_extents([(4 * MB, 4), (64 * MB, 4)],
                                           b"WXYZwxyz"),
                 id="write_extents-past-end"),
    pytest.param(lambda d: d.write_extents([(4 * MB, 4), (5 * MB, 4)],
                                           b"WXYZwxyz!"),
                 id="write_extents-long-data"),
    pytest.param(lambda d: d.submit([[(6 * MB, 8)]], is_write=True,
                                    data=[b"1234567"]),
                 id="submit_one-short-data"),
    pytest.param(lambda d: d.submit([[(7 * MB, 8 * KB)], [(9 * MB, 8 * KB)]],
                                    data=[b"", b""]),
                 id="submit_two_reads-with-data"),
    pytest.param(lambda d: d.submit([[(8 * MB, 8)], [(64 * MB, 8)]],
                                    is_write=True,
                                    data=[b"abcdefgh", b"ABCDEFGH"]),
                 id="submit_two-past-end"),
    pytest.param(lambda d: d.submit([[(8 * MB, 8)], [(1 * MB, 8)]],
                                    is_write=True, data=[b"abcdefgh"]),
                 id="submit_two-one-payload"),
    pytest.param(lambda d: d.submit_policy([[(12 * MB, 8)], [(13 * MB, 8)]],
                                           is_write=True,
                                           data=[b"policy!!", b"POLICY!"]),
                 id="submit_policy-short-data"),
    pytest.param(lambda d: d.write_stream(64 * MB - 4, 8, 4, b"stream!!"),
                 id="write_stream-past-end"),
    pytest.param(lambda d: d.write_stream(10 * MB, 8, 4, b"stream!"),
                 id="write_stream-short-data"),
    pytest.param(lambda d: d.write_each([([(11 * MB, 8)], 1),
                                         ([(0, 8)], 0)]),
                 id="write_each-count-zero"),
    pytest.param(lambda d: d.write_each([([(11 * MB, 8)], 2)],
                                        [b"eachdata", b"EACHDAT"]),
                 id="write_each-short-data"),
]


def armed_faulty(lost=False):
    """A torn, content-keeping faulty device, its head and clock moved
    by one stored write, then armed: its next write event crashes and
    its every call draws a transient fault."""
    dev = FaultyBlockDevice(scaled_disk(64 * MB), torn=True, store_data=True)
    dev.write(32 * MB, 8, b"resident")
    dev.clock = CrashClock(kill_after=0)
    dev.faults = DeviceFaults(transient_rate=1.0, seed=9)
    if lost:
        dev.mark_lost()
    return dev


def admission_state(dev):
    """Everything admission or service may move: the crash clock, the
    transient stream, head, clock, ``IoStats`` and (in the pickle) the
    stored bytes."""
    return (dev.clock.events, dev.clock.fired, dev.faults._rng.getstate(),
            dev.head_position, dev.clock_s.hex(), copy.copy(dev.stats),
            pickle.dumps(dev))


class TestAdmitSeam:
    @seam
    def test_write_bearing_calls_tick_once_reads_never(self, call, batch,
                                                       torn):
        dev = make_faulty(store_data=True)
        call(dev)
        call(dev)
        assert dev.clock.events == (0 if torn is None else 2)

    def test_every_call_draws_once(self):
        """The RNG state after each call equals a twin's driven only
        through ``submit``, and a fresh stream advanced once per call."""
        text = "transient:rate=1e-12:seed=4"
        dev, twin = make_faulty(text), make_faulty(text)
        reference = substream(4, "transient-faults")
        for call, batch, _ in (param.values for param in SEAM_CALLS):
            call(dev)
            submit(twin, batch)
            reference.random()
            assert dev.faults._rng.getstate() \
                == twin.faults._rng.getstate() \
                == reference.getstate()

    @seam
    def test_transient_failure_charges_nothing(self, call, batch, torn):
        dev = make_faulty("transient:rate=1.0", store_data=True)
        with pytest.raises(TransientIoError):
            call(dev)
        assert dev.clock_s == 0.0 and dev.head_position == 0
        assert dev.stats == BlockDevice(scaled_disk(64 * MB)).stats
        if torn is not None:
            offset, stored = torn
            assert dev.peek(offset, len(stored)) == bytes(len(stored))

    @seam
    def test_lost_device_raises(self, call, batch, torn):
        """A well-formed call to a lost device raises before the crash
        tick, the transient draw or any charge."""
        dev = armed_faulty(lost=True)
        before = admission_state(dev)
        with pytest.raises(ShardLostError):
            call(dev)
        assert admission_state(dev) == before

    @pytest.mark.parametrize("lost", [False, True], ids=["live", "lost"])
    @pytest.mark.parametrize("call", BAD_SEAM_CALLS)
    def test_a_bad_call_is_refused_before_admission(self, call, lost):
        """The kernel and the payload checks come first: a malformed call
        raises ``ConfigError`` — on a lost device too — with nothing
        ticked, torn, drawn, charged or stored."""
        dev = armed_faulty(lost)
        before = admission_state(dev)
        with pytest.raises(ConfigError):
            call(dev)
        assert admission_state(dev) == before

    @seam
    def test_torn_write_tears_half_the_first_write_extent(self, call, batch,
                                                          torn):
        dev = FaultyBlockDevice(scaled_disk(64 * MB),
                                clock=CrashClock(kill_after=0),
                                torn=True, store_data=True)
        if torn is None:
            call(dev)               # a read never reaches the crash point
            return
        with pytest.raises(CrashPoint):
            call(dev)
        offset, stored = torn
        assert dev.peek(offset, len(stored)) == stored
        assert dev.clock_s == 0.0

    @seam
    def test_plain_device_wrappers_equal_submit(self, call, batch, torn):
        dev = BlockDevice(scaled_disk(64 * MB), store_data=True)
        twin = BlockDevice(scaled_disk(64 * MB), store_data=True)
        dev.read(32 * MB, 8 * KB)          # move the heads off zero
        twin.submit([[(32 * MB, 8 * KB)]])
        call(dev)
        submit(twin, batch)
        assert dev.stats == twin.stats
        assert dev.clock_s == twin.clock_s
        assert dev.head_position == twin.head_position


#: Eight write requests: a run of five, one two-span request, a run of two.
WRITE_EACH_RUNS = [([(0, 4 * KB)], 5),
                   ([(1 * MB, 1 * KB), (2 * MB, 1 * KB)], 1),
                   ([(3 * MB, 8 * KB)], 2)]


@pytest.mark.parametrize("call, kernel_calls", [
    pytest.param(lambda d: d.write_extents([(4 * MB, 4), (5 * MB, 4)]), 1,
                 id="write_extents"),
    pytest.param(lambda d: d.submit([[(n * MB, 8 * KB)] for n in range(4)],
                                    is_write=True), 1, id="submit"),
    pytest.param(lambda d: d.write_stream(10 * MB, 4 * 64 * KB, 64 * KB), 1,
                 id="write_stream"),
    pytest.param(lambda d: d.write_each(WRITE_EACH_RUNS), 8 + 1,
                 id="write_each"),
])
def test_a_faulty_request_is_costed_once(monkeypatch, call, kernel_calls):
    """One kernel pass per timed call on a slowed faulty device;
    ``write_each`` of n requests refuses its list in one pass, then
    serves each request in one."""
    calls = []
    kernel = BlockDevice._cost_of

    def counting(self, runs, head):
        calls.append(runs)
        return kernel(self, runs, head)

    monkeypatch.setattr(BlockDevice, "_cost_of", counting)
    call(make_faulty("slow:factor=2"))
    assert len(calls) == kernel_calls


def test_the_faulty_device_overrides_the_seam_not_the_entry_points():
    entry_points = {"_serve", "submit", "submit_policy", "write_stream",
                    "read", "write", "read_extents", "write_extents"}
    assert not entry_points & set(vars(FaultyBlockDevice))
    assert "_admit" in vars(FaultyBlockDevice)


def test_a_torn_batch_tears_the_first_span_of_its_first_write():
    """Half of ``spans[0]`` of the first non-empty write request lands;
    its second span, the later write and the clock stay untouched."""
    dev = FaultyBlockDevice(scaled_disk(64 * MB),
                            clock=CrashClock(kill_after=0),
                            torn=True, store_data=True)
    with pytest.raises(CrashPoint):
        dev.submit([[], [(9 * MB, 6), (2 * MB, 2)], [(3 * MB, 8)]],
                   is_write=True, data=[b"", b"abcdefgh", b"ABCDEFGH"])
    assert dev.peek(9 * MB, 6) == b"abc\x00\x00\x00"
    assert dev.peek(2 * MB, 2) == bytes(2)
    assert dev.peek(3 * MB, 8) == bytes(8)
    assert dev.clock_s == 0.0 and dev.head_position == 0


@pytest.mark.parametrize("batch_size, requests", [
    pytest.param(0, [[(64 * MB, 8)]], id="one-request"),
    pytest.param(0, [[(8 * MB, 8)], [(64 * MB, 8)]], id="one-batch"),
    pytest.param(2, [[(8 * MB, 8)], [(9 * MB, 8)], [(64 * MB, 8)]],
                 id="policy-cut"),
])
def test_a_bad_list_is_refused_before_admission(batch_size, requests):
    """A span outside the volume raises ``ConfigError`` before the crash
    tick (no torn bytes), the transient draw or any charge."""
    dev = FaultyBlockDevice(scaled_disk(64 * MB),
                            clock=CrashClock(kill_after=0), torn=True,
                            store_data=True,
                            policy=DevicePolicy(batch_size=batch_size),
                            faults=DeviceFaults(transient_rate=0.5, seed=9))
    rng = dev.faults._rng.getstate()
    with pytest.raises(ConfigError):
        dev.submit_policy(requests, is_write=True,
                          data=[b"abcdefgh"] * len(requests))
    assert dev.stats == BlockDevice(scaled_disk(64 * MB)).stats
    assert dev.clock_s == 0.0 and dev.head_position == 0
    assert dev.peek(8 * MB, 2 * MB) == bytes(2 * MB)
    assert dev.clock.events == 0 and not dev.clock.fired
    assert dev.faults._rng.getstate() == rng
