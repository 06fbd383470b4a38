"""Checkpoint/resume and crash coverage for the event-queue simulator.

Two halves:

* **Resume identity** — an aging run over a ``queue=event`` store
  (closed and poisson arrivals), checkpointed mid-way, killed, and
  resumed, reproduces the uninterrupted run record *exactly* —
  including every latency-percentile field of every
  :class:`~repro.core.results.AgeSample`.  The queue simulator's whole
  state (FIFO deques, in-service heap, arrival RNG, charged frontier)
  rides inside the pickled store, so a resume picks up mid-stream
  without re-deriving or double-charging anything.
* **Kill-point matrix** — crashes injected at every write event of a
  churn workload over an event-queued 3-shard store.  After each
  crash the scheduler's books must balance: requests that were queued
  but never dispatched when the crash hit are simply gone (the crash
  predates their I/O), never double-charged — after a drain,
  ``submitted == completed ==`` the histogram count, the queue is
  empty, and a fresh identical run reproduces identical accounting.
"""

import pytest

from crashsim import CrashClock, FaultyDevice, kill_point_matrix

from repro.backends.file_backend import FileBackend
from repro.backends.sharded import ShardedStore
from repro.backends.spec import StoreSpec
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.core.workload import ConstantSize
from repro.disk.events import ArrivalSpec
from repro.disk.geometry import scaled_disk
from repro.errors import CrashPoint
from repro.fs.filesystem import FsConfig
from repro.units import KB, MB

AGES = (0.0, 1.0, 2.0)

ARRIVALS = {
    "closed": ArrivalSpec.parse("closed"),
    "poisson": ArrivalSpec.parse("poisson:rate=400:seed=7"),
}


def config_for(arrival_kind: str) -> ExperimentConfig:
    spec = StoreSpec(
        "filesystem", volume_bytes=96 * MB, shards=3, overlap=True,
        queue="event", queue_depth=16, arrival=ARRIVALS[arrival_kind],
    )
    return ExperimentConfig(
        store=spec,
        sizes=ConstantSize(256 * KB),
        occupancy=0.4,
        ages=AGES,
        reads_per_sample=8,
        seed=13,
    )


class _Killed(Exception):
    """Stands in for SIGKILL right after a checkpoint lands."""


def run_interrupted(config, directory, kill_after_age):
    def killer(phase: str, value: float) -> None:
        if phase == "checkpoint" and value == kill_after_age:
            raise _Killed

    runner = ExperimentRunner(config, progress=killer,
                              checkpoint_dir=directory)
    with pytest.raises(_Killed):
        runner.run()


class TestEventResumeIdentity:
    @pytest.mark.parametrize("arrival_kind", ["closed", "poisson"])
    @pytest.mark.parametrize("kill_after_age", [0.0, 1.0])
    def test_killed_and_resumed_equals_uninterrupted(
            self, tmp_path, arrival_kind, kill_after_age):
        config = config_for(arrival_kind)
        baseline = ExperimentRunner(config).run()
        run_interrupted(config, tmp_path, kill_after_age)
        resumed = ExperimentRunner(config, checkpoint_dir=tmp_path,
                                   resume=True).run()
        # Full record equality — every sample's throughput numbers AND
        # its latency percentiles (read_lat_*) come out identical.
        assert resumed.to_dict() == baseline.to_dict()

    def test_baseline_actually_records_latency(self):
        """Guard the identity test against vacuity: the event run must
        produce non-trivial sojourn distributions to compare."""
        result = ExperimentRunner(config_for("poisson")).run()
        assert all(s.read_lat_count > 0 for s in result.samples)
        assert any(s.read_lat_p99_s > 0.0 for s in result.samples)
        assert all(s.read_lat_p50_s <= s.read_lat_p95_s
                   <= s.read_lat_p99_s <= s.read_lat_max_s
                   for s in result.samples)

    def test_config_echo_records_queue_knobs(self, tmp_path):
        """The checkpoint config echo covers the queue fields, so a
        resume under different queue settings is refused as a
        mismatch rather than silently mixing models."""
        from repro.core.experiment import run_experiment
        from repro.errors import ConfigError

        config = config_for("poisson")
        run_interrupted(config, tmp_path, kill_after_age=0.0)
        other = config_for("closed")
        with pytest.raises(ConfigError):
            run_experiment(other, checkpoint_dir=tmp_path, resume=True)


CRASHY_FS_CONFIG_KWARGS = dict(
    mft_zone_bytes=1 * MB,
    log_bytes=64 * KB,
    commit_interval_ops=4,
    metadata_interval_events=0,
)


def build_event_store(clock: CrashClock) -> ShardedStore:
    fs_config = FsConfig(**CRASHY_FS_CONFIG_KWARGS)
    shards = []
    for _ in range(3):
        device = FaultyDevice(scaled_disk(16 * MB), clock=clock)
        backend = FileBackend(device, fs_config=fs_config,
                              write_request=64 * KB)
        backend.fs.crash_hook = clock.tick
        shards.append(backend)
    return ShardedStore(shards, StoreSpec(
        "filesystem", shards=3, overlap=True, queue="event",
        queue_depth=8, arrival=ArrivalSpec.parse("poisson:rate=200:seed=3")))


def churn(store: ShardedStore) -> None:
    for i in range(9):
        store.put(f"obj-{i}", size=64 * KB)
    for i in (1, 4, 7):
        store.overwrite(f"obj-{i}", size=96 * KB)
    for i in (0, 5):
        store.delete(f"obj-{i}")
    for i in (2, 3, 6):
        store.get(f"obj-{i}")
    for shard in store.shards:
        shard.fs.journal.commit()


def scheduler_books_balance(store: ShardedStore) -> None:
    sched = store.scheduler
    sched.drain()
    # Queued-but-undispatched requests at the crash never became I/O,
    # so they must not linger half-charged: after the drain the books
    # balance exactly — one latency sample per completion, nothing in
    # flight, nothing queued.
    assert sched.submitted == sched.completed == sched.latency.count
    assert sched.in_flight == 0  # queued requests are in flight too
    assert sched.wall_time_s >= 0.0
    assert sched.lane_time_s >= 0.0


class TestEventQueueKillMatrix:
    def test_every_kill_point_leaves_balanced_books(self):
        matrix = list(kill_point_matrix(build_event_store, churn))
        crashes = sum(1 for _, crashed, _ in matrix if crashed)
        assert crashes > 20
        for _, crashed, store in matrix:
            for shard in store.shards:
                shard.fs.crash_hook = None
            scheduler_books_balance(store)

    def test_crashed_run_never_double_charges(self):
        """Replay one mid-workload kill point twice: identical crash
        sites yield identical scheduler accounting — the crash path is
        as deterministic as the healthy path, so no retry can charge a
        queued request twice."""
        baseline_clock = CrashClock(None)
        baseline = build_event_store(baseline_clock)
        churn(baseline)
        kill = baseline_clock.events // 2

        def run_once():
            clock = CrashClock(kill)
            store = build_event_store(clock)
            with pytest.raises(CrashPoint):
                churn(store)
            for shard in store.shards:
                shard.fs.crash_hook = None
            sched = store.scheduler
            sched.drain()
            return (sched.submitted, sched.completed,
                    sched.latency.count, sched.wall_time_s,
                    sched.lane_time_s, sched.latency.summary())

        first = run_once()
        second = run_once()
        assert first == second
        submitted, completed, samples, _, _, _ = first
        assert submitted == completed == samples
