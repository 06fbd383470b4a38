"""Store scenarios: sharding, faults, tails, tenants.

Six figures past the paper, one :data:`FIGURES` table that
``paperfig.FIGURES`` loads by name (``python benchmarks/paperfig.py
--only tail_latency``; no driver here).  Each entry declares its run
function, the constants it echoes into the record's ``params``, its
printed columns and its claims as shape checks.  A figure states its
own store specs and sizes, so like ``table1`` it ignores
``--store``/``--paper-scale``.  The five
sharded scenarios share their mechanics through :class:`AgedStore`.
Modelled cells (device/wall seconds, seeks, percentiles) are
deterministic and hashed into ``BENCH_paper.json``, which CI and tier-1
compare — the refactor oracle for rebalance, rebuild, failover,
replication and elevator batches; ``*_seconds`` / ``*_us_per_op`` cells
are host time and sit outside the hash.  A gate that means "the
scenario could not finish" raises; a claim over finished rows is a
check.

* ``sharded_aging`` — an aged whole-population read sweep on a
  single-volume LFS vs 4 shards vs 4 shards + C-LOOK batches vs all of
  that plus ``overlap=true``; summed device time beside the overlap
  scheduler's wall time (``repro/disk/schedule.py``).
* ``shard_skew`` — per-shard occupancy skew of a small mixed-size
  population under hash placement, an aged sweep either side of
  ``rebalance(mode="even")``.  Checks the migration does not worsen skew.
* ``degraded_aging`` — a ``replicas=2`` store is aged, shard 1 is
  killed, and the same sweep is measured healthy, degraded (failover
  reads), while a throttled ``rebuild(rate=0.25)`` interleaves copy
  slices with reads, and rebuilt.  Raises if any object becomes
  unreadable or a rebuild slice makes no progress.
* ``tail_latency`` — the same phases (plus fresh vs aged) as sojourn
  percentiles through the event queue (``queue=event``;
  ``repro/disk/events``) under an open-loop Poisson rate calibrated
  once on the fresh store and then held fixed, so every slowdown
  surfaces as queueing.  Checks the degraded p99 does not undercut the
  healthy p99; raises if the scheduler's books do not balance.
* ``continuous_operation`` — foreground p99 under a grid of checkpoint
  cadence x rebalance duty cycle sharing the lanes with the measured
  reads.  Checks every active p99 exceeds the quiescent p99 and, per
  cadence, p99 falls as the rebalance throttle drops.
* ``scenario_matrix`` — the paper's churn loop and the multi-tenant
  presets of ``repro/scenario`` against four 4-shard event-queue
  configs differing only in backend; the winner per workload has the
  lowest final-age read p99.  Checks some tenant mix flips the paper
  loop's winner; raises unless per-tenant counts reconcile.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import pickle
import random
import time
from collections.abc import Callable, Iterable
from functools import partial

from repro.analysis.compare import ShapeCheck, check_between
from repro.analysis.tables import render_table
from repro.backends.registry import build_store
from repro.backends.spec import StoreSpec
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.workload import ConstantSize
from repro.disk.device import summed_clock_s
from repro.disk.events import ArrivalSpec, EventWindow
from repro.disk.policy import DevicePolicy
from repro.persist import encode_free_index, encode_journal, fs_components
from repro.scenario.spec import ScenarioSpec
from repro.units import KB, MB

from paperfig import Figure

OCCUPANCY = 0.5

AGING_VOLUME = 512 * MB
AGING_OBJECT = 256 * KB
AGING_SHARDS = 4
AGING_READ_BATCH = 16
#: Overwrites per loaded object before the read sweep (storage age).
AGING_CHURN_AGE = 2

DEGRADED_REPLICAS = 2
DEGRADED_DEAD_SHARD = 1
DEGRADED_REBUILD_RATE = 0.25
#: Objects re-replicated per rebuild slice while reads interleave.
DEGRADED_REBUILD_SLICE = 8

#: Per-shard FIFO depth and target utilisation for ``tail_latency``.
#: The Poisson rate is calibrated as ``TAIL_UTILIZATION`` times the
#: fresh store's closed-loop sweep throughput, then held fixed across
#: every phase so aging/degradation surface as queueing delay.
TAIL_DEPTH = 64
TAIL_UTILIZATION = 0.7
TAIL_REBUILD_SLICE = 8

#: ``continuous_operation`` grid: checkpoints per sweep x rebalance
#: duty cycle, against one quiescent baseline sweep.  The checkpoint
#: write-back runs at a fixed duty cycle; the rebalance rates sweep
#: from unthrottled to heavily throttled.
CONTINUOUS_CADENCES = (1, 2)
CONTINUOUS_REBALANCE_RATES = (1.0, 0.5, 0.25)
CONTINUOUS_CHECKPOINT_RATE = 0.5
#: Fraction of the population delete/re-put across a sweep (drives
#: round-robin placement drift for the rebalance to undo), and the
#: number of churn bursts the drift is spread over — continuous
#: operation means maintenance interleaves with the foreground, not
#: one atomic pause.
CONTINUOUS_DRIFT_FRACTION = 8
CONTINUOUS_BURSTS = 8
#: Offered load for the continuous grid, as a fraction of closed-loop
#: capacity.  Lower than TAIL_UTILIZATION so the quiescent tail stays
#: close to the service time and background interference stands out.
CONTINUOUS_UTILIZATION = 0.6

#: ``scenario_matrix`` sweep: store configs (backend is the only
#: variable; every config is a 4-shard overlapped event-queue store so
#: the read sweep yields a comparable sojourn distribution) crossed
#: with workloads — the paper's uniform churn loop plus one spec per
#: scenario preset.
SCENARIO_MATRIX_CONFIGS = (
    ("fs_event", "filesystem:shards=4,overlap=true,queue=event"),
    ("db_event", "database:shards=4,overlap=true,queue=event"),
    ("gfs_event", "gfs:shards=4,overlap=true,queue=event,chunk_size=8M"),
    ("lfs_event", "lfs:shards=4,overlap=true,queue=event"),
)
SCENARIO_MATRIX_WORKLOADS = (
    ("paper", None),
    ("video_dvr", "video_dvr:tenants=2,seed=5"),
    ("log_ingest", "log_ingest:tenants=3,seed=5"),
    ("cdn_churn", "cdn_churn:tenants=4,seed=5"),
    ("photo_sharing", "photo_sharing:tenants=4,seed=5"),
)
SCENARIO_MATRIX_AGES = (0.0, 1.0, 2.0)


class AgedStore:
    """One store from a :class:`StoreSpec` plus the mechanics every
    sharded scenario repeats: bulk load, churn to an age, calibrate an
    open-loop rate, and read sweeps measured inside a named window.

    One seeded RNG drives churn victims and sweep orders, so a scenario
    is a deterministic function of ``(spec, seed)``.  ``build_s`` is the
    host time spent in :meth:`load` and :meth:`churn` so far.
    """

    def __init__(self, spec: StoreSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.store = build_store(spec)
        #: ``None`` for stores without the overlap model.
        self.sched = getattr(self.store, "scheduler", None)
        self.rng = random.Random(seed)
        self.keys: list[str] = []
        self.build_s = 0.0
        #: The most recently closed window (exact, unrounded values).
        self.last_window = None

    def device_s(self) -> float:
        return summed_clock_s(self.store.devices())

    def load(self, sizes: Iterable[int] = itertools.repeat(AGING_OBJECT),
             occupancy: float = OCCUPANCY) -> None:
        """Put objects of the given sizes until the next would pass
        ``occupancy`` of the volume.  Each object costs ``replicas``
        physical copies, so the logical target is divided by that."""
        target = int(self.spec.volume_bytes * occupancy) // self.spec.replicas
        loaded = 0
        t0 = time.perf_counter()
        for size in sizes:
            if loaded + size > target:
                break
            key = f"o{len(self.keys)}"
            self.store.put(key, size=size)
            self.keys.append(key)
            loaded += size
        self.build_s += time.perf_counter() - t0

    def churn(self, age: int) -> None:
        """Overwrite ``age`` x population random victims at their size."""
        store = self.store
        t0 = time.perf_counter()
        for _ in range(age * len(self.keys)):
            victim = self.rng.choice(self.keys)
            store.overwrite(victim, size=store.meta(victim).size)
        self.build_s += time.perf_counter() - t0

    def shuffled(self) -> list[str]:
        order = list(self.keys)
        self.rng.shuffle(order)
        return order

    def read_all(self, *, per_object: bool = False) -> int:
        """Read the whole population in a fresh shuffled order — one
        ``get`` per object, or one ``read_many`` whose batching and
        ordering the spec's :class:`DevicePolicy` governs."""
        order = self.shuffled()
        if per_object:
            for key in order:
                self.store.get(key)
        else:
            self.store.read_many(order)
        return len(order)

    @contextlib.contextmanager
    def window(self, phase: str, *, counters: bool = False):
        """Measure the block as one phase; yields the measures dict.

        The caller counts its reads into ``sweep_reads``; on exit the
        dict gains host seconds, summed device seconds, the window's
        wall seconds (device seconds without a scheduler), the window's
        sojourn percentiles when the scheduler is the event one, and
        with ``counters`` the degraded-read/failover deltas.
        """
        store, sched = self.store, self.sched
        measures: dict = {"sweep_reads": 0}
        clock0 = self.device_s()
        if counters:
            deg0, fail0 = store.degraded_reads, store.failovers
        win = sched.start_window(phase) if sched else None
        t0 = time.perf_counter()
        yield measures
        host_s = time.perf_counter() - t0
        if win:
            sched.end_window(win)
        self.last_window = win
        device_s = self.device_s() - clock0
        measures["sweep_host_seconds"] = round(host_s, 4)
        measures["sweep_device_s"] = round(device_s, 4)
        measures["sweep_wall_s"] = round(
            win.wall_time_s if win else device_s, 4)
        if isinstance(win, EventWindow):
            lat = win.latency.summary()
            measures["lat_count"] = lat["count"]
            for stat in ("p50", "p95", "p99", "max"):
                measures[f"lat_{stat}_ms"] = round(lat[f"{stat}_s"] * 1e3, 4)
        if counters:
            measures["degraded_reads"] = store.degraded_reads - deg0
            measures["failovers"] = store.failovers - fail0

    def sweep(self, phase: str, *, per_object: bool = False,
              counters: bool = False) -> dict:
        """One whole-population read sweep in its own window."""
        with self.window(phase, counters=counters) as measures:
            measures["sweep_reads"] = self.read_all(per_object=per_object)
        return measures

    def calibrate(self, utilization: float) -> None:
        """Pin the open-loop Poisson rate at ``utilization`` of capacity.

        A closed-loop per-object sweep measures the zero-queueing wall
        per read.  The rate divides by the window's exact wall — the
        rounded sweep report could lose precision or even round a very
        fast calibration to a zero divisor.
        """
        self.sweep("calibrate", per_object=True)
        self.closed_wall_s = self.last_window.wall_time_s
        if self.closed_wall_s <= 0.0:
            raise AssertionError("calibration sweep charged no wall time")
        self.rate = utilization * len(self.keys) / self.closed_wall_s
        self.arrival = ArrivalSpec.parse(
            f"poisson:rate={self.rate:g}:seed={self.seed}")

    def rebuild_slices(self, max_objects: int):
        """Throttled rebuild slices until redundancy is restored."""
        while self.store.under_replicated():
            report = self.store.rebuild(rate=DEGRADED_REBUILD_RATE,
                                        max_objects=max_objects)
            if report.rebuilt_objects == 0:
                raise AssertionError(
                    "rebuild slice made no progress with "
                    f"{len(self.store.under_replicated())} keys still hurt")
            yield report

    def check_books(self) -> None:
        """The event queue's ledgers must balance once drained."""
        sched = self.sched
        sched.drain()
        if not (sched.submitted == sched.completed == sched.latency.count):
            raise AssertionError("scheduler books don't balance")


def run_sharded_aging(seed: int = 17) -> list[dict]:
    """Aged read time: single vs shards vs +C-LOOK vs +overlap.

    ``sweep_device_s`` sums device busy time across volumes (the serial
    model); ``sweep_wall_s`` is the overlap scheduler's makespan (equal
    to the sum for stores without ``overlap=true``).
    """
    clook = DevicePolicy(batch_size=AGING_READ_BATCH, reorder="clook")
    sharded = partial(StoreSpec, "lfs", volume_bytes=AGING_VOLUME,
                      shards=AGING_SHARDS)
    rows = []
    for label, spec in (
            ("single", StoreSpec("lfs", volume_bytes=AGING_VOLUME)),
            ("sharded", sharded()),
            ("sharded_clook", sharded(policy=clook)),
            ("sharded_overlap", sharded(policy=clook, overlap=True))):
        aged = AgedStore(spec, seed)
        aged.load()
        aged.churn(AGING_CHURN_AGE)
        devices = aged.store.devices()
        seeks0 = sum(d.stats.seeks for d in devices)
        measures = aged.sweep("sweep")
        rows.append({
            "config": label,
            "shards": spec.shards,
            "reorder": spec.policy.reorder,
            "read_batch": spec.policy.batch_size,
            "overlap": spec.overlap,
            "volume_bytes": AGING_VOLUME,
            "objects": len(aged.keys),
            "storage_age": AGING_CHURN_AGE,
            "build_seconds": round(aged.build_s, 4),
            **measures,
            "sweep_seeks": sum(d.stats.seeks for d in devices) - seeks0,
            "modelled_device_s": round(aged.device_s(), 4),
        })
    return rows


def run_shard_skew(seed: int = 19) -> list[dict]:
    """Occupancy skew under hash placement, before/after rebalancing.

    Hash placement spreads *many* keys evenly but a store of tens of
    large objects gets real per-shard skew (law of small numbers) — the
    production complaint rebalancing exists for.  All migration I/O is
    charged through the shards' normal submit paths.
    """
    aged = AgedStore(
        StoreSpec("lfs", volume_bytes=AGING_VOLUME, shards=AGING_SHARDS,
                  overlap=True,
                  policy=DevicePolicy(batch_size=AGING_READ_BATCH)), seed)
    store = aged.store
    # Few, large, mixed-size objects: 2-8 MB scaled to ~45 % occupancy.
    aged.load((aged.rng.randrange(8, 33) * (AGING_VOLUME // 2048)
               for _ in itertools.count()), occupancy=0.45)
    aged.churn(1)

    live_before = [s.live_bytes for s in store.shard_stats()]
    skew_before = store.occupancy_skew()
    before = aged.sweep("before")
    t0 = time.perf_counter()
    report = store.rebalance(mode="even")
    rebalance_host_s = time.perf_counter() - t0
    live_after = [s.live_bytes for s in store.shard_stats()]
    skew_after = store.occupancy_skew()
    after = aged.sweep("after")
    return [{
        "shards": AGING_SHARDS,
        "placement": aged.spec.placement,
        "volume_bytes": AGING_VOLUME,
        "objects": len(aged.keys),
        "live_bytes_per_shard_before": live_before,
        "live_bytes_per_shard_after": live_after,
        "occupancy_skew_before": round(skew_before, 4),
        "occupancy_skew_after": round(skew_after, 4),
        "moved_objects": report.moved_objects,
        "moved_bytes": report.moved_bytes,
        "rebalance_host_seconds": round(rebalance_host_s, 4),
        "sweep_device_s_before": before["sweep_device_s"],
        "sweep_wall_s_before": before["sweep_wall_s"],
        "sweep_device_s_after": after["sweep_device_s"],
        "sweep_wall_s_after": after["sweep_wall_s"],
    }]


def _replicated_spec(**overrides) -> StoreSpec:
    """4 overlapped shards, ``replicas=2`` — the fault scenarios' store."""
    return StoreSpec("lfs", volume_bytes=AGING_VOLUME, shards=AGING_SHARDS,
                     overlap=True, replicas=DEGRADED_REPLICAS, **overrides)


def run_degraded_aging(seed: int = 29) -> list[dict]:
    """Aged read sweeps through shard loss and charged rebuild.

    * ``healthy`` — all shards up, reads served by primaries;
    * ``degraded`` — shard 1 killed; keys whose primary died fail over
      to their replica through the per-key (unbatched) path;
    * ``rebuilding`` — sweeps interleaved with throttled rebuild slices
      (copy time and throttle stall both charged through the normal
      lanes and reported beside the read cost);
    * ``rebuilt`` — full redundancy on the surviving shards.
    """
    aged = AgedStore(_replicated_spec(policy=DevicePolicy(
        batch_size=AGING_READ_BATCH, reorder="clook")), seed)
    store = aged.store
    aged.load()
    aged.churn(AGING_CHURN_AGE)
    rows = []

    def phase(name: str, measures: dict, **extra) -> None:
        rows.append({
            "phase": name,
            "shards": AGING_SHARDS,
            "replicas": DEGRADED_REPLICAS,
            "volume_bytes": AGING_VOLUME,
            "objects": len(aged.keys),
            "storage_age": AGING_CHURN_AGE,
            "dead_shards": len(store.dead_shards),
            **measures, **extra,
        })
        for key in aged.keys:
            if store.meta(key).size != AGING_OBJECT:
                raise AssertionError(
                    f"degraded_aging[{name}]: {key} unreadable or resized")

    phase("healthy", aged.sweep("healthy", counters=True),
          build_seconds=round(aged.build_s, 4))
    store.fail_shard(DEGRADED_DEAD_SHARD)
    phase("degraded", aged.sweep("degraded", counters=True),
          under_replicated=len(store.under_replicated()))

    slices = rebuilt_objects = rebuilt_bytes = 0
    copy_s = stall_s = 0.0
    totals: dict = {}
    for report in aged.rebuild_slices(DEGRADED_REBUILD_SLICE):
        slices += 1
        copy_s += report.copy_device_s
        stall_s += report.stall_s
        rebuilt_objects += report.rebuilt_objects
        rebuilt_bytes += report.rebuilt_bytes
        for name, value in aged.sweep("rebuilding", counters=True).items():
            total = totals.get(name, 0) + value
            totals[name] = round(total, 4) if isinstance(value, float) \
                else total
    phase("rebuilding", totals,
          rebuild_slices=slices, rebuild_rate=DEGRADED_REBUILD_RATE,
          rebuilt_objects=rebuilt_objects, rebuilt_bytes=rebuilt_bytes,
          rebuild_copy_device_s=round(copy_s, 4),
          rebuild_stall_s=round(stall_s, 4))
    phase("rebuilt", aged.sweep("rebuilt", counters=True))
    return rows


def run_tail_latency(seed: int = 31) -> list[dict]:
    """Sojourn-time percentiles across aging, shard loss, and rebuild.

    Every phase replays the same shuffled per-object sweep under the
    rate calibrated on the fresh store, so a slower store can't hide
    behind a slower client: service times grow, the fixed arrival
    stream piles up behind them, and the sojourn tail stretches.
    """
    aged = AgedStore(_replicated_spec(queue="event",
                                      queue_depth=TAIL_DEPTH), seed)
    store, sched = aged.store, aged.sched
    aged.load()
    aged.calibrate(TAIL_UTILIZATION)
    rows = []

    def phase(name: str, measures: dict, **extra) -> None:
        rows.append({
            "phase": name,
            "shards": AGING_SHARDS,
            "replicas": DEGRADED_REPLICAS,
            "queue_depth": TAIL_DEPTH,
            "arrival_rate": round(aged.rate, 2),
            "volume_bytes": AGING_VOLUME,
            "objects": len(aged.keys),
            "dead_shards": len(store.dead_shards),
            **measures, **extra,
        })

    sched.set_arrival(aged.arrival)
    phase("fresh", aged.sweep("fresh", per_object=True),
          build_seconds=round(aged.build_s, 4),
          closed_wall_s=round(aged.closed_wall_s, 4))

    # Churn under closed arrivals (background work, not part of the
    # measured open-loop stream), then re-measure.
    sched.set_arrival(ArrivalSpec())
    aged.churn(AGING_CHURN_AGE)
    sched.set_arrival(aged.arrival)
    phase("aged", aged.sweep("aged", per_object=True),
          storage_age=AGING_CHURN_AGE)

    store.fail_shard(DEGRADED_DEAD_SHARD)
    phase("degraded",
          aged.sweep("degraded", per_object=True, counters=True),
          under_replicated=len(store.under_replicated()))

    # One window over rebuild slices interleaved with the same sweep:
    # its histogram sees reads queued behind rebuild copy traffic and
    # the duty-cycle stalls charged through the queue frontier.
    slices = 0
    with aged.window("rebuilding") as measures:
        for _ in aged.rebuild_slices(TAIL_REBUILD_SLICE):
            slices += 1
            measures["sweep_reads"] += aged.read_all(per_object=True)
    phase("rebuilding", measures, rebuild_slices=slices,
          rebuild_rate=DEGRADED_REBUILD_RATE)
    phase("rebuilt", aged.sweep("rebuilt", per_object=True))
    aged.check_books()
    return rows


def run_continuous_operation(seed: int = 37) -> list[dict]:
    """Foreground tail latency while checkpoints and rebalances run.

    Every grid cell gets its own identically-built store
    (``placement=round_robin``): same bulk load, calibration, sweep
    order, in-sweep delete/re-put churn bursts and arrival seed — cells
    differ *only* in the background work their sweep carries (a shared
    store would compound LFS aging phase over phase and swamp the
    signal).  The churn drifts keys off their round-robin placement
    mid-sweep; each active cell answers every burst with
    ``rebalance(mode="placement", rate=R)`` on the background lane,
    plus ``cadence`` charged checkpoint write-backs.  The quiescent
    cell churns identically but never rebalances or checkpoints.

    A write-back's size includes ``len(pickle.dumps(store))``, so host
    bytes reach the modelled clock (the pattern ROADMAP 1B(d) is to
    retire): like the ``ckpt_delta_resume`` golden, this figure's hash
    is CPython 3.11's and is compared on CI's 3.11 leg only.
    """
    spec = _replicated_spec(placement="round_robin",
                            queue="event", queue_depth=TAIL_DEPTH)

    def cell(phase: str, cadence: int = 0,
             rebalance_rate: float | None = None) -> dict:
        aged = AgedStore(spec, seed)
        store = aged.store
        aged.load()
        # What a checkpoint of this store actually costs on the wire:
        # the per-shard snapshot codecs plus the pickled store state.
        ckpt_bytes = len(pickle.dumps(store))
        for _, fs in fs_components(store):
            ckpt_bytes += len(encode_free_index(fs.free_index))
            ckpt_bytes += len(encode_journal(fs.journal))
        aged.calibrate(CONTINUOUS_UTILIZATION)

        # Every cell churns the same keys at the same sweep positions;
        # only the active cells answer with a rebalance.
        drift = max(CONTINUOUS_BURSTS,
                    len(aged.keys) // CONTINUOUS_DRIFT_FRACTION)
        drifted = aged.rng.sample(aged.keys, drift)
        group_size = len(drifted) / CONTINUOUS_BURSTS
        groups = [drifted[round(g * group_size):round((g + 1) * group_size)]
                  for g in range(CONTINUOUS_BURSTS)]
        aged.sched.set_arrival(aged.arrival)
        order = aged.shuffled()
        burst_at = {round((g + 1) * len(order) / (CONTINUOUS_BURSTS + 1))
                    - 1: group for g, group in enumerate(groups)}
        ckpt_at = {round((c + 1) * len(order) / (cadence + 1)) - 1
                   for c in range(cadence)}
        moved = 0
        copy_s = stall_s = ckpt_s = 0.0
        with aged.window(phase) as measures:
            measures["sweep_reads"] = len(order)
            for i, key in enumerate(order):
                store.get(key)
                if i in burst_at:
                    for name in burst_at[i]:
                        store.delete(name)
                        store.put(name, size=AGING_OBJECT)
                    if rebalance_rate:
                        report = store.rebalance(mode="placement",
                                                 rate=rebalance_rate)
                        moved += report.moved_objects
                        copy_s += report.copy_device_s
                        stall_s += report.stall_s
                if i in ckpt_at:
                    ckpt_s += store.background_write(
                        ckpt_bytes, rate=CONTINUOUS_CHECKPOINT_RATE)
        background = aged.last_window.background_latency
        aged.check_books()
        return {
            "phase": phase,
            "shards": AGING_SHARDS,
            "replicas": DEGRADED_REPLICAS,
            "queue_depth": TAIL_DEPTH,
            "arrival_rate": round(aged.rate, 2),
            "volume_bytes": AGING_VOLUME,
            "objects": len(aged.keys),
            "build_seconds": round(aged.build_s, 4),
            "closed_wall_s": round(aged.closed_wall_s, 4),
            "drift_objects": drift,
            "checkpoints": cadence,
            "checkpoint_rate": CONTINUOUS_CHECKPOINT_RATE,
            "checkpoint_bytes": ckpt_bytes,
            "checkpoint_device_s": round(ckpt_s, 4),
            "rebalance_rate": rebalance_rate,
            "churn_bursts": CONTINUOUS_BURSTS,
            "moved_objects": moved,
            "rebalance_copy_s": round(copy_s, 4),
            "rebalance_stall_s": round(stall_s, 4),
            **measures,
            "background_requests": background.count,
            "background_max_ms": round(background.max_s * 1e3, 4),
        }

    rows = [cell("quiescent")]
    for cadence in CONTINUOUS_CADENCES:
        for rebalance_rate in CONTINUOUS_REBALANCE_RATES:
            phase = f"ckpt_x{cadence}_rb{rebalance_rate:g}"
            row = cell(phase, cadence=cadence, rebalance_rate=rebalance_rate)
            if row["moved_objects"] == 0:
                raise AssertionError(
                    f"continuous_operation[{phase}]: the placement "
                    "drift produced nothing for the rebalance to move")
            rows.append(row)
    return rows


def run_scenario_matrix(seed: int = 41) -> list[dict]:
    """Workloads x store configs, winner = lowest final-age read p99.

    The SLA view, where the throughput-optimal store is not
    automatically the tail-optimal one.  If the workload mix never
    changed the answer the scenario engine would be measuring nothing,
    hence the divergent-winner gate; the per-tenant counts of every
    scenario sample must sum to its global interval count (the
    reconciliation invariant the scenario suite also pins).
    """
    rows = []
    for workload, scenario_text in SCENARIO_MATRIX_WORKLOADS:
        p99s = []
        for config, store_text in SCENARIO_MATRIX_CONFIGS:
            cfg = ExperimentConfig(
                store=StoreSpec.parse(store_text, volume_bytes=AGING_VOLUME),
                sizes=(ConstantSize(AGING_OBJECT)
                       if scenario_text is None else None),
                scenario=(ScenarioSpec.parse(scenario_text)
                          if scenario_text else None),
                occupancy=0.4,
                ages=SCENARIO_MATRIX_AGES,
                reads_per_sample=24,
                seed=seed,
            )
            result = run_experiment(cfg)
            where = f"scenario_matrix[{workload}/{config}]"
            aged = [s for s in result.samples if s.age > 0]
            for sample in aged if scenario_text else ():
                tenant_total = sum(
                    t["count"] for t in sample.tenant_lat.values())
                if tenant_total != sample.scenario_lat["count"]:
                    raise AssertionError(
                        f"{where}: tenant counts ({tenant_total}) != global "
                        f"({sample.scenario_lat['count']}) at age "
                        f"{sample.age:.2f}")
            last = result.samples[-1]
            p99_ms = last.read_lat_p99_s * 1e3
            if p99_ms <= 0:
                raise AssertionError(
                    f"{where}: event store reported no read-sweep p99")
            rows.append({
                "workload": workload,
                "workload_spec": (cfg.scenario.text() if cfg.scenario
                                  else "uniform-churn"),
                "config": config,
                "store": store_text,
                "volume_bytes": AGING_VOLUME,
                "objects": result.objects_loaded,
                "final_age": round(last.age, 3),
                "read_wall_mbps": round(last.read_wall_mbps / MB, 2),
                "read_p50_ms": round(last.read_lat_p50_s * 1e3, 4),
                "read_p99_ms": round(p99_ms, 4),
                "churn_ops": (int(sum(s.scenario_lat.get("count", 0)
                                      for s in aged))
                              if scenario_text else None),
                "tenant_p99_ms": {
                    tenant: round(summ["p99_s"] * 1e3, 4)
                    for tenant, summ in last.tenant_lat.items()
                },
                "winner": False,
            })
            p99s.append(p99_ms)
        # The first config at the unrounded minimum wins.
        first = len(rows) - len(p99s)
        rows[first + p99s.index(min(p99s))]["winner"] = True
    return rows


def divergent_winners(rows: list[dict]) -> int:
    """Workloads whose winning config differs from the paper loop's."""
    winners = {r["workload"]: r["config"] for r in rows if r["winner"]}
    return sum(1 for workload, config in winners.items()
               if workload != "paper" and config != winners["paper"])


def ratio_check(name: str, top: float, bottom: float, *,
                strict: bool = False, holds: bool = True) -> ShapeCheck:
    """``top / bottom`` to two places — the number the docs quote —
    held to ``>= 1`` (``> 1`` when ``strict``).  ``holds`` carries the
    rest of a claim that spans more rows than the quoted ratio."""
    value = round(top / bottom, 2) if bottom > 0 else math.inf
    return ShapeCheck(
        name=name,
        passed=holds and (top > bottom if strict else top >= bottom),
        detail=f"ratio {value:g} (needs {'>' if strict else '>='} 1)",
        value=value, bound=1.0,
    )


def cells_by(rows: list[dict], label: str, field: str) -> dict:
    """``field`` of every row, keyed by the row's ``label`` cell."""
    return {row[label]: row[field] for row in rows}


def sharded_aging_checks(rows: list[dict]) -> dict[str, ShapeCheck]:
    device = cells_by(rows, "config", "sweep_device_s")
    wall = cells_by(rows, "config", "sweep_wall_s")
    return {
        "clook_read_device_time": ratio_check(
            "4 shards + C-LOOK batches cut the aged sweep's device time",
            device["single"], device["sharded_clook"], strict=True),
        "overlap_read_wall_time": ratio_check(
            "overlap=true turns the four lanes into wall time",
            device["single"], wall["sharded_overlap"], strict=True),
    }


def shard_skew_checks(rows: list[dict]) -> dict[str, ShapeCheck]:
    (row,) = rows
    return {"skew_reduction": ratio_check(
        "rebalance(mode='even') does not worsen occupancy skew",
        row["occupancy_skew_before"], row["occupancy_skew_after"])}


def degraded_aging_checks(rows: list[dict]) -> dict[str, ShapeCheck]:
    wall = cells_by(rows, "phase", "sweep_wall_s")
    return {
        "degraded_read_wall_penalty": ratio_check(
            "failover reads cost wall time over the healthy sweep",
            wall["degraded"], wall["healthy"]),
        "rebuilt_read_wall_penalty": ratio_check(
            "three rebuilt lanes stay behind four healthy ones",
            wall["rebuilt"], wall["healthy"]),
    }


def tail_latency_checks(rows: list[dict]) -> dict[str, ShapeCheck]:
    p99 = cells_by(rows, "phase", "lat_p99_ms")
    return {
        "aged_p99_inflation": ratio_check(
            "aging stretches the read p99 under the fixed rate",
            p99["aged"], p99["fresh"]),
        "degraded_p99_penalty": ratio_check(
            "degraded p99 does not undercut the healthy (aged) p99",
            p99["degraded"], p99["aged"]),
    }


def continuous_operation_checks(rows: list[dict]) -> dict[str, ShapeCheck]:
    p99 = cells_by(rows, "phase", "lat_p99_ms")
    series = [[row["lat_p99_ms"] for row in rows
               if row["checkpoints"] == cadence]
              for cadence in CONTINUOUS_CADENCES]
    return {
        "active_p99_inflation": ratio_check(
            "every active p99 exceeds the quiescent p99 "
            "(quoted: unthrottled, cadence 1)",
            p99["ckpt_x1_rb1"], p99["quiescent"], strict=True,
            holds=all(min(s) > p99["quiescent"] for s in series)),
        "throttle_p99_relief": ratio_check(
            "per cadence p99 falls as the rebalance throttle drops "
            "(quoted: rate 1 over rate 0.25, cadence 1)",
            p99["ckpt_x1_rb1"], p99["ckpt_x1_rb0.25"], strict=True,
            holds=all(s == sorted(s, reverse=True) and s[-1] < s[0]
                      for s in series)),
    }


def scenario_matrix_checks(rows: list[dict]) -> dict[str, ShapeCheck]:
    return {"divergent_winners": check_between(
        "some tenant mix flips the paper loop's p99 winner",
        divergent_winners(rows), 1, len(SCENARIO_MATRIX_WORKLOADS) - 1)}


def figure(name: str, run: Callable[[], list[dict]], *,
           params: dict[str, object], table: tuple[str, ...],
           checks: Callable[[list[dict]], dict[str, ShapeCheck]]) -> Figure:
    """One scenario as the three functions ``paperfig`` asks of a figure.

    ``compute`` ignores the curve runner and returns the constants the
    record echoes beside the rows; ``table`` lists the printed columns,
    each a row key every row carries, optionally ``key:format-spec``.
    """
    columns = [column.partition(":")[::2] for column in table]

    def render(results: dict) -> str:
        return render_table(
            name, [key for key, _ in columns],
            [[format(row[key], spec) for key, spec in columns]
             for row in results["rows"]])

    return Figure(compute=lambda _run: {"params": params, "rows": run()},
                  render=render,
                  checks=lambda results: checks(results["rows"]))


AGING_PARAMS = {
    "occupancy": OCCUPANCY,
    "aging_object_bytes": AGING_OBJECT,
    "aging_shards": AGING_SHARDS,
    "aging_read_batch": AGING_READ_BATCH,
    "aging_churn_age": AGING_CHURN_AGE,
}
DEGRADED_PARAMS = {
    **AGING_PARAMS,
    "degraded_replicas": DEGRADED_REPLICAS,
    "degraded_dead_shard": DEGRADED_DEAD_SHARD,
    "degraded_rebuild_rate": DEGRADED_REBUILD_RATE,
}
TAIL_PARAMS = {**DEGRADED_PARAMS, "tail_depth": TAIL_DEPTH}
SWEEP_TABLE = ("sweep_reads", "sweep_device_s:.3f", "sweep_wall_s:.3f")
LAT_TABLE = ("lat_p50_ms:.2f", "lat_p95_ms:.2f", "lat_p99_ms:.2f",
             "lat_max_ms:.2f")

FIGURES: dict[str, Figure] = {
    "sharded_aging": figure(
        "sharded_aging", run_sharded_aging,
        params=AGING_PARAMS,
        table=("config", "shards", "reorder", "objects", *SWEEP_TABLE,
               "sweep_seeks"),
        checks=sharded_aging_checks,
    ),
    "shard_skew": figure(
        "shard_skew", run_shard_skew,
        params=AGING_PARAMS,
        table=("objects", "shards", "occupancy_skew_before:.3f",
               "occupancy_skew_after:.3f", "moved_objects", "moved_bytes:,",
               "sweep_wall_s_before:.3f", "sweep_wall_s_after:.3f"),
        checks=shard_skew_checks,
    ),
    "degraded_aging": figure(
        "degraded_aging", run_degraded_aging,
        params={**DEGRADED_PARAMS,
                "degraded_rebuild_slice": DEGRADED_REBUILD_SLICE},
        table=("phase", *SWEEP_TABLE, "degraded_reads", "failovers"),
        checks=degraded_aging_checks,
    ),
    "tail_latency": figure(
        "tail_latency", run_tail_latency,
        params={**TAIL_PARAMS, "tail_utilization": TAIL_UTILIZATION,
                "tail_rebuild_slice": TAIL_REBUILD_SLICE},
        table=("phase", *SWEEP_TABLE, *LAT_TABLE),
        checks=tail_latency_checks,
    ),
    "continuous_operation": figure(
        "continuous_operation", run_continuous_operation,
        params={**TAIL_PARAMS,
                "continuous_cadences": list(CONTINUOUS_CADENCES),
                "continuous_rebalance_rates":
                    list(CONTINUOUS_REBALANCE_RATES),
                "continuous_checkpoint_rate": CONTINUOUS_CHECKPOINT_RATE,
                "continuous_drift_fraction": CONTINUOUS_DRIFT_FRACTION,
                "continuous_bursts": CONTINUOUS_BURSTS,
                "continuous_utilization": CONTINUOUS_UTILIZATION},
        table=("phase", "checkpoints", "rebalance_rate", "moved_objects",
               "rebalance_stall_s:.3f", "sweep_wall_s:.3f", *LAT_TABLE),
        checks=continuous_operation_checks,
    ),
    "scenario_matrix": figure(
        "scenario_matrix", run_scenario_matrix,
        params={"aging_object_bytes": AGING_OBJECT,
                "scenario_matrix_configs":
                    [c for c, _ in SCENARIO_MATRIX_CONFIGS],
                "scenario_matrix_workloads":
                    [w for w, _ in SCENARIO_MATRIX_WORKLOADS],
                "scenario_matrix_ages": list(SCENARIO_MATRIX_AGES)},
        table=("workload", "config", "read_wall_mbps:.2f", "read_p50_ms:.2f",
               "read_p99_ms:.2f", "winner"),
        checks=scenario_matrix_checks,
    ),
}
