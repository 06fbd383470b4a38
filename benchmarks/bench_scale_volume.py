#!/usr/bin/env python
"""Volume/store scaling bench: churn, segment store, and batched I/O.

Three scenarios, all host-side wall-clock measurements (the modelled
device time is reported alongside, it does not change between
implementations):

* ``fs_churn`` — sweeps volume sizes, drives the filesystem backend
  through a bulk load plus a delete/rewrite churn loop (the workload
  shape behind the paper's aging experiments) for both free-space
  engines.  The naive flat-list engine's per-op cost grows with the
  free map while the tiered engine stays flat, which is what unlocks
  multi-hundred-GB volumes and deep aging runs.
* ``segment_store`` — the device's sparse content store, blocked
  (shared :class:`~repro.struct.blockedlist.BlockedList` layout) vs
  the seed's flat list, under random segment writes then reads.  The
  flat list pays an O(n) memmove per write; the committed baseline
  shows the blocked store 3-4× faster at 10^5 segments, which is what
  makes content-checked aging runs practical beyond test scale.
* ``batched_writes`` — the same scattered write stream submitted one
  request per call vs scatter/gather batches per
  :meth:`BlockDevice.submit`, reordering off (modelled cost is
  asserted identical), plus the modelled seek count with the elevator
  on — the knob for request-scheduling studies.
* ``sharded_aging`` — an aged get/put workload built purely from
  :class:`StoreSpec`\\ s via the backend registry: a single-volume LFS
  baseline vs a 4-shard :class:`ShardedStore` (same aggregate
  capacity) vs the same sharded store with a C-LOOK
  :class:`DevicePolicy` on batched read sweeps, vs all of that plus
  ``overlap=true``.  Reports the modelled **summed device time** and
  the overlap scheduler's **wall time** (per-shard lanes run
  concurrently; see ``repro/disk/schedule.py``): sharding shortens
  seeks, the elevator shortens them further, and overlap turns four
  lanes into an actual multiple on the aged read sweep — the
  multi-volume + request-scheduling study the ROADMAP calls for.
* ``shard_skew`` — per-shard occupancy skew under hash placement on a
  small mixed-size population, an aged read sweep either side of
  ``ShardedStore.rebalance(mode="even")``; the bench raises if the
  migration fails to reduce the max/min occupancy ratio.
* ``degraded_aging`` — the fault-tolerance story end to end: a
  4-shard overlapped store with ``replicas=2`` is aged, then shard 1
  is killed and the same whole-population read sweep is measured
  healthy, degraded (every lost-primary key served by its replica via
  the per-key failover path), *while* a throttled background
  ``rebuild(rate=0.25)`` interleaves copy slices with reads, and after
  the rebuild restored full redundancy.  The bench raises if any
  object becomes unreadable at any phase or if the rebuild leaves
  under-replicated keys — the committed baseline is the regression
  gate for degraded operation.
* ``tail_latency`` — per-request sojourn percentiles through the
  event-driven queue model (``queue=event``; see ``repro/disk/events``):
  a 4-shard overlapped store with ``replicas=2`` is loaded fresh, a
  closed-loop sweep calibrates an open-loop Poisson arrival rate at a
  fixed utilisation of the fresh store's capacity, and the same
  shuffled per-object read sweep is then measured under that fixed
  rate fresh, aged (churned to storage age 2), degraded (shard 1
  killed, failover reads), rebuilding (throttled rebuild slices
  interleaved with reads), and rebuilt.  Because the arrival rate
  never changes, every slowdown shows up as queueing: the aged store's
  p99 sits above the fresh store's, and the degraded store's above
  healthy — the bench raises if degraded p99 undercuts healthy p99.
* ``continuous_operation`` — foreground tail latency while the store
  keeps itself healthy: the ``tail_latency`` store (4 shards,
  ``replicas=2``, ``queue=event``, fixed calibrated Poisson rate) is
  swept quiescent and then under a grid of checkpoint cadence x
  rebalance duty cycle, with charged checkpoint write-backs
  (``checkpoint_rate=``, real encoded snapshot sizes) and a mid-sweep
  throttled ``rebalance(mode="placement", rate=R)`` sharing the lanes
  with the measured reads.  The bench raises unless every active p99
  exceeds the quiescent p99 and, per cadence, p99 falls as the
  rebalance throttle drops — background work must be visible, and the
  throttle must actually protect the foreground tail.
* ``checkpoint_resume`` — the persistence subsystem's parity check,
  run as a bench so CI smokes it and the committed baseline records
  the checkpoint cost: an aging run is checkpointed at every sampled
  age, killed right after the mid-run checkpoint, and resumed; the
  resumed run record must equal the uninterrupted baseline **exactly**
  (every fragmentation/throughput/occupancy sample — the bench raises
  on any divergence).  Reported numbers: checkpoint size and
  save/resume host time for the tiered and naive engines and a
  3-shard composite.
* ``scenario_matrix`` — every workload (the paper's uniform churn loop
  plus the multi-tenant scenario presets from ``repro/scenario``)
  against every store config in a 4-shard ``queue=event`` family that
  differs only in backend.  The winner per workload is the config
  with the lowest final-age read p99 — the SLA view, where the
  throughput-optimal store is not automatically the tail-optimal one.
  The bench raises unless at least one scenario's winner differs from
  the paper loop's winner (workload mix must matter — the point of
  the scenario engine), and unless every scenario sample's per-tenant
  latency counts sum to its global count (the reconciliation
  invariant).

Results go to ``BENCH_scale_volume.json`` (schema
``bench-scale-volume/9``, documented in ``benchmarks/README.md``).

Usage::

    PYTHONPATH=src python benchmarks/bench_scale_volume.py
    PYTHONPATH=src python benchmarks/bench_scale_volume.py --quick
    PYTHONPATH=src python benchmarks/bench_scale_volume.py \
        --scenarios segment_store --segments 200000
    PYTHONPATH=src python benchmarks/bench_scale_volume.py \
        --volumes 268435456,1073741824 --index tiered
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import tempfile
import time
from pathlib import Path

from repro.backends.registry import build_store
from repro.backends.spec import StoreSpec
from repro.disk.device import (
    BlockDevice, IoRequest, _FlatSegmentStore, _SegmentStore,
)
from repro.disk.geometry import scaled_disk
from repro.disk.policy import DevicePolicy
from repro.alloc.extent import Extent
from repro.fs.filesystem import FsConfig, SimFilesystem
from repro.units import KB, MB

DEFAULT_VOLUMES = (128 * MB, 512 * MB, 2048 * MB)
QUICK_VOLUMES = (64 * MB,)
#: Small files (64 KB in 16 KB requests) maximise allocator pressure per
#: byte: every file is a fresh create/append/delete cycle.
FILE_BYTES = 64 * KB
REQUEST_BYTES = 16 * KB
OCCUPANCY = 0.5
CHURN_OPS = 400

DEFAULT_SEGMENTS = 100_000
QUICK_SEGMENTS = 20_000
SEGMENT_BYTES = 64
SEGMENT_READS = 20_000

DEFAULT_REQUESTS = 20_000
QUICK_REQUESTS = 4_000
DEFAULT_BATCH = 64

AGING_VOLUME = 512 * MB
QUICK_AGING_VOLUME = 128 * MB
AGING_OBJECT = 256 * KB
AGING_SHARDS = 4
AGING_READ_BATCH = 16
#: Overwrites per loaded object before the read sweep (storage age).
AGING_CHURN_AGE = 2

RESUME_VOLUME = 256 * MB
QUICK_RESUME_VOLUME = 64 * MB
RESUME_AGES = (0.0, 1.0, 2.0)

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
#: scenario preset.  The winner per workload is the config with the
#: lowest final-age read p99.
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

SCENARIOS = ("fs_churn", "segment_store", "batched_writes",
             "sharded_aging", "shard_skew", "degraded_aging",
             "tail_latency", "continuous_operation", "checkpoint_resume",
             "scenario_matrix")


def run_volume(kind: str, volume: int, seed: int = 7) -> dict:
    device = BlockDevice(scaled_disk(volume))
    fs = SimFilesystem(device, FsConfig(index_kind=kind))
    rng = random.Random(seed)

    def write_file(name: str) -> None:
        fs.create(name)
        remaining = FILE_BYTES
        while remaining > 0:
            request = min(REQUEST_BYTES, remaining)
            fs.append(name, request)
            remaining -= request

    target = int(fs.data_capacity * OCCUPANCY)
    names: list[str] = []
    t0 = time.perf_counter()
    while fs.used_bytes < target:
        name = f"f{len(names)}"
        write_file(name)
        names.append(name)
    build_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for op in range(CHURN_OPS):
        victim = rng.randrange(len(names))
        fs.delete(names[victim])
        names[victim] = f"f{len(names) + op}"
        write_file(names[victim])
    churn_s = time.perf_counter() - t0

    fs.check_invariants()
    return {
        "scenario": "fs_churn",
        "index": kind,
        "volume_bytes": volume,
        "files": len(names),
        "build_seconds": round(build_s, 4),
        "churn_ops": CHURN_OPS,
        "churn_us_per_op": round(churn_s / CHURN_OPS * 1e6, 2),
        "free_runs": len(fs.free_index),
        "modelled_device_s": round(device.clock_s, 4),
    }


def run_segment_store(nsegments: int, seed: int = 11) -> list[dict]:
    """Random disjoint writes then random reads, blocked vs flat."""
    slots = list(range(nsegments))
    random.Random(seed).shuffle(slots)
    payload = b"\xa5" * SEGMENT_BYTES
    nreads = min(SEGMENT_READS, nsegments)
    rows = []
    for store_kind, store in (("blocked", _SegmentStore()),
                              ("flat", _FlatSegmentStore())):
        t0 = time.perf_counter()
        for slot in slots:
            store.write(slot * 2 * SEGMENT_BYTES, payload)
        write_s = time.perf_counter() - t0
        read_rng = random.Random(seed + 1)
        t0 = time.perf_counter()
        for _ in range(nreads):
            slot = read_rng.randrange(nsegments)
            store.read(slot * 2 * SEGMENT_BYTES, SEGMENT_BYTES)
        read_s = time.perf_counter() - t0
        assert len(store) == nsegments
        rows.append({
            "scenario": "segment_store",
            "store": store_kind,
            "segments": nsegments,
            "segment_bytes": SEGMENT_BYTES,
            "write_us_per_op": round(write_s / nsegments * 1e6, 3),
            "read_us_per_op": round(read_s / nreads * 1e6, 3),
            "write_seconds": round(write_s, 4),
            "read_seconds": round(read_s, 4),
        })
    return rows


def run_batched_writes(nrequests: int, batch: int,
                       seed: int = 13) -> list[dict]:
    """Per-request vs batched submission of one scattered write stream."""
    volume = 2048 * MB
    stride = volume // (nrequests + 1)
    rng = random.Random(seed)
    offsets = [i * stride for i in range(nrequests)]
    rng.shuffle(offsets)

    def requests() -> list[IoRequest]:
        return [IoRequest(True, [Extent(off, REQUEST_BYTES)])
                for off in offsets]

    rows = []
    per = BlockDevice(scaled_disk(volume))
    reqs = requests()
    t0 = time.perf_counter()
    for req in reqs:
        per.submit([req])
    per_s = time.perf_counter() - t0
    rows.append({
        "scenario": "batched_writes",
        "mode": "per_request",
        "requests": nrequests,
        "batch": 1,
        "host_us_per_op": round(per_s / nrequests * 1e6, 3),
        "modelled_device_s": round(per.clock_s, 4),
        "modelled_seeks": per.stats.seeks,
        "stats_records": per.stats.requests,
    })
    batched = BlockDevice(scaled_disk(volume))
    reqs = requests()
    t0 = time.perf_counter()
    for lo in range(0, nrequests, batch):
        batched.submit(reqs[lo: lo + batch])
    batched_s = time.perf_counter() - t0
    assert abs(batched.clock_s - per.clock_s) < 1e-9 * max(1.0, per.clock_s)
    rows.append({
        "scenario": "batched_writes",
        "mode": "batched",
        "requests": nrequests,
        "batch": batch,
        "host_us_per_op": round(batched_s / nrequests * 1e6, 3),
        "modelled_device_s": round(batched.clock_s, 4),
        "modelled_seeks": batched.stats.seeks,
        "stats_records": batched.stats.requests,
    })
    elevator = BlockDevice(scaled_disk(volume))
    reqs = requests()
    t0 = time.perf_counter()
    for lo in range(0, nrequests, batch):
        elevator.submit(reqs[lo: lo + batch], reorder=True)
    elevator_s = time.perf_counter() - t0
    rows.append({
        "scenario": "batched_writes",
        "mode": "batched_elevator",
        "requests": nrequests,
        "batch": batch,
        "host_us_per_op": round(elevator_s / nrequests * 1e6, 3),
        "modelled_device_s": round(elevator.clock_s, 4),
        "modelled_seeks": elevator.stats.seeks,
        "stats_records": elevator.stats.requests,
    })
    return rows


def run_sharded_aging(volume: int, seed: int = 17) -> list[dict]:
    """Aged read time: single vs shards vs +C-LOOK vs +overlap.

    Every store is built from a :class:`StoreSpec` through the registry
    — the bench never names a backend class.  The workload is the aging
    shape: bulk load LFS to 50 % occupancy, overwrite-churn to storage
    age ``AGING_CHURN_AGE`` (scattering objects through the log), then
    a whole-population random read sweep through ``read_many``, whose
    batching/ordering the spec's :class:`DevicePolicy` governs.

    Two time models per row: ``sweep_device_s`` sums device busy time
    across volumes (the serial model) and ``sweep_wall_s`` is the
    overlap scheduler's makespan (shard lanes run concurrently; equal
    to the sum for stores without ``overlap=true``).  The
    ``sharded_overlap`` config is the headline: four lanes plus the
    elevator make the aged sweep's modelled *wall* time a multiple
    lower than the single-volume baseline.
    """
    specs = [
        ("single", StoreSpec("lfs", volume_bytes=volume)),
        ("sharded", StoreSpec("lfs", volume_bytes=volume,
                              shards=AGING_SHARDS)),
        ("sharded_clook", StoreSpec(
            "lfs", volume_bytes=volume, shards=AGING_SHARDS,
            policy=DevicePolicy(batch_size=AGING_READ_BATCH,
                                reorder="clook"),
        )),
        ("sharded_overlap", StoreSpec(
            "lfs", volume_bytes=volume, shards=AGING_SHARDS,
            overlap=True,
            policy=DevicePolicy(batch_size=AGING_READ_BATCH,
                                reorder="clook"),
        )),
    ]
    rows = []
    for label, spec in specs:
        store = build_store(spec)
        rng = random.Random(seed)
        target = int(spec.volume_bytes * OCCUPANCY)
        keys: list[str] = []
        loaded = 0
        t0 = time.perf_counter()
        while loaded + AGING_OBJECT <= target:
            key = f"o{len(keys)}"
            store.put(key, size=AGING_OBJECT)
            keys.append(key)
            loaded += AGING_OBJECT
        for _ in range(AGING_CHURN_AGE * len(keys)):
            store.overwrite(rng.choice(keys), size=AGING_OBJECT)
        build_s = time.perf_counter() - t0
        churn_device_s = sum(d.clock_s for d in store.devices())

        sweep = list(keys)
        rng.shuffle(sweep)
        seeks_before = sum(d.stats.seeks for d in store.devices())
        scheduler = getattr(store, "scheduler", None)
        wall_before = scheduler.wall_time_s if scheduler else 0.0
        t0 = time.perf_counter()
        store.read_many(sweep)
        sweep_host_s = time.perf_counter() - t0
        sweep_device_s = sum(d.clock_s for d in store.devices()) \
            - churn_device_s
        sweep_wall_s = (scheduler.wall_time_s - wall_before
                        if scheduler else sweep_device_s)
        rows.append({
            "scenario": "sharded_aging",
            "config": label,
            "shards": spec.shards,
            "reorder": spec.policy.reorder,
            "read_batch": spec.policy.batch_size,
            "overlap": spec.overlap,
            "volume_bytes": spec.volume_bytes,
            "objects": len(keys),
            "storage_age": AGING_CHURN_AGE,
            "build_seconds": round(build_s, 4),
            "sweep_reads": len(sweep),
            "sweep_host_seconds": round(sweep_host_s, 4),
            "sweep_device_s": round(sweep_device_s, 4),
            "sweep_wall_s": round(sweep_wall_s, 4),
            "sweep_seeks": sum(d.stats.seeks for d in store.devices())
            - seeks_before,
            "modelled_device_s": round(
                sum(d.clock_s for d in store.devices()), 4),
        })
    return rows


def run_shard_skew(volume: int, seed: int = 19) -> list[dict]:
    """Occupancy skew under hash placement, before/after rebalancing.

    Hash placement spreads *many* keys evenly but a store of tens of
    large objects gets real per-shard skew (law of small numbers) — the
    production complaint rebalancing exists for.  The scenario loads a
    mixed-size population onto a 4-shard overlapped store, measures the
    max/min shard occupancy ratio and an aged whole-population read
    sweep, then runs ``rebalance(mode="even")`` and measures both
    again.  Reported: the skew ratio before/after, what migrated (all
    I/O charged through the shards' normal submit paths), and the
    sweep's summed vs overlapped time either side.
    """
    spec = StoreSpec("lfs", volume_bytes=volume, shards=AGING_SHARDS,
                     overlap=True,
                     policy=DevicePolicy(batch_size=AGING_READ_BATCH))
    store = build_store(spec)
    rng = random.Random(seed)
    # Few, large, mixed-size objects: 2-8 MB scaled to ~45 % occupancy.
    target = int(volume * 0.45)
    keys: list[str] = []
    loaded = 0
    while True:
        size = rng.randrange(8, 33) * (volume // 2048)
        if loaded + size > target:
            break
        key = f"o{len(keys)}"
        store.put(key, size=size)
        keys.append(key)
        loaded += size
    for _ in range(len(keys)):
        victim = rng.choice(keys)
        store.overwrite(victim, size=store.meta(victim).size)

    def sweep_times() -> tuple[float, float]:
        order = list(keys)
        rng.shuffle(order)
        clock0 = sum(d.clock_s for d in store.devices())
        wall0 = store.scheduler.wall_time_s
        store.read_many(order)
        return (sum(d.clock_s for d in store.devices()) - clock0,
                store.scheduler.wall_time_s - wall0)

    live_before = [s.live_bytes for s in store.shard_stats()]
    skew_before = store.occupancy_skew()
    device_before, wall_before = sweep_times()
    t0 = time.perf_counter()
    report = store.rebalance(mode="even")
    rebalance_host_s = time.perf_counter() - t0
    live_after = [s.live_bytes for s in store.shard_stats()]
    skew_after = store.occupancy_skew()
    device_after, wall_after = sweep_times()
    if skew_after > skew_before:
        raise AssertionError(
            f"shard_skew: rebalance worsened occupancy skew "
            f"({skew_before:.3f} -> {skew_after:.3f})"
        )
    return [{
        "scenario": "shard_skew",
        "shards": AGING_SHARDS,
        "placement": spec.placement,
        "volume_bytes": volume,
        "objects": len(keys),
        "live_bytes_per_shard_before": live_before,
        "live_bytes_per_shard_after": live_after,
        "occupancy_skew_before": round(skew_before, 4),
        "occupancy_skew_after": round(skew_after, 4),
        "moved_objects": report.moved_objects,
        "moved_bytes": report.moved_bytes,
        "rebalance_host_seconds": round(rebalance_host_s, 4),
        "sweep_device_s_before": round(device_before, 4),
        "sweep_wall_s_before": round(wall_before, 4),
        "sweep_device_s_after": round(device_after, 4),
        "sweep_wall_s_after": round(wall_after, 4),
    }]


def run_degraded_aging(volume: int, seed: int = 29) -> list[dict]:
    """Aged read sweeps through shard loss and charged rebuild.

    One replicated store (4 shards, ``replicas=2``, overlap + C-LOOK),
    aged the usual way, then measured through four phases of the same
    whole-population shuffled read sweep:

    * ``healthy`` — all shards up, reads served by primaries;
    * ``degraded`` — shard 1 killed; keys whose primary died fail over
      to their replica through the per-key (unbatched) path, so the
      sweep pays the degradation the counters record;
    * ``rebuilding`` — sweeps interleaved with throttled
      ``rebuild(rate=0.25, max_objects=slice)`` slices until redundancy
      is restored (copy time and throttle stall both charged through
      the normal lanes and reported);
    * ``rebuilt`` — full redundancy on the surviving shards.

    The bench raises if any phase leaves an object unreadable or the
    rebuild terminates with under-replicated keys.
    """
    spec = StoreSpec("lfs", volume_bytes=volume, shards=AGING_SHARDS,
                     overlap=True, replicas=DEGRADED_REPLICAS,
                     policy=DevicePolicy(batch_size=AGING_READ_BATCH,
                                         reorder="clook"))
    store = build_store(spec)
    rng = random.Random(seed)
    # Logical load target: each object costs ``replicas`` physical
    # copies, so halve the usual occupancy target.
    target = int(volume * OCCUPANCY) // DEGRADED_REPLICAS
    keys: list[str] = []
    loaded = 0
    t0 = time.perf_counter()
    while loaded + AGING_OBJECT <= target:
        key = f"o{len(keys)}"
        store.put(key, size=AGING_OBJECT)
        keys.append(key)
        loaded += AGING_OBJECT
    for _ in range(AGING_CHURN_AGE * len(keys)):
        store.overwrite(rng.choice(keys), size=AGING_OBJECT)
    build_s = time.perf_counter() - t0

    def sweep() -> dict:
        order = list(keys)
        rng.shuffle(order)
        clock0 = sum(d.clock_s for d in store.devices())
        wall0 = store.scheduler.wall_time_s
        deg0, fail0 = store.degraded_reads, store.failovers
        t0 = time.perf_counter()
        store.read_many(order)
        return {
            "sweep_reads": len(order),
            "sweep_host_seconds": round(time.perf_counter() - t0, 4),
            "sweep_device_s": round(
                sum(d.clock_s for d in store.devices()) - clock0, 4),
            "sweep_wall_s": round(
                store.scheduler.wall_time_s - wall0, 4),
            "degraded_reads": store.degraded_reads - deg0,
            "failovers": store.failovers - fail0,
        }

    def check_all_readable(phase: str) -> None:
        for key in keys:
            if store.meta(key).size != AGING_OBJECT:
                raise AssertionError(
                    f"degraded_aging[{phase}]: {key} unreadable or resized")

    def row(phase: str, measures: dict, **extra) -> dict:
        base = {
            "scenario": "degraded_aging",
            "phase": phase,
            "shards": AGING_SHARDS,
            "replicas": DEGRADED_REPLICAS,
            "volume_bytes": volume,
            "objects": len(keys),
            "storage_age": AGING_CHURN_AGE,
            "dead_shards": len(store.dead_shards),
        }
        base.update(measures)
        base.update(extra)
        return base

    rows = [row("healthy", sweep(), build_seconds=round(build_s, 4))]
    check_all_readable("healthy")

    store.fail_shard(DEGRADED_DEAD_SHARD)
    rows.append(row("degraded", sweep(),
                    under_replicated=len(store.under_replicated())))
    check_all_readable("degraded")

    # Interleave throttled rebuild slices with read sweeps; the read
    # cost is reported separately from the rebuild's copy/stall time.
    slices = 0
    copy_s = stall_s = 0.0
    rebuilt_objects = rebuilt_bytes = 0
    read_totals = {"sweep_reads": 0, "sweep_host_seconds": 0.0,
                   "sweep_device_s": 0.0, "sweep_wall_s": 0.0,
                   "degraded_reads": 0, "failovers": 0}
    while store.under_replicated():
        report = store.rebuild(rate=DEGRADED_REBUILD_RATE,
                               max_objects=DEGRADED_REBUILD_SLICE)
        if report.rebuilt_objects == 0:
            raise AssertionError(
                "degraded_aging: rebuild slice made no progress with "
                f"{len(store.under_replicated())} keys still hurt")
        slices += 1
        copy_s += report.copy_device_s
        stall_s += report.stall_s
        rebuilt_objects += report.rebuilt_objects
        rebuilt_bytes += report.rebuilt_bytes
        for name, value in sweep().items():
            read_totals[name] = round(read_totals[name] + value, 4) \
                if isinstance(value, float) else read_totals[name] + value
    rows.append(row("rebuilding", read_totals,
                    rebuild_slices=slices,
                    rebuild_rate=DEGRADED_REBUILD_RATE,
                    rebuilt_objects=rebuilt_objects,
                    rebuilt_bytes=rebuilt_bytes,
                    rebuild_copy_device_s=round(copy_s, 4),
                    rebuild_stall_s=round(stall_s, 4)))
    check_all_readable("rebuilding")

    rows.append(row("rebuilt", sweep()))
    check_all_readable("rebuilt")
    return rows


def run_tail_latency(volume: int, seed: int = 31) -> list[dict]:
    """Sojourn-time percentiles across aging, shard loss, and rebuild.

    One replicated store (4 shards, ``replicas=2``, ``overlap=true``,
    ``queue=event`` with depth ``TAIL_DEPTH``).  After the bulk load a
    closed-loop per-object read sweep measures the fresh store's
    capacity; the open-loop Poisson rate is then pinned at
    ``TAIL_UTILIZATION`` of it and **never changes again**.  Every
    subsequent phase replays the same shuffled per-object sweep under
    that rate, so a slower store can't hide behind a slower client:
    service times grow, the fixed arrival stream piles up behind them,
    and the sojourn tail stretches.  Reported per phase: wall/device
    time plus p50/p95/p99/max sojourn from the phase's own window
    histogram.  The bench raises if the degraded p99 undercuts the
    healthy (aged) p99 — the tail must record the damage.
    """
    spec = StoreSpec("lfs", volume_bytes=volume, shards=AGING_SHARDS,
                     overlap=True, replicas=DEGRADED_REPLICAS,
                     queue="event", queue_depth=TAIL_DEPTH)
    store = build_store(spec)
    sched = store.scheduler
    rng = random.Random(seed)
    target = int(volume * OCCUPANCY) // DEGRADED_REPLICAS
    keys: list[str] = []
    loaded = 0
    t0 = time.perf_counter()
    while loaded + AGING_OBJECT <= target:
        key = f"o{len(keys)}"
        store.put(key, size=AGING_OBJECT)
        keys.append(key)
        loaded += AGING_OBJECT
    build_s = time.perf_counter() - t0

    def sweep(phase: str) -> dict:
        """One shuffled per-object read sweep in its own window."""
        order = list(keys)
        rng.shuffle(order)
        clock0 = sum(d.clock_s for d in store.devices())
        win = sched.start_window(phase)
        t0 = time.perf_counter()
        for key in order:
            store.get(key)
        host_s = time.perf_counter() - t0
        sched.end_window(win)
        lat = win.latency
        return {
            "sweep_reads": len(order),
            "sweep_host_seconds": round(host_s, 4),
            "sweep_device_s": round(
                sum(d.clock_s for d in store.devices()) - clock0, 4),
            "sweep_wall_s": round(win.wall_time_s, 4),
            "lat_count": lat.count,
            "lat_p50_ms": round(lat.percentile(50) * 1e3, 4),
            "lat_p95_ms": round(lat.percentile(95) * 1e3, 4),
            "lat_p99_ms": round(lat.percentile(99) * 1e3, 4),
            "lat_max_ms": round(lat.max_s * 1e3, 4),
        }

    # Calibration: a closed-loop sweep of the fresh store measures the
    # zero-queueing wall per read; the Poisson rate is a fixed fraction
    # of that capacity.  The rate comes from the window's exact wall —
    # the rounded sweep report could lose precision or even round a
    # very fast calibration to a zero divisor.
    order = list(keys)
    rng.shuffle(order)
    calibration_win = sched.start_window("calibrate")
    for key in order:
        store.get(key)
    sched.end_window(calibration_win)
    closed_wall = calibration_win.wall_time_s
    if closed_wall <= 0.0:
        raise AssertionError(
            "tail_latency: calibration sweep charged no wall time")
    rate = TAIL_UTILIZATION * len(keys) / closed_wall
    arrival = f"poisson:rate={rate:g}:seed={seed}"

    def row(phase: str, measures: dict, **extra) -> dict:
        base = {
            "scenario": "tail_latency",
            "phase": phase,
            "shards": AGING_SHARDS,
            "replicas": DEGRADED_REPLICAS,
            "queue_depth": TAIL_DEPTH,
            "arrival_rate": round(rate, 2),
            "volume_bytes": volume,
            "objects": len(keys),
            "dead_shards": len(store.dead_shards),
        }
        base.update(measures)
        base.update(extra)
        return base

    sched.set_arrival(arrival)
    rows = [row("fresh", sweep("fresh"),
                build_seconds=round(build_s, 4),
                closed_wall_s=round(closed_wall, 4))]

    # Churn to storage age 2 under closed arrivals (background work,
    # not part of the measured open-loop stream), then re-measure.
    sched.set_arrival("closed")
    for _ in range(AGING_CHURN_AGE * len(keys)):
        store.overwrite(rng.choice(keys), size=AGING_OBJECT)
    sched.set_arrival(arrival)
    rows.append(row("aged", sweep("aged"), storage_age=AGING_CHURN_AGE))

    store.fail_shard(DEGRADED_DEAD_SHARD)
    deg0, fail0 = store.degraded_reads, store.failovers
    rows.append(row("degraded", sweep("degraded"),
                    degraded_reads=store.degraded_reads - deg0,
                    failovers=store.failovers - fail0,
                    under_replicated=len(store.under_replicated())))

    # Throttled rebuild slices interleaved with the same sweep; the
    # phase's histogram sees reads queued behind rebuild copy traffic
    # and the duty-cycle stalls charged through the queue frontier.
    slices = 0
    win = sched.start_window("rebuilding")
    clock0 = sum(d.clock_s for d in store.devices())
    reads = 0
    t0 = time.perf_counter()
    while store.under_replicated():
        report = store.rebuild(rate=DEGRADED_REBUILD_RATE,
                               max_objects=TAIL_REBUILD_SLICE)
        if report.rebuilt_objects == 0:
            raise AssertionError(
                "tail_latency: rebuild slice made no progress with "
                f"{len(store.under_replicated())} keys still hurt")
        slices += 1
        order = list(keys)
        rng.shuffle(order)
        for key in order:
            store.get(key)
        reads += len(order)
    host_s = time.perf_counter() - t0
    sched.end_window(win)
    lat = win.latency
    rows.append(row("rebuilding", {
        "sweep_reads": reads,
        "sweep_host_seconds": round(host_s, 4),
        "sweep_device_s": round(
            sum(d.clock_s for d in store.devices()) - clock0, 4),
        "sweep_wall_s": round(win.wall_time_s, 4),
        "lat_count": lat.count,
        "lat_p50_ms": round(lat.percentile(50) * 1e3, 4),
        "lat_p95_ms": round(lat.percentile(95) * 1e3, 4),
        "lat_p99_ms": round(lat.percentile(99) * 1e3, 4),
        "lat_max_ms": round(lat.max_s * 1e3, 4),
    }, rebuild_slices=slices, rebuild_rate=DEGRADED_REBUILD_RATE))

    rows.append(row("rebuilt", sweep("rebuilt")))

    phases = {r["phase"]: r for r in rows}
    if phases["degraded"]["lat_p99_ms"] < phases["aged"]["lat_p99_ms"]:
        raise AssertionError(
            "tail_latency: degraded p99 "
            f"({phases['degraded']['lat_p99_ms']} ms) undercuts healthy "
            f"p99 ({phases['aged']['lat_p99_ms']} ms)")
    # The queue's books must balance at the end of the scenario.
    sched.drain()
    if not (sched.submitted == sched.completed == sched.latency.count):
        raise AssertionError("tail_latency: scheduler books don't balance")
    return rows


def run_continuous_operation(volume: int, seed: int = 37) -> list[dict]:
    """Foreground tail latency while checkpoints and rebalances run.

    Every grid cell gets its own identically-built store (4 shards,
    ``replicas=2``, ``placement=round_robin``, ``queue=event``): same
    bulk load, same closed-loop calibration, same shuffled sweep
    order, same in-sweep delete/re-put churn bursts, same arrival seed
    — cells differ *only* in the background work their sweep carries,
    so the grid measures the throttles and nothing else (a shared
    store would compound LFS aging phase over phase and swamp the
    signal).  Continuous operation means maintenance interleaves with
    the foreground: the churn (``CONTINUOUS_DRIFT_FRACTION`` of the
    population, spread over ``CONTINUOUS_BURSTS`` bursts) drifts keys
    off their round-robin placement mid-sweep, and each active cell
    answers every burst with ``rebalance(mode="placement", rate=R)``
    riding the background lane, plus ``cadence`` charged checkpoint
    write-backs (real encoded snapshot + pickled-state sizes, duty
    cycle ``CONTINUOUS_CHECKPOINT_RATE``).  The quiescent cell churns
    identically but never rebalances or checkpoints.  The bench raises
    unless every active *foreground* p99 sits strictly above the
    quiescent p99 and, per cadence, p99 falls as the rebalance
    throttle drops.
    """
    import pickle

    from repro.persist import encode_free_index, encode_journal, \
        fs_components

    spec = StoreSpec("lfs", volume_bytes=volume, shards=AGING_SHARDS,
                     placement="round_robin", overlap=True,
                     replicas=DEGRADED_REPLICAS,
                     queue="event", queue_depth=TAIL_DEPTH)
    target = int(volume * OCCUPANCY) // DEGRADED_REPLICAS

    def cell(phase: str, cadence: int = 0,
             rebalance_rate: float | None = None) -> dict:
        """Build, calibrate, drift, and sweep one isolated store."""
        rng = random.Random(seed)
        store = build_store(spec)
        sched = store.scheduler
        keys: list[str] = []
        loaded = 0
        t0 = time.perf_counter()
        while loaded + AGING_OBJECT <= target:
            key = f"o{len(keys)}"
            store.put(key, size=AGING_OBJECT)
            keys.append(key)
            loaded += AGING_OBJECT
        build_s = time.perf_counter() - t0

        # What a checkpoint of this store actually costs on the wire:
        # the per-shard snapshot codecs plus the pickled store state.
        ckpt_bytes = len(pickle.dumps(store))
        for _, fs in fs_components(store):
            ckpt_bytes += len(encode_free_index(fs.free_index))
            ckpt_bytes += len(encode_journal(fs.journal))

        # Calibration (same convention as tail_latency): closed-loop
        # sweep of the fresh store, then a fixed open-loop rate.
        order = list(keys)
        rng.shuffle(order)
        calibration_win = sched.start_window("calibrate")
        for key in order:
            store.get(key)
        sched.end_window(calibration_win)
        closed_wall = calibration_win.wall_time_s
        if closed_wall <= 0.0:
            raise AssertionError(
                "continuous_operation: calibration charged no wall time")
        rate = CONTINUOUS_UTILIZATION * len(keys) / closed_wall

        # Placement drift, spread over the sweep in bursts: each burst
        # delete/re-puts a slice of the population, shifting those keys
        # off the round-robin rotation so the answering rebalance has
        # real copies to make.  Every cell churns the same keys at the
        # same sweep positions; only the active cells answer.
        drift = max(CONTINUOUS_BURSTS,
                    len(keys) // CONTINUOUS_DRIFT_FRACTION)
        drifted = rng.sample(keys, drift)
        group_size = len(drifted) / CONTINUOUS_BURSTS
        groups = [drifted[round(g * group_size):
                          round((g + 1) * group_size)]
                  for g in range(CONTINUOUS_BURSTS)]

        sched.set_arrival(f"poisson:rate={rate:g}:seed={seed}")
        order = list(keys)
        rng.shuffle(order)
        burst_at = {round((g + 1) * len(order) / (CONTINUOUS_BURSTS + 1))
                    - 1: group for g, group in enumerate(groups)}
        ckpt_at = {round((c + 1) * len(order) / (cadence + 1)) - 1
                   for c in range(cadence)}
        clock0 = sum(d.clock_s for d in store.devices())
        moved = 0
        copy_s = 0.0
        stall_s = 0.0
        ckpt_s = 0.0
        win = sched.start_window(phase)
        t0 = time.perf_counter()
        for i, key in enumerate(order):
            store.get(key)
            group = burst_at.get(i)
            if group is not None:
                for name in group:
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
        host_s = time.perf_counter() - t0
        sched.end_window(win)
        sched.drain()
        if not (sched.submitted == sched.completed
                == sched.latency.count):
            raise AssertionError(
                f"continuous_operation[{phase}]: scheduler books "
                "don't balance")
        lat = win.latency
        return {
            "scenario": "continuous_operation",
            "phase": phase,
            "shards": AGING_SHARDS,
            "replicas": DEGRADED_REPLICAS,
            "queue_depth": TAIL_DEPTH,
            "arrival_rate": round(rate, 2),
            "volume_bytes": volume,
            "objects": len(keys),
            "build_seconds": round(build_s, 4),
            "closed_wall_s": round(closed_wall, 4),
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
            "sweep_reads": len(order),
            "sweep_host_seconds": round(host_s, 4),
            "sweep_device_s": round(
                sum(d.clock_s for d in store.devices()) - clock0, 4),
            "sweep_wall_s": round(win.wall_time_s, 4),
            "lat_count": lat.count,
            "lat_p50_ms": round(lat.percentile(50) * 1e3, 4),
            "lat_p95_ms": round(lat.percentile(95) * 1e3, 4),
            "lat_p99_ms": round(lat.percentile(99) * 1e3, 4),
            "lat_max_ms": round(lat.max_s * 1e3, 4),
            "background_requests": win.background_latency.count,
            "background_max_ms": round(
                win.background_latency.max_s * 1e3, 4),
        }

    rows = [cell("quiescent")]
    for cadence in CONTINUOUS_CADENCES:
        for rebalance_rate in CONTINUOUS_REBALANCE_RATES:
            phase = f"ckpt_x{cadence}_rb{rebalance_rate:g}"
            print(f"    continuous_operation: {phase}", flush=True)
            row = cell(phase, cadence=cadence,
                       rebalance_rate=rebalance_rate)
            if row["moved_objects"] == 0:
                raise AssertionError(
                    f"continuous_operation[{phase}]: the placement "
                    "drift produced nothing for the rebalance to move")
            rows.append(row)

    quiescent_p99 = rows[0]["lat_p99_ms"]
    for row in rows[1:]:
        if row["lat_p99_ms"] <= quiescent_p99:
            raise AssertionError(
                f"continuous_operation[{row['phase']}]: active p99 "
                f"({row['lat_p99_ms']} ms) does not exceed the "
                f"quiescent p99 ({quiescent_p99} ms)")
    for cadence in CONTINUOUS_CADENCES:
        series = [row for row in rows[1:]
                  if row["checkpoints"] == cadence]
        p99s = [row["lat_p99_ms"] for row in series]
        if any(later > earlier for earlier, later in zip(p99s, p99s[1:])):
            raise AssertionError(
                f"continuous_operation: p99 did not fall as the "
                f"rebalance throttle dropped at cadence {cadence}: "
                f"{[(r['phase'], r['lat_p99_ms']) for r in series]}")
        if p99s[-1] >= p99s[0]:
            raise AssertionError(
                f"continuous_operation: heaviest throttle "
                f"({series[-1]['phase']}) must beat unthrottled "
                f"({series[0]['phase']}): {p99s}")
    return rows


def run_checkpoint_resume(volume: int, seed: int = 23) -> list[dict]:
    """Kill an aging run after its mid-run checkpoint and resume it.

    The resumed run record must reproduce the uninterrupted baseline
    byte for byte (``RunResult.to_dict()`` equality); a divergence
    raises, so the CI smoke of this scenario is the regression gate.
    The reported numbers are the cost side: checkpoint directory size
    and host seconds spent saving and resuming.
    """
    from repro.core.experiment import ExperimentConfig, ExperimentRunner
    from repro.core.workload import ConstantSize

    configs = [
        ("tiered", StoreSpec("filesystem", volume_bytes=volume)),
        ("naive", StoreSpec("filesystem", volume_bytes=volume,
                            options={"index_kind": "naive"})),
        ("sharded", StoreSpec("filesystem", volume_bytes=volume,
                              shards=3)),
    ]

    class _Killed(Exception):
        pass

    rows = []
    for label, spec in configs:
        print(f"    checkpoint_resume: {label}", flush=True)
        cfg = ExperimentConfig(store=spec, sizes=ConstantSize(AGING_OBJECT),
                               occupancy=0.4, ages=RESUME_AGES,
                               reads_per_sample=16, seed=seed)
        baseline = ExperimentRunner(cfg).run()
        with tempfile.TemporaryDirectory() as directory:
            kill_age = RESUME_AGES[1]

            def killer(phase: str, value: float) -> None:
                if phase == "checkpoint" and value == kill_age:
                    raise _Killed

            t0 = time.perf_counter()
            try:
                ExperimentRunner(cfg, progress=killer,
                                 checkpoint_dir=directory).run()
                raise RuntimeError("kill point never fired")
            except _Killed:
                pass
            killed_s = time.perf_counter() - t0
            checkpoint_bytes = sum(
                f.stat().st_size
                for f in Path(directory).rglob("*") if f.is_file()
            )
            t0 = time.perf_counter()
            resumed = ExperimentRunner(cfg, checkpoint_dir=directory,
                                       resume=True).run()
            resume_s = time.perf_counter() - t0
        if resumed.to_dict() != baseline.to_dict():
            raise AssertionError(
                f"checkpoint_resume[{label}]: resumed run record "
                "diverged from the uninterrupted baseline"
            )
        rows.append({
            "scenario": "checkpoint_resume",
            "config": label,
            "volume_bytes": volume,
            "ages": list(RESUME_AGES),
            "objects": baseline.objects_loaded,
            "samples": len(baseline.samples),
            "match": True,
            "checkpoint_bytes": checkpoint_bytes,
            "killed_run_seconds": round(killed_s, 4),
            "resume_seconds": round(resume_s, 4),
        })
    return rows


def run_scenario_matrix(volume: int, seed: int = 41) -> list[dict]:
    """Workloads x store configs, winner = lowest final-age read p99.

    The paper loop's single-tenant uniform churn picks one winner; the
    multi-tenant scenario presets (Zipf-popular reads, TTL churn,
    bursty tenant mixes, very different size distributions) pick their
    own.  The bench raises unless at least one scenario's winner
    differs from the paper loop's — if the workload mix never changed
    the answer, the scenario engine would be measuring nothing — and
    unless every scenario sample's per-tenant counts sum to its global
    interval count (the reconciliation invariant the scenario suite
    also pins).
    """
    from repro.core.experiment import ExperimentConfig, run_experiment
    from repro.core.workload import ConstantSize
    from repro.scenario.spec import ScenarioSpec

    rows = []
    winners: dict[str, str] = {}
    for workload, scenario_text in SCENARIO_MATRIX_WORKLOADS:
        best: tuple[str, float] | None = None
        for config, store_text in SCENARIO_MATRIX_CONFIGS:
            print(f"    scenario_matrix: {workload} on {config}",
                  flush=True)
            cfg = ExperimentConfig(
                store=StoreSpec.parse(store_text, volume_bytes=volume),
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
            aged = [s for s in result.samples if s.age > 0]
            if scenario_text is not None:
                for sample in aged:
                    tenant_total = sum(
                        t["count"] for t in sample.tenant_lat.values())
                    if tenant_total != sample.scenario_lat["count"]:
                        raise AssertionError(
                            f"scenario_matrix[{workload}/{config}]: "
                            f"tenant counts ({tenant_total}) != global "
                            f"({sample.scenario_lat['count']}) at age "
                            f"{sample.age:.2f}")
            last = result.samples[-1]
            p99_ms = last.read_lat_p99_s * 1e3
            if p99_ms <= 0:
                raise AssertionError(
                    f"scenario_matrix[{workload}/{config}]: event store "
                    "reported no read-sweep p99")
            rows.append({
                "scenario": "scenario_matrix",
                "workload": workload,
                "workload_spec": (cfg.scenario.text() if cfg.scenario
                                  else "uniform-churn"),
                "config": config,
                "store": store_text,
                "volume_bytes": volume,
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
            if best is None or p99_ms < best[1]:
                best = (config, p99_ms)
        assert best is not None
        winners[workload] = best[0]
        for row in rows:
            if (row["scenario"] == "scenario_matrix"
                    and row["workload"] == workload):
                row["winner"] = row["config"] == best[0]

    paper_winner = winners["paper"]
    divergent = [w for w, c in winners.items()
                 if w != "paper" and c != paper_winner]
    if not divergent:
        raise AssertionError(
            "scenario_matrix: every workload picked the paper-loop "
            f"winner ({paper_winner}); the tenant mixes changed nothing")
    print(f"    scenario_matrix: paper winner {paper_winner}, "
          f"divergent: {', '.join(f'{w}->{winners[w]}' for w in divergent)}",
          flush=True)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small volume/segment counts (CI smoke)")
    parser.add_argument("--volumes", type=str, default=None,
                        help="comma-separated volume sizes in bytes")
    parser.add_argument("--index", type=str, default="tiered,naive",
                        help="comma-separated engines to measure")
    parser.add_argument("--scenarios", type=str, default=",".join(SCENARIOS),
                        help=f"comma-separated subset of {SCENARIOS}")
    parser.add_argument("--segments", type=int, default=None,
                        help="segment count for the segment_store scenario")
    parser.add_argument("--requests", type=int, default=None,
                        help="request count for the batched_writes scenario")
    parser.add_argument("--batch", type=int, default=DEFAULT_BATCH,
                        help="requests per submit() in batched_writes")
    parser.add_argument("--aging-volume", type=int, default=None,
                        help="volume size in bytes for sharded_aging")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).parent /
                        "BENCH_scale_volume.json")
    args = parser.parse_args(argv)

    if args.volumes:
        volumes = tuple(int(v) for v in args.volumes.split(","))
    else:
        volumes = QUICK_VOLUMES if args.quick else DEFAULT_VOLUMES
    kinds = tuple(args.index.split(","))
    scenarios = tuple(args.scenarios.split(","))
    for name in scenarios:
        if name not in SCENARIOS:
            parser.error(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    nsegments = args.segments or (
        QUICK_SEGMENTS if args.quick else DEFAULT_SEGMENTS)
    nrequests = args.requests or (
        QUICK_REQUESTS if args.quick else DEFAULT_REQUESTS)

    rows = []
    if "fs_churn" in scenarios:
        for volume in volumes:
            for kind in kinds:
                print(f"... fs_churn {kind} @ {volume // MB} MB volume",
                      flush=True)
                rows.append(run_volume(kind, volume))
    if "segment_store" in scenarios:
        print(f"... segment_store @ {nsegments} segments", flush=True)
        rows.extend(run_segment_store(nsegments))
    if "batched_writes" in scenarios:
        print(f"... batched_writes @ {nrequests} requests, "
              f"batch {args.batch}", flush=True)
        rows.extend(run_batched_writes(nrequests, args.batch))
    if "sharded_aging" in scenarios:
        aging_volume = args.aging_volume or (
            QUICK_AGING_VOLUME if args.quick else AGING_VOLUME)
        print(f"... sharded_aging @ {aging_volume // MB} MB volume, "
              f"{AGING_SHARDS} shards", flush=True)
        rows.extend(run_sharded_aging(aging_volume))
    if "shard_skew" in scenarios:
        skew_volume = args.aging_volume or (
            QUICK_AGING_VOLUME if args.quick else AGING_VOLUME)
        print(f"... shard_skew @ {skew_volume // MB} MB volume, "
              f"{AGING_SHARDS} shards", flush=True)
        rows.extend(run_shard_skew(skew_volume))
    if "degraded_aging" in scenarios:
        degraded_volume = args.aging_volume or (
            QUICK_AGING_VOLUME if args.quick else AGING_VOLUME)
        print(f"... degraded_aging @ {degraded_volume // MB} MB volume, "
              f"{AGING_SHARDS} shards, replicas={DEGRADED_REPLICAS}",
              flush=True)
        rows.extend(run_degraded_aging(degraded_volume))
    if "tail_latency" in scenarios:
        tail_volume = args.aging_volume or (
            QUICK_AGING_VOLUME if args.quick else AGING_VOLUME)
        print(f"... tail_latency @ {tail_volume // MB} MB volume, "
              f"{AGING_SHARDS} shards, replicas={DEGRADED_REPLICAS}, "
              f"queue=event depth={TAIL_DEPTH}", flush=True)
        rows.extend(run_tail_latency(tail_volume))
    if "continuous_operation" in scenarios:
        continuous_volume = args.aging_volume or (
            QUICK_AGING_VOLUME if args.quick else AGING_VOLUME)
        print(f"... continuous_operation @ {continuous_volume // MB} MB "
              f"volume, {AGING_SHARDS} shards, cadence x rate grid "
              f"{CONTINUOUS_CADENCES} x {CONTINUOUS_REBALANCE_RATES}",
              flush=True)
        rows.extend(run_continuous_operation(continuous_volume))
    if "checkpoint_resume" in scenarios:
        resume_volume = QUICK_RESUME_VOLUME if args.quick else RESUME_VOLUME
        print(f"... checkpoint_resume @ {resume_volume // MB} MB volume",
              flush=True)
        rows.extend(run_checkpoint_resume(resume_volume))
    if "scenario_matrix" in scenarios:
        matrix_volume = args.aging_volume or (
            QUICK_AGING_VOLUME if args.quick else AGING_VOLUME)
        print(f"... scenario_matrix @ {matrix_volume // MB} MB volume, "
              f"{len(SCENARIO_MATRIX_WORKLOADS)} workloads x "
              f"{len(SCENARIO_MATRIX_CONFIGS)} configs", flush=True)
        rows.extend(run_scenario_matrix(matrix_volume))

    speedups: dict[str, float] = {}
    seg = {r["store"]: r for r in rows
           if r.get("scenario") == "segment_store"}
    if {"flat", "blocked"} <= seg.keys():
        for phase in ("write", "read"):
            blocked = seg["blocked"][f"{phase}_us_per_op"]
            if blocked > 0:
                speedups[f"segment_store_{phase}@{nsegments}"] = round(
                    seg["flat"][f"{phase}_us_per_op"] / blocked, 2)
    modes = {r["mode"]: r for r in rows
             if r.get("scenario") == "batched_writes"}
    if {"per_request", "batched"} <= modes.keys():
        batched_us = modes["batched"]["host_us_per_op"]
        if batched_us > 0:
            speedups[f"batched_host@{nrequests}"] = round(
                modes["per_request"]["host_us_per_op"] / batched_us, 2)
    aging = {r["config"]: r for r in rows
             if r.get("scenario") == "sharded_aging"}
    if {"single", "sharded_clook"} <= aging.keys():
        clook_s = aging["sharded_clook"]["sweep_device_s"]
        if clook_s > 0:
            speedups["sharded_clook_read_device_time"] = round(
                aging["single"]["sweep_device_s"] / clook_s, 2)
    if {"single", "sharded_overlap"} <= aging.keys():
        overlap_wall = aging["sharded_overlap"]["sweep_wall_s"]
        if overlap_wall > 0:
            speedups["sharded_overlap_read_wall_time"] = round(
                aging["single"]["sweep_device_s"] / overlap_wall, 2)
    skew = [r for r in rows if r.get("scenario") == "shard_skew"]
    if skew and skew[0]["occupancy_skew_after"] > 0:
        speedups["shard_skew_reduction"] = round(
            skew[0]["occupancy_skew_before"]
            / skew[0]["occupancy_skew_after"], 2)
    phases = {r["phase"]: r for r in rows
              if r.get("scenario") == "degraded_aging"}
    if {"healthy", "degraded"} <= phases.keys():
        healthy_wall = phases["healthy"]["sweep_wall_s"]
        if healthy_wall > 0:
            speedups["degraded_read_wall_penalty"] = round(
                phases["degraded"]["sweep_wall_s"] / healthy_wall, 2)
    if {"healthy", "rebuilt"} <= phases.keys():
        healthy_wall = phases["healthy"]["sweep_wall_s"]
        if healthy_wall > 0:
            speedups["rebuilt_read_wall_penalty"] = round(
                phases["rebuilt"]["sweep_wall_s"] / healthy_wall, 2)
    tail = {r["phase"]: r for r in rows
            if r.get("scenario") == "tail_latency"}
    if {"fresh", "aged"} <= tail.keys() and tail["fresh"]["lat_p99_ms"] > 0:
        speedups["aged_p99_inflation"] = round(
            tail["aged"]["lat_p99_ms"] / tail["fresh"]["lat_p99_ms"], 2)
    if {"aged", "degraded"} <= tail.keys() and tail["aged"]["lat_p99_ms"] > 0:
        speedups["degraded_p99_penalty"] = round(
            tail["degraded"]["lat_p99_ms"] / tail["aged"]["lat_p99_ms"], 2)
    continuous = {r["phase"]: r for r in rows
                  if r.get("scenario") == "continuous_operation"}
    if continuous:
        heavy = continuous.get("ckpt_x1_rb1")
        throttled = continuous.get("ckpt_x1_rb0.25")
        quiescent = continuous.get("quiescent")
        if heavy and quiescent and quiescent["lat_p99_ms"] > 0:
            speedups["continuous_active_p99_inflation"] = round(
                heavy["lat_p99_ms"] / quiescent["lat_p99_ms"], 2)
        if heavy and throttled and throttled["lat_p99_ms"] > 0:
            speedups["continuous_throttle_p99_relief"] = round(
                heavy["lat_p99_ms"] / throttled["lat_p99_ms"], 2)
    matrix = [r for r in rows if r.get("scenario") == "scenario_matrix"]
    if matrix:
        matrix_winners = {r["workload"]: r["config"]
                          for r in matrix if r["winner"]}
        paper_winner = matrix_winners.get("paper")
        if paper_winner:
            speedups["scenario_matrix_divergent_winners"] = sum(
                1 for w, c in matrix_winners.items()
                if w != "paper" and c != paper_winner)

    report = {
        "schema": "bench-scale-volume/9",
        "generated_by": "benchmarks/bench_scale_volume.py",
        "python": platform.python_version(),
        "config": {
            "file_bytes": FILE_BYTES,
            "request_bytes": REQUEST_BYTES,
            "occupancy": OCCUPANCY,
            "churn_ops": CHURN_OPS,
            "segments": nsegments,
            "segment_bytes": SEGMENT_BYTES,
            "requests": nrequests,
            "batch": args.batch,
            "aging_object_bytes": AGING_OBJECT,
            "aging_shards": AGING_SHARDS,
            "aging_read_batch": AGING_READ_BATCH,
            "aging_churn_age": AGING_CHURN_AGE,
            "degraded_replicas": DEGRADED_REPLICAS,
            "degraded_dead_shard": DEGRADED_DEAD_SHARD,
            "degraded_rebuild_rate": DEGRADED_REBUILD_RATE,
            "degraded_rebuild_slice": DEGRADED_REBUILD_SLICE,
            "tail_depth": TAIL_DEPTH,
            "tail_utilization": TAIL_UTILIZATION,
            "tail_rebuild_slice": TAIL_REBUILD_SLICE,
            "continuous_cadences": list(CONTINUOUS_CADENCES),
            "continuous_rebalance_rates": list(CONTINUOUS_REBALANCE_RATES),
            "continuous_checkpoint_rate": CONTINUOUS_CHECKPOINT_RATE,
            "continuous_drift_fraction": CONTINUOUS_DRIFT_FRACTION,
            "continuous_bursts": CONTINUOUS_BURSTS,
            "continuous_utilization": CONTINUOUS_UTILIZATION,
            "resume_ages": list(RESUME_AGES),
            "scenario_matrix_configs": [c for c, _ in
                                        SCENARIO_MATRIX_CONFIGS],
            "scenario_matrix_workloads": [w for w, _ in
                                          SCENARIO_MATRIX_WORKLOADS],
            "scenario_matrix_ages": list(SCENARIO_MATRIX_AGES),
            "scenarios": list(scenarios),
        },
        "results": rows,
        "speedups": speedups,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    churn = [r for r in rows if r.get("scenario") == "fs_churn"]
    if churn:
        print(f"\n{'volume':>10s} {'index':>7s} {'files':>7s} "
              f"{'build s':>8s} {'churn us/op':>12s} {'free runs':>10s}")
        for r in churn:
            print(f"{r['volume_bytes'] // MB:>8d}MB {r['index']:>7s} "
                  f"{r['files']:>7d} {r['build_seconds']:>8.2f} "
                  f"{r['churn_us_per_op']:>12.1f} {r['free_runs']:>10d}")
    if seg:
        print(f"\n{'store':>8s} {'segments':>9s} {'write us/op':>12s} "
              f"{'read us/op':>11s}")
        for r in seg.values():
            print(f"{r['store']:>8s} {r['segments']:>9d} "
                  f"{r['write_us_per_op']:>12.2f} "
                  f"{r['read_us_per_op']:>11.2f}")
    if modes:
        print(f"\n{'mode':>17s} {'batch':>6s} {'host us/op':>11s} "
              f"{'device s':>9s} {'seeks':>8s} {'records':>8s}")
        for r in modes.values():
            print(f"{r['mode']:>17s} {r['batch']:>6d} "
                  f"{r['host_us_per_op']:>11.2f} "
                  f"{r['modelled_device_s']:>9.2f} "
                  f"{r['modelled_seeks']:>8d} {r['stats_records']:>8d}")
    aging_rows = [r for r in rows if r.get("scenario") == "sharded_aging"]
    if aging_rows:
        print(f"\n{'config':>15s} {'shards':>6s} {'reorder':>8s} "
              f"{'objects':>8s} {'sweep dev s':>12s} {'sweep wall s':>13s} "
              f"{'sweep seeks':>12s}")
        for r in aging_rows:
            print(f"{r['config']:>15s} {r['shards']:>6d} "
                  f"{r['reorder']:>8s} {r['objects']:>8d} "
                  f"{r['sweep_device_s']:>12.3f} "
                  f"{r['sweep_wall_s']:>13.3f} {r['sweep_seeks']:>12d}")
    for r in (r for r in rows if r.get("scenario") == "shard_skew"):
        print(f"\nshard_skew: {r['objects']} objects on {r['shards']} "
              f"shards, skew {r['occupancy_skew_before']:.3f} -> "
              f"{r['occupancy_skew_after']:.3f} after moving "
              f"{r['moved_objects']} objects "
              f"({r['moved_bytes'] // MB} MB); aged sweep wall "
              f"{r['sweep_wall_s_before']:.3f}s -> "
              f"{r['sweep_wall_s_after']:.3f}s")
    degraded_rows = [r for r in rows
                     if r.get("scenario") == "degraded_aging"]
    if degraded_rows:
        print(f"\n{'phase':>11s} {'reads':>6s} {'sweep dev s':>12s} "
              f"{'sweep wall s':>13s} {'degraded':>9s} {'failovers':>10s}")
        for r in degraded_rows:
            print(f"{r['phase']:>11s} {r['sweep_reads']:>6d} "
                  f"{r['sweep_device_s']:>12.3f} "
                  f"{r['sweep_wall_s']:>13.3f} "
                  f"{r['degraded_reads']:>9d} {r['failovers']:>10d}")
        rebuilding = [r for r in degraded_rows
                      if r["phase"] == "rebuilding"]
        for r in rebuilding:
            print(f"rebuild: {r['rebuilt_objects']} objects "
                  f"({r['rebuilt_bytes'] // MB} MB) in "
                  f"{r['rebuild_slices']} slices at rate "
                  f"{r['rebuild_rate']}, copy "
                  f"{r['rebuild_copy_device_s']:.3f}s + stall "
                  f"{r['rebuild_stall_s']:.3f}s")
    tail_rows = [r for r in rows if r.get("scenario") == "tail_latency"]
    if tail_rows:
        print(f"\n{'phase':>11s} {'reads':>6s} {'wall s':>8s} "
              f"{'p50 ms':>8s} {'p95 ms':>8s} {'p99 ms':>8s} "
              f"{'max ms':>8s}")
        for r in tail_rows:
            print(f"{r['phase']:>11s} {r['sweep_reads']:>6d} "
                  f"{r['sweep_wall_s']:>8.3f} {r['lat_p50_ms']:>8.2f} "
                  f"{r['lat_p95_ms']:>8.2f} {r['lat_p99_ms']:>8.2f} "
                  f"{r['lat_max_ms']:>8.2f}")
    continuous_rows = [r for r in rows
                       if r.get("scenario") == "continuous_operation"]
    if continuous_rows:
        print(f"\n{'phase':>16s} {'ckpts':>6s} {'rb rate':>8s} "
              f"{'moved':>6s} {'stall s':>8s} {'wall s':>8s} "
              f"{'p50 ms':>8s} {'p99 ms':>8s}")
        for r in continuous_rows:
            rb = "-" if r["rebalance_rate"] is None \
                else f"{r['rebalance_rate']:g}"
            print(f"{r['phase']:>16s} {r['checkpoints']:>6d} {rb:>8s} "
                  f"{r['moved_objects']:>6d} "
                  f"{r['rebalance_stall_s']:>8.3f} "
                  f"{r['sweep_wall_s']:>8.3f} {r['lat_p50_ms']:>8.2f} "
                  f"{r['lat_p99_ms']:>8.2f}")
    resume_rows = [r for r in rows
                   if r.get("scenario") == "checkpoint_resume"]
    if resume_rows:
        print(f"\n{'config':>8s} {'objects':>8s} {'ckpt KB':>8s} "
              f"{'resume s':>9s} {'match':>6s}")
        for r in resume_rows:
            print(f"{r['config']:>8s} {r['objects']:>8d} "
                  f"{r['checkpoint_bytes'] // 1024:>8d} "
                  f"{r['resume_seconds']:>9.3f} {str(r['match']):>6s}")
    matrix_rows = [r for r in rows
                   if r.get("scenario") == "scenario_matrix"]
    if matrix_rows:
        print(f"\n{'workload':>14s} {'config':>10s} {'rd MB/s':>8s} "
              f"{'p50 ms':>8s} {'p99 ms':>8s} {'winner':>7s}")
        for r in matrix_rows:
            print(f"{r['workload']:>14s} {r['config']:>10s} "
                  f"{r['read_wall_mbps']:>8.2f} {r['read_p50_ms']:>8.2f} "
                  f"{r['read_p99_ms']:>8.2f} "
                  f"{'*' if r['winner'] else '':>7s}")
    if speedups:
        print("\nspeedups: " + ", ".join(
            f"{k}: {v}x" for k, v in speedups.items()))
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
