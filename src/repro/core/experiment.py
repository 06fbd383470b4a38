"""The aging-experiment driver behind every figure.

One run = one backend, one volume, one workload: bulk load to the target
occupancy (storage age 0), then alternate churn intervals and sampling
points.  At each sampled age the driver records fragments/object (extent
maps), a timed random-read sweep, and the average write throughput of
the churn interval that led here — matching how the paper pairs its
read and write measurements (Section 5.3).

The configuration defaults are scaled-down versions of the paper's
(docs/benchmarks.md, "Contract, scaling and calibration"): the
free-object pool and the request-size ratios that drive fragmentation
are preserved while volumes shrink from 400 GB to single-digit GB so a
run takes seconds, not a week.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from repro.backends.base import ObjectStore
from repro.backends.registry import backend_names, build_store, resolve_spec
from repro.backends.spec import StoreSpec
from repro.core.fragmentation import fragment_report
from repro.core.results import AgeSample, RunResult
from repro.core.throughput import measure, measure_read_throughput
from repro.core.workload import (
    SizeDistribution,
    WorkloadSpec,
    WorkloadState,
    bulk_load,
    churn_to_age,
)
from repro.errors import ConfigError
from repro.persist import (
    CheckpointManager,
    cross_check,
    decode_free_index,
    encode_free_index,
    encode_journal,
    fs_components,
    rebuild_fs_free_index,
    verify_journal,
)
from repro.rng import substream
from repro.scenario.engine import (
    ScenarioState,
    scenario_bulk_load,
    scenario_to_age,
)
from repro.scenario.spec import ScenarioSpec
from repro.units import fmt_size

#: The ``repro`` package directory, whose source ``checkpoint_schema``
#: fingerprints.
_PACKAGE = Path(__file__).resolve().parent.parent


@functools.cache
def checkpoint_schema(package: Path = _PACKAGE) -> str:
    """Manifest tag of experiment checkpoints (see ``_save_checkpoint``).

    ``state.pkl`` pickles the whole simulator, and a resumed run must
    give the uninterrupted run's record, so a checkpoint resumes only
    under the code that wrote it: the tag is ``run-checkpoint/`` plus the
    first 16 hex digits of a sha256 over every ``*.py`` file of the
    package, taken in sorted relative-posix-path order, each
    contributing ``path + b"\\0" + bytes``.  Any source edit therefore
    refuses older checkpoints with a schema error (and cuts delta
    chains).  Computed once per process, on first use.
    """
    digest = hashlib.sha256()
    files = {path.relative_to(package).as_posix(): path
             for path in package.rglob("*.py")}
    for rel in sorted(files):
        digest.update(rel.encode() + b"\0" + files[rel].read_bytes())
    return "run-checkpoint/" + digest.hexdigest()[:16]


#: Every registered backend, derived from the registry — not a
#: hand-maintained tuple.
BACKENDS = backend_names()


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one curve of one figure.

    ``store`` says what to run on: the :class:`StoreSpec` names the
    backend, volume, write-request size, device policy, per-backend
    options (``size_hints``, ``fs_config``, ``db_config``, ...) and
    shard layout.  The rest says what to do to it.
    ``backend``/``volume_bytes``/``write_request``/``store_data`` are
    read-only views of the spec.
    """

    store: StoreSpec
    sizes: SizeDistribution | None = None
    occupancy: float = 0.5
    ages: tuple[float, ...] = (0.0, 2.0, 4.0)
    #: Whole-object reads per sampling point.
    reads_per_sample: int = 64
    seed: int = 42
    label: str = ""
    #: Sampled ages after which the driver rebalances a sharded store
    #: (mode="even" occupancy-levelling migration; see
    #: :meth:`repro.backends.sharded.ShardedStore.rebalance`).  Must be
    #: a subset of ``ages``; ignored-with-error for unsharded stores.
    rebalance_ages: tuple[float, ...] = ()
    #: Sampled ages after which the driver runs a background
    #: :meth:`~repro.backends.sharded.ShardedStore.rebuild` pass,
    #: re-replicating under-replicated objects (throttled by the spec's
    #: ``rebuild_rate``).  Must be a subset of ``ages``; needs a sharded
    #: store.  Shard-loss fault clauses (``loss:...at_age=A``) fire
    #: right after the sample at age ``A`` and before any rebuild, so
    #: the sample at the loss age still sees the healthy store and the
    #: next one the degraded (or rebuilt) one.
    rebuild_ages: tuple[float, ...] = ()
    #: Multi-tenant scenario replacing the paper's single-tenant churn
    #: (see :mod:`repro.scenario`).  With a scenario set, ``sizes`` may
    #: be omitted — it defaults to the scenario's share-weighted mean
    #: object size (used only for planning labels; each tenant draws
    #: from its own distribution).
    scenario: ScenarioSpec | None = None

    def __post_init__(self) -> None:
        if self.sizes is None:
            if self.scenario is None:
                raise ConfigError("a size distribution is required")
            from repro.core.workload import ConstantSize

            mean = max(1, round(self.scenario.mean_object_size))
            object.__setattr__(self, "sizes", ConstantSize(mean))
        # Unknown backends and bad options fail here, not mid-run.
        sharded = resolve_spec(self.store).shards > 1
        if not self.ages or list(self.ages) != sorted(self.ages):
            raise ConfigError("ages must be a non-empty ascending sequence")
        if not all(0.0 <= age < math.inf for age in self.ages):
            raise ConfigError(f"ages must be finite and >= 0: {self.ages}")
        if not 0.0 < self.occupancy < 1.0:
            raise ConfigError(
                f"occupancy must be in (0, 1), got {self.occupancy}")
        if self.reads_per_sample < 1:
            raise ConfigError("reads_per_sample must be >= 1")
        for name, verb in (("rebalance_ages", "rebalancing"),
                           ("rebuild_ages", "rebuild")):
            chosen = getattr(self, name)
            if not chosen:
                continue
            missing = set(chosen) - set(self.ages)
            if missing:
                raise ConfigError(
                    f"{name} {sorted(missing)} are not sampled "
                    f"ages; {verb} happens after a sample"
                )
            if not sharded:
                raise ConfigError(
                    f"{name} needs a sharded store (shards > 1)"
                )

    @property
    def backend(self) -> str:
        return self.store.backend

    @property
    def volume_bytes(self) -> int:
        return self.store.volume_bytes

    @property
    def write_request(self) -> int:
        return self.store.write_request

    @property
    def store_data(self) -> bool:
        return self.store.store_data

    def display_label(self) -> str:
        if self.label:
            return self.label
        shards = self.store.shards
        backend = self.backend if shards <= 1 else \
            f"{self.backend}x{shards}"
        middle = (self.scenario.text() if self.scenario is not None
                  else str(self.sizes))
        return (f"{backend}/{middle}"
                f"/{fmt_size(self.volume_bytes)}@{self.occupancy:.0%}")

    def to_dict(self) -> dict:
        # The fully resolved spec (converted options, device policy,
        # shard layout) so a result file alone attributes any ablation;
        # ``size_hints`` is read off it for the same reason.  The
        # ``index_kind`` echo names the free-space engine a filesystem
        # runs (there is one) and is None for the other backends.
        resolved = resolve_spec(self.store)
        return {
            "backend": self.backend,
            "sizes": str(self.sizes),
            "volume_bytes": self.volume_bytes,
            "occupancy": self.occupancy,
            "write_request": self.write_request,
            "ages": list(self.ages),
            "reads_per_sample": self.reads_per_sample,
            "seed": self.seed,
            "size_hints": resolved.option("size_hints", False),
            "index_kind": ("tiered" if resolved.backend == "filesystem"
                           else None),
            "rebalance_ages": list(self.rebalance_ages),
            "rebuild_ages": list(self.rebuild_ages),
            "scenario": (self.scenario.to_dict()
                         if self.scenario is not None else None),
            "store": resolved.to_dict(),
        }


@dataclass
class ExperimentRunner:
    """Runs one configuration end to end.

    With ``checkpoint_dir`` set, a resumable checkpoint is written after
    every sampled age (see ``_save_checkpoint`` for the format); with
    ``resume=True`` the runner restores the newest valid checkpoint in
    that directory — cross-checking the restored free index against its
    byte-stable snapshot *and* a rebuild from the extent maps — and
    continues with the remaining ages.  A resumed run reproduces the
    uninterrupted run's record exactly: all state, including RNG
    streams and per-device IoStats, travels with the checkpoint.
    """

    config: ExperimentConfig
    #: Optional progress callback: (phase_name, detail_float).
    progress: object = None
    store: ObjectStore | None = None
    state: WorkloadState | None = None
    #: Scenario-mode driver state (None for paper-loop runs); pickled
    #: whole inside the checkpoint so resumed scenario runs replay the
    #: identical op stream.
    scenario_state: ScenarioState | None = None
    #: Directory for resumable checkpoints; None disables them.
    checkpoint_dir: str | Path | None = None
    #: Restore from ``checkpoint_dir`` before running (fresh run when
    #: the directory holds no valid checkpoint).
    resume: bool = False
    #: Checkpoint retention: published heads to keep (plus whatever
    #: their delta chains still need; see CheckpointManager).
    checkpoint_keep: int = 2
    #: Full-snapshot cadence: every Nth checkpoint is self-contained,
    #: the ones between are stored as deltas against their predecessor.
    checkpoint_full_interval: int = 4
    _read_rng_seed: int = field(init=False, default=0)
    #: Stored payload bytes of the last published checkpoint; the next
    #: save charges this as background write-back (see
    #: ``_save_checkpoint``).  Travels with the checkpoint via the
    #: loaded manifest, so resumed runs charge identically.
    _prev_checkpoint_bytes: int = field(init=False, default=0)

    def _notify(self, phase: str, value: float) -> None:
        if callable(self.progress):
            self.progress(phase, value)

    def run(self) -> RunResult:
        cfg = self.config
        manager = None
        if self.checkpoint_dir is not None:
            manager = CheckpointManager(
                self.checkpoint_dir, keep=self.checkpoint_keep,
                full_interval=self.checkpoint_full_interval)
        restored = None
        if manager is not None and self.resume:
            restored = self._restore_checkpoint(manager)
        if restored is not None:
            result, read_rng, last_write_mbps, done_ages = restored
            store, state = self.store, self.state
        else:
            self.store = store = build_store(cfg.store)
            spec = WorkloadSpec(
                sizes=cfg.sizes,
                target_occupancy=cfg.occupancy,
                write_request=cfg.write_request,
                with_content=cfg.store_data,
            )
            result = RunResult(
                backend=cfg.backend,
                label=cfg.display_label(),
                config=cfg.to_dict(),
            )
            rng = substream(cfg.seed, "workload")
            read_rng = substream(cfg.seed, "reads")

            # Phase 0: bulk load (storage age zero).
            self._notify("bulk-load", 0.0)
            with measure(store, "bulk-load") as phase:
                if cfg.scenario is not None:
                    self.scenario_state = scenario_bulk_load(
                        store, spec, cfg.scenario, cfg.seed)
                    self.state = state = self.scenario_state.workload
                else:
                    self.state = state = bulk_load(store, spec, rng)
                phase.add_bytes(state.tracker.live_bytes)
            result.bulk_load_write_mbps = phase.mbps
            result.objects_loaded = len(state.keys)
            result.live_bytes = state.tracker.live_bytes
            last_write_mbps = result.bulk_load_write_mbps
            done_ages = []

        for target_age in cfg.ages:
            if target_age in done_ages:
                continue
            scenario_lat: dict = {}
            tenant_lat: dict | None = None
            if state.tracker.storage_age < target_age:
                self._notify("churn", target_age)
                if cfg.scenario is not None:
                    scn = self.scenario_state
                    assert scn is not None
                    before = scn.bytes_written
                    with measure(store,
                                 f"scenario-to-{target_age:g}") as phase:
                        scenario_to_age(store, scn, target_age,
                                        tagged=phase.tagged)
                        phase.add_bytes(scn.bytes_written - before)
                    last_write_mbps = phase.mbps
                    scenario_lat = phase.latency
                    tenant_lat = phase.tenant_lat
                else:
                    before = state.bytes_overwritten
                    with measure(store,
                                 f"churn-to-{target_age:g}") as phase:
                        churn_to_age(store, state, target_age)
                        phase.add_bytes(state.bytes_overwritten - before)
                    last_write_mbps = phase.mbps
            self._notify("sample", target_age)
            result.samples.append(
                self._sample(store, state, target_age,
                             last_write_mbps, read_rng,
                             scenario_lat=scenario_lat,
                             tenant_lat=tenant_lat)
            )
            if target_age in cfg.rebalance_ages:
                # Occupancy-levelling migration between shards; happens
                # after the sample (so the sample sees the skewed
                # layout) and before the checkpoint (so a resume lands
                # on the rebalanced store, reproducing the
                # uninterrupted run exactly).
                self._notify("rebalance", target_age)
                store.rebalance(mode="even")
            # Scheduled shard losses fire after the sample (so the
            # sample at the trigger age still measures the healthy
            # store) and before any rebuild at the same age.
            fire = getattr(store, "apply_age_faults", None)
            if fire is not None:
                for index in fire(target_age):
                    self._notify("shard-loss", float(index))
            if target_age in cfg.rebuild_ages:
                self._notify("rebuild", target_age)
                store.rebuild()
            done_ages.append(target_age)
            if manager is not None:
                self._save_checkpoint(manager, result, read_rng,
                                      last_write_mbps, done_ages)
                self._notify("checkpoint", target_age)
        return result

    # ------------------------------------------------------------------
    # Checkpoint/resume
    # ------------------------------------------------------------------
    def _config_hash(self) -> str:
        """Fingerprint of everything that determines the run."""
        blob = json.dumps(self.config.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _save_checkpoint(self, manager: CheckpointManager,
                         result: RunResult, read_rng: Random,
                         last_write_mbps: float,
                         done_ages: list[float]) -> None:
        """One checkpoint = full pickled run state + per-volume snapshots.

        ``state.pkl`` carries everything a resume needs (store, workload
        state, partial result, RNG streams).  Alongside it, every
        filesystem volume inside the store — one for the filesystem
        backend, one per shard for a sharded store — contributes a
        byte-stable free-index snapshot and a journal-state snapshot;
        on load these are cross-checked against the unpickled state and
        against a rebuild from the extent maps, so a torn checkpoint is
        rejected instead of resumed.

        With the spec's ``checkpoint_rate > 0`` (a sharded store's
        key), checkpoint I/O is charged lag-one through
        :meth:`~repro.backends.sharded.ShardedStore.background_write`:
        saving checkpoint N first charges the stored bytes of
        checkpoint N-1 as a background sequential write plus the
        duty-cycle throttle pause (the deferred flush of the previous
        checkpoint; the final checkpoint's write-back is never
        charged).  The charge happens *before* pickling, so its
        device-clock effects travel inside ``state.pkl`` and a resumed
        run reproduces them exactly — the lag-one bytes are recomputed
        from the loaded manifest.
        """
        prev_bytes = self._prev_checkpoint_bytes
        if self.config.store.checkpoint_rate > 0.0 and prev_bytes > 0:
            self.store.background_write(prev_bytes)
        payload = {
            "store": self.store,
            "state": self.state,
            "scenario": self.scenario_state,
            "result": result,
            "read_rng": read_rng,
            "last_write_mbps": last_write_mbps,
            "done_ages": list(done_ages),
        }
        files = {"state.pkl": pickle.dumps(payload)}
        for label, fs in fs_components(self.store):
            files[f"free_index-{label}.bin"] = encode_free_index(
                fs.free_index)
            files[f"journal-{label}.bin"] = encode_journal(fs.journal)
        saved = manager.save(files, meta={
            "schema": checkpoint_schema(),
            "config_hash": self._config_hash(),
            "label": self.config.display_label(),
            "done_ages": list(done_ages),
        })
        self._prev_checkpoint_bytes = sum(
            info["bytes"] for info in saved.files.values())

    def _restore_checkpoint(self, manager: CheckpointManager):
        """Load the newest valid checkpoint, or None for a fresh start."""
        ckpt = manager.load_latest()
        if ckpt is None:
            return None
        schema = checkpoint_schema()
        if ckpt.meta.get("schema") != schema:
            raise ConfigError(
                f"checkpoint {ckpt.path} has schema "
                f"{ckpt.meta.get('schema')!r}, expected {schema!r}: it was "
                "written by different code; refusing to resume (pass a "
                "fresh --checkpoint-dir)"
            )
        if ckpt.meta.get("config_hash") != self._config_hash():
            raise ConfigError(
                f"checkpoint {ckpt.path} was written by a different "
                "configuration; refusing to resume (pass a fresh "
                "--checkpoint-dir or matching flags)"
            )
        payload = pickle.loads(ckpt.read("state.pkl"))
        store = payload["store"]
        for label, fs in fs_components(store):
            snapshot = decode_free_index(ckpt.read(f"free_index-{label}.bin"))
            cross_check(snapshot, fs.free_index,
                        label=f"{label} snapshot vs restored")
            rebuilt = rebuild_fs_free_index(fs)
            cross_check(rebuilt, fs.free_index,
                        label=f"{label} rebuild vs restored")
            verify_journal(fs.journal, ckpt.read(f"journal-{label}.bin"))
        self.store = store
        self.state = payload["state"]
        self.scenario_state = payload["scenario"]
        # The resumed run's next save charges exactly what the
        # uninterrupted run's would have: the stored bytes of this
        # checkpoint, recomputed from its manifest.
        self._prev_checkpoint_bytes = sum(
            info["bytes"] for info in ckpt.files.values())
        return (payload["result"], payload["read_rng"],
                payload["last_write_mbps"], list(payload["done_ages"]))

    def _sample(self, store: ObjectStore, state: WorkloadState,
                age: float, write_mbps: float, read_rng, *,
                scenario_lat: dict | None = None,
                tenant_lat: dict | None = None) -> AgeSample:
        report = fragment_report(store)
        read = measure_read_throughput(
            store, state, self.config.reads_per_sample, read_rng
        )
        stats = store.store_stats()
        # ``{}`` unless the store queues requests (``queue=event``).
        lat = read.latency
        return AgeSample(
            age=state.tracker.storage_age if age > 0 else age,
            fragments_per_object=report.mean,
            fragments_median=report.median,
            fragments_max=report.max,
            read_mbps=read.mbps,
            write_mbps=write_mbps,
            occupancy=stats.occupancy,
            overwrites=state.tracker.overwrites,
            seeks_per_read=read.seeks / self.config.reads_per_sample,
            read_wall_mbps=read.wall_mbps,
            read_device_s=read.elapsed_s,
            read_wall_s=read.wall_s,
            degraded_reads=stats.degraded_reads,
            retries=stats.retries,
            failovers=stats.failovers,
            rebuilt_objects=stats.rebuilt_objects,
            dead_shards=len(getattr(store, "dead_shards", ())),
            read_lat_count=lat.get("count", 0),
            read_lat_p50_s=lat.get("p50_s", 0.0),
            read_lat_p95_s=lat.get("p95_s", 0.0),
            read_lat_p99_s=lat.get("p99_s", 0.0),
            read_lat_max_s=lat.get("max_s", 0.0),
            scenario_lat=dict(scenario_lat or {}),
            tenant_lat=dict(tenant_lat or {}),
        )


def run_experiment(config: ExperimentConfig, progress=None, *,
                   checkpoint_dir: str | Path | None = None,
                   resume: bool = False, checkpoint_keep: int = 2,
                   checkpoint_full_interval: int = 4) -> RunResult:
    """Convenience wrapper: build, run, return the result.

    ``checkpoint_dir`` enables a resumable checkpoint after every
    sampled age; ``resume=True`` continues from the newest valid one
    (identical results to the uninterrupted run — the whole state,
    RNG streams and IoStats included, travels with the checkpoint).
    ``checkpoint_keep`` / ``checkpoint_full_interval`` set retention and
    the delta-chain cadence (see :class:`CheckpointManager`).
    """
    return ExperimentRunner(config, progress=progress,
                            checkpoint_dir=checkpoint_dir,
                            resume=resume,
                            checkpoint_keep=checkpoint_keep,
                            checkpoint_full_interval=checkpoint_full_interval,
                            ).run()
