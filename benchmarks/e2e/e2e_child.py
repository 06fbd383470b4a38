"""One whole aging run in a fresh process — the measured side of bench_e2e.

Reads one job (JSON) from stdin, runs it through the public driver
(``repro.core.experiment.ExperimentRunner``), and prints one JSON
result as the last line of stdout.  The job carries a generated config
only; which workload or seed produced it is the parent's business.

Two clocks (see README.md): everything named ``*_s`` here is **host**
time; ``modelled`` holds the simulator's own results, which must repeat
bit for bit.

Host speed on the shared sandbox drifts by tens of percent over
minutes (and the drift shows in CPU time too, so it is not steal), so
every region is timed twice: raw wall seconds, and seconds *normalised*
to a reference host by a fixed pure-Python calibration loop sampled on
an interval timer throughout the run (:class:`SpeedProbe`).
"""

from __future__ import annotations

import time

_ENTRY = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from bisect import insort  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

#: Iterations of the calibration loop per probe, and what one probe
#: takes on the reference host (the quiet sandbox that produced the
#: committed numbers).  Normalised seconds are seconds of that host.
PROBE_ITERS = 20_000
CALIB_REF_S = 0.0013
#: Seconds between probes: ~4 % of the run, measured and subtracted.
PROBE_INTERVAL_S = 0.05


class SpeedProbe:
    """Samples host speed with a fixed loop on ``ITIMER_REAL``.

    Python runs signal handlers between bytecodes of the main thread,
    so a probe delays the simulation but cannot change what it computes.
    """

    def __init__(self) -> None:
        #: ``(start, duration)`` of every probe taken.
        self.samples: list[tuple[float, float]] = []
        #: Replaceable so a tracer can record probes as their own spans.
        self.loop = calibration_loop
        self._sampling = False

    def sample(self, *_signal_args) -> None:
        if self._sampling:
            # The timer fired inside a probe taken by hand at a phase
            # boundary; a nested probe would be subtracted twice.
            return
        self._sampling = True
        try:
            start = time.perf_counter()
            self.loop(PROBE_ITERS)
            self.samples.append((start, time.perf_counter() - start))
        finally:
            self._sampling = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def region(self, start: float, end: float) -> dict[str, float]:
        """Raw, probe-free and normalised seconds of ``[start, end)``.

        ``work_s`` is the region minus the probes inside it;
        ``norm_s`` rescales it by the mean speed those probes saw
        (``CALIB_REF_S / duration``, averaged — probes are uniform in
        time, so this integrates speed over the region).  Callers take
        a probe at each end so the region never holds fewer than two.
        """
        inside = [d for s, d in self.samples if start <= s < end]
        work = (end - start) - sum(inside)
        speed = (sum(CALIB_REF_S / d for d in inside) / len(inside)
                 if inside else 1.0)
        return {"raw_s": end - start, "work_s": work,
                "norm_s": work * speed, "probes": len(inside),
                "calib_s": sum(inside) / len(inside) if inside else 0.0}


def calibration_loop(iters: int) -> int:
    """The fixed yardstick: about half integer arithmetic, half
    allocation and container traffic.

    A mix because the two halves slow down differently when the host is
    busy, and the simulator is a mix itself: measured against chunks of
    the real workloads, the sum tracked their speed better than either
    half alone.  Must never call into ``repro`` — the yardstick may not
    move when the simulator does.
    """
    acc = 0
    for i in range(iters // 2):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    table: dict[int, tuple[int, int]] = {}
    ring: list[tuple[int, int]] = []
    for i in range(iters // 40):
        key = (i * 7919) % 512
        table[key] = (key, i)
        insort(ring, (key, i))
        if len(ring) > 128:
            del ring[(key * 31) % len(ring)]
        acc += table.get((key * 31) % 512, (0, 0))[1]
    return acc


class _Kill(Exception):
    """Raised from the progress callback to stop a run mid-way."""


def add_regions(a: dict[str, float], b: dict[str, float]) -> dict[str, float]:
    probes = a["probes"] + b["probes"]
    out = {key: a[key] + b[key]
           for key in ("raw_s", "work_s", "norm_s", "probes")}
    out["calib_s"] = ((a["calib_s"] * a["probes"] + b["calib_s"] * b["probes"])
                      / probes if probes else 0.0)
    return out


# ----------------------------------------------------------------------
# Config -> ExperimentConfig
# ----------------------------------------------------------------------
def build_config(cfg: dict):
    from repro.backends.spec import StoreSpec
    from repro.core.experiment import ExperimentConfig
    from repro.core.workload import ConstantSize, UniformSize
    from repro.scenario.spec import ScenarioSpec

    sizes = None
    if cfg["sizes"] is not None:
        kind, size = cfg["sizes"]["kind"], cfg["sizes"]["bytes"]
        sizes = (UniformSize.around_mean(size) if kind == "uniform"
                 else ConstantSize(size))
    return ExperimentConfig(
        store=StoreSpec.parse(cfg["store"], volume_bytes=cfg["volume_bytes"]),
        sizes=sizes,
        scenario=(ScenarioSpec.parse(cfg["scenario"])
                  if cfg["scenario"] else None),
        occupancy=cfg["occupancy"],
        ages=tuple(cfg["ages"]),
        reads_per_sample=cfg["reads_per_sample"],
        seed=cfg["seed"],
    )


def ops_done(runner, config, samples_done: int) -> int:
    """Object-level ops issued after the bulk load, from public books."""
    reads = config.reads_per_sample * samples_done
    scn = runner.scenario_state
    if scn is not None:
        return scn.op_index + sum(t.expired for t in scn.tenants) + reads
    if runner.state is None:
        return reads
    return runner.state.tracker.overwrites + reads


def record_hash(record: dict) -> str:
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Post-run checks and book counters
# ----------------------------------------------------------------------
def leaf_stores(store) -> list:
    return list(getattr(store, "shards", None) or [store])


def check_invariants(store) -> list[str]:
    """Check (3): allocator/B-tree level audits of the final state."""
    from repro.errors import ReproError
    from repro.persist import fs_components

    targets = [(label, fs) for label, fs in fs_components(store)]
    targets += [(f"db{i}", leaf.db) for i, leaf in enumerate(leaf_stores(store))
                if hasattr(leaf, "db")]
    problems = []
    for label, target in targets:
        try:
            target.check_invariants()
        except ReproError as exc:
            problems.append(f"{label}: {exc}")
    return problems


def check_books(store, result) -> list[str]:
    """Check (4): tenant latency counts and the event scheduler's books."""
    problems = []
    for sample in result.samples:
        if sample.tenant_lat:
            tenants = sum(int(t["count"]) for t in sample.tenant_lat.values())
            if tenants != int(sample.scenario_lat["count"]):
                problems.append(
                    f"age {sample.age:g}: tenant counts {tenants} != "
                    f"interval count {sample.scenario_lat['count']}")
    sched = getattr(store, "scheduler", None)
    if getattr(sched, "is_event", False):
        sched.drain()
        if sched.submitted != sched.completed:
            problems.append(f"scheduler submitted {sched.submitted} != "
                            f"completed {sched.completed}")
    return problems


def book_counters(store, runner) -> dict[str, float]:
    """Exact whole-run counters the simulator keeps about itself."""
    from repro.persist import fs_components

    devices = store.devices()
    sched = getattr(store, "scheduler", None)
    event = sched if getattr(sched, "is_event", False) else None
    scn = runner.scenario_state
    return {
        "alloc.free_runs_final": sum(
            len(fs.free_index) for _label, fs in fs_components(store)),
        "disk.seeks": sum(d.stats.seeks for d in devices),
        "disk.modelled_busy_s": sum(d.stats.busy_time_s for d in devices),
        "disk.events.submitted": event.submitted if event else 0,
        "disk.events.completed": event.completed if event else 0,
        "disk.events.max_queue_depth": event.max_queue_depth if event else 0,
        "db.ghost_sweeps": sum(leaf.db.ghost.sweeps
                               for leaf in leaf_stores(store)
                               if hasattr(leaf, "db")),
        "backends.sharded.retries": getattr(store, "retries", 0),
        "backends.sharded.failovers": getattr(store, "failovers", 0),
        "scenario.steps": scn.op_index if scn else 0,
        "scenario.expired": sum(t.expired for t in scn.tenants) if scn else 0,
    }


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(tracer, counters: dict, traced_s: float) -> dict:
    """The per-layer table of the traced timed region."""
    from e2e_tracer import CALLS, INCL_S, ITEMS, LAYERS, STORE_DATA_OPS

    def calls(layer: str, *names: str) -> int:
        return sum(tracer.get(layer, name)[CALLS] for name in names)

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    totals = tracer.layer_totals()
    out: dict[str, float] = {}
    for layer in LAYERS:
        agg = totals.get(layer, {"calls": 0, "self_s": 0.0})
        out[f"{layer}.calls"] = agg["calls"]
        out[f"{layer}.self_s"] = agg["self_s"]
        out[f"{layer}.self_share"] = per(agg["self_s"], traced_s)
    summarize = calls("struct", "MaxWeightAugmentation.summarize")
    out["struct.summarize_calls"] = summarize
    out["struct.summarize_per_mutation"] = per(summarize, calls(
        "struct", "BlockedList.insert", "BlockedList.remove",
        "BlockedList.replace"))
    chooses = calls("alloc", "NtfsRunCache.choose")
    out["alloc.choose_calls"] = chooses
    out["alloc.runs_scanned_per_choose"] = per(
        tracer.get("alloc", "FreeExtentIndex.runs_by_size_desc")[ITEMS],
        chooses)
    submits = calls("disk", "BlockDevice.submit")
    out["disk.submit_calls"] = submits
    out["disk.requests_per_submit"] = per(counters["disk.requests"], submits)
    out["fs.appends_per_object"] = per(
        calls("fs", "SimFilesystem.append"),
        calls("backends", "FileBackend.put", "FileBackend.overwrite"))
    leaf_ops = sum(rec[CALLS] for (layer, name), rec in tracer.records.items()
                   if layer == "backends"
                   and name.rpartition(".")[2] in STORE_DATA_OPS)
    out["backends.sharded.lanes_per_op"] = per(leaf_ops, calls(
        "backends.sharded", *(f"ShardedStore.{op}" for op in STORE_DATA_OPS)))
    spans = sorted((end - start) * 1e6 for _name, start, end in tracer.spans)
    out["core.op_host_us_p50"] = percentile(spans, 50)
    out["core.op_host_us_p99"] = percentile(spans, 99)
    out["core.op_spans"] = len(spans)
    out["persist.saves"] = calls("persist", "CheckpointManager.save")
    out["persist.save_s"] = tracer.get("persist",
                                       "CheckpointManager.save")[INCL_S]
    out["persist.encode_delta_s"] = tracer.get("persist",
                                               "encode_delta")[INCL_S]
    out["persist.pickle_s"] = (tracer.get("persist", "pickle.dumps")[INCL_S]
                               + tracer.get("persist", "pickle.loads")[INCL_S])
    out["persist.stored_bytes"] = counters["persist.stored_bytes"]
    out["persist.delta_ratio"] = per(counters["persist.stored_bytes"],
                                     counters["persist.full_bytes"])
    return out


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def run_job(job: dict, probe: SpeedProbe) -> dict:
    from repro.core.experiment import ExperimentRunner
    from repro.units import MB

    cfg = job["config"]
    config = build_config(cfg)
    ckpt = cfg.get("checkpoint")
    runner_kwargs = {}
    if ckpt is not None:
        runner_kwargs = {"checkpoint_dir": Path(job["work_dir"]),
                         "checkpoint_full_interval": ckpt["full_interval"]}
    kill_age = ckpt.get("kill_after_age") if ckpt else None

    tracer = None
    tracing = nullcontext()
    counters: dict[str, int] = {}
    if job["traced"]:
        from e2e_tracer import Tracer, instrument
        tracer = Tracer()
        tracing = tracer.installed(partial(instrument, counters=counters))
        probe.loop = tracer.wrap(probe.loop, "host", "probe")

    marks: dict[str, float] = {}
    samples_done = 0

    def progress(phase: str, value: float) -> None:
        nonlocal samples_done
        if "resume_start" in marks:
            marks.setdefault("resumed", time.perf_counter())
        if phase == "sample":
            if "first_sample" not in marks:
                # End of the bulk load: set-up ends, the timed region
                # starts.  The tracer's stack is empty here (run() itself
                # is not an entry point), so its aggregates can be cut.
                probe.sample()
                marks["first_sample"] = time.perf_counter()
                if tracer is not None:
                    tracer.reset()
                probe.sample()
            samples_done += 1
        if phase == "checkpoint" and kill_age is not None \
                and "killed" not in marks and value == kill_age:
            probe.sample()
            marks["killed"] = time.perf_counter()
            raise _Kill

    error = None
    result = None
    runner = ExperimentRunner(config, progress=progress, **runner_kwargs)
    try:
        with tracing:
            try:
                result = runner.run()
            except _Kill:
                pass
            if "killed" in marks:
                runner = ExperimentRunner(config, progress=progress,
                                          resume=True, **runner_kwargs)
                probe.sample()
                marks["resume_start"] = time.perf_counter()
                result = runner.run()
            probe.sample()
            marks["end"] = time.perf_counter()
    except Exception as exc:  # a failed op aborts the run: report, don't die
        probe.sample()
        marks.setdefault("end", time.perf_counter())
        error = f"{type(exc).__name__}: {exc}"
    probe.stop()

    first = marks.get("first_sample", marks["end"])
    setup = probe.region(_ENTRY, first)
    if "killed" in marks:
        timed = probe.region(first, marks["killed"])
        if "resume_start" in marks:
            timed = add_regions(
                timed, probe.region(marks["resume_start"], marks["end"]))
    else:
        timed = probe.region(first, marks["end"])

    done = ops_done(runner, config, samples_done)
    planned = job.get("planned_ops")
    failed = 0
    if error is not None:
        # An abort fails every op still planned (at least the one that
        # raised, when the plan is unknown).
        failed = max(1, (planned or 0) - done)
    out = {
        "traced": job["traced"],
        "error": error,
        "setup": setup,
        "timed": timed,
        "ops_attempted": done + failed,
        "failed_ops": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if result is None or error is not None:
        return out

    record = result.to_dict()
    final = result.samples[-1]
    out["record_sha256"] = record_hash(record)
    out["record"] = record
    out["modelled"] = {
        "modelled_read_mbps": final.read_mbps / MB,
        "modelled_write_mbps": final.write_mbps / MB,
        "modelled_frags_per_object": final.fragments_per_object,
        "modelled_read_p99_ms": final.read_lat_p99_s * 1e3,
    }
    store = runner.store
    problems = check_invariants(store) + check_books(store, result)
    if tracer is not None:
        data_ops = sum(1 for name, _s, _e in tracer.spans
                       if name.rpartition(".")[2] != "read_many")
        if data_ops != out["ops_attempted"]:
            # Check (5): the books and the store boundary must agree.
            problems.append(f"top-level store calls {data_ops} != "
                            f"ops_attempted {out['ops_attempted']}")
        layers = layer_metrics(tracer, counters, timed["work_s"])
        layers["persist.resume_s"] = (
            marks["resumed"] - marks["resume_start"]
            if "resumed" in marks else 0.0)
        layers.update(book_counters(store, runner))
        out["layers"] = layers
    out["problems"] = problems
    return out


def main() -> int:
    probe = SpeedProbe()
    probe.sample()
    probe.start()
    job = json.loads(sys.stdin.read())
    out = run_job(job, probe)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
