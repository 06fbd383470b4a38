"""Whole-run host-performance benchmark: four canonical aging runs.

    PYTHONPATH=src python benchmarks/e2e/bench_e2e.py [--seed 7]
        [--repeats 3] [--workloads a,b] [--smoke] [--no-trace] [--out PATH]
    ... --regen-golden            rewrite golden.json for --seed
    ... --compare A.json B.json   judge two --out files against the bounds
    ... --workload NAME --seed N --seconds S --trace 0|1
                                  one workload, one JSON result line
                                  (the form BENCHMARK.json names)

Every run is a fresh child process (``e2e_child.py``), one at a time,
workloads interleaved round-robin across repeats.  Two clocks: **host**
metrics say how fast the simulator runs (noisy, bounded); ``modelled_*``
metrics and the run-record hash are the science (deterministic, must
repeat exactly).  README.md has the tables and the reasoning.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from e2e_tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN_PATH = HERE / "golden.json"
WORK_DIR = HERE / ".work"

SCHEMA = "bench-e2e/1"
DEFAULT_SEED = 7
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 170

KB = 1024
MB = KB * KB
GB = KB * MB


# ----------------------------------------------------------------------
# Workloads: seed -> generated config (all the program ever sees)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_config: Callable[[int, int], dict]


def _config(store: str, volume: int, *, seed: int, occupancy: float,
            ages: list[float], reads: int, sizes: dict | None = None,
            scenario: str | None = None,
            checkpoint: dict | None = None) -> dict:
    return {"store": store, "volume_bytes": volume, "sizes": sizes,
            "scenario": scenario, "occupancy": occupancy, "ages": ages,
            "reads_per_sample": reads, "seed": seed,
            "checkpoint": checkpoint}


def _fs_small_churn(seed: int, shrink: int) -> dict:
    return _config("filesystem", 1 * GB // shrink, seed=seed,
                   sizes={"kind": "uniform", "bytes": 256 * KB},
                   occupancy=0.9, ages=[0.0, 1.5, 3.0], reads=64)


def _db_large_churn(seed: int, shrink: int) -> dict:
    return _config("database", 4 * GB // shrink, seed=seed,
                   sizes={"kind": "constant", "bytes": 10 * MB},
                   occupancy=0.5, ages=[0.0, 1.5, 3.0], reads=136)


def _sharded_event_cdn(seed: int, shrink: int) -> dict:
    return _config(
        "lfs:shards=4,overlap=true,queue=event,arrival=poisson:rate=150",
        16 * GB // shrink, seed=seed,
        scenario=f"cdn_churn:tenants=16,skew=1.1,seed={seed}",
        occupancy=0.5, ages=[0.0, 1.5, 3.0, 4.5], reads=1024)


def _ckpt_delta_resume(seed: int, shrink: int) -> dict:
    return _config(
        "filesystem:shards=3,overlap=true,queue=event,checkpoint_rate=0.5",
        1 * GB // shrink, seed=seed,
        sizes={"kind": "uniform", "bytes": 256 * KB},
        occupancy=0.5, ages=[0.1875 * i for i in range(13)], reads=32,
        checkpoint={"full_interval": 4, "kill_after_age": 1.125})


WORKLOADS = {w.name: w for w in (
    Workload("fs_small_churn",
             "filesystem at 90% occupancy, 256K objects: the paper's "
             "fragmenting regime; 64K appends hammer struct+alloc",
             _fs_small_churn),
    Workload("db_large_churn",
             "database with 10M objects: few objects, many pages; db+disk "
             "dominate and an allocator speed-up must not move it",
             _db_large_churn),
    Workload("sharded_event_cdn",
             "4 lfs shards, event queue, 16-tenant cdn_churn: the only "
             "read-heavy mix; scenario, scheduler and sharding layers",
             _sharded_event_cdn),
    Workload("ckpt_delta_resume",
             "3 fs shards, 13 delta checkpoints, killed after age 1.5 and "
             "resumed: pickling, snapshots, deltas, restore (persist)",
             _ckpt_delta_resume),
)}

#: ``--smoke`` divides every volume by this (CI and the self-test).
SMOKE_SHRINK = 16


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
EXACT = "exact"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Regression bound as a share of the base value, or EXACT.
    bound: float | str
    #: Workloads the metric is reported on (None = all).
    only: tuple[str, ...] | None = None


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.20),
    Metric("sim_ops_per_host_s", "ops/s", "higher", 0.10),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("failed_ops", "count", "lower", 0.0),
    Metric("modelled_read_mbps", "MB/s", "higher", EXACT),
    Metric("modelled_write_mbps", "MB/s", "higher", EXACT),
    Metric("modelled_frags_per_object", "fragments", "lower", EXACT),
    Metric("modelled_read_p99_ms", "ms", "lower", EXACT,
           only=("sharded_event_cdn",)),
)
MODELLED = tuple(m.name for m in END_TO_END if m.bound == EXACT)

#: What ``--trace 0`` prints for the driver of BENCHMARK.json: the
#: host-side metrics only.  ``failed_ops`` travels as ``failed``; the
#: ``modelled_*`` values depend on the seed by construction, so they ride
#: with ``--trace 1`` and are held exact through ``correct`` instead.
CONTRACT_END_TO_END = ("setup_s", "sim_ops_per_host_s", "peak_rss_mb")

#: Per-layer metrics beyond calls/self_s/self_share: name -> (unit,
#: better, exact?).  Exact ones are counts the simulator or the tracer
#: makes; they repeat bit for bit on one commit.
LAYER_EXTRAS = {
    "struct.summarize_calls": ("count", "lower", True),
    "struct.summarize_per_mutation": ("ratio", "lower", True),
    "alloc.choose_calls": ("count", "lower", True),
    "alloc.runs_scanned_per_choose": ("ratio", "lower", True),
    "alloc.free_runs_final": ("count", "lower", True),
    "disk.submit_calls": ("count", "lower", True),
    "disk.requests_per_submit": ("ratio", "higher", True),
    "disk.seeks": ("count", "lower", True),
    "disk.modelled_busy_s": ("s", "lower", True),
    "disk.events.submitted": ("count", "lower", True),
    "disk.events.completed": ("count", "lower", True),
    "disk.events.max_queue_depth": ("count", "lower", True),
    "fs.appends_per_object": ("ratio", "lower", True),
    "db.ghost_sweeps": ("count", "lower", True),
    "backends.sharded.lanes_per_op": ("ratio", "lower", True),
    "backends.sharded.retries": ("count", "lower", True),
    "backends.sharded.failovers": ("count", "lower", True),
    "scenario.steps": ("count", "lower", True),
    "scenario.expired": ("count", "lower", True),
    "core.op_host_us_p50": ("us", "lower", False),
    "core.op_host_us_p99": ("us", "lower", False),
    "core.op_spans": ("count", "higher", True),
    "persist.saves": ("count", "lower", True),
    "persist.save_s": ("s", "lower", False),
    "persist.resume_s": ("s", "lower", False),
    "persist.encode_delta_s": ("s", "lower", False),
    "persist.pickle_s": ("s", "lower", False),
    "persist.stored_bytes": ("bytes", "lower", True),
    "persist.delta_ratio": ("ratio", "lower", True),
    "host.calib_s": ("s", "lower", False),
    "host.trace_overhead_ratio": ("ratio", "lower", False),
    "host.run_spread": ("ratio", "lower", False),
}


def per_layer_spec() -> dict[str, tuple[str, str, bool]]:
    """Every per-layer metric: name -> (unit, better, exact?)."""
    spec: dict[str, tuple[str, str, bool]] = {}
    for layer in LAYERS:
        spec[f"{layer}.calls"] = ("count", "lower", True)
        spec[f"{layer}.self_s"] = ("s", "lower", False)
        spec[f"{layer}.self_share"] = ("ratio", "lower", False)
    spec.update(LAYER_EXTRAS)
    return spec


# ----------------------------------------------------------------------
# Running children
# ----------------------------------------------------------------------
class BenchError(Exception):
    """The benchmark itself could not run (not a failed check)."""


def run_child(config: dict, *, traced: bool, planned_ops: int | None,
              tag: str) -> dict:
    """One fresh process, one aging run; returns the child's result."""
    work = WORK_DIR / f"{os.getpid()}-{tag}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    job = {"config": config, "traced": traced, "work_dir": str(work),
           "planned_ops": planned_ops}
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "e2e_child.py")],
            input=json.dumps(job), capture_output=True, text=True, env=env,
            timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return {"error": f"child exceeded {CHILD_TIMEOUT_S}s",
                "ops_attempted": max(1, planned_ops or 1),
                "failed_ops": max(1, planned_ops or 1), "traced": traced}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"child failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def uninterrupted(config: dict) -> dict:
    """The same config without the kill."""
    if not config.get("checkpoint"):
        return config
    return dict(config, checkpoint=dict(config["checkpoint"],
                                        kill_after_age=None))


# ----------------------------------------------------------------------
# Golden records
# ----------------------------------------------------------------------
def load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())["entries"]


def golden_key(workload: str, seed: int) -> str:
    return f"{workload}@{seed}"


def differences(expected, got, path: str = "") -> Iterator[str]:
    """Path and values of every field where two JSON values differ."""
    if isinstance(expected, dict) and isinstance(got, dict):
        for key in sorted(set(expected) | set(got)):
            where = f"{path}.{key}" if path else key
            if key not in expected or key not in got:
                yield f"{where}: present on one side only"
            else:
                yield from differences(expected[key], got[key], where)
    elif isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            yield f"{path}: length {len(expected)} != {len(got)}"
        else:
            for i, (a, b) in enumerate(zip(expected, got)):
                yield from differences(a, b, f"{path}[{i}]")
    elif expected != got or type(expected) is not type(got):
        yield f"{path}: expected {expected!r} != got {got!r}"


def first_difference(expected, got) -> str | None:
    return next(differences(expected, got), None)


def regen_golden(seed: int, names: list[str]) -> int:
    """Record what each workload produces at this commit.

    A workload that kills and resumes is also run uninterrupted, and the
    entry lists where the two records differ: an empty ``resume_differs``
    means every later run that matches the golden hash re-proves
    kill-and-resume identity.
    """
    entries = load_golden()
    for name in names:
        config = WORKLOADS[name].make_config(seed, 1)
        plain = uninterrupted(config)
        runs = [run_child(cfg, traced=False, planned_ops=None,
                          tag=f"golden-{name}")
                for cfg in ([config] if plain == config else [config, plain])]
        for run in runs:
            if run.get("error") or run.get("problems"):
                print(f"{name}: cannot record a golden from a failing run: "
                      f"{run.get('error') or run['problems']}",
                      file=sys.stderr)
                return 1
        run = runs[0]
        entry = {"sha256": run["record_sha256"],
                 "ops_attempted": run["ops_attempted"],
                 "modelled": run["modelled"], "record": run["record"]}
        if len(runs) == 2:
            entry["resume_differs"] = list(
                differences(runs[1]["record"], run["record"]))
            for line in entry["resume_differs"]:
                print(f"{name}: resumed run differs from the uninterrupted "
                      f"one (expected) at {line}")
        entries[golden_key(name, seed)] = entry
        print(f"{golden_key(name, seed)} {run['record_sha256']}")
    GOLDEN_PATH.write_text(json.dumps(
        {"schema": "bench-e2e-golden/1",
         "entries": {key: entries[key] for key in sorted(entries)}},
        indent=1, sort_keys=True) + "\n")
    return 0


# ----------------------------------------------------------------------
# One measurement: repeats x workloads, then a traced pass
# ----------------------------------------------------------------------
def host_stat(values: list[float], better: str) -> dict:
    """Median (the reported value) with best/min/max beside it.

    Host times are normalised by a calibration probe whose own noise is
    two-sided, so the best of a few repeats would select the probe's
    luckiest reading; the median does not.
    """
    best = min(values) if better == "lower" else max(values)
    return {"value": statistics.median(values), "best": best,
            "min": min(values), "max": max(values), "samples": values}


def summarise(name: str, seed: int, smoke: bool, runs: list[dict],
              traced: dict | None, golden: dict) -> dict:
    """Fold one workload's child results into metrics and checks."""
    failures: list[str] = []
    ok_runs = [r for r in runs if not r.get("error")]
    for run in runs + ([traced] if traced else []):
        if run.get("error"):
            failures.append(f"run aborted: {run['error']}")
        failures += run.get("problems", [])
    attempted = max(r["ops_attempted"] for r in runs)
    failed = max(r["failed_ops"] for r in runs)
    out: dict = {"why": WORKLOADS[name].why, "ops_attempted": attempted,
                 "repeats": len(runs), "end_to_end": {}, "per_layer": {}}

    def put(metric: Metric, fields: dict) -> None:
        out["end_to_end"][metric.name] = {
            "unit": metric.unit, "better": metric.better,
            "bound": metric.bound, **fields}

    by_name = {m.name: m for m in END_TO_END}
    put(by_name["failed_ops"], {"value": failed})
    if ok_runs:
        put(by_name["setup_s"], {
            **host_stat([r["setup"]["norm_s"] for r in ok_runs], "lower"),
            "raw_best": min(r["setup"]["work_s"] for r in ok_runs)})
        put(by_name["sim_ops_per_host_s"], {
            **host_stat([r["ops_attempted"] / r["timed"]["norm_s"]
                         for r in ok_runs], "higher"),
            "raw_best": max(r["ops_attempted"] / r["timed"]["work_s"]
                            for r in ok_runs)})
        put(by_name["peak_rss_mb"],
            host_stat([r["peak_rss_mb"] for r in ok_runs], "lower"))
        first = ok_runs[0]
        out["record_sha256"] = first["record_sha256"]
        for metric in END_TO_END:
            if metric.bound == EXACT and \
                    (metric.only is None or name in metric.only):
                put(metric, {"value": first["modelled"][metric.name]})
        # Check (1): identical across repeats, and equal to the golden.
        if any(r["record_sha256"] != first["record_sha256"]
               for r in ok_runs):
            failures.append("run record differs between repeats")
        entry = None if smoke else golden.get(golden_key(name, seed))
        out["golden"] = "absent"
        if entry is not None:
            out["golden"] = "match"
            if entry.get("resume_differs"):
                out["golden"] = (f"match,resume-differs-in-"
                                 f"{len(entry['resume_differs'])}-fields")
            if entry["sha256"] != first["record_sha256"]:
                out["golden"] = "mismatch"
                failures.append("run record differs from golden: " + str(
                    first_difference(entry["record"], first["record"])))
        # Check (2): tracing must not change the run.
        if traced and not traced.get("error") and \
                traced["record_sha256"] != first["record_sha256"]:
            failures.append("traced run record differs from untraced: " + str(
                first_difference(first["record"], traced["record"])))
    if traced and traced.get("layers") and ok_runs:
        layers = dict(traced["layers"])
        timed = [r["timed"]["work_s"] for r in ok_runs]
        layers["host.calib_s"] = statistics.mean(
            r["timed"]["calib_s"] for r in ok_runs)
        layers["host.trace_overhead_ratio"] = \
            traced["timed"]["work_s"] / min(timed)
        layers["host.run_spread"] = (max(timed) - min(timed)) / min(timed)
        for metric, (unit, better, exact) in per_layer_spec().items():
            out["per_layer"][metric] = {"value": layers[metric], "unit": unit,
                                        "better": better, "exact": exact}
        out["traced_timed_s"] = traced["timed"]["work_s"]
        out["traced_record_sha256"] = traced["record_sha256"]
    out["failures"] = failures
    return out


def measure(names: list[str], *, seed: int, repeats: int, smoke: bool,
            trace: bool, min_seconds: float = 0.0) -> dict[str, dict]:
    """The run protocol; returns ``workload -> summary``."""
    golden = load_golden()
    shrink = SMOKE_SHRINK if smoke else 1
    configs = {n: WORKLOADS[n].make_config(seed, shrink) for n in names}
    planned = {n: (golden.get(golden_key(n, seed), {}).get("ops_attempted")
                   if not smoke else None) for n in names}
    runs: dict[str, list[dict]] = {n: [] for n in names}
    rep = 0
    while True:
        # Keep repeating a workload until it has both its repeats and
        # ``min_seconds`` of timed region; round-robin so slow phases
        # of the host spread over all workloads.
        todo = [n for n in names if len(runs[n]) < repeats or sum(
            r.get("timed", {}).get("raw_s", min_seconds)
            for r in runs[n]) < min_seconds]
        if not todo:
            break
        for name in todo:
            run = run_child(configs[name], traced=False,
                            planned_ops=planned[name], tag=f"{name}-{rep}")
            runs[name].append(run)
            if not run.get("error"):
                print(f"# {name} repeat {rep}: timed "
                      f"{run['timed']['raw_s']:.2f}s raw, "
                      f"{run['timed']['norm_s']:.2f}s normalised "
                      f"({run['timed']['probes']} probes)")
        rep += 1
    out = {}
    for name in names:
        traced = None
        if trace:
            traced = run_child(configs[name], traced=True,
                               planned_ops=planned[name], tag=f"{name}-traced")
        out[name] = summarise(name, seed, smoke, runs[name], traced, golden)
    return out


def host_info() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(),
            "loadavg": list(os.getloadavg())}


def print_metrics(results: dict[str, dict]) -> None:
    for name, summary in results.items():
        for group in ("end_to_end", "per_layer"):
            for metric, entry in summary[group].items():
                value = entry["value"]
                text = f"{value:.6g}" if isinstance(value, float) else value
                print(f"{name} {metric} {text} {entry['unit']}")
        print(f"{name} record_sha256 {summary.get('record_sha256', '-')} "
              f"golden={summary.get('golden', '-')}")
        for failure in summary["failures"]:
            print(f"{name} CHECK FAILED: {failure}")


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def verdict(metric: dict, base: float, other: float) -> str:
    bound = metric["bound"]
    if bound == EXACT:
        return "ok" if base == other else "exact-mismatch"
    if metric["better"] == "lower":
        return "worse" if other > base * (1.0 + bound) else "ok"
    return "worse" if other < base * (1.0 - bound) else "ok"


def compare(path_a: str, path_b: str) -> int:
    """Judge B against A (the base) with the benchmark's own bounds."""
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    bad = 0
    print(f"{'workload':<18} {'metric':<32} {'A (base)':>14} {'B':>14} "
          f"{'B/A':>8} {'bound':>7}  verdict")
    for name in a:
        if name not in b:
            continue
        wa, wb = a[name], b[name]
        for metric, ea in wa["end_to_end"].items():
            eb = wb["end_to_end"].get(metric)
            if eb is None:
                continue
            word = verdict(ea, ea["value"], eb["value"])
            bad += word != "ok"
            _compare_row(name, metric, ea, eb, word)
        same = wa.get("record_sha256") == wb.get("record_sha256")
        bad += not same
        print(f"{name:<18} {'record_sha256':<32} "
              f"{str(wa.get('record_sha256'))[:12]:>14} "
              f"{str(wb.get('record_sha256'))[:12]:>14} {'':>8} "
              f"{EXACT:>7}  {'ok' if same else 'exact-mismatch'}")
        for metric, ea in wa["per_layer"].items():
            eb = wb["per_layer"].get(metric)
            if eb is None:
                continue
            word = "-"
            if ea.get("exact"):
                word = "same" if ea["value"] == eb["value"] else "differs"
            _compare_row(name, metric, ea, eb, word)
    print(f"{bad} end-to-end metric(s) worse than their bound or not exact"
          if bad else "all end-to-end metrics within their bounds")
    return 1 if bad else 0


def _compare_row(name: str, metric: str, ea: dict, eb: dict,
                 word: str) -> None:
    va, vb = ea["value"], eb["value"]
    ratio = f"{vb / va:.3f}" if va else "-"
    bound = ea.get("bound", "")
    bound = f"{bound:.0%}" if isinstance(bound, float) else str(bound)
    print(f"{name:<18} {metric:<32} {va:>14.6g} {vb:>14.6g} {ratio:>8} "
          f"{bound:>7}  {word}")


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def contract_run(workload: str, seed: int, seconds: float,
                 trace: bool) -> int:
    """``--workload``: one workload, one JSON result line on stdout."""
    summary = measure([workload], seed=seed,
                      repeats=2 if trace else 3, smoke=False, trace=trace,
                      min_seconds=0.0 if trace else seconds)[workload]
    print_metrics({workload: summary})
    if trace:
        source = dict(summary["per_layer"])
        source.update({m: summary["end_to_end"][m] for m in MODELLED
                       if m in summary["end_to_end"]})
        # Every metric on every workload: p99 is 0 where no event queue
        # produces one.
        source.setdefault("modelled_read_p99_ms",
                          {"value": 0.0, "unit": "ms"})
    else:
        source = {m: summary["end_to_end"][m] for m in CONTRACT_END_TO_END
                  if m in summary["end_to_end"]}
    correct = not summary["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": summary["ops_attempted"],
        "failed": summary["end_to_end"]["failed_ops"]["value"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in source.items()},
    }))
    return 0 if correct else 1


def full_run(args: argparse.Namespace) -> int:
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    before = host_info()
    results = measure(names, seed=args.seed, repeats=args.repeats,
                      smoke=args.smoke, trace=not args.no_trace)
    print_metrics(results)
    if args.out:
        Path(args.out).write_text(json.dumps({
            "schema": SCHEMA, "seed": args.seed, "repeats": args.repeats,
            "smoke": args.smoke, "host": before,
            "loadavg_after": list(os.getloadavg()), "workloads": results,
        }, indent=1) + "\n")
    failed = [n for n, s in results.items() if s["failures"]]
    if failed:
        print(f"checks failed on: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--workloads", default="",
                        help=f"comma-separated subset of {list(WORKLOADS)}")
    parser.add_argument("--smoke", action="store_true",
                        help=f"volumes / {SMOKE_SHRINK} (CI, self-test)")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", metavar="PATH")
    parser.add_argument("--regen-golden", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro").is_dir():
        print(f"bench_e2e: no simulator source at {SRC}", file=sys.stderr)
        return 2
    unknown = [n for n in args.workloads.split(",") if n and n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workloads {unknown}")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    try:
        if args.regen_golden:
            return regen_golden(args.seed, args.workloads.split(",")
                                if args.workloads else list(WORKLOADS))
        if args.workload:
            return contract_run(args.workload, args.seed, args.seconds,
                                bool(args.trace))
        return full_run(args)
    except BenchError as exc:
        print(f"bench_e2e: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
