"""Command-line interface: run aging experiments without writing code.

Examples::

    python -m repro run --backend database --object-size 10M \\
        --volume 2G --occupancy 0.5 --ages 0,2,4,6,8,10
    python -m repro run --store lfs:reorder=clook,batch=16,shards=4 \\
        --object-size 1M --volume 1G
    python -m repro run --store lfs:shards=4,overlap=true,batch=16 \\
        --rebalance-ages 2 --object-size 1M --volume 1G --ages 0,2,4
    python -m repro run --store 'lfs:shards=4,replicas=2,faults=loss:shard=1:at_age=2' \\
        --rebuild-ages 4 --object-size 1M --volume 1G --ages 0,2,4,6
    python -m repro compare --object-size 512K --volume 512M \\
        --occupancy 0.9 --ages 0,2,4 --json results.json
    python -m repro run --volume 4G --ages 0,2,4,6,8,10 \\
        --checkpoint-dir /tmp/aging-ck            # later: add --resume
    python -m repro run --store lfs:shards=4,overlap=true,queue=event \\
        --scenario cdn_churn:tenants=8,skew=1.1,seed=7 \\
        --volume 256M --ages 0,1,2               # per-tenant p50/p95/p99
    python -m repro backends

``--store backend:key=val,...`` is the one spelling of every store knob:
its spec-level keys are listed in :mod:`repro.backends.spec` (explicit
spec keys win over the ``--volume``/``--write-request`` flag defaults),
and everything else is a backend option validated by the registry.
``--size-hints`` sets ``size_hints=true`` only on a backend that accepts
it, which the spec text cannot say across a mixed-backend ``compare``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.tables import render_series_table, render_table
from repro.backends.registry import backend_descriptions
from repro.backends.spec import StoreSpec
from repro.core.experiment import (
    BACKENDS,
    ExperimentConfig,
    run_experiment,
)
from repro.core.workload import ConstantSize, UniformSize
from repro.errors import ReproError
from repro.scenario.spec import ScenarioSpec, scenario_names
from repro.units import MB, fmt_size, parse_size


def _parse_ages(text: str) -> tuple[float, ...]:
    try:
        ages = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad ages list: {text!r}")
    if not ages or list(ages) != sorted(ages):
        raise argparse.ArgumentTypeError("ages must ascend")
    return ages


def _build_sizes(args: argparse.Namespace):
    if getattr(args, "scenario", None):
        # A scenario carries its own per-tenant size distributions; the
        # config derives the occupancy-planning mean from the spec.
        return None
    mean = parse_size(args.object_size)
    if args.uniform:
        return UniformSize.around_mean(mean, spread=args.spread)
    return ConstantSize(mean)


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--object-size", default="1M",
                        help="mean object size, e.g. 256K or 10M")
    parser.add_argument("--uniform", action="store_true",
                        help="uniform size distribution around the mean")
    parser.add_argument("--spread", type=float, default=0.8,
                        help="uniform half-width as a fraction of the mean")
    parser.add_argument("--volume", default="1G",
                        help="simulated volume size, e.g. 512M or 4G")
    parser.add_argument("--occupancy", type=float, default=0.5,
                        help="bulk-load target occupancy in (0, 1)")
    parser.add_argument("--ages", type=_parse_ages,
                        default=(0.0, 2.0, 4.0),
                        help="comma-separated storage ages to sample")
    parser.add_argument("--write-request", default="64K",
                        help="application write request size")
    parser.add_argument("--reads", type=int, default=32,
                        help="whole-object reads per sampling point")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--size-hints", action="store_true",
                        help="use the size-hint interface (filesystem)")
    parser.add_argument("--store", metavar="SPEC", default=None,
                        help="declarative store spec, e.g. "
                             "lfs:reorder=clook,batch=16 (see --help text)")
    parser.add_argument("--scenario", metavar="SPEC", default=None,
                        help="multi-tenant scenario spec, e.g. "
                             "cdn_churn:tenants=8,skew=1.1,seed=7 "
                             f"(presets: {', '.join(scenario_names())}); "
                             "replaces the uniform churn loop and the "
                             "--object-size/--uniform flags")
    parser.add_argument("--rebalance-ages", type=_parse_ages, default=(),
                        metavar="AGES",
                        help="rebalance a sharded store (occupancy-"
                             "levelling migration) after sampling these "
                             "ages (must be a subset of --ages)")
    parser.add_argument("--rebuild-ages", type=_parse_ages, default=(),
                        metavar="AGES",
                        help="re-replicate objects that lost copies to "
                             "dead shards after sampling these ages "
                             "(must be a subset of --ages)")
    parser.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        help="write a resumable checkpoint after every "
                             "sampled age (long aging runs can stop and "
                             "continue)")
    parser.add_argument("--resume", action="store_true",
                        help="continue from the newest valid checkpoint "
                             "in --checkpoint-dir (fresh run when none)")
    parser.add_argument("--checkpoint-keep", type=int, default=2,
                        metavar="N",
                        help="published checkpoints to retain (plus "
                             "whatever a live delta chain still needs; "
                             "default 2)")
    parser.add_argument("--checkpoint-full-interval", type=int, default=4,
                        metavar="N",
                        help="full-snapshot cadence: every Nth checkpoint "
                             "is self-contained, the ones between are "
                             "deltas against their predecessor (1 "
                             "disables deltas; default 4)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the results as JSON")


def _store_spec_from(args: argparse.Namespace, backend: str) -> StoreSpec:
    """The StoreSpec described by the store flags.

    An explicit backend inside ``--store`` wins over the subcommand's
    backend; ``--store :key=val`` keeps it.  ``--volume``,
    ``--write-request``, and ``--size-hints`` still apply as defaults;
    spec-text keys (``volume=``, ``write_request=``) win over them.
    """
    spec = StoreSpec.parse(
        args.store if args.store is not None else backend,
        default_backend=backend,
        volume_bytes=parse_size(args.volume),
        write_request=parse_size(args.write_request),
    )
    if args.size_hints and spec.backend == "filesystem":
        spec = spec.with_options(size_hints=True)
    return spec


def _config_from(args: argparse.Namespace,
                 backend: str) -> ExperimentConfig:
    return ExperimentConfig(
        store=_store_spec_from(args, backend),
        sizes=_build_sizes(args),
        scenario=(ScenarioSpec.parse(args.scenario)
                  if args.scenario else None),
        occupancy=args.occupancy,
        ages=args.ages,
        reads_per_sample=args.reads,
        seed=args.seed,
        rebalance_ages=tuple(args.rebalance_ages),
        rebuild_ages=tuple(args.rebuild_ages),
    )


def _series(run, value) -> list[tuple[float, float]]:
    """One ``(age, value(sample))`` point per sample, keyed on the
    sampled *target* age: the realised ``AgeSample.age`` overshoots it
    by part of an object, differently per backend, and would leave no
    row of a ``compare`` table with two columns."""
    return [(age, value(sample))
            for age, sample in zip(run.config["ages"], run.samples)]


def _result_table(results: dict) -> str:
    frag = {
        name: _series(run, lambda s: s.fragments_per_object)
        for name, run in results.items()
    }
    read = {
        f"{name} rd MB/s": _series(run, lambda s: s.read_mbps / MB)
        for name, run in results.items()
    }
    blocks = [
        render_series_table("Fragments per object", "age", frag),
        render_series_table("Read throughput", "age", read),
    ]
    # Overlap-modelled stores report wall-time throughput too (it only
    # differs when shard device lanes actually overlapped).
    wall = {
        f"{name} rd wall MB/s": _series(run,
                                        lambda s: s.read_wall_mbps / MB)
        for name, run in results.items()
        if any(abs(s.read_wall_mbps - s.read_mbps) > 1e-9
               for s in run.samples)
    }
    if wall:
        blocks.append(render_series_table(
            "Read throughput (overlapped wall time)", "age", wall))
    # Event-queue stores (queue=event) report per-request sojourn
    # percentiles of every read sweep next to the throughput tables.
    latency = {
        f"{name} {label}": _series(
            run, lambda s, field=field: getattr(s, field) * 1e3)
        for name, run in results.items()
        for label, field in (("rd p50 ms", "read_lat_p50_s"),
                             ("rd p95 ms", "read_lat_p95_s"),
                             ("rd p99 ms", "read_lat_p99_s"))
        if any(s.read_lat_count for s in run.samples)
    }
    if latency:
        blocks.append(render_series_table(
            "Read latency percentiles (queue=event)", "age", latency,
            y_format="{:.3f}"))
    # Scenario runs (--scenario) split each churn interval's per-request
    # distribution by tenant; report the final sampled interval.
    tenant_rows: list[list[object]] = []
    for name, run in results.items():
        last = next((s for s in reversed(run.samples) if s.tenant_lat),
                    None)
        if last is None:
            continue
        for tenant, summ in last.tenant_lat.items():
            tenant_rows.append([
                name, tenant, f"{last.age:g}", int(summ["count"]),
                summ["p50_s"] * 1e3, summ["p95_s"] * 1e3,
                summ["p99_s"] * 1e3,
            ])
    if tenant_rows:
        blocks.append(render_table(
            "Per-tenant churn latency (ms, final interval)",
            ["store", "tenant", "age", "ops", "p50", "p95", "p99"],
            tenant_rows))
    # Fault-tolerance counters only appear once something actually
    # degraded — healthy (or unsharded) runs print the classic tables.
    counters = (("degraded rds", "degraded_reads"), ("retries", "retries"),
                ("failovers", "failovers"), ("rebuilt", "rebuilt_objects"),
                ("dead shards", "dead_shards"))
    degraded = {
        f"{name} {label}": _series(
            run, lambda s, field=field: getattr(s, field))
        for name, run in results.items()
        for label, field in counters
        if any(getattr(s, field) for s in run.samples)
    }
    if degraded:
        blocks.append(render_series_table(
            "Degraded operation (cumulative)", "age", degraded,
            y_format="{:g}"))
    return "\n\n".join(blocks)


def _checkpoint_args(args: argparse.Namespace) -> dict:
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    return {"checkpoint_dir": args.checkpoint_dir, "resume": args.resume,
            "checkpoint_keep": args.checkpoint_keep,
            "checkpoint_full_interval": args.checkpoint_full_interval}


def cmd_run(args: argparse.Namespace) -> int:
    """Age one backend and print its fragmentation/throughput tables."""
    result = run_experiment(_config_from(args, args.backend),
                            **_checkpoint_args(args))
    print(_result_table({result.backend: result}))
    print(f"\nbulk-load write throughput: "
          f"{result.bulk_load_write_mbps / MB:.2f} MB/s "
          f"({result.objects_loaded} objects, "
          f"{fmt_size(result.live_bytes)} live)")
    if args.json:
        result.save(args.json)
        print(f"results written to {args.json}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Age several backends on one workload and print them side by side."""
    if args.store and not args.store.strip().startswith(":"):
        # A backend-naming spec would silently pin every column to one
        # store and print a comparison that never ran.
        print("compare: --store must not name a backend here; use "
              "':key=val,...' so each --against curve keeps its own "
              "backend (to pin one backend, use 'run')",
              file=sys.stderr)
        return 2
    ckpt = _checkpoint_args(args)
    results = {
        # Each curve checkpoints into its own subdirectory so resumes
        # never cross backends.
        backend: run_experiment(
            _config_from(args, backend),
            checkpoint_dir=(Path(ckpt["checkpoint_dir"]) / backend
                            if ckpt["checkpoint_dir"] else None),
            resume=ckpt["resume"],
            checkpoint_keep=ckpt["checkpoint_keep"],
            checkpoint_full_interval=ckpt["checkpoint_full_interval"],
        )
        for backend in args.against
    }
    print(_result_table(results))
    if args.json:
        payload = {name: run.to_dict() for name, run in results.items()}
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"results written to {args.json}")
    return 0


def cmd_backends(_args: argparse.Namespace) -> int:
    """List the backend registry: one ``name: description`` line each."""
    for name, desc in backend_descriptions().items():
        print(f"{name}: {desc}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Aging experiments from 'Fragmentation in Large "
                    "Object Repositories' (CIDR 2007).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="age one backend")
    run_parser.add_argument("--backend", choices=BACKENDS,
                            default="filesystem")
    _add_run_arguments(run_parser)
    run_parser.set_defaults(func=cmd_run)

    compare_parser = sub.add_parser(
        "compare", help="age several backends on the same workload"
    )
    compare_parser.add_argument(
        "--against", nargs="+", choices=BACKENDS,
        default=["filesystem", "database"],
    )
    _add_run_arguments(compare_parser)
    compare_parser.set_defaults(func=cmd_compare)

    backends_parser = sub.add_parser("backends",
                                     help="list available backends")
    backends_parser.set_defaults(func=cmd_backends)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


def run_process() -> int:
    """``main()`` for ``python -m repro``: a library error is one line
    on stderr and exit status 2 (argparse's own), not a traceback."""
    try:
        return main()
    except ReproError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(run_process())
