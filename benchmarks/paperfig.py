"""The modelled benches: one table of figures, one ``main()``, one record.

Every entry of :data:`FIGURES` regenerates one table or figure — the
paper's evaluation (Section 5) on scaled volumes (see "Contract,
scaling and calibration" in docs/benchmarks.md: the free-object-pool
and request-size ratios that the paper says govern the curves are
preserved; absolute volume sizes shrink so the whole paper takes about
two minutes instead of the paper's week), then the seven store
scenarios past the paper (``bench_store_scenarios.py``: sharding,
faults, tails, tenants)::

    python benchmarks/paperfig.py [--only fig1,tail_latency] [--out PATH]

prints each figure's table and its shape checks, and exits 1 when a
check fails.  ``--out`` writes the ``bench-paper/1`` record
(``benchmarks/BENCH_paper.json`` is the committed one, from a run
without override flags): per figure the modelled numbers the table was
rendered from, a sha256 over them, every check as numbers, and —
outside the hash — host seconds per curve and a scenario's host-time
cells.  ``--paper-scale`` uses the original 40/400 GB volumes.

A figure is three functions: ``compute(run)`` ages its stores through
``run(backend, sizes, **kw)`` (:func:`curve_config` bound to the parsed
options, run and timed — a figure reads no flag; ``keep_store=True``
returns ``(result, store)`` for a figure that reads the aged store's
own counters), ``render(results)`` returns the table block and
``checks(results)`` its claims as ``key -> ShapeCheck``.  A paper
figure is a ``bench_*.py`` module of its own; the store scenarios share
one, which builds the three from a row table.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import platform
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from repro.analysis.compare import ShapeCheck
from repro.backends.spec import StoreSpec
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.core.results import RunResult
from repro.core.workload import SizeDistribution
from repro.units import GB, MB

SCHEMA = "bench-paper/1"

#: Volumes by role: ``name -> (scaled stand-in, the paper's volume)``.
#: The paper's 40 GB and 400 GB volumes at 10 MB objects hold 4 k /
#: 40 k objects; the scaled pair preserves the pool ratio at
#: bench-friendly sizes.  A figure asks for a role by name; a literal
#: byte count is nobody's stand-in and is never rescaled.
VOLUMES = {
    "small": (1 * GB, 40 * GB),
    "large": (4 * GB, 400 * GB),
    #: Single-volume figures (2, 5) and the throughput figures (1, 4).
    "default": (2 * GB, 400 * GB),
    "throughput": (512 * MB, 400 * GB),
    #: Figure 6c's 97.5 % panel: one notch up from small/large, where
    #: the small volume's free pool would drop below ~5 objects (the
    #: degenerate regime the paper flags in §5.4: "on a 4GB volume with
    #: a pool of 40 free objects, performance degraded rapidly").
    "small_stepped": (2 * GB, 40 * GB),
    "large_stepped": (8 * GB, 400 * GB),
}

FULL_AGES = tuple(float(a) for a in range(11))   # figures 2, 3, 5, 6
SHORT_AGES = (0.0, 2.0, 4.0)                     # figures 1 and 4


@dataclass(frozen=True)
class Figure:
    """One table or figure of the paper (see the module docstring)."""

    compute: Callable[[Callable[..., Any]], Any]
    render: Callable[[Any], str]
    checks: Callable[[Any], dict[str, ShapeCheck]]


def _figure(module: str, entry: str | None = None) -> Figure:
    """The three functions of ``module`` — or of ``entry`` in its own
    ``FIGURES`` table — imported on first call: the figure modules
    import this one for its helpers."""
    def late(attr: str) -> Callable[..., Any]:
        def call(arg: Any) -> Any:
            loaded = importlib.import_module(module)
            return getattr(loaded.FIGURES[entry] if entry else loaded,
                           attr)(arg)
        return call
    return Figure(late("compute"), late("render"), late("checks"))


FIGURES = {
    "table1": _figure("bench_table1_config"),
    "fig1": _figure("bench_fig1_read_throughput"),
    "fig2": _figure("bench_fig2_large_fragmentation"),
    "fig3": _figure("bench_fig3_small_fragmentation"),
    "fig4": _figure("bench_fig4_write_throughput"),
    "fig5": _figure("bench_fig5_size_distributions"),
    "fig6": _figure("bench_fig6_volume_size"),
    "ablation_policies": _figure("bench_ablation_policies"),
    "ablation_write_size": _figure("bench_ablation_write_size"),
    "ablation_size_hint": _figure("bench_ablation_size_hint"),
    "ablation_deferred_free": _figure("bench_ablation_deferred_free"),
    "ablation_zones": _figure("bench_ablation_zones"),
    "ablation_index": _figure("bench_ablation_index"),
    "extension_backends": _figure("bench_extension_backends"),
    "extension_interleaved": _figure("bench_extension_interleaved"),
    **{name: _figure("bench_store_scenarios", name) for name in (
        "fs_churn", "sharded_aging", "shard_skew", "degraded_aging",
        "tail_latency", "continuous_operation", "scenario_matrix")},
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", metavar="NAME[,NAME...]",
                        type=lambda text: text.split(","),
                        help=f"figures to run, of: {', '.join(FIGURES)}")
    parser.add_argument("--out", type=Path, metavar="PATH",
                        help=f"write the {SCHEMA} record here")
    parser.add_argument("--paper-scale", action="store_true",
                        help="the paper's 40/400 GB volumes, not stand-ins")
    parser.add_argument("--index", choices=("tiered", "naive"),
                        help="free-space engine of every filesystem curve "
                             "(placement parity: tables must not move)")
    parser.add_argument("--store", metavar="SPEC",
                        help="replay every curve against this store spec, "
                             "e.g. lfs:reorder=clook; ':reorder=clook' keeps "
                             "each curve's own backend")
    parser.add_argument("--shards", type=int, default=0, metavar="N",
                        help="shard every curve's store N ways")
    opts = parser.parse_args(argv)
    unknown = set(opts.only or ()) - FIGURES.keys()
    if unknown:
        parser.error(f"--only: no figure named {', '.join(sorted(unknown))}")
    return opts


def overridden(opts: argparse.Namespace) -> bool:
    """``--store``/``--shards`` replace the paper's backend comparison:
    its shape checks are then reported, not enforced."""
    return opts.store is not None or opts.shards > 0


def volume_bytes(volume: str | int, paper_scale: bool) -> int:
    """Bytes of a :data:`VOLUMES` role, or of a literal byte count."""
    if isinstance(volume, int):
        return volume
    scaled, paper = VOLUMES[volume]
    return paper if paper_scale else scaled


def curve_config(opts: argparse.Namespace, backend: str,
                 sizes: SizeDistribution, *,
                 volume: str | int = "default",
                 occupancy: float = 0.5,
                 ages: tuple[float, ...] = FULL_AGES,
                 reads_per_sample: int = 32,
                 seed: int = 7,
                 label: str = "",
                 write_request: int | None = None,
                 store_data: bool = False,
                 index_kind: str | None = None,
                 size_hints: bool = False,
                 fs_config=None,
                 db_config=None) -> ExperimentConfig:
    """The experiment behind one curve of one figure.

    The curve's store is always a :class:`StoreSpec`: the figure's
    backend and parameters, or — under a ``--store``/``--shards``
    override — that declarative spec, with the curve's backend filling
    an empty backend part (so ``--store :reorder=clook`` applies one
    policy across a multi-backend comparison).  ``index_kind``/
    ``size_hints``/``fs_config``/``db_config`` are sugar for spec
    options and apply to whichever backend the spec ends up naming,
    override or not.
    """
    # Figure parameters arrive as parse *defaults*: explicit spec-text
    # keys (volume=, write_request=, ...) win over them.
    parse_defaults = {"volume_bytes": volume_bytes(volume, opts.paper_scale)}
    if write_request is not None:
        parse_defaults["write_request"] = write_request
    if store_data:
        parse_defaults["store_data"] = True
    spec = StoreSpec.parse(
        opts.store if opts.store is not None else backend,
        default_backend=backend,
        **parse_defaults,
    )
    if opts.shards > 0:
        spec = replace(spec, shards=opts.shards)
    # Backend-matched sugar; only what was given, so an option written
    # in the --store text survives (with_options drops a None).
    sugar = {}
    if spec.backend == "filesystem":
        sugar = {"index_kind": index_kind or opts.index,
                 "size_hints": size_hints or None,
                 "fs_config": fs_config}
    elif spec.backend == "database":
        sugar = {"db_config": db_config}
    spec = spec.with_options(
        **{key: value for key, value in sugar.items() if value is not None})
    if overridden(opts) and not label:
        label = f"{spec.backend}" \
                f"{'x' + str(spec.shards) if spec.shards > 1 else ''}"
    return ExperimentConfig(
        store=spec,
        sizes=sizes,
        occupancy=occupancy,
        ages=ages,
        reads_per_sample=reads_per_sample,
        seed=seed,
        label=label,
    )


def frag_series(result: RunResult) -> list[tuple[float, float]]:
    return [(round(s.age), s.fragments_per_object)
            for s in result.samples]


SERIES = ("age", "fragments_per_object", "read_mbps", "write_mbps")
#: Row cells that time the host, not the model (the store scenarios).
HOST_CELLS = ("_seconds", "_us_per_op")


def modelled(results: Any) -> Any:
    """What ``compute`` returned, as JSON: per curve the sample series
    every ``render`` and ``checks`` reads, cells as they are, tuple
    keys joined with ``/``, :data:`HOST_CELLS` left out."""
    if isinstance(results, RunResult):
        return {"bulk_load_write_mbps": results.bulk_load_write_mbps,
                **{attr: [getattr(s, attr) for s in results.samples]
                   for attr in SERIES}}
    if isinstance(results, dict):
        return {key if isinstance(key, str) else "/".join(map(str, key)):
                modelled(value) for key, value in results.items()
                if not (isinstance(key, str) and key.endswith(HOST_CELLS))}
    if isinstance(results, (list, tuple)):
        return [modelled(value) for value in results]
    return results


def host_rows(results: Any) -> list[dict[str, float]]:
    """The :data:`HOST_CELLS` that :func:`modelled` left out, row by row
    (none for aging curves: their host time is the ``curves`` list)."""
    rows = results.get("rows", ()) if isinstance(results, dict) else ()
    return [{key: cell for key, cell in row.items()
             if key.endswith(HOST_CELLS)} for row in rows]


def modelled_sha256(cells: Any) -> str:
    blob = json.dumps(cells, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return hashlib.sha256(blob.encode()).hexdigest()


def check_record(check: ShapeCheck) -> dict[str, Any]:
    """A shape check as numbers (an infinite ratio is recorded as null)."""
    value = check.value
    if value is not None and not math.isfinite(value):
        value = None
    return {"name": check.name, "passed": check.passed, "value": value,
            "bound": check.bound, "paper": check.paper}


def run_figure(name: str, opts: argparse.Namespace) -> dict[str, Any]:
    """Compute, render, check and print one figure; its record entry."""
    curves: list[dict[str, Any]] = []

    def run(backend: str, sizes: SizeDistribution, *,
            keep_store: bool = False, **kwargs):
        start = time.perf_counter()
        runner = ExperimentRunner(
            curve_config(opts, backend, sizes, **kwargs))
        result = runner.run()
        curves.append({"curve": kwargs.get("label") or backend,
                       "seconds": round(time.perf_counter() - start, 3)})
        return (result, runner.store) if keep_store else result

    figure = FIGURES[name]
    start = time.perf_counter()
    results = figure.compute(run)
    seconds = round(time.perf_counter() - start, 3)
    checks = figure.checks(results)
    print(figure.render(results))
    print()
    print("Shape checks:")
    for check in checks.values():
        print(f"  {check}")
    print(f"[{name}: {seconds:.1f} s host" + "".join(
        f", {c['curve']} {c['seconds']:.1f}" for c in curves) + "]\n")
    cells = modelled(results)
    return {
        "modelled": cells,
        "sha256": modelled_sha256(cells),
        "checks": {key: check_record(check)
                   for key, check in checks.items()},
        "host": {"seconds": seconds, "curves": curves,
                 "rows": host_rows(results)},
    }


def main(argv: list[str] | None = None) -> int:
    opts = parse_args(argv)
    figures = {name: run_figure(name, opts)
               for name in opts.only or FIGURES}
    if opts.out is not None:
        config = {key: value for key, value in vars(opts).items()
                  if key != "out"}
        opts.out.write_text(json.dumps({
            "schema": SCHEMA,
            "generated_by": "benchmarks/paperfig.py",
            "python": platform.python_version(),
            "config": config,
            "figures": figures,
        }, indent=2, allow_nan=False) + "\n")
        print(f"wrote {opts.out}")
    failed = [f"{name}.{key}" for name, entry in figures.items()
              for key, check in entry["checks"].items()
              if not check["passed"]]
    if not failed:
        return 0
    print(f"{len(failed)} shape check(s) failed: {', '.join(failed)}")
    if overridden(opts):
        print("(they encode the paper's backend comparison, which the "
              "store override replaces — reported, not enforced)")
        return 0
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
