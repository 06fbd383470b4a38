#!/usr/bin/env python
"""Allocator microbenchmark: the free-space engine's per-op host time.

Times the operations every experiment funnels through
:class:`~repro.alloc.freelist.FreeExtentIndex` — building a fragmented
free map, mixed alloc/free churn through the repo's allocation entry
points, and the point queries — at 10^3..10^6 live extents.  ``--out``
writes a machine-readable ``bench-alloc/2`` record (schema documented
in ``benchmarks/README.md``).  The committed ``BENCH_alloc.json`` is
the older ``bench-alloc/1`` record that also timed the retired
flat-list engine; nothing here rewrites it.

Operation families
------------------
* ``build``            — populate the index with n isolated free runs.
* ``mixed_policy``     — alternating ``allocate_fragmented`` (first-fit
  policy, includes its O(total_free) occupancy guard) and frees: the
  generic allocation path of :mod:`repro.alloc.policy`.
* ``aging_runcache``   — alternating :class:`NtfsRunCache` allocations
  and frees: the filesystem aging hot path behind Figures 1-4.
* ``query_*``          — first_fit / banded first_fit / best_fit /
  worst_fit / total_free reads against a static map.

Usage::

    PYTHONPATH=src python benchmarks/bench_alloc_micro.py
    PYTHONPATH=src python benchmarks/bench_alloc_micro.py --quick
    PYTHONPATH=src python benchmarks/bench_alloc_micro.py \
        --scales 1000,100000,1000000 --out /tmp/bench_alloc.json
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import time
from pathlib import Path

from repro.alloc.extent import Extent
from repro.alloc.freelist import FreeExtentIndex
from repro.alloc.policy import FirstFit, allocate_fragmented
from repro.alloc.runcache import NtfsRunCache

#: Byte slot reserved per seeded run; runs are 1..48 bytes long, so
#: consecutive seeds never touch and the build phase never coalesces.
SLOT = 64
DEFAULT_SCALES = (1_000, 10_000, 100_000)
QUICK_SCALES = (1_000, 10_000)
#: Measured mutation ops per scale (the committed record's counts, so
#: per-op times stay comparable with it).
MUTATION_OPS = {1_000: 2_000, 10_000: 1_000}
MUTATION_OPS_DEFAULT = 300
QUERY_OPS = 200


def seeded_run(i: int) -> Extent:
    """The i-th build-phase run: deterministic, spread across buckets."""
    return Extent(i * SLOT, 1 + (i * 7919) % 48)


def build_index(n: int) -> FreeExtentIndex:
    index = FreeExtentIndex((n + 1) * SLOT, initially_free=False)
    for i in range(n):
        index.add(seeded_run(i))
    return index


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def bench_scale(n: int) -> list[dict]:
    """All operation families at one scale."""
    ops = MUTATION_OPS.get(n, MUTATION_OPS_DEFAULT)
    rows: list[dict] = []

    def row(op: str, count: int, seconds: float) -> None:
        rows.append({
            "live_extents": n,
            "op": op,
            "ops": count,
            "seconds": round(seconds, 6),
            "us_per_op": round(seconds / count * 1e6, 3),
        })

    holder: list = []
    row("build", n, timed(lambda: holder.append(build_index(n))))
    index = holder[0]

    # Mixed alloc/free through the generic policy path.
    rng = random.Random(1234)
    policy = FirstFit()
    allocated: list[list[Extent]] = []

    def mixed_policy() -> None:
        for _ in range(ops):
            size = rng.randint(1, 32)
            allocated.append(allocate_fragmented(index, size, policy))
            if allocated and rng.random() < 0.5:
                for piece in allocated.pop(rng.randrange(len(allocated))):
                    index.add(piece)

    row("mixed_policy", ops, timed(mixed_policy))
    for pieces in allocated:
        for piece in pieces:
            index.add(piece)

    # Mixed alloc/free through the NTFS run cache (the aging workload).
    rng = random.Random(5678)
    runcache = NtfsRunCache(index)
    chunks: list[list[Extent]] = []

    def aging_runcache() -> None:
        for _ in range(ops):
            size = rng.randint(1, 32)
            chunks.append(runcache.allocate(size))
            if chunks and rng.random() < 0.5:
                for piece in chunks.pop(rng.randrange(len(chunks))):
                    index.add(piece)

    row("aging_runcache", ops, timed(aging_runcache))
    for pieces in chunks:
        for piece in pieces:
            index.add(piece)

    # Point queries against the (restored) static map.
    rng = random.Random(42)
    capacity = index.capacity
    sizes = [rng.randint(1, 48) for _ in range(QUERY_OPS)]
    bands = [rng.randrange(capacity) for _ in range(QUERY_OPS)]

    row("query_first_fit", QUERY_OPS,
        timed(lambda: [index.first_fit(s) for s in sizes]))
    row("query_banded_first_fit", QUERY_OPS,
        timed(lambda: [index.first_fit(s, min_start=b)
                       for s, b in zip(sizes, bands)]))
    row("query_best_fit", QUERY_OPS,
        timed(lambda: [index.best_fit(s) for s in sizes]))
    row("query_worst_fit", QUERY_OPS,
        timed(lambda: [index.worst_fit(s) for s in sizes]))
    row("query_total_free", QUERY_OPS,
        timed(lambda: [index.total_free for _ in range(QUERY_OPS)]))

    index.check_invariants()
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small scales only (CI smoke)")
    parser.add_argument("--scales", type=str, default=None,
                        help="comma-separated live-extent counts")
    parser.add_argument("--out", type=Path,
                        help="write the bench-alloc/2 record here")
    args = parser.parse_args(argv)

    if args.scales:
        scales = tuple(int(s) for s in args.scales.split(","))
    else:
        scales = QUICK_SCALES if args.quick else DEFAULT_SCALES
    rows: list[dict] = []
    for n in scales:
        print(f"... {n:,} live extents", flush=True)
        rows.extend(bench_scale(n))

    print(f"\n{'op':24s} {'n':>9s} {'us/op':>10s}")
    for r in rows:
        print(f"{r['op']:24s} {r['live_extents']:>9,d} "
              f"{r['us_per_op']:>10.1f}")
    if args.out is not None:
        args.out.write_text(json.dumps({
            "schema": "bench-alloc/2",
            "generated_by": "benchmarks/bench_alloc_micro.py",
            "python": platform.python_version(),
            "config": {
                "scales": list(scales),
                "quick": args.quick,
                "query_ops": QUERY_OPS,
            },
            "results": rows,
        }, indent=2) + "\n")
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
