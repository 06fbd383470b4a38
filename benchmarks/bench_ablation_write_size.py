"""Ablation A2 — write request size vs long-term fragmentation.

Section 5.3/5.4: both systems converged to "one fragment per 64KB" —
the write request size — and "modifying the size of the write requests
that append to NTFS files and database BLOBs changes long-term
fragmentation behavior, supporting this theory" (allocation happens per
request, before the final size is known).

This ablation reruns the 256 KB steady state with 16 KB, 64 KB, and
256 KB requests: fragments/object should fall as the request grows,
approaching one fragment when a single request covers the whole object.
"""

from repro.analysis.compare import ShapeCheck, check_between, check_faster
from repro.analysis.tables import render_table
from repro.core.workload import ConstantSize
from repro.fs.filesystem import FsConfig
from repro.units import KB, MB

OBJECT = 256 * KB
REQUESTS = (16 * KB, 64 * KB, 256 * KB)

#: The paper's theory is that EVERY write request is an independent
#: placement decision ("NTFS allocates space as the file is being
#: appended to").  The filesystem runs therefore use a placement-review
#: interval of 1 — per-request decisions — so the request size, not the
#: review batching, sets the fragmentation floor.
PER_REQUEST_FS = FsConfig(reconsider_interval_requests=1)


def compute(run):
    results = {}
    for backend in ("database", "filesystem"):
        for request in REQUESTS:
            kwargs = {}
            if backend == "filesystem":
                kwargs["fs_config"] = PER_REQUEST_FS
            result = run(
                backend, ConstantSize(OBJECT),
                volume=512 * MB,
                occupancy=0.97,
                ages=(0.0, 4.0, 8.0, 10.0),
                reads_per_sample=8,
                write_request=request,
                **kwargs,
            )
            results[(backend, request)] = \
                result.sample_at(10.0).fragments_per_object
    return results


def render(results) -> str:
    rows = []
    for request in REQUESTS:
        rows.append([
            f"{request // KB}K",
            f"{OBJECT // request}",
            results[("database", request)],
            results[("filesystem", request)],
        ])
    return render_table(
        "Ablation A2: write request size vs fragments/object "
        "(256K objects, age 10, 97% full)",
        ["Write request", "Requests/object", "Database", "Filesystem"],
        rows,
        footer=("Paper: fragmentation tracks the write request size — "
                "one fragment per request in the steady state."),
    )


def checks(results) -> dict[str, ShapeCheck]:
    out = {}
    for backend in ("database", "filesystem"):
        small = results[(backend, 16 * KB)]
        medium = results[(backend, 64 * KB)]
        out[f"{backend}_16K_over_64K"] = check_faster(
            f"{backend}: smaller requests fragment worse (16K > 64K)",
            small, medium, min_ratio=1.3,
        )
    # A single whole-object request keeps a *file* near-contiguous; the
    # database still allocates in 64 KB extents internally, so its
    # floor is the extent count, not 1 (the paper's "one fragment per
    # 64KB" is an extent-granularity statement for SQL Server).
    fs_large = results[("filesystem", 256 * KB)]
    db_large = results[("database", 256 * KB)]
    out["filesystem_64K_over_256K"] = check_faster(
        "filesystem: 64K requests fragment worse than whole-object",
        results[("filesystem", 64 * KB)], fs_large, min_ratio=1.2,
    )
    out["filesystem_256K_frags"] = check_between(
        "filesystem: whole-object requests stay near-contiguous",
        fs_large, 1.0, 2.5,
    )
    out["database_256K_frags"] = check_between(
        "database: floor stays at extent granularity (~4 per 256K)",
        db_large, 1.0, 6.0,
    )
    return out

