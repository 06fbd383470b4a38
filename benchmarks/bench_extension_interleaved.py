"""Extension A6 — interleaved append requests to multiple objects.

The paper's conclusions flag this as unmeasured future work: "Also not
considered were interleaved append requests to multiple objects, which
are likely to increase fragmentation."  This bench measures it: grow N
objects concurrently, one 64 KB request at a time round-robin, on a
clean volume — the pattern of a web server receiving N uploads at once.

It also measures the mitigation the paper points to (§5.4): delayed
allocation "implicitly increases the size of file append requests" by
buffering, so concurrent streams stop competing per-request.
"""

from repro.analysis.compare import ShapeCheck, check_between, check_faster
from repro.analysis.tables import render_table
from repro.core.interleaved import interleaved_db_load, interleaved_fs_load
from repro.db.database import SimDatabase
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.fs.filesystem import FsConfig, SimFilesystem
from repro.units import GB, MB

OBJECT = 4 * MB
TOTAL = 100
STREAMS = (1, 2, 4, 8)


def compute(run):
    results = {}
    for streams in STREAMS:
        fs = SimFilesystem(BlockDevice(scaled_disk(1 * GB)))
        results[("filesystem", streams)] = interleaved_fs_load(
            fs, nstreams=streams, object_size=OBJECT, total_objects=TOTAL
        ).fragments_per_object
        delayed = SimFilesystem(
            BlockDevice(scaled_disk(1 * GB)),
            FsConfig(delayed_allocation=True),
        )
        results[("fs+delayed", streams)] = interleaved_fs_load(
            delayed, nstreams=streams, object_size=OBJECT,
            total_objects=TOTAL,
        ).fragments_per_object
        db = SimDatabase(BlockDevice(scaled_disk(1 * GB)))
        results[("database", streams)] = interleaved_db_load(
            db, nstreams=streams, object_size=OBJECT, total_objects=TOTAL
        ).fragments_per_object
    return results


def render(results) -> str:
    rows = []
    for streams in STREAMS:
        rows.append([
            streams,
            results[("filesystem", streams)],
            results[("database", streams)],
            results[("fs+delayed", streams)],
        ])
    return render_table(
        "Extension A6: concurrent append streams vs fragments/object "
        f"({OBJECT // MB} MB objects, clean volume)",
        ["Streams", "Filesystem", "Database", "FS + delayed alloc"],
        rows,
        footer=("Paper §6: interleaved appends are 'likely to increase "
                "fragmentation' — confirmed: per-request allocation "
                "degrades to one fragment per request; buffering "
                "(delayed allocation) restores contiguity."),
    )


def checks(results) -> dict[str, ShapeCheck]:
    max_frags = OBJECT // (64 * 1024)
    return {
        "serial_frags_product": check_between(
            "serial appends stay contiguous (both systems)",
            results[("filesystem", 1)] * results[("database", 1)], 1.0, 1.2),
        "fs_2_over_1_streams": check_faster(
            "two interleaved streams explode filesystem fragmentation",
            results[("filesystem", 2)], results[("filesystem", 1)],
            min_ratio=8.0,
        ),
        "db_2_over_1_streams": check_faster(
            "two interleaved streams explode database fragmentation",
            results[("database", 2)], results[("database", 1)],
            min_ratio=8.0,
        ),
        "fs_8_streams_frags": check_between(
            "interleaving approaches one fragment per write request",
            results[("filesystem", 8)], max_frags * 0.5, max_frags,
            paper="likely to increase fragmentation (unmeasured)",
        ),
        "delayed_8_streams_frags": check_between(
            "delayed allocation neutralizes the interleaving",
            results[("fs+delayed", 8)], 1.0, 1.5,
        ),
    }

