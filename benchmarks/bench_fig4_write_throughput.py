"""Figure 4 — 512 KB write throughput over time.

"Although SQL Server quickly fills a volume with data, its performance
suffers when existing objects are replaced."  During bulk load the
database writes much faster than the filesystem (the paper measured
17.7 vs 10.1 MB/s); after bulk load its write throughput degrades
quickly while the filesystem's stays roughly flat.
"""

from repro.analysis.compare import ShapeCheck, check_faster
from repro.analysis.tables import render_table
from repro.core.workload import ConstantSize
from repro.units import KB, MB

import paperfig


def compute(run):
    return {
        backend: run(
            backend, ConstantSize(512 * KB),
            volume="throughput",
            occupancy=0.9,
            ages=paperfig.SHORT_AGES,
            reads_per_sample=16,
            seed=11,
        )
        for backend in ("database", "filesystem")
    }


def render(results) -> str:
    rows = []
    labels = {0.0: "During bulk load (zero)", 2.0: "Two", 4.0: "Four"}
    for age, label in labels.items():
        db = results["database"].sample_at(age).write_mbps / MB
        fs = results["filesystem"].sample_at(age).write_mbps / MB
        rows.append([label, db, fs])
    return render_table(
        "Figure 4: 512K Write Throughput Over Time (MB/s)",
        ["Storage Age", "Database", "Filesystem"],
        rows,
        footer=("Paper: bulk load 17.7 (DB) vs 10.1 (FS) MB/s; the DB "
                "degrades quickly once objects are replaced."),
    )


def checks(results) -> dict[str, ShapeCheck]:
    db = results["database"]
    fs = results["filesystem"]
    return {
        "bulk_db_over_fs": check_faster(
            "bulk load: database writes beat filesystem (paper 1.75x)",
            db.bulk_load_write_mbps, fs.bulk_load_write_mbps,
            min_ratio=1.3, paper="1.75x (17.7 vs 10.1 MB/s)",
        ),
        "db_write_aging": check_faster(
            "database write throughput degrades sharply by age 4",
            db.bulk_load_write_mbps, db.sample_at(4.0).write_mbps,
            min_ratio=1.6,
        ),
        "fs_write_flat": check_faster(
            "filesystem writes stay roughly flat",
            fs.sample_at(4.0).write_mbps, 0.7 * fs.bulk_load_write_mbps,
        ),
        "aged_fs_over_db": check_faster(
            "by age 4 the filesystem out-writes the database",
            fs.sample_at(4.0).write_mbps, db.sample_at(4.0).write_mbps,
        ),
    }

