"""Figure 1 — read throughput after bulk load, two, and four overwrites.

Three panels in the paper (bulk load / age 2 / age 4), each comparing
database and filesystem read throughput for 256 KB, 512 KB, and 1 MB
objects.  Claims reproduced:

* Immediately after bulk load, SQL Server is faster on small objects;
  objects up to about 1 MB are best stored as BLOBs.
* As objects are overwritten, fragmentation degrades SQL Server:
  "fragmentation eventually halves SQL Server's throughput" and the
  break-even point declines from ~1 MB to ~256 KB.
"""

from repro.analysis.compare import ShapeCheck, check_faster
from repro.analysis.tables import render_table
from repro.core.workload import ConstantSize
from repro.units import KB, MB

import paperfig

SIZES = {"256K": 256 * KB, "512K": 512 * KB, "1M": 1 * MB}


def compute(run):
    results = {}
    for label, size in SIZES.items():
        for backend in ("database", "filesystem"):
            results[(label, backend)] = run(
                backend, ConstantSize(size),
                volume="throughput",
                occupancy=0.9,
                ages=paperfig.SHORT_AGES,
                reads_per_sample=48,
                seed=11,
            )
    return results


def render(results) -> str:
    blocks = []
    for age, title in ((0.0, "After Bulk Load"),
                       (2.0, "After Two Overwrites"),
                       (4.0, "After Four Overwrites")):
        rows = []
        for label in SIZES:
            db = results[(label, "database")].sample_at(age)
            fs = results[(label, "filesystem")].sample_at(age)
            rows.append([label, db.read_mbps / MB, fs.read_mbps / MB])
        blocks.append(render_table(
            f"Figure 1: Read Throughput {title} (MB/s)",
            ["Object Size", "Database", "Filesystem"],
            rows,
        ))
    footer = ("Paper: DB ahead at all sizes when clean; by age four the "
              "break-even falls to ~256KB and DB throughput roughly halves.")
    return "\n\n".join(blocks) + "\n" + footer


def checks(results) -> dict[str, ShapeCheck]:
    out = {}
    for label in SIZES:
        db0 = results[(label, "database")].sample_at(0.0).read_mbps
        fs0 = results[(label, "filesystem")].sample_at(0.0).read_mbps
        out[f"clean_db_over_fs_{label}"] = check_faster(
            f"clean read, {label}: database beats filesystem", db0, fs0,
        )
    for label in ("512K", "1M"):
        db4 = results[(label, "database")].sample_at(4.0).read_mbps
        fs4 = results[(label, "filesystem")].sample_at(4.0).read_mbps
        out[f"aged_fs_over_db_{label}"] = check_faster(
            f"aged read, {label}: filesystem beats database by age 4",
            fs4, db4,
        )
    db = results[("512K", "database")]
    out["db_aging_512K"] = check_faster(
        "aging costs the database >=35% of its 512K read throughput",
        db.sample_at(0.0).read_mbps, db.sample_at(4.0).read_mbps,
        min_ratio=1.35, paper="roughly halves (~2x)",
    )
    return out

