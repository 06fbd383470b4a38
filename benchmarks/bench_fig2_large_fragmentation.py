"""Figure 2 — long-term fragmentation with 10 MB objects.

The paper's headline fragmentation result: over storage ages 0-10,
NTFS's fragments/object "begins to level off over time, while SQL
Server's fragmentation increases almost linearly over time and does not
seem to be approaching any asymptote".
"""

from repro.analysis.compare import (
    ShapeCheck,
    check_faster,
    check_keeps_growing,
    check_levels_off,
    check_monotonic_increase,
)
from repro.analysis.tables import render_series_table
from repro.core.workload import ConstantSize
from repro.units import MB

import paperfig


def compute(run):
    return {
        backend: run(
            backend, ConstantSize(10 * MB),
            volume="default",
            occupancy=0.5,
            ages=paperfig.FULL_AGES,
            reads_per_sample=16,
        )
        for backend in ("database", "filesystem")
    }


def render(results) -> str:
    return render_series_table(
        "Figure 2: Long Term Fragmentation With 10 MB Objects "
        "(fragments/object)",
        "Storage Age",
        {
            "Database": paperfig.frag_series(results["database"]),
            "Filesystem": paperfig.frag_series(results["filesystem"]),
        },
        footer=("Paper: database rises near-linearly (to ~35-40 on the "
                "400 GB testbed); filesystem levels off (~5).  Scaled "
                "volumes preserve the shapes, not the absolute levels."),
    )


def checks(results) -> dict[str, ShapeCheck]:
    db = paperfig.frag_series(results["database"])
    fs = paperfig.frag_series(results["filesystem"])
    return {
        "db_rises": check_monotonic_increase(
            "database fragmentation rises", db),
        "db_late_growth": check_keeps_growing(
            "database approaches no asymptote", db,
            paper="almost linear, no asymptote"),
        "fs_late_growth": check_levels_off(
            "filesystem levels off", fs, max_late_growth=0.55,
            paper="begins to level off"),
        "db_over_fs": check_faster(
            "database fragments far worse than filesystem",
            db[-1][1], fs[-1][1], min_ratio=2.0,
            paper="~35-40 vs ~5 fragments (~7-8x)"),
    }

