"""Figure 3 — long-term fragmentation with 256 KB objects.

"For small objects, the systems have similar fragmentation behavior":
run to a steady state, both converge to roughly **four fragments per
file, or one fragment per 64 KB** — the test's write request size.  The
paper takes this as evidence that the size of file creation and append
operations drives fragmentation.

The steady state is reached on a nearly full volume (97% here): with a
large free pool the filesystem keeps finding contiguous holes and stays
near one fragment; the convergence the paper describes is the
exhausted-pool regime (compare Figure 6's free-pool effect).
"""

from repro.analysis.compare import ShapeCheck, check_between
from repro.analysis.tables import render_series_table
from repro.core.workload import ConstantSize
from repro.units import KB, MB

import paperfig


def curve(run, backend: str, **kwargs):
    """One curve of this figure (``bench_ablation_index`` reruns the
    filesystem one under each free-space engine)."""
    return run(
        backend, ConstantSize(256 * KB),
        volume=512 * MB,
        occupancy=0.97,
        ages=paperfig.FULL_AGES,
        reads_per_sample=16,
        **kwargs,
    )


def compute(run):
    return {backend: curve(run, backend)
            for backend in ("database", "filesystem")}


def render(results) -> str:
    return render_series_table(
        "Figure 3: Long Term Fragmentation With 256K Objects "
        "(fragments/object)",
        "Storage Age",
        {
            "Database": paperfig.frag_series(results["database"]),
            "Filesystem": paperfig.frag_series(results["filesystem"]),
        },
        footer=("Paper: both systems converge to ~4 fragments/object = "
                "one fragment per 64KB write request."),
    )


def checks(results) -> dict[str, ShapeCheck]:
    db_final = paperfig.frag_series(results["database"])[-1][1]
    fs_final = paperfig.frag_series(results["filesystem"])[-1][1]
    return {
        "db_frags": check_between(
            "database converges near 4 frags (1 per 64KB)",
            db_final, 2.5, 6.5, paper="~4 fragments"),
        "fs_frags": check_between(
            "filesystem converges near 4 frags (1 per 64KB)",
            fs_final, 2.0, 6.0, paper="~4 fragments"),
        "db_over_fs": check_between(
            "the two systems converge to similar levels",
            db_final / fs_final, 0.5, 2.0),
    }

