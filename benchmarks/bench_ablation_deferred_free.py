"""Ablation A4 — deferred free-space reuse windows.

Two deferral mechanisms shape reuse in the paper's systems:

* NTFS: "the transactional log entry must be committed before freed
  space can be reallocated" — the journal's group-commit interval sets
  the window.
* SQL Server: ghost records — deleted pages return to the allocation
  maps only when the background cleaner processes them.

This ablation varies both windows and reports aged fragmentation.  For
the database, *fine-grained trickle cleanup* is the interleaving driver
(docs/benchmarks.md, "Contract, scaling and calibration"): immediate
frees let each replacement reuse whole holes, while trickled frees
splice objects across many old holes.
"""

from repro.analysis.compare import ShapeCheck, check_between, check_faster
from repro.analysis.tables import render_table
from repro.core.workload import ConstantSize
from repro.db.database import DbConfig
from repro.fs.filesystem import FsConfig
from repro.units import MB

OBJECT = 4 * MB
AGES = (0.0, 4.0, 8.0)


def compute(run):
    results = {}
    for label, interval in (("commit each op", 1),
                            ("commit every 8", 8),
                            ("commit every 64", 64)):
        result = run(
            "filesystem", ConstantSize(OBJECT),
            volume=512 * MB, occupancy=0.9, ages=AGES,
            reads_per_sample=8,
            fs_config=FsConfig(commit_interval_ops=interval),
        )
        results[("filesystem", label)] = \
            result.sample_at(8.0).fragments_per_object
    for label, cfg in (
        ("immediate frees", DbConfig(ghost_cleanup_interval_ops=0)),
        ("trickle (default)", DbConfig()),
        ("long window", DbConfig(ghost_cleanup_interval_ops=64,
                                 ghost_max_pages_per_sweep=64,
                                 ghost_min_age_ops=1024)),
    ):
        result = run(
            "database", ConstantSize(OBJECT),
            volume=512 * MB, occupancy=0.9, ages=AGES,
            reads_per_sample=8,
            db_config=cfg,
        )
        results[("database", label)] = \
            result.sample_at(8.0).fragments_per_object
    return results


def render(results) -> str:
    rows = [[system, label, frags]
            for (system, label), frags in results.items()]
    return render_table(
        "Ablation A4: deferred-free window vs fragments/object "
        "(4 MB objects, age 8, 90% full)",
        ["System", "Free-space reuse window", "Frags/object"],
        rows,
        footer=("Deferred reuse drives fragmentation in BOTH systems: "
                "trickled ghost cleanup splices database objects across "
                "old holes, and long journal windows starve the "
                "filesystem's free pool at high occupancy."),
    )


def checks(results) -> dict[str, ShapeCheck]:
    return {
        "db_trickle_over_immediate": check_faster(
            "db: deferred (trickled) frees fragment worse than immediate",
            results[("database", "trickle (default)")],
            results[("database", "immediate frees")],
            min_ratio=1.15,
        ),
        "db_immediate_frags": check_between(
            "db: immediate frees eliminate fragmentation (exact-fit "
            "hole reuse)",
            results[("database", "immediate frees")], 1.0, 1.5,
        ),
        "fs_commit64_over_commit1": check_faster(
            "fs: longer commit windows also raise fragmentation",
            results[("filesystem", "commit every 64")],
            results[("filesystem", "commit each op")],
            min_ratio=1.2,
        ),
    }

