"""Figure 6 — fragmentation on 40 GB vs 400 GB volumes (three panels).

The paper varies volume size and occupancy with 10 MB objects:

* At 50% full, the filesystem benefits from a large pool of free
  objects: the 400 GB volume converges to 4-5 fragments/object while
  the 40 GB volume converges to 11-12.
* At 90% and 97.5% full, "volume size has little impact on
  fragmentation" — the ratio of free space to object size is what
  matters, and it is small in both cases.

Scaled volumes: 1 GB and 4 GB stand in for 40 GB and 400 GB (the 10x
pool ratio is preserved; see "Contract, scaling and calibration" in
docs/benchmarks.md).  Volumes are requested by their
``paperfig.VOLUMES`` role, so ``--paper-scale`` maps every panel — the
stepped-up 97.5% pair included — onto the paper's 40/400 GB.
"""

from repro.analysis.compare import ShapeCheck, check_between, check_faster
from repro.analysis.tables import render_series_table
from repro.core.workload import ConstantSize
from repro.units import MB

import paperfig

LABELS = {
    "small": "40G-scale",
    "large": "400G-scale",
    "small_stepped": "40G-scale*",
    "large_stepped": "400G-scale*",
}


def compute(run):
    results = {}
    cells = [
        ("filesystem", "small", 0.5),
        ("filesystem", "large", 0.5),
        ("filesystem", "small", 0.9),
        ("filesystem", "large", 0.9),
        # At 97.5% the 1 GB stand-in would leave a pool of just 2.5
        # objects — the degenerate small-pool regime the paper calls
        # out separately in §5.4 — so this panel steps both volumes up
        # one notch to stay in the regime the figure plots.
        ("filesystem", "small_stepped", 0.975),
        ("filesystem", "large_stepped", 0.975),
        ("database", "small", 0.5),
        ("database", "large", 0.5),
    ]
    for backend, volume, occupancy in cells:
        # The paper's DB panel only shows 50% full; churn its curves to
        # age 5 like the figure does, the FS panels to age 10.
        ages = tuple(
            a for a in paperfig.FULL_AGES
            if backend == "filesystem" or a <= 5.0
        )
        results[(backend, volume, occupancy)] = run(
            backend, ConstantSize(10 * MB),
            volume=volume, occupancy=occupancy, ages=ages,
            reads_per_sample=8,
        )
    return results


def render(results) -> str:
    blocks = []
    blocks.append(render_series_table(
        "Figure 6a: Database Fragmentation: Different Volumes "
        "(50% full, fragments/object)",
        "Storage Age",
        {
            f"50% full - {LABELS[vol]}": paperfig.frag_series(
                results[("database", vol, 0.5)])
            for vol in ("small", "large")
        },
    ))
    blocks.append(render_series_table(
        "Figure 6b: Filesystem Fragmentation: Different Volumes "
        "(50% full, fragments/object)",
        "Storage Age",
        {
            f"50% full - {LABELS[vol]}": paperfig.frag_series(
                results[("filesystem", vol, 0.5)])
            for vol in ("small", "large")
        },
    ))
    blocks.append(render_series_table(
        "Figure 6c: Filesystem Fragmentation: Different Volumes "
        "(90% / 97.5% full, fragments/object)",
        "Storage Age",
        {
            f"{occ:.1%} full - {LABELS[vol]}": paperfig.frag_series(
                results[("filesystem", vol, occ)])
            for occ, vols in (
                (0.9, ("small", "large")),
                (0.975, ("small_stepped", "large_stepped")),
            )
            for vol in vols
        },
    ))
    footer = ("Paper: at 50% full the large volume's big free pool keeps "
              "NTFS at 4-5 fragments while the small volume converges to "
              "11-12; at 90%+ volume size hardly matters.")
    return "\n\n".join(blocks) + "\n" + footer


def checks(results) -> dict[str, ShapeCheck]:
    def final(backend: str, volume: str, occupancy: float) -> float:
        return paperfig.frag_series(
            results[(backend, volume, occupancy)])[-1][1]

    fs_small_50 = final("filesystem", "small", 0.5)
    fs_small_90 = final("filesystem", "small", 0.9)
    return {
        "fs_50_small_over_large": check_faster(
            "at 50% full the small volume fragments worse (free pool)",
            fs_small_50, final("filesystem", "large", 0.5), min_ratio=1.5,
            paper="11-12 vs 4-5 fragments (~2.5x)",
        ),
        "fs_90_small_over_large": check_between(
            "at 90% full volume size has little impact",
            fs_small_90 / final("filesystem", "large", 0.9), 0.6, 1.8,
        ),
        "fs_975_small_over_large": check_between(
            "at 97.5% full volume size has little impact",
            final("filesystem", "small_stepped", 0.975)
            / final("filesystem", "large_stepped", 0.975), 0.6, 1.8,
        ),
        "fs_small_90_over_50": check_faster(
            "occupancy dominates: 90% full beats 50% full handily",
            fs_small_90, fs_small_50,
        ),
        "db_50_small_over_large": check_between(
            "database at 50% full: volume size has modest impact",
            final("database", "small", 0.5)
            / final("database", "large", 0.5), 0.4, 2.5,
        ),
    }

