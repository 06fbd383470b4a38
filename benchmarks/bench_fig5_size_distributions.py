"""Figure 5 — BLOB size distributions: constant vs uniform.

The paper's surprise: "objects of a constant size show no better
fragmentation performance than objects of sizes chosen uniformly at
random with the same average size".  Both panels (database, filesystem)
use 10 MB mean objects; the database fragments rapidly and the
filesystem slowly under *both* distributions.
"""

from repro.analysis.compare import ShapeCheck, check_between, check_faster
from repro.analysis.tables import render_series_table
from repro.core.workload import ConstantSize, UniformSize
from repro.units import MB

import paperfig

DISTRIBUTIONS = {
    "Constant": ConstantSize(10 * MB),
    "Uniform": UniformSize.around_mean(10 * MB, spread=0.8),
}


def compute(run):
    results = {}
    for backend in ("database", "filesystem"):
        for dist_label, dist in DISTRIBUTIONS.items():
            results[(backend, dist_label)] = run(
                backend, dist,
                volume="default",
                occupancy=0.5,
                ages=paperfig.FULL_AGES,
                reads_per_sample=16,
            )
    return results


def render(results) -> str:
    blocks = []
    for backend, title in (("database", "Database"),
                           ("filesystem", "Filesystem")):
        blocks.append(render_series_table(
            f"Figure 5: {title} Fragmentation: Blob Distributions "
            "(fragments/object)",
            "Storage Age",
            {
                label: paperfig.frag_series(results[(backend, label)])
                for label in DISTRIBUTIONS
            },
        ))
    footer = ("Paper: constant-size objects fragment about as much as "
              "uniform sizes with the same mean, for both systems.")
    return "\n\n".join(blocks) + "\n" + footer


def checks(results) -> dict[str, ShapeCheck]:
    out = {}
    for backend in ("database", "filesystem"):
        const = paperfig.frag_series(results[(backend, "Constant")])[-1][1]
        uniform = paperfig.frag_series(results[(backend, "Uniform")])[-1][1]
        out[f"{backend}_constant_over_uniform"] = check_between(
            f"{backend}: constant ~= uniform at age 10",
            const / uniform, 0.4, 2.5, paper="no better than uniform",
        )
    db_final = paperfig.frag_series(results[("database", "Constant")])[-1][1]
    fs_final = paperfig.frag_series(
        results[("filesystem", "Constant")]
    )[-1][1]
    out["db_over_fs"] = check_faster(
        "database fragments rapidly, filesystem slowly",
        db_final, fs_final, min_ratio=2.0,
    )
    out["fs_frags"] = check_between(
        "filesystem still fragments (constant sizes are no cure)",
        fs_final, 1.15, 50.0,
    )
    return out

