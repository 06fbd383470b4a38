"""Ablation A3 — the paper's proposed interface: size hints at create.

Conclusions section: "The ability to specify the size of the object
before initial space allocation could reduce fragmentation", and §5.4:
"systems that use deferred allocation partially address this problem by
implicitly increasing the size of file append requests".

Three filesystem variants on the same aged workload:
  * plain       — per-request allocation (the measured NTFS behaviour)
  * delayed     — XFS-style buffered appends, allocated at flush
  * size hints  — full-size preallocation at create (the proposal)
"""

from repro.analysis.compare import ShapeCheck, check_between, check_faster
from repro.analysis.tables import render_table
from repro.core.workload import ConstantSize
from repro.fs.filesystem import FsConfig
from repro.units import MB

OBJECT = 2 * MB


def run_variant(run, variant: str):
    kwargs = {}
    if variant == "delayed":
        kwargs["fs_config"] = FsConfig(delayed_allocation=True)
    elif variant == "size hints":
        kwargs["size_hints"] = True
    result = run(
        "filesystem", ConstantSize(OBJECT),
        volume=512 * MB,
        occupancy=0.9,
        ages=(0.0, 2.0, 4.0, 8.0),
        reads_per_sample=24,
        **kwargs,
    )
    return result


def compute(run):
    return {variant: run_variant(run, variant)
            for variant in ("plain", "delayed", "size hints")}


def render(results) -> str:
    rows = []
    for variant, result in results.items():
        final = result.sample_at(8.0)
        rows.append([
            variant,
            final.fragments_per_object,
            final.read_mbps / MB,
            result.sample_at(8.0).write_mbps / MB,
        ])
    return render_table(
        "Ablation A3: allocation interface vs aged performance "
        "(2 MB objects, age 8, 90% full)",
        ["Interface", "Frags/object", "Read MB/s", "Write MB/s"],
        rows,
        footer=("Paper's proposal: passing the known object size at "
                "create removes the per-append allocation that causes "
                "most filesystem fragmentation."),
    )


def checks(results) -> dict[str, ShapeCheck]:
    plain = results["plain"].sample_at(8.0)
    delayed = results["delayed"].sample_at(8.0)
    hinted = results["size hints"].sample_at(8.0)
    return {
        "plain_over_delayed_frags": check_faster(
            "plain per-request allocation fragments most",
            plain.fragments_per_object, delayed.fragments_per_object,
        ),
        "delayed_over_plain_read": check_faster(
            "delayed allocation also beats plain on reads",
            delayed.read_mbps, 0.95 * plain.read_mbps,
        ),
        "hinted_frags": check_between(
            "size hints keep objects near-contiguous",
            hinted.fragments_per_object, 1.0, 1.6,
        ),
        "hinted_over_plain_read": check_faster(
            "size hints give the best aged read throughput",
            hinted.read_mbps, plain.read_mbps,
        ),
    }

