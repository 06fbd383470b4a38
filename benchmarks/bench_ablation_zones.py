"""Ablation A7 — multi-zone placement (why allocation is 'banded').

Paper §3.4: modern drives transfer faster on outer cylinders; an
"optimal policy for placing popular files in faster zones" yielded
20-40% improvements in simulation, and NTFS's banded allocation targets
the fast band.  This ablation measures the effect directly on the disk
model: the same object set read from the outer band, the inner band,
and a uniform spread — plus the filesystem's own outer-band preference
observed from a real bulk load.
"""

from repro.analysis.compare import ShapeCheck, check_between, check_faster
from repro.analysis.tables import render_table
from repro.core.workload import ConstantSize, WorkloadSpec, bulk_load
from repro.backends.file_backend import FileBackend
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.rng import substream
from repro.units import GB, MB

OBJECT = 4 * MB
NOBJECTS = 64
VOLUME = 4 * GB


def read_rate_at(band_start: int) -> float:
    """Sequentially-placed objects at a band, read in random order."""
    device = BlockDevice(scaled_disk(VOLUME))
    spans = [(band_start + i * OBJECT, OBJECT) for i in range(NOBJECTS)]
    rng = substream(3, f"band-{band_start}")
    order = list(range(NOBJECTS))
    rng.shuffle(order)
    win = device.stats.start_window("reads")
    for idx in order:
        device.read_extents([spans[idx]])
    device.stats.end_window(win)
    return win.read_bytes / win.total_time_s


def fs_band_usage() -> float:
    """Fraction of bulk-loaded bytes the filesystem puts in the outer
    band when only half the volume is needed."""
    store = FileBackend(BlockDevice(scaled_disk(VOLUME)))
    spec = WorkloadSpec(sizes=ConstantSize(OBJECT), target_occupancy=0.4)
    state = bulk_load(store, spec, substream(5, "w"))
    band_limit = store.fs.allocator.runcache.outer_band_limit
    in_band = 0
    total = 0
    for key in state.keys:
        for start, length in store.object_extents(key):
            total += length
            if start < band_limit:
                in_band += length
    return in_band / total if total else 0.0


def compute(run):
    outer = read_rate_at(0)
    middle = read_rate_at(VOLUME // 2)
    inner = read_rate_at(VOLUME - NOBJECTS * OBJECT - MB)
    return {
        "outer": outer,
        "middle": middle,
        "inner": inner,
        "fs_band_fraction": fs_band_usage(),
    }


def render(results) -> str:
    rows = [
        ["outer band", results["outer"] / MB],
        ["middle", results["middle"] / MB],
        ["inner band", results["inner"] / MB],
    ]
    table = render_table(
        "Ablation A7: random reads of 4 MB objects by zone (MB/s)",
        ["Placement", "Read MB/s"],
        rows,
        footer=(f"Outer/inner advantage: "
                f"{results['outer'] / results['inner']:.2f}x "
                "(paper cites 20-40% gains from zone-aware placement)."),
    )
    return table + (
        f"\nFilesystem bulk load placed "
        f"{results['fs_band_fraction']:.0%} of object bytes at "
        "outer-band offsets (banded allocation fills the volume from "
        "the fast edge)."
    )


def checks(results) -> dict[str, ShapeCheck]:
    return {
        "outer_over_inner": check_faster(
            "outer band reads beat inner band by >= 20% (paper's range)",
            results["outer"], results["inner"], min_ratio=1.2,
            paper="20-40% from zone-aware placement",
        ),
        "middle_over_inner": check_faster(
            "rates fall monotonically toward the spindle",
            results["middle"], results["inner"]),
        "fs_band_fraction": check_between(
            "bulk load starts from the fast edge",
            results["fs_band_fraction"], 0.2, 1.0,
        ),
    }

