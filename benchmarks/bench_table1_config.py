"""Table 1 — configuration of the test system.

The paper's testbed (Tyan S2882, Opteron 244, MV8 SATA controller, four
Seagate 400 GB 7200 rpm drives, Windows 2003 / SQL Server 2005) is
replaced by the simulated analogue documented in docs/architecture.md
("Layer map").  This bench prints both columns side by side and
sanity-checks the simulated disk's headline characteristics.
"""

from repro.analysis.compare import ShapeCheck, check_between, check_faster
from repro.analysis.tables import render_table
from repro.backends.costmodel import CostModel
from repro.disk.geometry import PAPER_DISK
from repro.units import GB, MB


def compute(run) -> dict:
    disk = PAPER_DISK
    return {
        "capacity": disk.capacity,
        "rpm": disk.rpm,
        "avg_seek_s": disk.avg_seek_s,
        "per_request_overhead_s": disk.per_request_overhead_s,
        "zone_rates": [zone.rate for zone in disk.zones],
        "cpu_cost_model": CostModel().describe(),
    }


def render(disk: dict) -> str:
    rates = disk["zone_rates"]
    rows = [
        ["Host", "Tyan S2882, 1.8 GHz Opteron 244, 2 GB RAM",
         "analytic CPU cost model (see below)"],
        ["Controller", "SuperMicro MV8 SATA",
         "per-request overhead "
         f"{disk['per_request_overhead_s'] * 1e3:.1f} ms"],
        ["Drives", "4x Seagate ST3400832AS 400 GB 7200 rpm",
         f"BlockDevice: {disk['capacity'] // GB} GB, "
         f"{disk['rpm']:.0f} rpm, {disk['avg_seek_s'] * 1e3:.1f} ms avg seek"],
        ["Media rate", "(zoned, unpublished)",
         f"{rates[0] / MB:.0f} -> {rates[-1] / MB:.0f} MB/s over "
         f"{len(rates)} zones"],
        ["OS / FS", "Windows Server 2003 R2 / NTFS",
         "repro.fs.SimFilesystem (run cache, journal, safe writes)"],
        ["DBMS", "SQL Server 2005 (bulk logged)",
         "repro.db.SimDatabase (GAM, LOB trees, ghost cleanup)"],
    ]
    table = render_table(
        "Table 1: test system (paper vs simulated analogue)",
        ["Component", "Paper", "This reproduction"],
        rows,
    )
    return table + "\n\nCPU cost model:\n" + disk["cpu_cost_model"]


def checks(disk: dict) -> dict[str, ShapeCheck]:
    return {
        "capacity_gb": check_between(
            "the drive holds the paper's 400 GB",
            disk["capacity"] / GB, 400, 400, paper="400 GB"),
        "rpm": check_between(
            "the drive spins at the paper's 7200 rpm",
            disk["rpm"], 7200, 7200, paper="7200 rpm"),
        # Outer zones must be faster — NTFS's banded allocation targets them.
        "outer_over_inner": check_faster(
            "the outer zone transfers faster than the inner",
            disk["zone_rates"][0], disk["zone_rates"][-1]),
    }

