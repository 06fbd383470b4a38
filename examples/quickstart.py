"""Quickstart: the paper's aging methodology in ~40 lines.

Creates a simulated 512 MB volume, bulk-loads the filesystem backend to
90% full, ages it with safe writes, and prints what the paper plots
against storage age: fragments per object.  The store is driven through
the same books every figure uses — ``WorkloadSpec``, ``bulk_load``,
``churn_to_age``, ``read_sweep`` and ``fragment_report``.

Run:  python examples/quickstart.py
"""

from repro import (
    BlockDevice,
    ConstantSize,
    FileBackend,
    MB,
    WorkloadSpec,
    bulk_load,
    churn_to_age,
    fragment_report,
    read_sweep,
    scaled_disk,
)
from repro.rng import substream


def main() -> None:
    # A simulated 512 MB volume with paper-like disk mechanics
    # (7200 rpm, ~8.5 ms average seek, zoned transfer rates).
    device = BlockDevice(scaled_disk(512 * MB))

    # The paper's filesystem configuration: one file per object,
    # metadata rows in a (simulated) database, safe-write updates.
    store = FileBackend(device)

    # Photo-sized objects, loaded one after another to 90% full: the
    # bulk load lays every object out contiguously (storage age 0).
    spec = WorkloadSpec(sizes=ConstantSize(2 * MB), target_occupancy=0.9)
    state = bulk_load(store, spec, substream(7, "workload"))

    # Users re-upload edited versions of random objects: each one is a
    # safe write (write temp file, force, atomic rename), the old bytes
    # become free space, and storage age — safe writes per object —
    # advances.  Fragments/object is the paper's fragmentation metric;
    # 1.0 means every object is physically contiguous.
    for age in (0, 1, 2, 4):
        churn_to_age(store, state, age)
        report = fragment_report(store)
        print(f"storage age {state.tracker.storage_age:.2f}: "
              f"{report.mean:.2f} fragments/object over "
              f"{report.objects} objects")

    # Reads are timed against the disk model.
    before = device.stats.read_time_s
    nbytes = read_sweep(store, state, 32, rng=substream(7, "reads"))
    seconds = device.stats.read_time_s - before
    print(f"aged read sweep:    {nbytes / MB / seconds:.1f} MB/s modelled")
    print(f"fragment histogram: {report.histogram(bins=[1, 2, 4, 8])}")


if __name__ == "__main__":
    main()
