"""Photo sharing service: where should the images live?

The paper's motivating question — file or BLOB? — answered for a
photo-sharing workload: 512 KB images, frequently re-uploaded (safe
writes), read-heavy.  This example ages both backends side by side and
prints the break-even analysis, including how the answer *changes* as
the store ages — the paper's central result.

Run:  python examples/photo_sharing.py
"""

from repro import (
    ConstantSize,
    ExperimentConfig,
    KB,
    MB,
    StoreSpec,
    run_experiment,
)
from repro.analysis.compare import crossover_age
from repro.analysis.tables import render_series_table

PHOTO_SIZE = 512 * KB
VOLUME = 512 * MB
AGES = (0.0, 1.0, 2.0, 3.0, 4.0)


def age_backend(backend: str):
    config = ExperimentConfig(
        store=StoreSpec(backend, volume_bytes=VOLUME),
        sizes=ConstantSize(PHOTO_SIZE),
        occupancy=0.9,            # a well-utilized photo volume
        ages=AGES,
        reads_per_sample=48,
        seed=23,
    )
    return run_experiment(config)


def main() -> None:
    print(f"Photo service simulation: {PHOTO_SIZE // KB} KB images, "
          f"{VOLUME // MB} MB volume at 90% occupancy\n")
    runs = {name: age_backend(name) for name in ("database", "filesystem")}

    read_series = {
        name: [(s.age, s.read_mbps / MB) for s in run.samples]
        for name, run in runs.items()
    }
    print(render_series_table(
        "Read throughput as the store ages (MB/s)",
        "storage age (re-uploads per photo)",
        {"BLOBs": read_series["database"],
         "Files": read_series["filesystem"]},
    ))
    print()
    frag_series = {
        name: [(s.age, s.fragments_per_object) for s in run.samples]
        for name, run in runs.items()
    }
    print(render_series_table(
        "Fragments per photo",
        "storage age",
        {"BLOBs": frag_series["database"],
         "Files": frag_series["filesystem"]},
    ))

    cross = crossover_age(read_series["database"],
                          read_series["filesystem"])
    print()
    print("Recommendation:")
    db0 = read_series["database"][0][1]
    fs0 = read_series["filesystem"][0][1]
    print(f"  - On a fresh volume, BLOBs serve {PHOTO_SIZE // KB} KB "
          f"photos {db0 / fs0:.2f}x faster than files.")
    if cross is None:
        print("  - And they stay ahead across the simulated ages.")
    else:
        print(f"  - But by storage age {cross:g} (every photo re-uploaded "
              f"{cross:g} times), fragmentation erases the advantage — "
              "plan for files, or schedule BLOB-table rebuilds.")


if __name__ == "__main__":
    main()
