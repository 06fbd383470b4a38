"""repro — reproduction of "Fragmentation in Large Object Repositories"
(Sears & van Ingen, CIDR 2007).

A simulation laboratory for studying long-term fragmentation in large
object stores: an NTFS-like filesystem and a SQL-Server-like database
built from scratch over a mechanical disk model, get/put backends, the
paper's marker-based fragmentation analyzer, and an experiment driver
that regenerates every figure in the paper's evaluation.

Quickstart — the path every figure drives: bulk-load a store, age it
with safe writes, measure fragments per object::

    >>> from repro import (BlockDevice, ConstantSize, FileBackend, MB,
    ...                    WorkloadSpec, bulk_load, churn_to_age,
    ...                    fragment_report, scaled_disk)
    >>> from repro.rng import substream
    >>> store = FileBackend(BlockDevice(scaled_disk(64 * MB)))
    >>> spec = WorkloadSpec(ConstantSize(1 * MB), target_occupancy=0.9)
    >>> state = bulk_load(store, spec, substream(7, "workload"))
    >>> churn_to_age(store, state, 4.0)  # safe writes to storage age 4
    200
    >>> state.tracker.storage_age, fragment_report(store).mean
    (4.0, 3.94)
"""

from repro.units import KB, MB, GB, TB, parse_size, fmt_size
from repro.errors import (
    AllocationError,
    ConfigError,
    CorruptionError,
    ObjectNotFoundError,
    ReproError,
    StorageFullError,
)
from repro.disk import BlockDevice, DiskGeometry, PAPER_DISK, scaled_disk
from repro.alloc import Extent, FreeExtentIndex, BuddyAllocator
from repro.fs import SimFilesystem, FsConfig
from repro.db import SimDatabase, DbConfig
from repro.backends import (
    BlobBackend,
    CostModel,
    FileBackend,
    GfsChunkBackend,
    LfsBackend,
    ObjectStore,
    StoreSpec,
)
from repro.core import (
    ConstantSize,
    Defragmenter,
    ExperimentConfig,
    ExperimentRunner,
    FragmentReport,
    MarkerScanner,
    RunResult,
    StorageAgeTracker,
    UniformSize,
    WorkloadSpec,
    bulk_load,
    churn_to_age,
    fragment_report,
    make_marker_content,
    read_sweep,
)
from repro.core.experiment import run_experiment

__version__ = "1.0.0"

__all__ = [
    "KB", "MB", "GB", "TB", "parse_size", "fmt_size",
    "ReproError", "ConfigError", "StorageFullError", "AllocationError",
    "CorruptionError", "ObjectNotFoundError",
    "BlockDevice", "DiskGeometry", "PAPER_DISK", "scaled_disk",
    "Extent", "FreeExtentIndex", "BuddyAllocator",
    "SimFilesystem", "FsConfig",
    "SimDatabase", "DbConfig",
    "ObjectStore", "FileBackend", "BlobBackend", "GfsChunkBackend",
    "LfsBackend", "CostModel", "StoreSpec",
    "StorageAgeTracker", "FragmentReport",
    "MarkerScanner", "fragment_report", "make_marker_content",
    "ConstantSize", "UniformSize", "WorkloadSpec",
    "bulk_load", "churn_to_age", "read_sweep",
    "ExperimentConfig", "ExperimentRunner", "RunResult", "run_experiment",
    "Defragmenter",
    "__version__",
]
