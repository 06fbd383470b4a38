"""repro — reproduction of "Fragmentation in Large Object Repositories"
(Sears & van Ingen, CIDR 2007).

A simulation laboratory for studying long-term fragmentation in large
object stores: an NTFS-like filesystem and a SQL-Server-like database
built from scratch over a mechanical disk model, a get/put repository
API with storage-age instrumentation, the paper's marker-based
fragmentation analyzer, and an experiment driver that regenerates every
figure in the paper's evaluation.

Quickstart::

    from repro import (LargeObjectRepository, FileBackend,
                       BlockDevice, scaled_disk, MB)

    device = BlockDevice(scaled_disk(512 * MB))
    repo = LargeObjectRepository(FileBackend(device))
    repo.put("photo-1", size=2 * MB)
    repo.replace("photo-1", size=2 * MB)     # a safe write
    print(repo.describe())
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
    LargeObjectRepository,
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
    "LargeObjectRepository", "StorageAgeTracker", "FragmentReport",
    "MarkerScanner", "fragment_report", "make_marker_content",
    "ConstantSize", "UniformSize", "WorkloadSpec",
    "bulk_load", "churn_to_age", "read_sweep",
    "ExperimentConfig", "ExperimentRunner", "RunResult", "run_experiment",
    "Defragmenter",
    "__version__",
]
