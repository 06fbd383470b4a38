"""The paper's core contribution: the measurement methodology.

* :mod:`repro.core.workload` — bulk load + safe-write churn; its
  ``WorkloadState`` is the one set of run books (keys, marker versions,
  storage age) every figure and ``repro run`` drives a store through.
* :mod:`repro.core.fragmentation` — fragments/object analysis, both from
  extent maps and from on-disk markers (the paper's measurement tool).
* :mod:`repro.core.experiment` — the aging experiment driver that
  produces every figure's data.
* :mod:`repro.core.interleaved` — concurrent append streams (Section 6).
* :mod:`repro.core.defrag` — the filesystem's NTFS-style defragmenter
  and the database's table rebuild (Section 5.3).
"""

from repro.core.storage_age import StorageAgeTracker
from repro.core.fragmentation import (
    FragmentReport,
    MarkerScanner,
    fragment_counts,
    fragment_report,
    make_marker_content,
)
from repro.core.workload import (
    ConstantSize,
    SizeDistribution,
    UniformSize,
    WorkloadSpec,
    bulk_load,
    churn_to_age,
    read_sweep,
)
from repro.core.experiment import (
    AgeSample,
    ExperimentConfig,
    ExperimentRunner,
    RunResult,
)
from repro.core.defrag import Defragmenter, rebuild_database
from repro.core.interleaved import (
    InterleaveResult,
    interleaved_db_load,
    interleaved_fs_load,
)

__all__ = [
    "StorageAgeTracker",
    "FragmentReport",
    "MarkerScanner",
    "fragment_counts",
    "fragment_report",
    "make_marker_content",
    "ConstantSize",
    "UniformSize",
    "SizeDistribution",
    "WorkloadSpec",
    "bulk_load",
    "churn_to_age",
    "read_sweep",
    "AgeSample",
    "ExperimentConfig",
    "ExperimentRunner",
    "RunResult",
    "Defragmenter",
    "rebuild_database",
    "InterleaveResult",
    "interleaved_fs_load",
    "interleaved_db_load",
]
