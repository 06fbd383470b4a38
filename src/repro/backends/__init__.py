"""Object store backends: the two systems the paper compares, plus
extension backends from its related-work section and a multi-volume
composite.

* :class:`FileBackend` — metadata rows in a database, one file per
  object on the simulated filesystem, safe-write updates (the paper's
  NTFS configuration, Section 4.1).
* :class:`BlobBackend` — metadata and out-of-row BLOBs in the simulated
  database (the SQL Server configuration, Section 4.2).
* :class:`GfsChunkBackend` — GFS-style fixed 64 MB chunks with record
  append and padding (Section 3.4's related work, built to measure the
  internal-fragmentation trade).
* :class:`LfsBackend` — log-structured layout with a segment cleaner
  (Section 3.4), the write-optimized extreme.  LFS and GFS are two
  policies (placement, copy order, collection trigger) over one
  segment log, ``lfs_backend.SegmentLog``.
* :class:`ShardedStore` — composite striping keys over N inner stores
  (multi-volume scaling; see ``sharded.py``).

All satisfy the :class:`ObjectStore` protocol, so the workload driver,
fragmentation analyzer, and benches treat them interchangeably.

Construction goes through the registry: describe a store as a
:class:`StoreSpec` (backend name, volume, typed options, a
:class:`~repro.disk.policy.DevicePolicy`, optional shard layout) and
:func:`build_store` instantiates it — no backend imports needed above
this package.  Each backend registers itself with
:func:`register_backend`; ``registered`` names derive from that, not
from a hand-maintained tuple.
"""

from repro.backends.base import ObjectStore, ObjectMeta, StoreStats
from repro.backends.costmodel import CostModel
from repro.backends.registry import (
    backend_descriptions,
    backend_names,
    build_store,
    register_backend,
    resolve_spec,
)
from repro.backends.spec import PLACEMENTS, StoreSpec
from repro.backends.file_backend import FileBackend
from repro.backends.blob_backend import BlobBackend
from repro.backends.gfs_backend import GfsChunkBackend
from repro.backends.lfs_backend import LfsBackend
from repro.backends.sharded import ShardedStore

__all__ = [
    "ObjectStore",
    "ObjectMeta",
    "StoreStats",
    "CostModel",
    "StoreSpec",
    "PLACEMENTS",
    "backend_descriptions",
    "backend_names",
    "build_store",
    "register_backend",
    "resolve_spec",
    "FileBackend",
    "BlobBackend",
    "GfsChunkBackend",
    "LfsBackend",
    "ShardedStore",
]
