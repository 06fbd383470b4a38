"""Filesystem space allocation: per-append requests with extension.

The central NTFS behaviour the paper identifies (Section 5.4): space is
allocated *as the file is appended to*, before the final size is known.
``allocate_append`` therefore serves one write request at a time — first
trying to extend the file's last run contiguously (NTFS detects
sequential appends and extends aggressively), then falling back to the
banded run cache, fragmenting only when no cached run fits.  The
commonest case, a non-review request whose shortfall fits the free run
at the file's end, ``SimFilesystem.append`` serves in place with the
same one carve; this module keeps the band, stickiness and
partial-carve rules for every request that is not that case.

``allocate_full`` is the counterfactual interface the paper wishes
existed ("there is no way to pass the (known) object size to the file
system at file creation"): one contiguous best-effort allocation for the
whole object.  The delayed-allocation wrapper and the size-hint ablation
bench use it.
"""

from __future__ import annotations

from repro.alloc.extent import Extent
from repro.alloc.freelist import FreeExtentIndex
from repro.alloc.runcache import NtfsRunCache
from repro.errors import ConfigError
from repro.fs.filetable import FileRecord
from repro.units import round_up


class FsAllocator:
    """Cluster-granular allocator for file stream data."""

    def __init__(self, index: FreeExtentIndex, *, cluster_size: int,
                 outer_band_fraction: float = 0.125,
                 cache_size: int = 64,
                 extension_stickiness: float = 0.75,
                 reconsider_interval_requests: int = 16) -> None:
        if cluster_size <= 0:
            raise ConfigError("cluster_size must be positive")
        if reconsider_interval_requests < 1:
            raise ConfigError("reconsider_interval_requests must be >= 1")
        self.index = index
        self.cluster_size = cluster_size
        self.extension_stickiness = extension_stickiness
        self.reconsider_interval_requests = reconsider_interval_requests
        self.runcache = NtfsRunCache(
            index,
            outer_band_fraction=outer_band_fraction,
            cache_size=cache_size,
        )

    def allocate_append(self, record: FileRecord, nbytes: int) -> list[Extent]:
        """Allocate space for one append request to ``record``.

        Returns the new extents in logical order.  The caller appends
        them to the record's run list and writes them.
        """
        needed = round_up(nbytes, self.cluster_size)
        pieces: list[Extent] = []
        # Placement is re-evaluated against the run cache only every
        # Nth request of a sequentially appended file; in between, the
        # allocator stays in the run it is eating.  This batching is
        # what keeps a file's fragment count an order of magnitude
        # below its request count even on a nearly full volume.
        review = record.append_requests % self.reconsider_interval_requests == 0
        record.append_requests += 1
        stickiness = self.extension_stickiness if review else 0.0
        if record.extents:
            extension = self.runcache.try_extend(
                record.extents[-1].end, needed,
                stickiness=stickiness,
            )
            if extension is not None:
                pieces.append(extension)
                needed -= extension.length
        if needed > 0:
            pieces.extend(self.runcache.allocate(needed))
        return pieces

    def allocate_full(self, nbytes: int) -> list[Extent]:
        """Allocate the whole object at once, preferring one extent.

        Falls back to the normal fragmenting path only when no single
        run fits — exactly what delayed allocation buys.
        """
        needed = round_up(nbytes, self.cluster_size)
        return self.runcache.allocate(needed)
