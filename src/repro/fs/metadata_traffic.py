"""Background metadata allocations on a live volume.

A real NTFS volume under load does not allocate *only* file stream data:
directory index buffers grow, $LogFile extends, the MFT spills past its
reserved zone, USN journal records accumulate.  These small allocations
come from the same free space as file data and perturb the sizes of free
runs.

This matters for reproducing Figure 5: with a perfectly serial workload
of constant-size objects and an exact-fit hole population, *no*
reasonable allocator fragments — yet the paper measured that constant-
size objects fragment about as much as uniformly distributed ones.  The
perturbation that breaks exact fits in practice is this background
traffic.  We model it explicitly and deterministically: every
``interval_ops`` file operations, allocate a small run (``nibble_bytes``)
through the normal allocator; nibbles are long-lived and are freed FIFO
once more than ``max_outstanding`` exist.

docs/benchmarks.md ("Contract, scaling and calibration") names the
checks that hold the Figure 5 shape; it was stable across an order of
magnitude in ``interval_ops`` when the default was chosen.
"""

from __future__ import annotations

from collections import deque

from repro.alloc.extent import Extent
from repro.alloc.runcache import NtfsRunCache
from repro.errors import AllocationError, ConfigError


class MetadataTraffic:
    """Deterministic low-rate metadata allocate/free stream.

    Parameters
    ----------
    runcache:
        The filesystem's allocator; nibbles follow the same policy as
        data so they land where real metadata would.
    interval_events:
        Namespace operations (create/delete/rename) between nibbles; 0
        disables the traffic.  Every namespace operation updates the
        directory's index B-tree, which grows and shrinks 4 KB index
        buffers in ordinary data space; the default of one nibble per
        two operations matches that churn.  Nibbles deliberately do
        *not* interleave with the appends of a single file: the paper's
        bulk load produces contiguous files (Figure 1's fast age-0
        reads), which per-append interleaving would destroy.
    nibble_bytes:
        Size of each metadata allocation (a directory index buffer is
        4 KB on a default NTFS volume).
    max_outstanding:
        Nibbles retained before the oldest is freed; models metadata
        that lives much longer than any one object.
    """

    def __init__(self, runcache: NtfsRunCache, *, interval_events: int = 2,
                 nibble_bytes: int = 4096,
                 max_outstanding: int = 256) -> None:
        if interval_events < 0:
            raise ConfigError("interval_events must be >= 0")
        if nibble_bytes <= 0:
            raise ConfigError("nibble_bytes must be positive")
        if max_outstanding < 1:
            raise ConfigError("max_outstanding must be >= 1")
        self._runcache = runcache
        self._interval = interval_events
        self._nibble_bytes = nibble_bytes
        self._max_outstanding = max_outstanding
        self._ops = 0
        self._outstanding: deque[Extent] = deque()
        self.nibbles_allocated = 0
        self.nibbles_freed = 0

    @property
    def enabled(self) -> bool:
        return self._interval > 0

    @property
    def outstanding_bytes(self) -> int:
        return sum(e.length for e in self._outstanding)

    @property
    def outstanding_extents(self) -> tuple[Extent, ...]:
        """Live nibbles (a copy) — allocated space outside any file's
        extent map, which free-index rebuilds must account for."""
        return tuple(self._outstanding)

    def on_event(self) -> None:
        """Called by the filesystem on every allocation event."""
        if not self.enabled:
            return
        self._ops += 1
        if self._ops % self._interval != 0:
            return
        try:
            pieces = self._runcache.allocate(self._nibble_bytes)
        except AllocationError:
            return  # a full volume just skips metadata growth
        self._outstanding.extend(pieces)
        self.nibbles_allocated += 1
        while len(self._outstanding) > self._max_outstanding:
            oldest = self._outstanding.popleft()
            self._runcache.index.add(oldest)
            self.nibbles_freed += 1
