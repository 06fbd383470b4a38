"""GFS-style chunked object store.

Section 3.4 of the paper: GFS sidesteps external fragmentation by using
fixed 64 MB chunks and a record-append discipline — records may not span
chunks, a record that does not fit pads the current chunk with zeros and
opens a new one, and records are kept under ¼ of the chunk size so the
padding stays bounded.  The price is *internal* fragmentation (padding
plus dead records), which GFS reclaims only by whole-chunk garbage
collection.

This backend lets the extension bench (A5) measure that trade against
the paper's two systems: external fragmentation stays at exactly one
fragment per object forever, while capacity efficiency degrades until
the compactor runs.
"""

from __future__ import annotations

from repro.backends.costmodel import CostModel
from repro.backends.lfs_backend import (SegmentLog, _ObjectLoc, _Segment,
                                        own_protocol)
from repro.backends.registry import register_backend
from repro.backends.spec import StoreSpec
from repro.disk.device import BlockDevice
from repro.errors import ConfigError
from repro.specgrammar import to_float, to_size
from repro.units import DEFAULT_WRITE_REQUEST, MB


@own_protocol
class GfsChunkBackend(SegmentLog):
    """Fixed-chunk record-append store with whole-chunk GC: a sealed
    chunk at least ``gc_dead_fraction`` dead is collected (records copied
    in chunk order) when a record in it dies, or when it is sealed after
    one died in it while open.  A write that finds only the reserve chunk
    free forces collection first."""

    whole_records = True
    reserve = 1
    full_message = "no free chunks"

    def __init__(self, device: BlockDevice, *, chunk_size: int = 64 * MB,
                 cost_model: CostModel | None = None,
                 write_request: int = DEFAULT_WRITE_REQUEST,
                 gc_dead_fraction: float = 0.5) -> None:
        if chunk_size <= 0:
            raise ConfigError("chunk_size must be positive")
        if not 0.0 < gc_dead_fraction <= 1.0:
            raise ConfigError("gc_dead_fraction must be in (0, 1]")
        self.name = "gfs-chunks"
        self.device = device
        self.segment_size = chunk_size
        self.cost = cost_model or CostModel()
        self.write_request = write_request
        self.gc_dead_fraction = gc_dead_fraction
        self.max_record = chunk_size // 4  # the GFS constraint
        self._open_log(1, "volume smaller than one chunk")
        self.padding_bytes = 0
        self.gc_runs = 0
        self.gc_copied_bytes = 0
        self._cleaning = False

    def _append(self, key: str, size: int, data: bytes | None,
                version: int) -> _ObjectLoc:
        if size > self.max_record:
            raise ConfigError(f"record of {size} bytes exceeds ¼ chunk "
                              f"({self.max_record}); split it at the "
                              "application layer")
        return super()._append(key, size, data, version)

    def _sealed(self, chunk: _Segment) -> None:
        died = chunk.dead() > 0  # records died while it was open
        pad = self.segment_size - chunk.used
        if pad:  # zero-pad the tail the next record did not fit in
            self.device.write(chunk.base + chunk.used, pad)
            chunk.used = self.segment_size
            self.padding_bytes += pad
        if died:
            self._released(chunk)

    def _released(self, chunk: _Segment) -> None:
        if chunk is not self._head and chunk.dead() / self.segment_size \
                >= self.gc_dead_fraction and self._collectable(chunk):
            self._collect(lambda: True, chunk)

    def _collectable(self, chunk: _Segment) -> bool:
        """Its live records fit the open chunk's room or a free chunk."""
        return bool(self._free_segments) or self._fits(chunk.live)

    def _count(self, runs: int, copied: int) -> None:
        self.gc_runs += runs
        self.gc_copied_bytes += copied

    def internal_fragmentation(self) -> float:
        """Dead + padding bytes as a fraction of chunk-held capacity."""
        used = len(self._segments) * self.segment_size
        dead = sum(c.dead() for _, c in sorted(self._segments.items()))
        return dead / used if used else 0.0


@register_backend(
    "gfs",
    description="GFS-style fixed chunks with record append",
    options={"chunk_size": to_size, "gc_dead_fraction": to_float},
)
def _gfs_from_spec(spec: StoreSpec, device: BlockDevice) -> GfsChunkBackend:
    return GfsChunkBackend(
        device, chunk_size=spec.option("chunk_size", 64 * MB),
        write_request=spec.write_request,
        gc_dead_fraction=spec.option("gc_dead_fraction", 0.5))
