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

from dataclasses import dataclass

from repro.backends.base import ObjectMeta, StoreStats
from repro.backends.costmodel import CostModel
from repro.backends.registry import register_backend
from repro.backends.spec import StoreSpec
from repro.disk.device import BlockDevice, IoRequest
from repro.disk.faults import read_live
from repro.errors import ConfigError, ObjectNotFoundError, StorageFullError
from repro.specgrammar import to_float, to_size
from repro.units import (DEFAULT_WRITE_REQUEST, MB, Span, checked_read_range,
                         checked_write_size)


@dataclass
class _Record:
    key: str
    chunk_id: int
    offset_in_chunk: int
    size: int
    version: int


@dataclass
class _Chunk:
    chunk_id: int
    base: int            # device byte offset
    used: int = 0        # bytes appended (live + dead + padding)
    dead: int = 0        # bytes belonging to deleted/replaced records


class GfsChunkBackend:
    """Fixed-chunk record-append store with whole-chunk GC."""

    def __init__(self, device: BlockDevice, *,
                 chunk_size: int = 64 * MB,
                 cost_model: CostModel | None = None,
                 write_request: int = DEFAULT_WRITE_REQUEST,
                 gc_dead_fraction: float = 0.5) -> None:
        if chunk_size <= 0:
            raise ConfigError("chunk_size must be positive")
        if not 0.0 < gc_dead_fraction <= 1.0:
            raise ConfigError("gc_dead_fraction must be in (0, 1]")
        self.name = "gfs-chunks"
        self.device = device
        self.chunk_size = chunk_size
        self.cost = cost_model or CostModel()
        self.write_request = write_request
        self.gc_dead_fraction = gc_dead_fraction
        self.max_record = chunk_size // 4  # the GFS constraint
        nchunks = device.geometry.capacity // chunk_size
        if nchunks < 1:
            raise ConfigError("volume smaller than one chunk")
        self._free_chunks: list[int] = list(range(nchunks))
        self._chunks: dict[int, _Chunk] = {}
        self._active: _Chunk | None = None
        self._records: dict[str, _Record] = {}
        self.padding_bytes = 0
        self.gc_runs = 0
        self.gc_copied_bytes = 0
        self._collecting = False

    # ------------------------------------------------------------------
    # Chunk management
    # ------------------------------------------------------------------
    def _open_chunk(self) -> _Chunk:
        if not self._free_chunks:
            self._collect_garbage()
        if not self._free_chunks:
            raise StorageFullError("no free chunks")
        chunk_id = self._free_chunks.pop(0)
        chunk = _Chunk(chunk_id=chunk_id, base=chunk_id * self.chunk_size)
        self._chunks[chunk_id] = chunk
        return chunk

    def _append_record(self, key: str, size: int,
                       data: bytes | None, version: int) -> _Record:
        if size > self.max_record:
            raise ConfigError(
                f"record of {size} bytes exceeds ¼ chunk "
                f"({self.max_record}); split it at the application layer"
            )
        if self._active is None:
            self._active = self._open_chunk()
        chunk = self._active
        if chunk.used + size > self.chunk_size:
            # Zero-pad the remainder and roll to a new chunk.
            pad = self.chunk_size - chunk.used
            if pad:
                self.device.write(chunk.base + chunk.used, pad)
                chunk.used = self.chunk_size
                chunk.dead += pad
                self.padding_bytes += pad
            self._active = self._open_chunk()
            chunk = self._active
        record = _Record(key=key, chunk_id=chunk.chunk_id,
                         offset_in_chunk=chunk.used, size=size,
                         version=version)
        # Bulk path: the record is one device stream of
        # write_request-sized requests; the device policy caps the batch
        # size and picks the order.
        self.device.write_stream(chunk.base + chunk.used, size,
                                 self.write_request, data)
        chunk.used += size
        return record

    def _kill_record(self, record: _Record) -> None:
        chunk = self._chunks[record.chunk_id]
        chunk.dead += record.size
        self._maybe_gc(chunk)

    def _maybe_gc(self, chunk: _Chunk) -> None:
        if self._collecting or chunk is self._active:
            return
        if chunk.used < self.chunk_size:
            return  # only sealed chunks are collected
        if chunk.dead / self.chunk_size >= self.gc_dead_fraction:
            self._collecting = True
            try:
                self._gc_chunk(chunk)
            finally:
                self._collecting = False

    def _collect_garbage(self) -> None:
        """Forced GC when no chunk is free: collect sealed chunks, most
        dead bytes first, until one frees up."""
        if self._collecting:
            return  # GC's own copies must not re-enter GC
        self._collecting = True
        try:
            sealed = [
                c for c in list(self._chunks.values())
                if c is not self._active and c.dead > 0
            ]
            sealed.sort(key=lambda c: c.dead, reverse=True)
            for chunk in sealed:
                live = self.chunk_size - chunk.dead
                movable = bool(self._free_chunks) or live == 0 or (
                    self._active is not None
                    and self.chunk_size - self._active.used >= live
                )
                if not movable:
                    continue
                self._gc_chunk(chunk)
                if self._free_chunks:
                    return
        finally:
            self._collecting = False

    def _gc_chunk(self, chunk: _Chunk) -> None:
        """Copy live records out, then free the chunk."""
        live = [r for r in self._records.values()
                if r.chunk_id == chunk.chunk_id]
        self.gc_runs += 1
        for record in sorted(live, key=lambda r: r.offset_in_chunk):
            span = self._span_of(record)
            payload = read_live(self.device, [span])
            moved = self._append_record(record.key, record.size, payload,
                                        record.version)
            if payload is not None:
                # Same version: a marker scan must see only the copy.
                self.device.discard(*span)
            self._records[record.key] = moved
            self.gc_copied_bytes += record.size
        del self._chunks[chunk.chunk_id]
        self._free_chunks.append(chunk.chunk_id)
        self._free_chunks.sort()

    def _span_of(self, record: _Record) -> Span:
        """The record's device span: its whole layout."""
        return (self._chunks[record.chunk_id].base + record.offset_in_chunk,
                record.size)

    # ------------------------------------------------------------------
    # ObjectStore interface
    # ------------------------------------------------------------------
    def put(self, key: str, *, size: int | None = None,
            data: bytes | None = None) -> None:
        total = checked_write_size(size, data, self.write_request)
        if key in self._records:
            raise ConfigError(f"object {key!r} exists")
        self.cost.charge_db_query(self.device.stats)  # master metadata op
        self._records[key] = self._append_record(key, total, data, version=1)
        self.device.flush()

    def get(self, key: str, offset: int = 0,
            length: int | None = None) -> bytes | None:
        record = self._lookup(key)
        length = checked_read_range(offset, length, record.size)
        self.cost.charge_db_query(self.device.stats)
        if length == 0:
            return b"" if self.device.stores_data else None
        start, _ = self._span_of(record)
        return self.device.read(start + offset, length)

    def overwrite(self, key: str, *, size: int | None = None,
                  data: bytes | None = None) -> None:
        total = checked_write_size(size, data, self.write_request)
        old = self._lookup(key)
        self.cost.charge_db_query(self.device.stats)
        new = self._append_record(key, total, data, version=old.version + 1)
        self._records[key] = new
        self.device.flush()
        self._kill_record(old)

    def delete(self, key: str) -> None:
        record = self._lookup(key)
        self.cost.charge_db_query(self.device.stats)
        del self._records[key]
        self._kill_record(record)

    def exists(self, key: str) -> bool:
        return key in self._records

    def meta(self, key: str) -> ObjectMeta:
        record = self._lookup(key)
        return ObjectMeta(key=key, size=record.size, version=record.version)

    def keys(self) -> list[str]:
        return list(self._records)

    def read_many(self, keys: list[str]) -> list[bytes | None]:
        requests: list[IoRequest] = []
        for key in keys:
            record = self._lookup(key)
            self.cost.charge_db_query(self.device.stats)
            requests.append(IoRequest(False, [self._span_of(record)]))
        return self.device.submit_policy(requests)

    def object_extents(self, key: str) -> list[Span]:
        return [self._span_of(self._lookup(key))]

    def devices(self) -> list[BlockDevice]:
        return [self.device]

    def free_bytes(self) -> int:
        used_chunks = len(self._chunks) * self.chunk_size
        free = self.device.geometry.capacity - used_chunks
        if self._active is not None:
            free += self.chunk_size - self._active.used
        return free

    def store_stats(self) -> StoreStats:
        live = sum(self._records[k].size for k in sorted(self._records))
        return StoreStats(
            objects=len(self._records),
            live_bytes=live,
            free_bytes=self.free_bytes(),
            capacity=self.device.geometry.capacity,
        )

    def internal_fragmentation(self) -> float:
        """Dead + padding bytes as a fraction of chunk-held capacity."""
        used = len(self._chunks) * self.chunk_size
        if used == 0:
            return 0.0
        # Chunk-id order: accounting reductions state their order.
        dead = sum(self._chunks[cid].dead for cid in sorted(self._chunks))
        slack = sum(
            self.chunk_size - self._chunks[cid].used
            for cid in sorted(self._chunks)
            if self._chunks[cid] is not self._active
        )
        return (dead + slack) / used

    def _lookup(self, key: str) -> _Record:
        try:
            return self._records[key]
        except KeyError:
            raise ObjectNotFoundError(f"no object {key!r}") from None


@register_backend(
    "gfs",
    description="GFS-style fixed chunks with record append",
    options={
        "chunk_size": to_size,
        "gc_dead_fraction": to_float,
    },
)
def _gfs_from_spec(spec: StoreSpec, device: BlockDevice) -> GfsChunkBackend:
    return GfsChunkBackend(
        device,
        chunk_size=spec.option("chunk_size", 64 * MB),
        write_request=spec.write_request,
        gc_dead_fraction=spec.option("gc_dead_fraction", 0.5),
    )
