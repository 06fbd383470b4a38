"""LFS-style log-structured object store with a segment cleaner.

Section 3.4 of the paper: LFS organizes the disk as a log, writing
sequentially and relying on a cleaner that "simultaneously defragments
the disk and reclaims deleted file space".  For the paper's safe-write
workload the log is a natural fit — every replacement writes the whole
object contiguously at the log head — so external fragmentation stays
near one extent per object, at the cost of cleaner write amplification
that grows with occupancy.  The extension bench (A5) quantifies both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends.base import ObjectMeta, StoreStats
from repro.backends.costmodel import CostModel
from repro.backends.registry import register_backend
from repro.backends.spec import StoreSpec
from repro.disk.device import BlockDevice, IoRequest, Span, slice_spans
from repro.disk.faults import read_live
from repro.errors import ConfigError, ObjectNotFoundError, StorageFullError
from repro.specgrammar import to_float, to_size
from repro.units import (DEFAULT_WRITE_REQUEST, MB, checked_read_range,
                         checked_write_size)


@dataclass
class _Segment:
    seg_id: int
    base: int
    used: int = 0
    live: int = 0  # bytes still referenced

    def dead(self) -> int:
        return self.used - self.live


@dataclass
class _ObjectLoc:
    key: str
    size: int
    version: int
    #: (segment id, offset in segment, length) pieces in logical order.
    pieces: list[tuple[int, int, int]] = field(default_factory=list)


class LfsBackend:
    """Append-only segmented log with greedy cleaning."""

    def __init__(self, device: BlockDevice, *,
                 segment_size: int = 4 * MB,
                 cost_model: CostModel | None = None,
                 write_request: int = DEFAULT_WRITE_REQUEST,
                 clean_threshold: float = 0.75) -> None:
        if segment_size <= 0:
            raise ConfigError("segment_size must be positive")
        if not 0.0 < clean_threshold <= 1.0:
            raise ConfigError("clean_threshold must be in (0, 1]")
        self.name = "lfs"
        self.device = device
        self.segment_size = segment_size
        self.cost = cost_model or CostModel()
        self.write_request = write_request
        #: Start cleaning when fewer than this fraction of segments free.
        self.clean_threshold = clean_threshold
        self.nsegments = device.geometry.capacity // segment_size
        if self.nsegments < 4:
            raise ConfigError("volume smaller than four segments")
        self._free_segments: list[int] = list(range(self.nsegments))
        self._segments: dict[int, _Segment] = {}
        self._head: _Segment | None = None
        self._objects: dict[str, _ObjectLoc] = {}
        self.cleaner_runs = 0
        self.cleaner_copied_bytes = 0
        self._cleaning = False

    # ------------------------------------------------------------------
    # Log mechanics
    # ------------------------------------------------------------------
    def _free_count(self) -> int:
        return len(self._free_segments)

    def _next_segment(self) -> _Segment:
        if not self._free_segments:
            self._clean(target_free=1)
        if not self._free_segments:
            raise StorageFullError("log full even after cleaning")
        seg_id = self._free_segments.pop(0)
        seg = _Segment(seg_id=seg_id, base=seg_id * self.segment_size)
        self._segments[seg_id] = seg
        return seg

    def _append(self, key: str, size: int, data: bytes | None,
                version: int) -> _ObjectLoc:
        loc = _ObjectLoc(key=key, size=size, version=version)
        remaining = size
        cursor = 0
        while remaining > 0:
            if self._head is None or self._head.used >= self.segment_size:
                self._head = self._next_segment()
            seg = self._head
            take = min(remaining, self.segment_size - seg.used)
            payload = None
            if data is not None:
                payload = data[cursor: cursor + take]
            offset = seg.base + seg.used
            # Bulk path: the log piece is one device stream of
            # write_request-sized requests; the device policy caps the
            # batch size and picks the order.
            self.device.write_stream(offset, take, self.write_request,
                                     payload)
            loc.pieces.append((seg.seg_id, seg.used, take))
            seg.used += take
            seg.live += take
            cursor += take
            remaining -= take
        return loc

    def _release_pieces(self, loc: _ObjectLoc) -> None:
        for seg_id, _, length in loc.pieces:
            seg = self._segments.get(seg_id)
            if seg is None:
                continue
            seg.live -= length
            if seg.live == 0 and seg is not self._head:
                del self._segments[seg_id]
                self._free_segments.append(seg_id)
                self._free_segments.sort()

    def _release(self, loc: _ObjectLoc) -> None:
        self._release_pieces(loc)
        self._maybe_clean()

    def _maybe_clean(self) -> None:
        low_water = max(1, int(self.nsegments * (1 - self.clean_threshold)))
        if self._free_count() < low_water:
            self._clean(target_free=low_water)

    def _clean(self, *, target_free: int) -> None:
        """Greedy cleaner: rewrite the deadest sealed segments."""
        if self._cleaning:
            return  # cleaning writes must not recursively clean
        self._cleaning = True
        try:
            while self._free_count() < target_free:
                candidates = [
                    s for s in self._segments.values()
                    if s is not self._head and s.dead() > 0
                ]
                if not candidates:
                    return
                victim = max(candidates, key=lambda s: s.dead())
                self._clean_segment(victim)
                self.cleaner_runs += 1
        finally:
            self._cleaning = False

    def _clean_segment(self, victim: _Segment) -> None:
        movers = [
            loc for loc in self._objects.values()
            if any(seg_id == victim.seg_id for seg_id, _, _ in loc.pieces)
        ]
        for loc in movers:
            spans = self._spans_of(loc)
            payload = read_live(self.device, spans)
            new_loc = self._append(loc.key, loc.size, payload, loc.version)
            if payload is not None:
                # Same version: a marker scan must see only the copy.
                for start, length in spans:
                    self.device.discard(start, length)
            self._objects[loc.key] = new_loc
            self._release_pieces(loc)
            self.cleaner_copied_bytes += loc.size
        # The victim should now be fully dead.
        if victim.live <= 0 and victim.seg_id in self._segments:
            del self._segments[victim.seg_id]
            self._free_segments.append(victim.seg_id)
            self._free_segments.sort()

    def _spans_of(self, loc: _ObjectLoc) -> list[Span]:
        size = self.segment_size
        return [(seg_id * size + off, length)
                for seg_id, off, length in loc.pieces]

    # ------------------------------------------------------------------
    # ObjectStore interface
    # ------------------------------------------------------------------
    def put(self, key: str, *, size: int | None = None,
            data: bytes | None = None) -> None:
        total = checked_write_size(size, data, self.write_request)
        if key in self._objects:
            raise ConfigError(f"object {key!r} exists")
        self.cost.charge_db_query(self.device.stats)
        self._objects[key] = self._append(key, total, data, version=1)
        self.device.flush()
        self._maybe_clean()

    def get(self, key: str, offset: int = 0,
            length: int | None = None) -> bytes | None:
        loc = self._lookup(key)
        length = checked_read_range(offset, length, loc.size)
        self.cost.charge_db_query(self.device.stats)
        if length == 0:
            return b"" if self.device.stores_data else None
        spans = self._spans_of(loc)
        if length != loc.size:
            spans = slice_spans(spans, offset, length)
        return self.device.read_extents(spans)

    def overwrite(self, key: str, *, size: int | None = None,
                  data: bytes | None = None) -> None:
        total = checked_write_size(size, data, self.write_request)
        old = self._lookup(key)
        self.cost.charge_db_query(self.device.stats)
        new = self._append(key, total, data, version=old.version + 1)
        self._objects[key] = new
        self.device.flush()
        self._release(old)

    def delete(self, key: str) -> None:
        loc = self._lookup(key)
        self.cost.charge_db_query(self.device.stats)
        del self._objects[key]
        self._release(loc)

    def exists(self, key: str) -> bool:
        return key in self._objects

    def meta(self, key: str) -> ObjectMeta:
        loc = self._lookup(key)
        return ObjectMeta(key=key, size=loc.size, version=loc.version)

    def keys(self) -> list[str]:
        return list(self._objects)

    def read_many(self, keys: list[str]) -> list[bytes | None]:
        requests: list[IoRequest] = []
        for key in keys:
            loc = self._lookup(key)
            self.cost.charge_db_query(self.device.stats)
            requests.append(IoRequest(False, self._spans_of(loc)))
        return self.device.submit_policy(requests)

    def object_extents(self, key: str) -> list[Span]:
        return self._spans_of(self._lookup(key))

    def devices(self) -> list[BlockDevice]:
        return [self.device]

    def free_bytes(self) -> int:
        free = self._free_count() * self.segment_size
        if self._head is not None:
            free += self.segment_size - self._head.used
        return free

    def store_stats(self) -> StoreStats:
        return StoreStats(
            objects=len(self._objects),
            live_bytes=self._live_bytes(),
            free_bytes=self.free_bytes(),
            capacity=self.nsegments * self.segment_size,
        )

    def _live_bytes(self) -> int:
        return sum(self._objects[k].size for k in sorted(self._objects))

    def write_amplification(self) -> float:
        """Cleaner bytes per logical byte written (0 when never cleaned)."""
        logical = self._live_bytes()
        if self.cleaner_copied_bytes == 0 or logical == 0:
            return 0.0
        return self.cleaner_copied_bytes / max(1, logical)

    def _lookup(self, key: str) -> _ObjectLoc:
        try:
            return self._objects[key]
        except KeyError:
            raise ObjectNotFoundError(f"no object {key!r}") from None


@register_backend(
    "lfs",
    description="log-structured segments with a cleaner",
    options={
        "segment_size": to_size,
        "clean_threshold": to_float,
    },
)
def _lfs_from_spec(spec: StoreSpec, device: BlockDevice) -> LfsBackend:
    return LfsBackend(
        device,
        segment_size=spec.option("segment_size", 4 * MB),
        write_request=spec.write_request,
        clean_threshold=spec.option("clean_threshold", 0.75),
    )
