"""LFS-style log-structured object store, and the segment log it shares
with the GFS chunk store.

Section 3.4 of the paper: LFS organizes the disk as a log, writing
sequentially and relying on a cleaner that "simultaneously defragments
the disk and reclaims deleted file space".  For the paper's safe-write
workload the log is a natural fit — every replacement writes the whole
object contiguously at the log head — so external fragmentation stays
near one extent per object, at the cost of cleaner write amplification
that grows with occupancy.  The extension bench (A5) quantifies both.

The log mechanics, :class:`SegmentLog`, are shared with the GFS store.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import Callable

from repro.backends.base import ObjectMeta, StoreStats
from repro.backends.costmodel import CostModel
from repro.backends.registry import register_backend
from repro.backends.spec import StoreSpec
from repro.disk.device import BlockDevice, Span, slice_spans
from repro.disk.faults import read_live
from repro.errors import (ConfigError, CorruptionError, ObjectNotFoundError,
                          StorageFullError)
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


class SegmentLog:
    """The log under :class:`LfsBackend` and ``GfsChunkBackend``.  A
    store's ``__init__`` sets ``device``, ``cost``, ``write_request`` and
    ``segment_size``, calls :meth:`_open_log`, then sets its counters and
    ``_cleaning``; it defines ``_count`` and may override the hooks."""

    #: A piece fits its unit whole (GFS records; a victim's are copied
    #: in unit order) instead of spilling into the next (LFS objects).
    whole_records = False
    #: Free units a write leaves for collector copies.
    reserve = 0
    full_message = "log full even after cleaning"

    def _open_log(self, min_units: int, too_small: str) -> None:
        self.nsegments = self.device.geometry.capacity // self.segment_size
        if self.nsegments < min_units:
            raise ConfigError(too_small)
        self._free_segments: list[int] = list(range(self.nsegments))
        self._segments: dict[int, _Segment] = {}
        self._head: _Segment | None = None
        self._objects: dict[str, _ObjectLoc] = {}

    def _fits(self, need: int) -> bool:
        head = self._head
        return head is not None and head.used + need <= self.segment_size

    def _head_for(self, need: int, placing: _ObjectLoc) -> _Segment:
        """The open unit, with room for ``need`` bytes.  Without it, a
        free list at the reserve is collected first (sparing the units of
        ``placing``, the object being written); then the lowest free unit
        becomes the head, and the policy sees the sealed one."""
        while not self._fits(need):
            if len(self._free_segments) <= self.reserve:
                self._collect(lambda: self._fits(need) or len(
                    self._free_segments) > self.reserve, placing=placing)
                if self._fits(need):
                    break
            if not self._free_segments:
                raise StorageFullError(self.full_message)
            sealed = self._head
            seg_id = self._free_segments.pop(0)
            self._head = self._segments[seg_id] = _Segment(
                seg_id=seg_id, base=seg_id * self.segment_size)
            if sealed is not None:
                self._sealed(sealed)
        return self._head  # type: ignore[return-value]

    # Policy hooks, with the plain log's rules.
    def _sealed(self, unit: _Segment) -> None:
        """``unit`` stopped being the head."""

    def _released(self, unit: _Segment) -> None:
        """``unit`` lost live bytes: an emptied one is freed at once."""
        if unit.live == 0 and unit is not self._head:
            self._free(unit)

    def _maintain(self) -> None:
        """A put, overwrite or delete finished."""

    def _collectable(self, unit: _Segment) -> bool:
        return True

    def _append(self, key: str, size: int, data: bytes | None,
                version: int) -> _ObjectLoc:
        loc = _ObjectLoc(key=key, size=size, version=version)
        need = size if self.whole_records else 1
        cursor = 0
        try:
            while cursor < size:
                seg = self._head_for(need, loc)
                take = min(size - cursor, self.segment_size - seg.used)
                # One device stream of write_request-sized requests; the
                # device policy caps the batch size and picks the order.
                self.device.write_stream(
                    seg.base + seg.used, take, self.write_request,
                    None if data is None else data[cursor: cursor + take])
                loc.pieces.append((seg.seg_id, seg.used, take))
                seg.used += take
                seg.live += take
                cursor += take
        except StorageFullError:
            # A refused object owns nothing: the pieces already written
            # become dead bytes of their units.
            self._release_pieces(loc)
            raise
        return loc

    def _release_pieces(self, loc: _ObjectLoc) -> None:
        for seg_id, _, length in loc.pieces:
            seg = self._segments[seg_id]
            seg.live -= length
            self._released(seg)

    def _free(self, seg: _Segment) -> None:
        del self._segments[seg.seg_id]
        insort(self._free_segments, seg.seg_id)

    def _collect(self, enough: Callable[[], bool],
                 victim: _Segment | None = None,
                 placing: _ObjectLoc | None = None) -> None:
        """Collect ``victim`` if given, then, until ``enough()``, the unit
        other than the head with the most dead bytes (ties: the first in
        ``_segments``) the policy lets go, no piece of ``placing`` is in
        and, in a spanning log, whose objects the free bytes can take
        whole; or until a volume's worth of victims has not raised the
        pass's best free count (it only moves live bytes around).
        Copies never collect."""
        if self._cleaning:
            return
        self._cleaning = True
        try:
            if victim is not None:
                self._collect_unit(victim)
            # A copy that pads a unit adds dead bytes, so a whole-record
            # log takes victims only among the units held as it began.
            pool = list(self._segments.values()) if self.whole_records \
                else None
            busy = {piece[0] for piece in placing.pieces} if placing else ()
            best, idle = len(self._free_segments), 0
            while not enough() and idle < self.nsegments:
                held = self._segments.values() if pool is None else [
                    u for u in pool if self._segments.get(u.seg_id) is u]
                victims = sorted((
                    u for u in held if u is not self._head
                    and u.dead() > 0 and u.seg_id not in busy
                    and self._collectable(u)), key=_Segment.dead, reverse=True)
                # A copy that finds no free byte would be refused halfway
                # through a pass that serves a write already done.
                fits = next((u for u in victims if self.whole_records or sum(
                    loc.size for loc in self._movers(u)) <= self.free_bytes()),
                    None)
                if fits is None:
                    return
                self._collect_unit(fits)
                idle += 1
                if len(self._free_segments) > best:
                    best, idle = len(self._free_segments), 0
        finally:
            self._cleaning = False

    def _movers(self, unit: _Segment) -> list[_ObjectLoc]:
        """The objects with a piece in ``unit``: a collection copies each
        whole."""
        return [loc for loc in self._objects.values() if any(
            seg_id == unit.seg_id for seg_id, _, _ in loc.pieces)]

    def _collect_unit(self, victim: _Segment) -> None:
        movers = self._movers(victim)
        if self.whole_records:  # copied in their order in the unit
            movers.sort(key=lambda loc: loc.pieces[0][1])
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
            self._count(0, loc.size)
        if self._segments.get(victim.seg_id) is victim:
            self._free(victim)
        self._count(1, 0)

    def _spans_of(self, loc: _ObjectLoc) -> list[Span]:
        size = self.segment_size
        return [(sid * size + off, n) for sid, off, n in loc.pieces]

    def check_invariants(self) -> None:
        """Free and held units partition the volume, held ones but the
        head are sealed, and live pieces lie inside their unit's used
        bytes, overlap none other and sum to its live bytes and to their
        object's size (one piece per object in a whole-record log)."""
        size, held, head = self.segment_size, self._segments, self._head
        free = self._free_segments
        if free != sorted(set(free)) or sorted(free + list(held)) != list(
                range(self.nsegments)) or not (
                head is None or held.get(head.seg_id) is head):
            raise CorruptionError("free and held units do not partition")
        live = dict.fromkeys(held, 0)
        runs = []
        for _, loc in sorted(self._objects.items()):
            if sum(n for _, _, n in loc.pieces) != loc.size or (
                    self.whole_records and len(loc.pieces) != 1):
                raise CorruptionError(f"object {loc.key!r} pieces wrong")
            for seg_id, off, n in loc.pieces:
                if seg_id not in held or off + n > held[seg_id].used:
                    raise CorruptionError(f"{loc.key!r} outside its unit")
                live[seg_id] += n
                runs.append((seg_id * size + off, n))
        runs.sort()
        if any(a + n > b for (a, n), (b, _) in zip(runs, runs[1:])):
            raise CorruptionError("live pieces overlap")
        for seg_id, unit in held.items():
            if unit.base != seg_id * size or not (
                    0 <= unit.live == live[seg_id] <= unit.used <= size) or (
                    unit is not head and unit.used != size):
                raise CorruptionError(f"unit books wrong or unsealed: {unit}")

    # ObjectStore bodies.
    def put(self, key: str, *, size: int | None = None,
            data: bytes | None = None) -> None:
        total = checked_write_size(size, data, self.write_request)
        if key in self._objects:
            raise ConfigError(f"object {key!r} exists")
        self.cost.charge_db_query(self.device.stats)
        self._objects[key] = self._append(key, total, data, version=1)
        self.device.flush()
        self._maintain()

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
        old = self._objects[key]  # a collection may have moved it
        self._objects[key] = new
        self.device.flush()
        self._release_pieces(old)
        self._maintain()

    def delete(self, key: str) -> None:
        loc = self._lookup(key)
        self.cost.charge_db_query(self.device.stats)
        del self._objects[key]
        self._release_pieces(loc)
        self._maintain()

    def exists(self, key: str) -> bool:
        return key in self._objects

    def meta(self, key: str) -> ObjectMeta:
        loc = self._lookup(key)
        return ObjectMeta(key=key, size=loc.size, version=loc.version)

    def keys(self) -> list[str]:
        return list(self._objects)

    def read_many(self, keys: list[str]) -> list[bytes | None]:
        requests: list[list[Span]] = []
        for key in keys:
            loc = self._lookup(key)
            self.cost.charge_db_query(self.device.stats)
            requests.append(self._spans_of(loc))
        return self.device.submit_policy(requests)

    def object_extents(self, key: str) -> list[Span]:
        return self._spans_of(self._lookup(key))

    def layouts(self, keys: Sequence[str]) -> Iterator[list[Span]]:
        # No table: the log's object map is read one key at a time.
        for key in keys:
            yield self.object_extents(key)

    def devices(self) -> list[BlockDevice]:
        return [self.device]

    def free_bytes(self) -> int:
        head, size = self._head, self.segment_size
        return len(self._free_segments) * size + (
            size - head.used if head else 0)

    def store_stats(self) -> StoreStats:
        return StoreStats(objects=len(self._objects),
                          live_bytes=self._live_bytes(),
                          free_bytes=self.free_bytes(),
                          capacity=self.nsegments * self.segment_size)

    def _live_bytes(self) -> int:
        return sum(self._objects[k].size for k in sorted(self._objects))

    def _lookup(self, key: str) -> _ObjectLoc:
        try:
            return self._objects[key]
        except KeyError:
            raise ObjectNotFoundError(f"no object {key!r}") from None


def own_protocol(cls: type) -> type:
    """Bind the ``ObjectStore`` bodies in ``cls``'s own namespace: the
    e2e tracer patches ``cls.__dict__[name]`` of each store class."""
    for name in ("put get overwrite delete exists meta keys read_many "
                 "object_extents layouts devices free_bytes "
                 "store_stats").split():
        setattr(cls, name, SegmentLog.__dict__[name])
    return cls


@own_protocol
class LfsBackend(SegmentLog):
    """Append-only segmented log with greedy cleaning to a low-water mark
    of free segments; objects span segments."""

    def __init__(self, device: BlockDevice, *, segment_size: int = 4 * MB,
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
        self._open_log(4, "volume smaller than four segments")
        self.cleaner_runs = 0
        self.cleaner_copied_bytes = 0
        self._cleaning = False

    def _maintain(self) -> None:
        low_water = max(1, int(self.nsegments * (1 - self.clean_threshold)))
        if len(self._free_segments) < low_water:
            self._collect(lambda: len(self._free_segments) >= low_water)

    def _count(self, runs: int, copied: int) -> None:
        self.cleaner_runs += runs
        self.cleaner_copied_bytes += copied

    def write_amplification(self) -> float:
        """Cleaner bytes per logical byte written (0 when never cleaned)."""
        logical = self._live_bytes()
        return self.cleaner_copied_bytes / logical if logical else 0.0


@register_backend(
    "lfs",
    description="log-structured segments with a cleaner",
    options={"segment_size": to_size, "clean_threshold": to_float},
)
def _lfs_from_spec(spec: StoreSpec, device: BlockDevice) -> LfsBackend:
    return LfsBackend(device, segment_size=spec.option("segment_size", 4 * MB),
                      write_request=spec.write_request,
                      clean_threshold=spec.option("clean_threshold", 0.75))
