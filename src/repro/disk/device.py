"""Simulated block device with a mechanical service-time model.

:class:`BlockDevice` is the single substrate both storage systems sit on.
It tracks the head position, charges seek + rotational latency for every
discontiguous extent touched and media transfer time for every byte, and
accumulates everything in an :class:`~repro.disk.iostats.IoStats`.

Submission paths
----------------
All timed I/O funnels through :meth:`BlockDevice.submit`, which takes a
batch of :class:`IoRequest` scatter/gather requests, charges the cost
model for the whole batch with the head position chaining request to
request, and records **one** :class:`IoStats` entry per batch.
:meth:`read_extents` / :meth:`write_extents` are single-request batches;
the backends' bulk paths (LFS/GFS appends) submit many requests per
call to cut host-side accounting overhead on bulk loads.  With
``reorder=True`` the batch is served in elevator (C-LOOK) order —
ascending starts from the current head, wrapping once — which models
request-scheduling effects; modelled cost with ``reorder=False`` is
exactly identical to submitting the requests one call at a time.
Content effects (stored bytes, read results) always apply in
*submission* order regardless of reordering: the elevator changes the
timing model, never the semantics.

Content storage
---------------
Content storage is optional.  Fragmentation experiments only need timing
and layout, so by default the device stores nothing and ``read`` returns
``None``.  With ``store_data=True`` the device keeps a sparse segment map
of written bytes (:class:`_SegmentStore`), which the marker-based
fragmentation analyzer and the crash/atomicity tests use to verify
byte-exact behaviour.

The segment store's invariants: segments are non-empty, non-adjacent-
overlapping byte runs keyed by start offset; a write carves away every
overlapped part of existing segments before inserting, so no byte is
ever covered twice; unwritten ranges read back as zeros, like a fresh
disk.  The store is built on the shared
:class:`~repro.struct.blockedlist.BlockedList` primitive, making
``write``/``trim`` O(log n + load + k) for k displaced segments and
``read`` O(log n + segments touched) — at paper scale (10^5+ segments
during content-checked aging runs) this replaces the seed's flat list,
whose O(n) memmove per write made content-checked runs test-scale only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.disk.geometry import DiskGeometry
from repro.disk.iostats import IoStats
from repro.disk.policy import DEFAULT_POLICY, DevicePolicy
from repro.errors import ConfigError
from repro.alloc.extent import Extent
from repro.struct.blockedlist import BlockedList


class _SegmentStore:
    """Sparse byte store: non-overlapping ``(start, bytes)`` segments.

    A :class:`BlockedList` orders the segment starts; a dict holds the
    payloads.  Mutations carve overlapping neighbours first (keeping
    any uncovered prefix/suffix), so the non-overlap invariant holds
    after every call.
    """

    def __init__(self) -> None:
        self._index = BlockedList()
        self._data: dict[int, bytes] = {}

    def __len__(self) -> int:
        return len(self._index)

    def write(self, offset: int, data: bytes) -> None:
        """Store ``data`` at ``offset``, replacing whatever it overlaps."""
        if not data:
            return
        payloads = self._data
        # Fast path: replacing a segment with one of identical extent
        # (safe-write churn rewrites objects in place) touches only the
        # payload dict — no index mutation at all.
        seg = payloads.get(offset)
        if seg is not None and len(seg) == len(data):
            payloads[offset] = bytes(data)
            return
        # A write is a trim (carve away everything it overlaps) plus an
        # insert of the new segment into the hole.
        self.trim(offset, len(data))
        self._index.insert(offset)
        payloads[offset] = bytes(data)

    def trim(self, offset: int, length: int) -> None:
        """Discard stored bytes in ``[offset, offset + length)``.

        Trimmed ranges read back as zeros again, like TRIM/UNMAP on a
        thin-provisioned device.
        """
        if length <= 0:
            return
        end = offset + length
        index = self._index
        payloads = self._data
        # Left neighbour (strictly earlier start) may straddle offset.
        pred = index.pred_lt(offset)
        if pred is not None:
            seg = payloads[pred]
            pred_end = pred + len(seg)
            if pred_end > offset:
                payloads[pred] = seg[: offset - pred]
                if pred_end > end:
                    # Straddles the whole range: keep the suffix too.
                    # Nothing else can overlap [offset, end).
                    index.insert(end)
                    payloads[end] = seg[end - pred:]
                    return
        # Segments starting inside [offset, end) are (partially) covered.
        doomed: list[int] = []
        overhang: bytes | None = None
        for start in index.iter_from(offset):
            if start >= end:
                break
            doomed.append(start)
            seg = payloads[start]
            if start + len(seg) > end:
                overhang = seg[end - start:]
        for start in doomed:
            index.remove(start)
            del payloads[start]
        if overhang:
            index.insert(end)
            payloads[end] = overhang

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes; unwritten ranges come back as zeros."""
        payloads = self._data
        # Fast path: reading back exactly what was written — a segment
        # starting at ``offset`` that covers the whole range (nothing
        # else can overlap it, segments are disjoint).
        seg = payloads.get(offset)
        if seg is not None and len(seg) >= length:
            return seg if len(seg) == length else seg[:length]
        out = bytearray(length)
        end = offset + length
        index = self._index
        pred = index.pred_lt(offset)
        if pred is not None:
            seg = payloads[pred]
            pred_end = pred + len(seg)
            if pred_end > offset:
                hi = min(pred_end, end)
                out[: hi - offset] = seg[offset - pred: hi - pred]
        for start in index.iter_from(offset):
            if start >= end:
                break
            seg = payloads[start]
            hi = min(start + len(seg), end)
            out[start - offset: hi - offset] = seg[: hi - start]
        return bytes(out)


@dataclass(slots=True)
class IoRequest:
    """One scatter/gather request inside a :meth:`BlockDevice.submit` batch.

    ``extents`` are served in order within the request (the head chains
    through them); ``data``, when content storage is on, must cover the
    extents in logical order.
    """

    is_write: bool
    extents: list[Extent]
    data: bytes | None = None

    @classmethod
    def read(cls, extents: list[Extent]) -> "IoRequest":
        return cls(is_write=False, extents=extents)

    @classmethod
    def write(cls, extents: list[Extent],
              data: bytes | None = None) -> "IoRequest":
        return cls(is_write=True, extents=extents, data=data)


class BlockDevice:
    """A single simulated drive.

    Parameters
    ----------
    geometry:
        Mechanical and zoning parameters (see :class:`DiskGeometry`).
    store_data:
        Keep written bytes in memory for later reads.  Off by default;
        fragmentation benches only need timing.
    sequential_window:
        A new request starting within this many bytes after the previous
        request's end is treated as sequential (no seek, no rotational
        delay) — drives coalesce near-sequential access via track
        buffering.
    policy:
        Default :class:`~repro.disk.policy.DevicePolicy` for batches
        submitted without an explicit ``reorder`` argument.  The default
        policy reproduces the historical behaviour (submission order).
    """

    def __init__(self, geometry: DiskGeometry, *, store_data: bool = False,
                 sequential_window: int = 64 * 1024,
                 policy: DevicePolicy | None = None) -> None:
        self.geometry = geometry
        self.stats = IoStats()
        self.policy = policy or DEFAULT_POLICY
        self._store = _SegmentStore() if store_data else None
        self._head = 0
        self._sequential_window = sequential_window
        self.clock_s = 0.0

    # ------------------------------------------------------------------
    # Service-time model
    # ------------------------------------------------------------------
    def _cost_of(self, extents: list[Extent],
                 head: int) -> tuple[int, float, int]:
        """(seeks, service seconds, final head) for one request.

        Hot path: large requests arrive as many-extent lists, so the
        per-extent loop accumulates into locals and binds the geometry
        callables once, touching self only at entry.
        """
        geometry = self.geometry
        transfer_time = geometry.transfer_time
        seek_time = geometry.seek_time
        rotational_s = geometry.avg_rotational_latency_s
        window = self._sequential_window
        seeks = 0
        total = geometry.per_request_overhead_s
        for ext in extents:
            start = ext.start
            gap = start - head
            if 0 <= gap <= window:
                # Sequential continuation: pay only any skipped media time.
                if gap:
                    total += transfer_time(head, gap)
            else:
                seeks += 1
                total += seek_time(head, start) + rotational_s
            length = ext.length
            total += transfer_time(start, length)
            head = start + length
        return seeks, total, head

    def _validate(self, extents: list[Extent]) -> None:
        for ext in extents:
            if ext.start < 0 or ext.end > self.geometry.capacity:
                raise ConfigError(
                    f"extent {ext} outside volume of "
                    f"{self.geometry.capacity} bytes"
                )

    def _elevator(self, batch: list[IoRequest]) -> list[IoRequest]:
        """C-LOOK order: ascending starts from the head, wrapping once."""
        head = self._head

        def start_of(req: IoRequest) -> int:
            return req.extents[0].start if req.extents else head

        ahead = sorted((r for r in batch if start_of(r) >= head), key=start_of)
        behind = sorted((r for r in batch if start_of(r) < head), key=start_of)
        return ahead + behind

    # ------------------------------------------------------------------
    # Timed I/O
    # ------------------------------------------------------------------
    def submit(self, batch: list[IoRequest], *,
               reorder: bool | None = None) -> list[bytes | None]:
        """Serve a batch of requests; one ``IoStats`` record per batch.

        Costs are charged with the head chaining through the batch in
        service order (``reorder=True`` picks elevator order, otherwise
        submission order), so a non-reordered batch costs exactly what
        the same requests cost submitted one at a time.  ``reorder=None``
        (the default) defers to the device's
        :class:`~repro.disk.policy.DevicePolicy`, which is how backends
        thread a spec-level scheduling choice through every submission.
        Returns one entry per request in submission order: read results
        (when content storage is on) or ``None``.  An empty batch is a
        no-op.
        """
        if not batch:
            return []
        if reorder is None:
            reorder = self.policy.reorder_flag
        if len(batch) == 1:
            # Fast path for the single-request wrappers (read_extents /
            # write_extents sit on every experiment's hot path): same
            # accounting, none of the batch bookkeeping.
            req = batch[0]
            self._validate(req.extents)
            seeks, service, head = self._cost_of(req.extents, self._head)
            self._head = head
            nbytes = 0
            for ext in req.extents:
                nbytes += ext.length
            if req.is_write:
                self.stats.record_batch(write_bytes=nbytes, write_s=service,
                                        seeks=seeks)
            else:
                self.stats.record_batch(read_bytes=nbytes, read_s=service,
                                        seeks=seeks)
            self.clock_s += service
            return [self._apply_content(req)]
        for req in batch:
            self._validate(req.extents)
        order = self._elevator(batch) if reorder else batch
        head = self._head
        seeks = 0
        read_bytes = write_bytes = 0
        read_s = write_s = 0.0
        for req in order:
            req_seeks, service, head = self._cost_of(req.extents, head)
            seeks += req_seeks
            nbytes = 0
            for ext in req.extents:
                nbytes += ext.length
            if req.is_write:
                write_bytes += nbytes
                write_s += service
            else:
                read_bytes += nbytes
                read_s += service
        self._head = head
        self.stats.record_batch(read_bytes=read_bytes, write_bytes=write_bytes,
                                read_s=read_s, write_s=write_s, seeks=seeks)
        self.clock_s += read_s + write_s
        # Content pass, always in submission order: reordering is a
        # timing-model choice and must never change stored bytes.
        return [self._apply_content(req) for req in batch]

    def _apply_content(self, req: IoRequest) -> bytes | None:
        """Apply one request's content effect; None unless a stored read."""
        store = self._store
        if store is None:
            return None
        if not req.is_write:
            return b"".join(store.read(e.start, e.length)
                            for e in req.extents)
        if req.data is not None:
            nbytes = sum(e.length for e in req.extents)
            if len(req.data) != nbytes:
                raise ConfigError(
                    f"data length {len(req.data)} != extent bytes {nbytes}"
                )
            cursor = 0
            for ext in req.extents:
                store.write(ext.start, req.data[cursor: cursor + ext.length])
                cursor += ext.length
        return None

    def submit_policy(self, requests: list[IoRequest]) -> list[bytes | None]:
        """Submit a request stream under the device's policy.

        The policy's ``batch_size`` splits the stream into batches and
        its ``reorder`` discipline orders each batch; results come back
        aligned with ``requests``.  This is the bulk path the backends'
        appends and ``read_many`` sweeps use.
        """
        out: list[bytes | None] = []
        for chunk in self.policy.chunks(requests):
            out.extend(self.submit(list(chunk)))
        return out

    def read_extents(self, extents: list[Extent]) -> bytes | None:
        """Read a list of extents as one request; returns data if stored."""
        return self.submit([IoRequest(False, extents)])[0]

    def write_extents(self, extents: list[Extent],
                      data: bytes | None = None) -> None:
        """Write a list of extents as one request.

        ``data`` (when content storage is on) must cover the extents in
        order; pass ``None`` to write timing-only.
        """
        self.submit([IoRequest(True, extents, data)])

    def read(self, offset: int, length: int) -> bytes | None:
        """Timed single-extent read."""
        return self.submit([IoRequest(False, [Extent(offset, length)])])[0]

    def write(self, offset: int, length: int,
              data: bytes | None = None) -> None:
        """Timed single-extent write."""
        self.submit([IoRequest(True, [Extent(offset, length)], data)])

    def charge_sequential_write(self, nbytes: int) -> float:
        """Charge a background sequential write of ``nbytes``; timing only.

        Models one large streaming request: per-request overhead, the
        average rotational latency of settling onto the flush location,
        and media transfer time starting from the current head's zone
        (wrapping across the volume for writes larger than it).  The
        charge lands in :attr:`stats` as a single write and advances
        :attr:`clock_s`; stored content and the head position are
        untouched — background flush traffic (checkpoint write-back) is
        not addressable data.  Returns the seconds charged.
        """
        if nbytes <= 0:
            return 0.0
        geometry = self.geometry
        service = (geometry.per_request_overhead_s
                   + geometry.avg_rotational_latency_s)
        start = self._head
        remaining = nbytes
        while remaining > 0:
            span = min(remaining, geometry.capacity - start)
            if span <= 0:
                start = 0
                continue
            service += geometry.transfer_time(start, span)
            remaining -= span
            start = (start + span) % geometry.capacity
        self.stats.record(is_write=True, nbytes=nbytes, service_s=service,
                          seeks=1)
        self.clock_s += service
        return service

    def flush(self) -> None:
        """Force outstanding writes; modelled as one rotation of latency.

        Safe writes and commit records force the platter; charging a
        rotation approximates the cache-flush cost of the era's drives.
        """
        service = self.geometry.rotation_s
        self.stats.record(is_write=True, nbytes=0, service_s=service, seeks=0)
        self.clock_s += service

    # ------------------------------------------------------------------
    # Untimed inspection (used by analyzers and tests, never by benches)
    # ------------------------------------------------------------------
    @property
    def stores_data(self) -> bool:
        return self._store is not None

    def peek(self, offset: int, length: int) -> bytes:
        """Read stored content without charging any service time."""
        if self._store is None:
            raise ConfigError("device was created with store_data=False")
        return self._store.read(offset, length)

    def poke(self, offset: int, data: bytes) -> None:
        """Write stored content without charging any service time."""
        if self._store is None:
            raise ConfigError("device was created with store_data=False")
        self._store.write(offset, data)

    def discard(self, offset: int, length: int) -> None:
        """Drop stored content in a range (untimed TRIM); reads zeros after."""
        if self._store is None:
            raise ConfigError("device was created with store_data=False")
        self._store.trim(offset, length)

    @property
    def head_position(self) -> int:
        return self._head
