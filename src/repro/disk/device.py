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

from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass

from repro.disk.geometry import DiskGeometry, cost_tables
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
        if sequential_window < 0:
            raise ConfigError("sequential_window must be >= 0")
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
                 head: int) -> tuple[int, float, int, int]:
        """(seeks, service seconds, final head, bytes) for one request.

        The one costing kernel: a single pass validates every extent,
        charges seek + rotation + transfer with the head chaining
        through them, and counts the bytes.  It raises
        :class:`ConfigError` for an extent outside the volume before the
        caller has changed any state.  The zone table and seek constants
        come from :func:`~repro.disk.geometry.cost_tables` — derived
        data is not device state, because devices are pickled into
        checkpoints whose byte count is a modelled quantity.  Only a
        transfer that straddles a zone boundary goes back to
        :meth:`DiskGeometry.transfer_time`; its result is added as one
        sub-total so the float sums equal the composed model's.
        """
        geometry = self.geometry
        ends, rates, settle_s, seek_span_s, rotational_s = cost_tables(geometry)
        capacity = geometry.capacity
        window = self._sequential_window
        seeks = nbytes = 0
        total = geometry.per_request_overhead_s
        for ext in extents:
            start = ext.start
            length = ext.length
            if start < 0 or start + length > capacity:
                raise ConfigError(
                    f"extent {ext} outside volume of {capacity} bytes")
            gap = start - head
            if 0 <= gap <= window:
                # Sequential continuation: pay only any skipped media time.
                if gap:
                    zone = bisect_right(ends, head)
                    if start <= ends[zone]:
                        total += gap / rates[zone]
                    else:
                        total += geometry.transfer_time(head, gap)
            else:
                seeks += 1
                seek_s = settle_s + seek_span_s * ((abs(gap) / capacity) ** 0.5)
                total += seek_s + rotational_s
            head = start + length
            zone = bisect_right(ends, start)
            if head <= ends[zone]:
                total += length / rates[zone]
            else:
                total += geometry.transfer_time(start, length)
            nbytes += length
        return seeks, total, head, nbytes

    def _scaled(self, service_s: float) -> float:
        """Seam: every modelled service time passes through here once
        (a degraded device overrides it; see ``disk/faults.py``)."""
        return service_s

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
        if len(batch) == 1:
            # Fast path for the single-request wrappers (read_extents /
            # write_extents sit on every experiment's hot path): same
            # accounting, none of the batch bookkeeping.
            req = batch[0]
            seeks, service, self._head, nbytes = self._cost_of(
                req.extents, self._head)
            self.stats.record(req.is_write, nbytes, service, seeks)
            self.clock_s += service
            return [None] if self._store is None else [self._apply_content(req)]
        if reorder is None:
            reorder = self.policy.reorder_flag
        head = self._head
        seeks = 0
        read_bytes = write_bytes = 0
        read_s = write_s = 0.0
        # Nothing is mutated until the last request is costed (and so
        # validated): a bad extent anywhere leaves the device untouched.
        for req in self._elevator(batch) if reorder else batch:
            req_seeks, service, head, nbytes = self._cost_of(req.extents, head)
            seeks += req_seeks
            if req.is_write:
                write_bytes += nbytes
                write_s += service
            else:
                read_bytes += nbytes
                read_s += service
        self._head = head
        self.stats.record(False, read_bytes, read_s, seeks)
        self.stats.record(True, write_bytes, write_s, 0, requests=0)
        self.clock_s += read_s + write_s
        if self._store is None:
            return [None] * len(batch)
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
        service = self._scaled(service)
        self.stats.record(True, nbytes, service, 1)
        self.clock_s += service
        return service

    def flush(self) -> None:
        """Force outstanding writes; modelled as one rotation of latency.

        Safe writes and commit records force the platter; charging a
        rotation approximates the cache-flush cost of the era's drives.
        """
        service = self._scaled(self.geometry.rotation_s)
        self.stats.record(True, 0, service, 0)
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


def summed_clock_s(devices: Iterable[BlockDevice]) -> float:
    """Modelled busy seconds of ``devices`` together, summed left to right.

    The one device-clock read: dispatch rounds, background-job costs and
    measurement windows all take clock deltas through it.  The explicit
    fold (:func:`repro.units.left_sum`, unrolled because a dispatch
    reads it twice per lane) keeps the bits interpreter-independent.
    """
    total = 0.0
    for device in devices:
        total += device.clock_s
    return total
