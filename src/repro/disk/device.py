"""Simulated block device with a mechanical service-time model.

:class:`BlockDevice` is the single substrate both storage systems sit on.
It tracks the head position, charges seek + rotational latency for every
discontiguous span touched and media transfer time for every byte, and
accumulates everything in an :class:`~repro.disk.iostats.IoStats`.

Submission paths
----------------
A request is a list of ``(start, length)`` int pairs, *spans*: the
device reads two ints per piece and never builds an
:class:`~repro.alloc.extent.Extent`; an object's layout is reported in
the same spans (``object_extents``).  Every list entry point takes a
list of span lists, one direction per call and one payload per write
request, and checks every span and payload before anything moves.  A
single request (``read``/``write``/``*_extents``, a one-request
``submit``) is one call to :meth:`BlockDevice._serve`; a batch goes
through :meth:`submit`, which charges the whole batch with the head
chaining request to request.  Either way each call records **one**
:class:`IoStats` entry.  A list of write requests that stay separate
requests (a BLOB's 64 KB chunks, the log records beside them) goes
through :meth:`write_each` as ``(spans, count)`` runs
(:data:`RequestRun`): one call, one costing pass, and the books of one
:meth:`write_extents` per request.  A run of ``count > 1`` is one span's
length ``count`` times back to back, so a BLOB's whole requests inside
one address run, or the log records between two wraps, are one entry.
Every path costs with the one kernel, :meth:`BlockDevice._cost_of`,
which takes runs and costs a run's requests that continue at the head
and end inside the head's zone as one ``(nbytes, service, seeks,
count)`` entry; every request keeps its own ``IoStats`` entry and
float.  Costed entries are folded one request at a time with the one
left fold, :func:`repro.units.left_sum`.  A log append (the LFS log
piece, the GFS record) is a contiguous run of ``write_request``-sized
writes and goes through :meth:`write_stream`: under the default policy
it is one batch of two runs, its whole requests and its short tail,
costed by the kernel; under a batching or reordering policy it is
:meth:`submit_policy` of its requests.  Under a reordering policy a
batch is served in elevator (C-LOOK) order — ascending starts from the
current head, wrapping once — which models request-scheduling effects;
without reordering the modelled cost is exactly that of the requests
submitted one call at a time.
Content effects (stored bytes, read results) always apply in
*submission* order regardless of reordering: the elevator changes the
timing model, never the semantics.  The public names stay as they are:
the whole-run benchmark's tracer patches them by name to time the disk
layer, and counts a batch's requests from ``submit``'s first argument.

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
from collections.abc import Iterable, Iterator
from itertools import repeat

from repro.disk.geometry import DiskGeometry, cost_tables
from repro.disk.iostats import Costed, IoStats
from repro.disk.policy import DEFAULT_POLICY, DevicePolicy
from repro.errors import ConfigError
from repro.struct.blockedlist import BlockedList
from repro.units import Span, left_sum

#: ``(spans, count)``: ``count`` write requests.  A count-1 entry is one
#: request of any span list; for ``count > 1`` ``spans`` is exactly one
#: span ``(start, length)`` and request ``t`` is ``(start + t * length,
#: length)``.
RequestRun = tuple[list[Span], int]


def requests_of(runs: Iterable[RequestRun]) -> Iterator[list[Span]]:
    """The span list of every request of ``runs``, in order (the caller
    has had the runs checked by the costing kernel)."""
    for spans, count in runs:
        if count == 1:
            yield spans
        else:
            ((start, length),) = spans
            for at in range(start, start + count * length, length):
                yield [(at, length)]


def slice_spans(runs: Iterable[Span], offset: int,
                length: int) -> list[Span]:
    """The spans of logical bytes ``[offset, offset + length)`` of an
    object laid out as ``runs`` in logical order: the one range-to-spans
    map of every store (a LOB tree slices in page units).  The caller
    checks the range against the object's size."""
    out: list[Span] = []
    for start, run in runs:
        if length <= 0:
            break
        if offset >= run:
            offset -= run
            continue
        take = min(run - offset, length)
        out.append((start + offset, take))
        length -= take
        offset = 0
    return out


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
        The :class:`~repro.disk.policy.DevicePolicy` every batch is
        served under.  The default policy reproduces the historical
        behaviour (submission order).
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
    def _cost_of(self, runs: Iterable[RequestRun], head: int
                 ) -> tuple[list[Costed], int]:
        """``(costed, head)`` for a list of ``(spans, count)`` runs served
        in order (:data:`RequestRun`): ``costed`` holds ``(nbytes,
        service seconds, seeks, count)`` entries, each standing for
        ``count`` consecutive requests of those books, and the head
        chains from request to request.

        The one costing kernel: a single pass validates every span,
        charges seek + rotation + transfer with the head chaining
        through them, and counts the bytes.  It raises
        :class:`ConfigError` for a span that is empty or outside the
        volume, and for a run whose count is below one, whose
        ``count > 1`` is not over exactly one span, or whose last
        request passes the capacity, before the caller has changed any
        state.  The zone table
        and seek constants come from
        :func:`~repro.disk.geometry.cost_tables` — derived data is not
        device state, because devices are pickled into checkpoints whose
        byte count is a modelled quantity.  Only a
        transfer that straddles a zone boundary goes back to
        :meth:`DiskGeometry.transfer_time`; its result is added as one
        sub-total so the float sums equal the composed model's.

        A run's first request, and every count-1 entry, goes through the
        span loop.  Each later request of a run starts at the head (zero
        gap, no seek), so one that ends inside the head's zone costs
        ``overhead + length / rate[zone]``: exactly what the span loop
        adds for it, the same float for all of them.  The requests that
        fit before the zone's end (``(ends[z] - head) // length``) are
        therefore one entry ``(length, that, 0, n)``, and the request
        after them, which starts on the zone end or straddles it, goes
        back through the span loop.  The span checks still hold for the
        entry: its first start is the head, the end of a checked span
        (so ``>= 0``), its length a checked span's, and its last end at
        most the zone's end, at most the capacity.
        """
        geometry = self.geometry
        ends, rates, settle_s, seek_span_s, rotational_s = cost_tables(geometry)
        capacity = geometry.capacity
        window = self._sequential_window
        overhead = geometry.per_request_overhead_s
        costed: list[Costed] = []
        for spans, count in runs:
            if count != 1 and (count < 1 or len(spans) != 1 or spans[0][0]
                               + count * spans[0][1] > capacity):
                raise ConfigError(f"run ({spans}, {count}) is not a count "
                                  f">= 1 of one span inside volume of "
                                  f"{capacity} bytes")
            while True:
                seeks = nbytes = 0
                total = overhead
                for start, length in spans:
                    if start < 0 or length <= 0 or start + length > capacity:
                        raise ConfigError(
                            f"span ({start}, {length}) empty or outside "
                            f"volume of {capacity} bytes")
                    gap = start - head
                    if 0 <= gap <= window:
                        # Sequential continuation: pay only any skipped
                        # media time.
                        if gap:
                            zone = bisect_right(ends, head)
                            if start <= ends[zone]:
                                total += gap / rates[zone]
                            else:
                                total += geometry.transfer_time(head, gap)
                    else:
                        seeks += 1
                        seek_s = settle_s + seek_span_s * (
                            (abs(gap) / capacity) ** 0.5)
                        total += seek_s + rotational_s
                    head = start + length
                    zone = bisect_right(ends, start)
                    if head <= ends[zone]:
                        total += length / rates[zone]
                    else:
                        total += geometry.transfer_time(start, length)
                    nbytes += length
                costed.append((nbytes, total, seeks, 1))
                if count == 1:
                    break
                # The rest of the run: the requests that end in the
                # head's zone, then the next one through the span loop.
                count -= 1
                zone = bisect_right(ends, head)
                fit = min(count, (ends[zone] - head) // length)
                if fit:
                    costed.append((length, overhead + length / rates[zone],
                                   0, fit))
                    head += fit * length
                    count -= fit
                    if not count:
                        break
                spans = [(head, length)]
        return costed, head

    def _scaled(self, service_s: float) -> float:
        """Seam: every modelled service time passes through here once
        (a degraded device overrides it; see ``disk/faults.py``)."""
        return service_s

    def _elevator(self, batch: list[list[Span]]) -> list[list[Span]]:
        """C-LOOK order: ascending starts from the head, wrapping once
        (a stable sort: ties keep submission order)."""
        head = self._head

        def start_of(spans: list[Span]) -> int:
            return spans[0][0] if spans else head

        ahead = sorted((r for r in batch if start_of(r) >= head), key=start_of)
        behind = sorted((r for r in batch if start_of(r) < head), key=start_of)
        return ahead + behind

    # ------------------------------------------------------------------
    # Timed I/O
    # ------------------------------------------------------------------
    def _serve(self, is_write: bool, spans: list[Span],
               data: bytes | None) -> bytes | None:
        """Serve one request: one costing pass (which also holds stored
        ``data`` to the span bytes), one ``IoStats`` record, the clock,
        then the content effect (a faulty device admits the request here
        first); returns the read result or ``None``."""
        ((nbytes, service, seeks, _),), head = self._cost_of(
            ((spans, 1),), self._head)
        store = self._store
        if store is not None and data is not None and len(data) != nbytes:
            raise ConfigError(f"data length {len(data)} != span bytes {nbytes}")
        self._head = head
        self.stats.record(is_write, nbytes, service, seeks)
        self.clock_s += service
        if store is None:
            return None
        return self._apply_content(is_write, spans, data)

    def _check_payloads(self, requests: Iterable[list[Span]],
                        is_write: bool, data: list[bytes] | None) -> None:
        """Refuse a batch's payloads before anything moves: only a write
        carries them, one per request, each (with content storage) as
        long as its request's span bytes."""
        if data is None:
            return
        requests = list(requests)
        if not is_write or len(data) != len(requests):
            raise ConfigError(f"{len(data)} payloads for {len(requests)} "
                              + ("write" if is_write else "read") + " requests")
        if self._store is not None:
            for spans, payload in zip(requests, data):
                nbytes = sum(length for _, length in spans)
                if len(payload) != nbytes:
                    raise ConfigError(
                        f"data length {len(payload)} != span bytes {nbytes}")

    def submit(self, requests: list[list[Span]], *, is_write: bool = False,
               data: list[bytes] | None = None) -> list[bytes | None]:
        """Serve a batch of requests, all reads or all writes (``data``:
        one payload per write request); one ``IoStats`` record per batch.

        Costs are charged with the head chaining through the batch in
        service order: elevator order when the device's
        :class:`~repro.disk.policy.DevicePolicy` reorders, otherwise
        submission order, so a non-reordered batch costs exactly what
        the same requests cost submitted one at a time.
        Returns one entry per request in submission order: read results
        (when content storage is on) or ``None``.  An empty batch is a
        no-op; a one-request batch is :meth:`_serve`.  Every span and
        payload is checked before anything moves.
        """
        self._check_payloads(requests, is_write, data)
        if not requests:
            return []
        if len(requests) == 1:
            return [self._serve(is_write, requests[0],
                                None if data is None else data[0])]
        order = self._elevator(requests) if self.policy.reorder_flag \
            else requests
        costed, self._head = self._cost_of(zip(order, repeat(1)),
                                           self._head)
        sizes, services, seeks, _ = zip(*costed)
        service_s = left_sum(services)
        self.stats.record(is_write, sum(sizes), service_s, sum(seeks))
        self.clock_s += service_s
        if self._store is None:
            return [None] * len(requests)
        # Content pass, always in submission order: reordering is a
        # timing-model choice and must never change stored bytes.
        return [self._apply_content(is_write, spans, payload)
                for spans, payload in zip(requests,
                                          data or [None] * len(requests))]

    def _apply_content(self, is_write: bool, spans: list[Span],
                       data: bytes | None) -> bytes | None:
        """Apply one request's content effect; None unless a stored read."""
        store = self._store
        if not is_write:
            return b"".join(store.read(start, length)
                            for start, length in spans)
        if data is not None:
            cursor = 0
            for start, length in spans:
                store.write(start, data[cursor: cursor + length])
                cursor += length
        return None

    def submit_policy(self, requests: list[list[Span]], *,
                      is_write: bool = False,
                      data: list[bytes] | None = None) -> list[bytes | None]:
        """Submit a request stream under the device's policy.

        The policy's ``batch_size`` splits the stream (and ``data``
        beside it) into batches and its ``reorder`` discipline orders
        each batch; results come back aligned with ``requests``.  The
        backends' ``read_many`` sweeps use it, and so do log appends
        (:meth:`write_stream`) under a batching or reordering policy.
        Every span and payload is checked before the first batch moves.
        """
        self._check_payloads(requests, is_write, data)
        if 0 < self.policy.batch_size < len(requests):
            self._cost_of(zip(requests, repeat(1)), self._head)
        out: list[bytes | None] = []
        at = 0
        for chunk in self.policy.chunks(requests):
            out.extend(self.submit(
                chunk, is_write=is_write,
                data=None if data is None else data[at: at + len(chunk)]))
            at += len(chunk)
        return out

    def _check_stream(self, start: int, length: int, request: int,
                      data: bytes | None) -> None:
        """Refuse a bad :meth:`write_stream` before anything moves."""
        capacity = self.geometry.capacity
        if (start < 0 or length <= 0 or request <= 0
                or start + length > capacity):
            raise ConfigError(f"stream ({start}, {length}) by {request} "
                              f"empty or outside volume of {capacity} bytes")
        if (self._store is not None and data is not None
                and len(data) != length):
            raise ConfigError(
                f"data length {len(data)} != stream bytes {length}")

    def _submit_stream(self, start: int, length: int, request: int,
                       data: bytes | None) -> None:
        """:meth:`submit_policy` of the ``request``-byte write requests of
        a checked stream, materialised (the last one short)."""
        starts = range(start, start + length, request)
        self.submit_policy(
            [[(pos, min(request, start + length - pos))] for pos in starts],
            is_write=True, data=None if data is None else
            [data[pos - start: pos - start + request] for pos in starts])

    def write_stream(self, start: int, length: int, request: int,
                     data: bytes | None = None) -> None:
        """Write ``[start, start + length)`` as consecutive ``request``-byte
        write requests (the last one short) under the device policy,
        charging bit for bit what :meth:`submit_policy` of them charges.
        Under the default policy the stream is one batch: the runs of its
        whole requests and its tail go through :meth:`_cost_of`, whose
        entries fold one request at a time into one ``IoStats`` record;
        a batching or reordering policy serves the materialised list."""
        self._check_stream(start, length, request, data)
        if self.policy.batch_size or self.policy.reorder_flag:
            self._submit_stream(start, length, request, data)
            return
        whole, tail = divmod(length, request)
        runs = [([(start, request)], whole)] if whole else []
        if tail:
            runs.append(([(start + whole * request, tail)], 1))
        costed, self._head = self._cost_of(runs, self._head)
        seeks = 0
        write_s = 0.0
        for _, service, entry_seeks, count in costed:
            seeks += entry_seeks
            write_s = left_sum(repeat(service, count), write_s)
        self.stats.record(True, length, write_s, seeks)
        self.clock_s += write_s
        if self._store is not None and data is not None:
            for pos in range(start, start + length, request):
                at = pos - start
                self._store.write(pos, data[at: at + request])

    def read_extents(self, spans: list[Span]) -> bytes | None:
        """Read a list of spans as one request; returns data if stored."""
        return self._serve(False, spans, None)

    def write_extents(self, spans: list[Span],
                      data: bytes | None = None) -> None:
        """Write a list of spans as one request.

        ``data`` (when content storage is on) must cover the spans in
        order; pass ``None`` to write timing-only.
        """
        self._serve(True, spans, data)

    def write_each(self, runs: list[RequestRun],
                   data: list[bytes] | None = None) -> None:
        """Write the requests of ``(spans, count)`` runs
        (:data:`RequestRun`), each its own request, in order, charging
        bit for bit what one :meth:`write_extents` per request charges:
        one ``IoStats`` entry per request, the clock folded per request.

        ``data`` (when content storage is on) holds one payload per
        request.  Every run is costed, and every payload held to its
        request's bytes, before the head, clock, stats or stored bytes
        move.
        """
        costed, head = self._cost_of(runs, self._head)
        self._check_payloads(requests_of(runs), True, data)
        self._head = head
        self.clock_s = left_sum(self.stats.record_each(True, costed),
                                self.clock_s)
        if self._store is not None and data is not None:
            for spans, payload in zip(requests_of(runs), data):
                self._apply_content(True, spans, payload)

    def read(self, offset: int, length: int) -> bytes | None:
        """Timed single-span read."""
        return self._serve(False, [(offset, length)], None)

    def write(self, offset: int, length: int,
              data: bytes | None = None) -> None:
        """Timed single-span write."""
        self._serve(True, [(offset, length)], data)

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
