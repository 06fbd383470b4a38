"""The get/put object store interface both systems implement.

The paper's applications "make use of simple get/put storage
primitives" (Section 4): allocate an object, read it, atomically replace
it (safe write), delete it.  :class:`ObjectStore` is that contract; the
experiment driver and all analysis tools are written against it, so a
new backend only has to implement these methods to join every bench.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.disk.device import BlockDevice, summed_clock_s
from repro.disk.events import LatencyHistogram
from repro.disk.iostats import WindowStats
from repro.units import Span


@dataclass(frozen=True)
class ObjectMeta:
    """What a store knows about one object."""

    key: str
    size: int
    version: int


@dataclass
class StoreStats:
    """Aggregate layout statistics for a whole store."""

    objects: int
    live_bytes: int
    free_bytes: int
    capacity: int
    #: Objects/bytes moved between shards by rebalancing so far; always
    #: zero for single-volume stores.  Migration I/O also lands in the
    #: devices' IoStats through the ordinary submit path — these fields
    #: attribute how much of it was migration.
    migrated_objects: int = 0
    migrated_bytes: int = 0
    #: Fault-tolerance counters, maintained by the sharded composite
    #: (always zero for single-volume stores).  ``degraded_reads`` counts
    #: reads ultimately served by a non-primary replica; ``retries``
    #: counts transient-error re-issues; ``failovers`` counts every time
    #: a read abandoned one holder (dead shard, or retries exhausted)
    #: and moved on to the next.
    degraded_reads: int = 0
    retries: int = 0
    failovers: int = 0
    #: Objects/bytes re-replicated by ``rebuild()`` so far.  Like
    #: migration, rebuild I/O also lands in the devices' IoStats — these
    #: fields attribute how much of it was re-replication.
    rebuilt_objects: int = 0
    rebuilt_bytes: int = 0

    @property
    def occupancy(self) -> float:
        used = self.capacity - self.free_bytes
        return used / self.capacity if self.capacity else 0.0


@runtime_checkable
class ObjectStore(Protocol):
    """Get/put storage of large immutable-ish objects.

    Data parameters: every write method accepts either ``size``
    (timing-only simulation) or ``data`` (byte-exact, needed by the
    marker analyzer and atomicity tests) — exactly one of the two.
    """

    name: str

    def put(self, key: str, *, size: int | None = None,
            data: bytes | None = None) -> None:
        """Create a new object (bulk-load path)."""
        ...

    def get(self, key: str, offset: int = 0,
            length: int | None = None) -> bytes | None:
        """Read (a range of) an object; returns bytes when stored."""
        ...

    def overwrite(self, key: str, *, size: int | None = None,
                  data: bytes | None = None) -> None:
        """Atomically replace an object's contents (safe write)."""
        ...

    def delete(self, key: str) -> None:
        """Remove an object and free its space (subject to deferral)."""
        ...

    def exists(self, key: str) -> bool: ...

    def meta(self, key: str) -> ObjectMeta: ...

    def keys(self) -> list[str]:
        """Live keys in deterministic **insertion order**.

        Contract: the order of first live ``put``; ``overwrite`` keeps a
        key's position; ``delete`` followed by a fresh ``put`` moves it
        to the end.  The workload driver, fragmentation reports, and the
        sharded composite all rely on this being reproducible, and the
        parity suite asserts it across every backend.
        """
        ...

    def read_many(self, keys: list[str]) -> list[bytes | None]:
        """Bulk whole-object read sweep through the device policy.

        One scatter/gather request per object, submitted via
        :meth:`BlockDevice.submit_policy` so the store's
        :class:`~repro.disk.policy.DevicePolicy` (batch size, elevator
        reordering) governs scheduling — the measurement path for the
        request-scheduling study.  Returns one entry per key, aligned
        with ``keys``: the object's bytes when the device stores
        content, else ``None``.  Metadata costs are charged per object,
        like :meth:`get`.

        Error contract: ``None`` never means "the read failed" — an
        unknown key raises :class:`~repro.errors.ObjectNotFoundError`,
        and a key whose every replica is gone raises
        :class:`~repro.errors.ShardUnavailableError`.  ``None`` only
        ever means the device does not store content.
        """
        ...

    def object_extents(self, key: str) -> list[Span]:
        """The object's layout: device ``(start, length)`` spans in
        logical order, from the same function the store's reads use
        (:func:`repro.alloc.extent.fragment_count` counts them).  The
        name predates spans; it is kept for callers and the tracer."""
        ...

    def layouts(self, keys: Sequence[str]) -> Iterator[list[Span]]:
        """:meth:`object_extents` of each key, in order, as one pass
        over the store's metadata: it charges what one
        ``object_extents`` per key charges, in the same order, and
        holds one span list at a time.  ``object_extents`` is its
        one-key case."""
        ...

    def devices(self) -> list[BlockDevice]:
        """Every device whose time contributes to elapsed time."""
        ...

    def free_bytes(self) -> int:
        """Allocatable bytes right now (cheap; no per-object work)."""
        ...

    def store_stats(self) -> StoreStats: ...


class MeasurementWindows:
    """Open one named window per device and aggregate them on close.

    When the store runs an overlap scheduler (a ``scheduler``
    attribute, see :mod:`repro.disk.schedule`), a scheduler window is
    opened alongside and the combined window's ``wall_time_s`` carries
    the phase's overlapped wall time (device makespan plus serial host
    CPU); without one, ``wall_time_s`` stays ``None`` and wall time
    equals the summed total.

    :attr:`tagged` is the one seam a tenant op is timed through:
    ``with windows.tagged(tenant): store.get(key)``.  On an event
    store it *is* :meth:`EventScheduler.tagged` — per-request sojourns,
    deferred completions included, land in the scheduler window's
    histograms.  On any other store there is no queueing model, so the
    block's summed device-clock delta is recorded as one sample.
    :meth:`close` summarises both the same way.

    Usage::

        win = MeasurementWindows(store, "bulk-load")
        ... workload ...
        stats = win.close()       # combined WindowStats
    """

    def __init__(self, store: ObjectStore, name: str) -> None:
        self.name = name
        self._pairs = [
            (dev, dev.stats.start_window(name)) for dev in store.devices()
        ]
        self._scheduler = getattr(store, "scheduler", None)
        self._sched_window = (
            self._scheduler.start_window(name)
            if self._scheduler is not None else None
        )
        if getattr(self._scheduler, "is_event", False):
            self.tagged = self._scheduler.tagged
            self._latency = self._sched_window.latency
            self._tenant_latency = self._sched_window.tenant_latency
        else:
            self.tagged = self._tagged_by_clock
            self._latency = LatencyHistogram()
            self._tenant_latency = defaultdict(LatencyHistogram)

    @contextmanager
    def _tagged_by_clock(self, tag: str) -> Iterator[None]:
        devices = [dev for dev, _ in self._pairs]
        t0 = summed_clock_s(devices)
        yield
        delta_s = summed_clock_s(devices) - t0
        self._latency.record(delta_s)
        self._tenant_latency[tag].record(delta_s)

    def close(self) -> WindowStats:
        combined = WindowStats(name=self.name)
        for dev, win in self._pairs:
            dev.stats.end_window(win)
            combined.read_bytes += win.read_bytes
            combined.write_bytes += win.write_bytes
            combined.read_time_s += win.read_time_s
            combined.write_time_s += win.write_time_s
            combined.cpu_time_s += win.cpu_time_s
            combined.seeks += win.seeks
            combined.requests += win.requests
        if self._sched_window is not None:
            # An event scheduler drains here, so the histograms below
            # include requests still in flight at close.
            self._scheduler.end_window(self._sched_window)
            # Device lanes overlap; host CPU time stays serial.
            combined.wall_time_s = (self._sched_window.wall_time_s
                                    + combined.cpu_time_s)
        combined.latency = (self._latency.summary()
                            if self._latency.count else {})
        if self._tenant_latency:
            combined.tenant_lat = {
                tag: hist.summary()
                for tag, hist in sorted(self._tenant_latency.items())
            }
        return combined
