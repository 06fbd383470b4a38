"""The get/put object store interface both systems implement.

The paper's applications "make use of simple get/put storage
primitives" (Section 4): allocate an object, read it, atomically replace
it (safe write), delete it.  :class:`ObjectStore` is that contract; the
experiment driver and all analysis tools are written against it, so a
new backend only has to implement these methods to join every bench.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.disk.device import BlockDevice
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

