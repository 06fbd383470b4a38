"""Fragmentation measurement: extent maps and on-disk markers.

The paper's metric is **fragments per object**: the number of maximal
physically contiguous runs holding an object's bytes (a contiguous
object has 1 fragment — Figure 2's caption).

Two analyzers are provided:

* **Extent-map analysis** (:func:`fragment_counts`,
  :func:`fragment_report`) asks the backend for each object's device
  spans, in one pass over its metadata, and counts their maximal runs.
  Exact and fast; works for every backend in this library.
* **Marker scanning** (:func:`make_marker_content`,
  :class:`MarkerScanner`) reimplements the paper's tool (Section 5.3):
  objects are tagged "with a unique identifier and a sequence number at
  1KB intervals", the volume image is scanned for the markers, and
  fragment counts are reconstructed from where consecutive sequence
  numbers land physically.  It needs no cooperation from the storage
  system — the paper used it because SQL Server's defragmentation
  reports ignore BLOB data — and the test suite validates it against
  the extent-map analyzer the way the paper validated against the NTFS
  defragmentation utility.
"""

from __future__ import annotations

import statistics
import struct
from dataclasses import dataclass, field

from repro.alloc.extent import fragment_count
from repro.backends.base import ObjectStore
from repro.disk.device import BlockDevice
from repro.errors import ConfigError
from repro.units import KB

#: Marker wire format: magic, object id, version, sequence number.  The
#: version distinguishes the live copy from stale copies of the same
#: object lingering in deallocated space after safe writes.
_MARKER_MAGIC = b"FRAG"
_MARKER_STRUCT = struct.Struct(">4sQIQ")
MARKER_BYTES = _MARKER_STRUCT.size
DEFAULT_MARKER_INTERVAL = 1 * KB


# ----------------------------------------------------------------------
# Extent-map analysis
# ----------------------------------------------------------------------
def fragment_counts(store: ObjectStore) -> dict[str, int]:
    """Fragments per object for every object in the store, read in one
    pass over its metadata (:meth:`ObjectStore.layouts`)."""
    keys = store.keys()
    return {key: fragment_count(spans)
            for key, spans in zip(keys, store.layouts(keys))}


@dataclass
class FragmentReport:
    """Distribution summary of fragments/object across a store."""

    counts: dict[str, int] = field(default_factory=dict)

    @property
    def objects(self) -> int:
        return len(self.counts)

    @property
    def total_fragments(self) -> int:
        return sum(self.counts.values())

    @property
    def mean(self) -> float:
        """Fragments per object — the paper's y-axis."""
        if not self.counts:
            return 0.0
        return self.total_fragments / len(self.counts)

    @property
    def median(self) -> float:
        if not self.counts:
            return 0.0
        return float(statistics.median(self.counts.values()))

    @property
    def max(self) -> int:
        return max(self.counts.values(), default=0)

    def histogram(self, bins: list[int] | None = None) -> dict[str, int]:
        """Counts of objects by fragment-count bucket."""
        if bins is None:
            bins = [1, 2, 4, 8, 16, 32, 64]
        labels = {}
        values = sorted(self.counts.values())
        previous = 0
        for edge in bins:
            labels[f"<={edge}"] = sum(
                1 for v in values if previous < v <= edge
            )
            previous = edge
        labels[f">{bins[-1]}"] = sum(1 for v in values if v > bins[-1])
        return labels


def fragment_report(store: ObjectStore) -> FragmentReport:
    """Full distribution report from the store's extent maps."""
    return FragmentReport(counts=fragment_counts(store))


# ----------------------------------------------------------------------
# Marker-based analysis (the paper's tool)
# ----------------------------------------------------------------------
def make_marker_content(object_id: int, size: int, *, version: int = 1,
                        interval: int = DEFAULT_MARKER_INTERVAL) -> bytes:
    """Build object content tagged at every ``interval`` bytes.

    Each tag carries the object id, a version, and a running sequence
    number; the space between tags is filler.  ``size`` need not be a
    multiple of the interval — the tail simply carries no final marker.
    """
    if size <= 0:
        raise ConfigError("size must be positive")
    if interval < MARKER_BYTES:
        raise ConfigError(f"interval must be >= {MARKER_BYTES}")
    out = bytearray(size)
    seq = 0
    for pos in range(0, size - MARKER_BYTES + 1, interval):
        out[pos: pos + MARKER_BYTES] = _MARKER_STRUCT.pack(
            _MARKER_MAGIC, object_id, version, seq
        )
        seq += 1
    return bytes(out)


@dataclass
class MarkerHit:
    object_id: int
    version: int
    seq: int
    device_offset: int


class MarkerScanner:
    """Scan a device image for markers and reconstruct fragmentation.

    The scan probes every ``interval``-aligned offset, which is correct
    for all backends here: clusters (4 KB), pages (8 KB), and write
    requests (64 KB) are all multiples of the 1 KB marker interval, so
    markers written at interval-aligned logical offsets stay aligned on
    disk.
    """

    def __init__(self, device: BlockDevice, *,
                 interval: int = DEFAULT_MARKER_INTERVAL) -> None:
        if not device.stores_data:
            raise ConfigError(
                "marker scanning requires a device with store_data=True"
            )
        self.device = device
        self.interval = interval

    def scan(self) -> list[MarkerHit]:
        """All marker hits on the volume, by device offset."""
        hits: list[MarkerHit] = []
        capacity = self.device.geometry.capacity
        chunk = 4 * 1024 * 1024
        for base in range(0, capacity, chunk):
            length = min(chunk, capacity - base)
            raw = self.device.peek(base, length)
            for pos in range(0, length - MARKER_BYTES + 1, self.interval):
                if raw[pos: pos + 4] != _MARKER_MAGIC:
                    continue
                magic, object_id, version, seq = _MARKER_STRUCT.unpack(
                    raw[pos: pos + MARKER_BYTES]
                )
                hits.append(MarkerHit(object_id, version, seq, base + pos))
        return hits

    def fragment_counts(self, *, live_ids: set[int] | None = None
                        ) -> dict[int, int]:
        """Fragments per object id, from marker adjacency.

        Consecutive sequence numbers whose physical distance equals the
        marker interval are in the same fragment; any other distance is
        a fragment boundary.  ``live_ids`` filters out markers left in
        deallocated space by *deleted* objects; stale copies of live
        objects (freed by safe writes but not yet overwritten) are
        filtered by version — only each object's newest version counts.
        """
        by_object: dict[int, list[MarkerHit]] = {}
        for hit in self.scan():
            if live_ids is not None and hit.object_id not in live_ids:
                continue
            by_object.setdefault(hit.object_id, []).append(hit)
        counts: dict[int, int] = {}
        for object_id, object_hits in by_object.items():
            newest = max(hit.version for hit in object_hits)
            per_seq: dict[int, int] = {}
            for hit in object_hits:
                if hit.version == newest:
                    per_seq[hit.seq] = hit.device_offset
            seqs = sorted(per_seq)
            fragments = 1
            for prev, cur in zip(seqs, seqs[1:]):
                gap_seq = cur - prev
                gap_bytes = per_seq[cur] - per_seq[prev]
                if gap_bytes != gap_seq * self.interval:
                    fragments += 1
            counts[object_id] = fragments
        return counts

    def report(self, *, live_ids: set[int] | None = None) -> FragmentReport:
        counts = self.fragment_counts(live_ids=live_ids)
        return FragmentReport(
            counts={str(object_id): c for object_id, c in counts.items()}
        )
