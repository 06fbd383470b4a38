"""Reference model for the device's costing kernel (test-side only).

``BlockDevice._cost_of`` is one flat routine: validation, seek,
rotation, transfer and the byte count in a single pass over a zone
table.  :func:`cost_of` here is the version it replaced — composed from
:func:`seek_time` (the seek model, kept here as its one reference) and
the public ``DiskGeometry.transfer_time`` — and
:class:`OracleDevice` is that version's ``submit`` accounting, so
``test_disk_device.py`` can drive both with the same requests and hold
the kernel to the composed model float for float.
"""

from __future__ import annotations

from repro.disk.geometry import DiskGeometry
from repro.units import Span


def seek_time(geometry: DiskGeometry, from_offset: int,
              to_offset: int) -> float:
    """Distance-dependent seek time between two byte offsets.

    A simple convex model: settle time plus a square-root law scaled
    so that a full-stroke seek costs ``full_seek_s`` and the mean over
    random pairs is close to ``avg_seek_s``.  The square-root law is
    the standard first-order fit for voice-coil actuators.
    """
    distance = abs(to_offset - from_offset)
    if distance == 0:
        return 0.0
    fraction = distance / geometry.capacity
    return geometry.settle_s + (geometry.full_seek_s
                                - geometry.settle_s) * (fraction**0.5)


def cost_of(geometry: DiskGeometry, window: int, spans, head: int,
            slow_factor: float = 1.0) -> tuple[int, float, int]:
    """(seeks, service seconds, final head) for one request."""
    transfer_time = geometry.transfer_time
    rotational_s = geometry.avg_rotational_latency_s
    seeks = 0
    total = geometry.per_request_overhead_s
    for start, length in spans:
        gap = start - head
        if 0 <= gap <= window:
            # Sequential continuation: pay only any skipped media time.
            if gap:
                total += transfer_time(head, gap)
        else:
            seeks += 1
            total += seek_time(geometry, head, start) + rotational_s
        total += transfer_time(start, length)
        head = start + length
    if slow_factor != 1.0:
        total *= slow_factor
    return seeks, total, head


class OracleDevice:
    """Head, clock and ``IoStats`` totals under the composed model."""

    def __init__(self, geometry: DiskGeometry, window: int,
                 slow_factor: float = 1.0) -> None:
        self.geometry = geometry
        self.window = window
        self.slow_factor = slow_factor
        self.head = 0
        self.clock_s = 0.0
        self.read_bytes = self.write_bytes = 0
        self.read_time_s = self.write_time_s = 0.0
        self.seeks = self.requests = 0

    def submit(self, order: list[list[Span]], is_write: bool) -> None:
        """Account one batch, given in *service* order (the elevator is
        not part of the kernel; the test asks the real device for it)."""
        if not order:
            return
        head = self.head
        seeks = nbytes = 0
        service_s = 0.0
        for spans in order:
            req_seeks, service, head = cost_of(
                self.geometry, self.window, spans, head, self.slow_factor)
            seeks += req_seeks
            service_s += service
            for _, length in spans:
                nbytes += length
        self.head = head
        self.requests += 1
        self.seeks += seeks
        if is_write:
            self.write_bytes += nbytes
            self.write_time_s += service_s
        else:
            self.read_bytes += nbytes
            self.read_time_s += service_s
        self.clock_s += service_s

    def totals(self) -> tuple:
        """Comparable with :func:`device_totals` of the real device."""
        return (self.head, self.clock_s, self.read_bytes, self.write_bytes,
                self.read_time_s, self.write_time_s, self.seeks,
                self.requests)


def device_totals(dev) -> tuple:
    stats = dev.stats
    return (dev.head_position, dev.clock_s, stats.read_bytes,
            stats.write_bytes, stats.read_time_s, stats.write_time_s,
            stats.seeks, stats.requests)
