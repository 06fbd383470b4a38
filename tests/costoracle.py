"""Reference model for the device's costing kernel (test-side only).

``BlockDevice._cost_of`` is one flat routine: validation, seek,
rotation, transfer and the byte count in a single pass over a zone
table.  :func:`cost_of` here is the version it replaced — composed from
the public ``DiskGeometry.seek_time`` / ``transfer_time`` — and
:class:`OracleDevice` is that version's ``submit`` accounting, so
``test_disk_device.py`` can drive both with the same requests and hold
the kernel to the composed model float for float.
"""

from __future__ import annotations

from repro.disk.device import IoRequest
from repro.disk.geometry import DiskGeometry


def cost_of(geometry: DiskGeometry, window: int, extents, head: int,
            slow_factor: float = 1.0) -> tuple[int, float, int]:
    """(seeks, service seconds, final head) for one request."""
    transfer_time = geometry.transfer_time
    seek_time = geometry.seek_time
    rotational_s = geometry.avg_rotational_latency_s
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

    def submit(self, order: list[IoRequest]) -> None:
        """Account one batch, given in *service* order (the elevator is
        not part of the kernel; the test asks the real device for it)."""
        if not order:
            return
        head = self.head
        seeks = 0
        read_bytes = write_bytes = 0
        read_s = write_s = 0.0
        for req in order:
            req_seeks, service, head = cost_of(
                self.geometry, self.window, req.extents, head,
                self.slow_factor)
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
        self.head = head
        self.requests += 1
        self.seeks += seeks
        self.read_bytes += read_bytes
        self.write_bytes += write_bytes
        self.read_time_s += read_s
        self.write_time_s += write_s
        self.clock_s += read_s + write_s

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
