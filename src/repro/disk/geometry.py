"""Disk geometry: capacity, zones, and mechanical timing parameters.

Modern drives use zoned bit recording (ZBR): outer cylinders hold more
sectors per track and therefore transfer faster.  The paper's Section 3.4
notes NTFS's banded allocation is designed around this.  A
:class:`DiskGeometry` carries a list of :class:`Zone` bands mapping byte
offsets to media transfer rates, plus seek and rotation characteristics.

:data:`PAPER_DISK` approximates the Seagate ST3400832AS (Barracuda 7200.8,
400 GB) from Table 1: 7200 rpm, ~8.5 ms average seek, media rate falling
from roughly 65 MB/s on the outer band to about half that on the inner
band — the era's published figures.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.units import GB, MB


@dataclass(frozen=True, slots=True)
class Zone:
    """A contiguous band of the volume with a single media transfer rate.

    ``start``/``end`` are byte offsets (end exclusive); ``rate`` is the
    sustained media rate in bytes/second within the band.
    """

    start: int
    end: int
    rate: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ConfigError(f"bad zone bounds [{self.start}, {self.end})")
        if self.rate <= 0:
            raise ConfigError("zone rate must be positive")


@dataclass(frozen=True, slots=True)
class DiskGeometry:
    """Capacity plus mechanical parameters of a simulated drive.

    Parameters
    ----------
    capacity:
        Usable bytes on the volume.
    zones:
        ZBR bands covering ``[0, capacity)`` exactly, outermost first
        (offset 0 is the outer edge, as drives are addressed).
    avg_seek_s:
        Average seek time in seconds (random request, third-stroke).
    full_seek_s:
        Full-stroke seek time; distance-dependent seeks interpolate
        between a fixed settle time and this.
    settle_s:
        Head settle / track-to-track time, the floor for any seek.
    rpm:
        Spindle speed; average rotational latency is half a revolution.
    per_request_overhead_s:
        Fixed controller/command overhead charged once per request.
    """

    capacity: int
    zones: tuple[Zone, ...]
    avg_seek_s: float = 0.0085
    full_seek_s: float = 0.017
    settle_s: float = 0.0008
    rpm: float = 7200.0
    per_request_overhead_s: float = 0.0002

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigError("capacity must be positive")
        if not self.zones:
            raise ConfigError("at least one zone is required")
        expected = 0
        for zone in self.zones:
            if zone.start != expected:
                raise ConfigError(
                    f"zones must tile the volume; gap/overlap at {expected}"
                )
            expected = zone.end
        if expected != self.capacity:
            raise ConfigError(
                f"zones cover {expected} bytes but capacity is {self.capacity}"
            )
        if self.settle_s <= 0 or self.avg_seek_s <= 0 or self.full_seek_s <= 0:
            raise ConfigError("seek times must be positive")
        if self.full_seek_s < self.avg_seek_s:
            raise ConfigError("full-stroke seek cannot be below average seek")

    @property
    def rotation_s(self) -> float:
        """Time for one full revolution."""
        return 60.0 / self.rpm

    @property
    def avg_rotational_latency_s(self) -> float:
        """Expected rotational delay for a random request (half a turn)."""
        return self.rotation_s / 2.0

    def zone_at(self, offset: int) -> Zone:
        """Return the zone containing byte ``offset`` (binary search)."""
        if offset < 0 or offset >= self.capacity:
            raise ConfigError(
                f"offset {offset} outside volume of {self.capacity} bytes"
            )
        return self.zones[bisect_right(cost_tables(self)[0], offset)]

    def transfer_time(self, offset: int, length: int) -> float:
        """Media time to transfer ``length`` bytes starting at ``offset``.

        Integrates across zone boundaries so large sequential transfers
        spanning bands are charged each band's rate.
        """
        if length < 0:
            raise ConfigError("negative transfer length")
        remaining = length
        position = offset
        total = 0.0
        while remaining > 0:
            zone = self.zone_at(position)
            chunk = min(remaining, zone.end - position)
            total += chunk / zone.rate
            position += chunk
            remaining -= chunk
        return total


#: ``(zone ends, zone rates, settle_s, full_seek_s - settle_s, average
#: rotational latency)`` — what one device request needs of a geometry.
CostTables = tuple[list[int], list[float], float, float, float]

#: ``id(geometry) -> (geometry, tables)``.  Kept outside the instances:
#: geometries are pickled into checkpoints whose byte count is charged
#: to the modelled clock, so a cached field would move modelled results.
#: The entry holds its geometry, so the id cannot be recycled while the
#: entry exists; an unpickled geometry simply builds a fresh entry.
_COST_TABLES: dict[int, tuple[DiskGeometry, CostTables]] = {}


def cost_tables(geometry: DiskGeometry) -> CostTables:
    """The zone lookup table and seek constants derived from ``geometry``.

    Zone ``i`` is the one with ``bisect_right(ends, offset) == i``.
    """
    entry = _COST_TABLES.get(id(geometry))
    if entry is None or entry[0] is not geometry:
        zones = geometry.zones
        entry = _COST_TABLES[id(geometry)] = (geometry, (
            [zone.end for zone in zones], [zone.rate for zone in zones],
            geometry.settle_s, geometry.full_seek_s - geometry.settle_s,
            geometry.avg_rotational_latency_s))
    return entry[1]


def _standard_zones(capacity: int, outer_rate: float, inner_rate: float,
                    nzones: int = 8) -> tuple[Zone, ...]:
    """Build ``nzones`` equal-size bands linearly interpolating the rate."""
    if nzones < 1:
        raise ConfigError("need at least one zone")
    zones: list[Zone] = []
    start = 0
    for i in range(nzones):
        end = capacity if i == nzones - 1 else capacity * (i + 1) // nzones
        if nzones == 1:
            rate = (outer_rate + inner_rate) / 2.0
        else:
            rate = outer_rate + (inner_rate - outer_rate) * i / (nzones - 1)
        zones.append(Zone(start, end, rate))
        start = end
    return tuple(zones)


def make_disk(capacity: int, *, outer_rate: float = 65.0 * MB,
              inner_rate: float = 33.0 * MB, nzones: int = 8,
              avg_seek_s: float = 0.0085, rpm: float = 7200.0) -> DiskGeometry:
    """Convenience constructor with ST3400832AS-like defaults."""
    return DiskGeometry(
        capacity=capacity,
        zones=_standard_zones(capacity, outer_rate, inner_rate, nzones),
        avg_seek_s=avg_seek_s,
        rpm=rpm,
    )


#: The Table 1 drive: 400 GB, 7200 rpm SATA.
PAPER_DISK: DiskGeometry = make_disk(400 * GB)


def scaled_disk(capacity: int) -> DiskGeometry:
    """A geometry with paper-like mechanics at an arbitrary capacity.

    Benches default to scaled volumes (docs/benchmarks.md, "Contract,
    scaling and calibration"): the free pool ratio and request-size
    ratios that govern fragmentation are preserved, only wall-clock
    experiment time shrinks.
    """
    return make_disk(capacity)
