"""Tests for the zoned disk geometry and seek/transfer model."""

import pytest

from repro.disk.geometry import (
    DiskGeometry,
    PAPER_DISK,
    Zone,
    make_disk,
    scaled_disk,
)
from repro.errors import ConfigError
from repro.units import GB, MB


class TestZone:
    def test_size(self):
        assert Zone(0, 100, 1.0).size == 100

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            Zone(100, 100, 1.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigError):
            Zone(0, 100, 0.0)


class TestGeometryValidation:
    def test_zones_must_tile(self):
        with pytest.raises(ConfigError):
            DiskGeometry(capacity=200,
                         zones=(Zone(0, 100, 1.0), Zone(150, 200, 1.0)))

    def test_zones_must_cover_capacity(self):
        with pytest.raises(ConfigError):
            DiskGeometry(capacity=300,
                         zones=(Zone(0, 100, 1.0), Zone(100, 200, 1.0)))

    def test_full_seek_at_least_avg(self):
        with pytest.raises(ConfigError):
            make_disk(1 * GB, avg_seek_s=0.02)


class TestPaperDisk:
    def test_capacity_matches_table1(self):
        assert PAPER_DISK.capacity == 400 * GB

    def test_is_7200_rpm(self):
        assert PAPER_DISK.rpm == 7200.0
        # Half a revolution at 7200 rpm is ~4.17 ms.
        assert PAPER_DISK.avg_rotational_latency_s == pytest.approx(
            60.0 / 7200.0 / 2.0
        )

    def test_outer_band_faster_than_inner(self):
        outer = PAPER_DISK.zone_at(0).rate
        inner = PAPER_DISK.zone_at(PAPER_DISK.capacity - 1).rate
        assert outer > inner
        assert outer / inner == pytest.approx(65 / 33, rel=0.01)


class TestZoneLookup:
    def test_zone_at_boundaries(self):
        disk = make_disk(8 * MB, nzones=4)
        assert disk.zone_at(0).start == 0
        assert disk.zone_at(2 * MB).start == 2 * MB
        assert disk.zone_at(8 * MB - 1).end == 8 * MB

    def test_zone_at_out_of_range(self):
        disk = make_disk(8 * MB)
        with pytest.raises(ConfigError):
            disk.zone_at(8 * MB)
        with pytest.raises(ConfigError):
            disk.zone_at(-1)

    def test_zone_at_agrees_with_a_linear_scan_of_unequal_zones(self):
        # The composed cost model in costoracle.py integrates through
        # zone_at, so the table lookup needs a check that does not.
        sizes = [1, 7, 4096, 2, 300, 1, 65, 9]
        zones, start = [], 0
        for i, size in enumerate(sizes):
            zones.append(Zone(start, start + size, 1e6 / (i + 1)))
            start += size
        disk = DiskGeometry(capacity=start, zones=tuple(zones))
        for offset in range(start):
            assert disk.zone_at(offset) is next(
                z for z in zones if z.start <= offset < z.end)

    def test_rates_monotonically_nonincreasing(self):
        disk = make_disk(64 * MB, nzones=8)
        rates = [z.rate for z in disk.zones]
        assert rates == sorted(rates, reverse=True)


class TestSeekModel:
    def test_zero_distance_is_free(self):
        assert PAPER_DISK.seek_time(100, 100) == 0.0

    def test_symmetry(self):
        assert PAPER_DISK.seek_time(0, 10 * GB) == \
            PAPER_DISK.seek_time(10 * GB, 0)

    def test_full_stroke_cost(self):
        full = PAPER_DISK.seek_time(0, PAPER_DISK.capacity)
        assert full == pytest.approx(PAPER_DISK.full_seek_s)

    def test_short_seek_near_settle(self):
        short = PAPER_DISK.seek_time(0, 4096)
        assert PAPER_DISK.settle_s <= short < PAPER_DISK.settle_s * 2

    def test_monotone_in_distance(self):
        d1 = PAPER_DISK.seek_time(0, 1 * GB)
        d2 = PAPER_DISK.seek_time(0, 100 * GB)
        d3 = PAPER_DISK.seek_time(0, 399 * GB)
        assert d1 < d2 < d3


class TestTransferModel:
    def test_transfer_time_scales_with_length(self):
        t1 = PAPER_DISK.transfer_time(0, 1 * MB)
        t2 = PAPER_DISK.transfer_time(0, 2 * MB)
        assert t2 == pytest.approx(2 * t1)

    def test_outer_faster_than_inner(self):
        outer = PAPER_DISK.transfer_time(0, 10 * MB)
        inner = PAPER_DISK.transfer_time(PAPER_DISK.capacity - 10 * MB,
                                         10 * MB)
        assert outer < inner

    def test_transfer_spanning_zones(self):
        disk = make_disk(8 * MB, nzones=2, outer_rate=2 * MB,
                         inner_rate=1 * MB)
        # 2 MB straddling the boundary: 1 MB at 2 MB/s + 1 MB at 1 MB/s.
        t = disk.transfer_time(3 * MB, 2 * MB)
        assert t == pytest.approx(0.5 + 1.0)

    def test_zero_length(self):
        assert PAPER_DISK.transfer_time(0, 0) == 0.0

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigError):
            PAPER_DISK.transfer_time(0, -1)


class TestScaledDisk:
    def test_preserves_mechanics(self):
        small = scaled_disk(1 * GB)
        assert small.rpm == PAPER_DISK.rpm
        assert small.avg_seek_s == PAPER_DISK.avg_seek_s
        assert small.capacity == 1 * GB

    def test_preserves_zone_rate_range(self):
        small = scaled_disk(1 * GB)
        assert small.zones[0].rate == pytest.approx(PAPER_DISK.zones[0].rate)
        assert small.zones[-1].rate == pytest.approx(
            PAPER_DISK.zones[-1].rate
        )
