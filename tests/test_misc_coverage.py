"""Edge-case coverage: windows misuse, single-zone disks, misc paths."""

import pytest

from repro.analysis.compare import check_levels_off
from repro.backends.base import MeasurementWindows
from repro.backends.registry import build_store
from repro.backends.spec import StoreSpec
from repro.disk.device import BlockDevice
from repro.disk.geometry import make_disk
from repro.disk.iostats import IoStats
from repro.errors import ConfigError
from repro.units import KB, MB


class TestIoStatsEdges:
    def test_end_unknown_window_raises(self):
        stats = IoStats()
        win = stats.start_window("w")
        stats.end_window(win)
        with pytest.raises(ValueError):
            stats.end_window(win)

    def test_closing_outer_window_closes_inner(self):
        stats = IoStats()
        outer = stats.start_window("outer")
        stats.start_window("inner")
        stats.end_window(outer)
        stats.record_cpu(1.0)
        assert outer.cpu_time_s == 0.0  # nothing open any more

    def test_snapshot_matches_totals(self):
        stats = IoStats()
        stats.record(is_write=True, nbytes=100, service_s=0.5, seeks=2)
        stats.record_cpu(0.25)
        snap = stats.snapshot()
        assert snap.write_bytes == 100
        assert snap.seeks == 2
        assert snap.total_time_s == pytest.approx(0.75)

    def test_zero_time_throughputs(self):
        snap = IoStats().snapshot()
        assert snap.read_throughput() == 0.0
        assert snap.write_throughput() == 0.0
        assert snap.throughput() == 0.0


class TestSingleZoneDisk:
    def test_nzones_one_uses_mean_rate(self):
        disk = make_disk(8 * MB, nzones=1, outer_rate=60 * MB,
                         inner_rate=30 * MB)
        assert disk.zones[0].rate == pytest.approx(45 * MB)

    def test_nzones_zero_rejected(self):
        with pytest.raises(ConfigError):
            make_disk(8 * MB, nzones=0)


class TestMeasurementWindows:
    def test_aggregates_across_devices(self, file_store):
        windows = MeasurementWindows(file_store, "w")
        file_store.put("a", size=256 * KB)
        combined = windows.close()
        # Object-device writes plus metadata-db writes both counted.
        assert combined.write_bytes >= 256 * KB
        assert combined.total_time_s > 0
        assert combined.name == "w"

    def test_tagged_records_the_summed_device_clock_delta(self, file_store):
        def clock():
            return sum(dev.clock_s for dev in file_store.devices())

        windows = MeasurementWindows(file_store, "w")
        deltas = {}
        for tenant, size in (("a", 256 * KB), ("b", 1 * MB)):
            t0 = clock()
            with windows.tagged(tenant):
                # Object device and metadata devices both advance.
                file_store.put(tenant, size=size)
            deltas[tenant] = clock() - t0
        file_store.get("a")     # outside any block: not a sample
        combined = windows.close()
        assert combined.latency["count"] == 2
        assert combined.latency["max_s"] == max(deltas.values())
        # One sample per block, so each tenant's summary is exact.
        assert {t: s["count"] for t, s in combined.tenant_lat.items()} \
            == {"a": 1, "b": 1}
        for tenant, delta in deltas.items():
            assert combined.tenant_lat[tenant]["max_s"] == delta
            assert combined.tenant_lat[tenant]["p50_s"] == delta

    def test_untagged_window_reports_no_latency(self, file_store):
        windows = MeasurementWindows(file_store, "w")
        file_store.put("a", size=256 * KB)
        combined = windows.close()
        assert combined.latency == {}
        assert combined.tenant_lat is None

    def test_event_store_tagged_is_the_schedulers_own(self):
        store = build_store(StoreSpec.parse(
            "lfs:shards=2,overlap=true,queue=event,volume=32M"))
        windows = MeasurementWindows(store, "w")
        assert windows.tagged == store.scheduler.tagged
        with windows.tagged("a"):
            store.put("k", size=256 * KB)
        combined = windows.close()
        # Sojourns come from the scheduler window, summarised the same
        # way as the device-clock samples above.
        assert combined.latency["count"] \
            == combined.tenant_lat["a"]["count"] > 0


class TestShapeCheckEdges:
    def test_flat_series_levels_off_trivially(self):
        series = [(float(x), 2.0) for x in range(5)]
        assert check_levels_off("flat", series).passed


class TestDeviceSequentialWindowConfig:
    def test_custom_window(self):
        from repro.disk.geometry import scaled_disk

        dev = BlockDevice(scaled_disk(8 * MB), sequential_window=0)
        dev.read(1 * MB, 4 * KB)
        dev.read(1 * MB + 8 * KB, 4 * KB)  # 4 KB gap now counts as seek
        assert dev.stats.seeks == 2


class TestRepositoryAcrossBackends:
    @pytest.mark.parametrize("fixture_name", [
        "file_store", "blob_store",
    ])
    def test_repository_wraps_any_backend(self, request, fixture_name):
        from repro.core.repository import LargeObjectRepository

        store = request.getfixturevalue(fixture_name)
        repo = LargeObjectRepository(store)
        repo.put("x", size=128 * KB)
        repo.replace("x", size=128 * KB)
        assert repo.storage_age == pytest.approx(1.0)
        repo.delete("x")
        # An empty volume has no live bytes, so age reads as zero.
        assert repo.storage_age == 0.0
        assert repo.keys() == []


class TestPageTypeEnum:
    def test_distinct_values(self):
        from repro.db.page import PageType

        values = {member.value for member in PageType}
        assert len(values) == len(PageType)
        assert PageType.LOB_DATA in PageType
