"""Tests for fragmentation reports and the marker-based analyzer."""

import pytest

from repro.core.fragmentation import (
    DEFAULT_MARKER_INTERVAL,
    FragmentReport,
    MARKER_BYTES,
    MarkerScanner,
    fragment_counts,
    fragment_report,
    make_marker_content,
)
from repro.core.workload import (
    ConstantSize,
    UniformSize,
    WorkloadSpec,
    bulk_load,
    churn_step,
)
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.errors import ConfigError
from repro.rng import substream
from repro.units import KB, MB


class TestFragmentReport:
    def test_empty(self):
        report = FragmentReport()
        assert report.mean == 0.0
        assert report.median == 0.0
        assert report.max == 0
        assert report.contiguous_fraction == 0.0

    def test_statistics(self):
        report = FragmentReport(counts={"a": 1, "b": 3, "c": 8})
        assert report.mean == pytest.approx(4.0)
        assert report.median == 3.0
        assert report.max == 8
        assert report.objects == 3
        assert report.total_fragments == 12
        assert report.contiguous_fraction == pytest.approx(1 / 3)

    def test_histogram(self):
        report = FragmentReport(
            counts={"a": 1, "b": 2, "c": 5, "d": 100}
        )
        hist = report.histogram(bins=[1, 4, 16])
        assert hist == {"<=1": 1, "<=4": 1, "<=16": 1, ">16": 1}


class TestExtentMapAnalysis:
    def test_counts_against_store(self, content_file_store):
        content_file_store.put("a", size=256 * KB)
        counts = fragment_counts(content_file_store)
        assert counts == {"a": 1}

    def test_report_wraps_counts(self, file_store):
        for i in range(4):
            file_store.put(f"k{i}", size=128 * KB)
        report = fragment_report(file_store)
        assert report.objects == 4
        assert report.mean == 1.0  # clean bulk load is contiguous


class TestMarkerContent:
    def test_layout(self):
        content = make_marker_content(7, 4 * KB, version=3, interval=1 * KB)
        assert len(content) == 4 * KB
        # Markers at 0K, 1K, 2K, 3K.
        for seq in range(4):
            tag = content[seq * KB: seq * KB + MARKER_BYTES]
            assert tag.startswith(b"FRAG")

    def test_size_not_multiple_of_interval(self):
        content = make_marker_content(1, 2500)
        assert len(content) == 2500

    def test_tiny_object_still_tagged(self):
        content = make_marker_content(1, MARKER_BYTES)
        assert content.startswith(b"FRAG")

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_marker_content(1, 0)
        with pytest.raises(ConfigError):
            make_marker_content(1, 1024, interval=4)


class TestMarkerScanner:
    def make_device(self):
        return BlockDevice(scaled_disk(8 * MB), store_data=True)

    def test_requires_content_device(self):
        device = BlockDevice(scaled_disk(8 * MB))
        with pytest.raises(ConfigError):
            MarkerScanner(device)

    def test_contiguous_object_one_fragment(self):
        device = self.make_device()
        device.poke(64 * KB, make_marker_content(1, 128 * KB))
        scanner = MarkerScanner(device)
        assert scanner.fragment_counts() == {1: 1}

    def test_split_object_counted(self):
        device = self.make_device()
        content = make_marker_content(1, 128 * KB)
        device.poke(0, content[: 64 * KB])
        device.poke(1 * MB, content[64 * KB:])
        scanner = MarkerScanner(device)
        assert scanner.fragment_counts() == {1: 2}

    def test_out_of_order_placement_counts_boundaries(self):
        device = self.make_device()
        content = make_marker_content(1, 128 * KB)
        device.poke(1 * MB, content[: 64 * KB])
        device.poke(0, content[64 * KB:])  # second half *before* first
        scanner = MarkerScanner(device)
        assert scanner.fragment_counts() == {1: 2}

    def test_multiple_objects(self):
        device = self.make_device()
        device.poke(0, make_marker_content(1, 64 * KB))
        device.poke(1 * MB, make_marker_content(2, 64 * KB))
        counts = MarkerScanner(device).fragment_counts()
        assert counts == {1: 1, 2: 1}

    def test_stale_versions_ignored(self):
        device = self.make_device()
        # Old (fragmented) copy of version 1 lingers in free space.
        old = make_marker_content(1, 128 * KB, version=1)
        device.poke(0, old[: 64 * KB])
        device.poke(2 * MB, old[64 * KB:])
        # Live version 2 is contiguous elsewhere.
        device.poke(4 * MB, make_marker_content(1, 128 * KB, version=2))
        scanner = MarkerScanner(device)
        assert scanner.fragment_counts() == {1: 1}

    def test_live_ids_filter(self):
        device = self.make_device()
        device.poke(0, make_marker_content(1, 64 * KB))
        device.poke(1 * MB, make_marker_content(2, 64 * KB))
        scanner = MarkerScanner(device)
        assert scanner.fragment_counts(live_ids={2}) == {2: 1}

    def test_report_form(self):
        device = self.make_device()
        device.poke(0, make_marker_content(9, 64 * KB))
        report = MarkerScanner(device).report()
        assert report.counts == {"9": 1}


class TestCrossValidation:
    """The paper validated its marker tool against the NTFS
    defragmentation utility; we validate ours against the extent maps,
    on a volume the workload books loaded and aged with safe writes."""

    @staticmethod
    def assert_marker_and_extent_analysis_agree(store, sizes):
        spec = WorkloadSpec(sizes=sizes, target_occupancy=0.6,
                            with_content=True)
        state = bulk_load(store, spec, substream(11, "w"))
        for _ in range(2 * len(state.keys)):
            churn_step(store, state)
        extent_counts = fragment_counts(store)
        assert max(extent_counts.values()) > 1
        scanner = MarkerScanner(store.device)
        live = {state.object_id_of(k) for k in state.keys}
        marker_counts = scanner.fragment_counts(live_ids=live)
        translated = {
            state.object_id_of(key): count
            for key, count in extent_counts.items()
        }
        assert marker_counts == translated

    def test_marker_and_extent_analysis_agree_filesystem(
            self, content_file_store):
        self.assert_marker_and_extent_analysis_agree(
            content_file_store, UniformSize.around_mean(192 * KB))

    def test_marker_and_extent_analysis_agree_database(
            self, content_blob_store):
        self.assert_marker_and_extent_analysis_agree(
            content_blob_store, ConstantSize(192 * KB))

    @pytest.mark.xfail(strict=True, reason=(
        "coalesce() sorts an object's extents by physical start, so a "
        "BLOB whose last pages land just before its first ones counts "
        "as one fragment; the marker scan, in logical order, counts two"))
    def test_logically_wrapped_blob_counts_alike(self, content_blob_store):
        self.assert_marker_and_extent_analysis_agree(
            content_blob_store, UniformSize.around_mean(192 * KB))
