"""Backend-specific behaviour: costs, layout guarantees, GC/cleaning."""

import pytest

from repro.alloc.extent import fragment_count
from repro.backends.blob_backend import BlobBackend
from repro.backends.costmodel import CostModel
from repro.backends.file_backend import FileBackend
from repro.backends.gfs_backend import GfsChunkBackend
from repro.backends.lfs_backend import LfsBackend
from repro.backends.registry import build_store
from repro.backends.spec import StoreSpec
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.errors import ConfigError
from repro.units import KB, MB, PAGE_SIZE


class TestCostModel:
    def test_db_stream_scales_with_bytes(self):
        cost = CostModel()
        from repro.disk.iostats import IoStats

        stats = IoStats()
        cost.charge_db_stream(stats, 1 * MB)
        one_mb = stats.cpu_time_s
        cost.charge_db_stream(stats, 9 * MB)
        assert stats.cpu_time_s == pytest.approx(one_mb * 10, rel=0.01)

    def test_file_open_dearer_than_db_query(self):
        cost = CostModel()
        assert cost.file_open_cpu_s > cost.db_query_cpu_s

    def test_db_per_byte_dearer_than_file(self):
        cost = CostModel()
        assert cost.db_per_byte_cpu_s > cost.file_per_byte_cpu_s

    def test_describe_mentions_every_knob(self):
        text = CostModel().describe()
        for word in ("db query", "file open", "db stream", "file stream"):
            assert word in text


class TestFileBackendSpecifics:
    def test_get_charges_mft_read_and_open_cpu(self):
        device = BlockDevice(scaled_disk(64 * MB))
        store = FileBackend(device)
        store.put("a", size=256 * KB)
        reads_before = device.stats.read_bytes
        cpu_before = device.stats.cpu_time_s
        store.get("a")
        assert device.stats.read_bytes - reads_before > 256 * KB
        assert device.stats.cpu_time_s > cpu_before

    def test_overwrite_is_safe_write(self):
        device = BlockDevice(scaled_disk(64 * MB))
        store = FileBackend(device)
        store.put("a", size=256 * KB)
        store.overwrite("a", size=256 * KB)
        # Exactly one file remains per object — no temp leftovers.
        assert [record.name for record in store.fs.table] == ["obj-a"]

    def test_size_hints_keep_objects_contiguous(self):
        device = BlockDevice(scaled_disk(64 * MB))
        store = FileBackend(device, size_hints=True)
        store.put("a", size=1 * MB)
        for _ in range(5):
            store.overwrite("a", size=1 * MB)
        assert fragment_count(store.object_extents("a")) == 1

    def test_metadata_lives_in_separate_db(self):
        device = BlockDevice(scaled_disk(64 * MB))
        store = FileBackend(device)
        store.put("a", size=64 * KB)
        assert store.meta_db.data_device is not device
        assert len(store.devices()) == 3

    @pytest.mark.parametrize("kwargs", [
        {},
        {"size": 0},
        {"size": 64 * KB, "data": b"x" * 100},
        {"data": b""},
    ])
    def test_put_refuses_bad_arguments_before_creating_a_file(self, kwargs):
        device = BlockDevice(scaled_disk(64 * MB))
        store = FileBackend(device)
        with pytest.raises(ConfigError):
            store.put("a", **kwargs)
        assert store.keys() == []
        assert [record.name for record in store.fs.table] == []
        assert device.clock_s == 0.0


class TestBlobBackendSpecifics:
    def test_single_data_and_log_device(self):
        device = BlockDevice(scaled_disk(64 * MB))
        store = BlobBackend(device)
        assert len(store.devices()) == 2

    def test_blob_pages_page_granular(self):
        device = BlockDevice(scaled_disk(64 * MB))
        store = BlobBackend(device)
        store.put("a", size=100 * KB)
        for start, length in store.object_extents("a"):
            assert start % PAGE_SIZE == 0
            assert length % PAGE_SIZE == 0


class TestGfsSpecifics:
    def make(self):
        device = BlockDevice(scaled_disk(64 * MB))
        return GfsChunkBackend(device, chunk_size=8 * MB)

    def test_objects_always_contiguous(self):
        store = self.make()
        for i in range(10):
            store.put(f"k{i}", size=1 * MB)
        for i in range(3):
            store.overwrite(f"k{i}", size=1 * MB)
        for i in range(10):
            assert len(store.object_extents(f"k{i}")) == 1

    def test_record_size_cap(self):
        store = self.make()
        with pytest.raises(ConfigError):
            store.put("big", size=3 * MB)  # > chunk/4

    def test_records_never_span_chunks(self):
        store = self.make()
        for i in range(12):  # forces chunk rollover with padding
            store.put(f"k{i}", size=1900 * KB)
        for i in range(12):
            [(start, length)] = store.object_extents(f"k{i}")
            chunk_of = lambda off: off // (8 * MB)
            assert chunk_of(start) == chunk_of(start + length - 1)

    def test_padding_accounted(self):
        store = self.make()
        for i in range(12):
            store.put(f"k{i}", size=1900 * KB)
        # 8 MB holds four 1900 KB records; the fifth rolls the chunk,
        # zero-padding the remainder.
        assert store.padding_bytes > 0

    def test_gc_reclaims_dead_chunks(self):
        store = self.make()
        for i in range(12):
            store.put(f"k{i}", size=1 * MB)
        for i in range(12):
            store.delete(f"k{i}")
        for i in range(40):
            store.put(f"n{i}", size=1 * MB)
        assert store.gc_runs > 0
        assert store.store_stats().live_bytes == 40 * MB

    def test_gc_frees_a_chunk_that_died_while_active_when_sealed(self):
        """A chunk whose records all die while it is the active chunk
        is collected when it is sealed, so the put that finds no other
        free chunk lands in its space."""
        store = GfsChunkBackend(BlockDevice(scaled_disk(2 * MB)),
                                chunk_size=1 * MB)
        for i in range(4):  # 4 x 250 KB fill chunk 0 ...
            store.put(f"k{i}", size=250 * KB)
        for i in range(4):  # ... and all die while it is active.
            store.delete(f"k{i}")
        assert store.gc_runs == 0
        store.put("n0", size=250 * KB)  # seals chunk 0: collected
        assert store.gc_runs == 1
        for i in range(1, 4):  # fill chunk 1
            store.put(f"n{i}", size=250 * KB)
        store.put("last", size=250 * KB)  # seals chunk 1, reuses chunk 0
        assert store.gc_runs == 1
        assert store.object_extents("last")[0][0] < 1 * MB
        assert store.store_stats().live_bytes == 5 * 250 * KB

    def test_internal_fragmentation_metric(self):
        store = self.make()
        store.put("a", size=1 * MB)
        store.delete("a")
        assert store.internal_fragmentation() > 0


class TestLfsSpecifics:
    def make(self, capacity=32 * MB):
        device = BlockDevice(scaled_disk(capacity))
        return LfsBackend(device, segment_size=2 * MB)

    def test_overwrites_go_to_log_head(self):
        store = self.make()
        store.put("a", size=512 * KB)
        [(first, _), *_] = store.object_extents("a")
        store.overwrite("a", size=512 * KB)
        [(second, _), *_] = store.object_extents("a")
        assert second != first  # new copy, old space reclaimed by cleaner

    def test_objects_mostly_contiguous(self):
        store = self.make()
        for i in range(8):
            store.put(f"k{i}", size=512 * KB)
        frag_counts = [len(store.object_extents(f"k{i}")) for i in range(8)]
        assert max(frag_counts) <= 2  # at most one segment boundary

    def test_cleaner_reclaims_under_churn(self):
        import random

        rng = random.Random(4)
        store = self.make(capacity=16 * MB)
        keys = [f"k{i}" for i in range(12)]
        for key in keys:
            store.put(key, size=1 * MB)
        for _ in range(120):
            store.overwrite(rng.choice(keys), size=1 * MB)
        assert store.cleaner_runs > 0
        assert store.write_amplification() > 0
        stats = store.store_stats()
        assert stats.live_bytes == 12 * MB

    def test_content_survives_cleaning(self):
        import random

        rng = random.Random(4)
        device = BlockDevice(scaled_disk(16 * MB), store_data=True)
        store = LfsBackend(device, segment_size=1 * MB)
        keys = [f"k{i}" for i in range(16)]
        payloads = {}
        for i, key in enumerate(keys):
            payloads[key] = bytes([i + 1]) * (768 * KB)
            store.put(key, data=payloads[key])
        for _ in range(80):
            key = rng.choice(keys)
            payloads[key] = bytes([rng.randint(1, 255)]) * (768 * KB)
            store.overwrite(key, data=payloads[key])
        assert store.cleaner_runs > 0
        for key in keys:
            assert store.get(key) == payloads[key]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("make, occupancy", [
    pytest.param(lambda d: LfsBackend(d, segment_size=1 * MB), 0.6,
                 id="lfs"),
    pytest.param(lambda d: GfsChunkBackend(d, chunk_size=2 * MB), 0.35,
                 id="gfs"),
])
def test_marker_scan_counts_records_the_cleaner_moved(make, occupancy, seed):
    """The LFS cleaner and the GFS collector copy a record with its
    version unchanged; the source's markers must not outlive the copy,
    or the newest-version filter sees two copies of each sequence
    number and stitches them into one object."""
    from repro.core.fragmentation import MarkerScanner, fragment_counts
    from repro.core.workload import (UniformSize, WorkloadSpec, bulk_load,
                                     churn_to_age)
    from repro.rng import substream

    device = BlockDevice(scaled_disk(32 * MB), store_data=True)
    store = make(device)
    spec = WorkloadSpec(sizes=UniformSize.around_mean(160 * KB),
                        target_occupancy=occupancy, with_content=True)
    state = bulk_load(store, spec, substream(seed, "w"))
    churn_to_age(store, state, 3)
    assert getattr(store, "cleaner_runs", 0) + getattr(store, "gc_runs", 0)
    ids = {key: state.object_id_of(key) for key in state.keys}
    scanner = MarkerScanner(device)
    newest: dict[int, list[int]] = {}
    for hit in sorted(scanner.scan(), key=lambda h: -h.version):
        seqs = newest.setdefault(hit.object_id, [hit.version])
        if hit.version == seqs[0]:
            seqs.append(hit.seq)
    for object_id in ids.values():
        seqs = newest[object_id][1:]
        assert len(seqs) == len(set(seqs)), f"object {object_id} twice"
    assert scanner.fragment_counts(live_ids=set(ids.values())) == {
        ids[key]: count for key, count in fragment_counts(store).items()}


class TestWriteArguments:
    """``lfs``, ``gfs`` and the sharded composite refuse a malformed
    write — neither or both of ``size``/``data``, or an empty object —
    with :class:`ConfigError` before any charge or state change, like
    :class:`FileBackend` and the database."""

    BAD = [
        pytest.param({}, id="neither"),
        pytest.param({"size": 0}, id="size-0"),
        pytest.param({"size": 5, "data": b"abc"}, id="both"),
        pytest.param({"data": b""}, id="empty-data"),
    ]

    @staticmethod
    def make(text):
        return build_store(StoreSpec.parse(text, volume_bytes=64 * MB))

    @staticmethod
    def clocks(store):
        return [d.clock_s for d in store.devices()]

    @pytest.mark.parametrize("text", ["lfs", "gfs", "lfs:shards=2"])
    @pytest.mark.parametrize("kwargs", BAD)
    def test_put_refuses_bad_arguments(self, text, kwargs):
        store = self.make(text)
        with pytest.raises(ConfigError):
            store.put("a", **kwargs)
        assert store.keys() == [] and not store.exists("a")
        assert set(self.clocks(store)) == {0.0}
        store.put("a", size=64 * KB)  # placement state was not disturbed
        assert store.meta("a").size == 64 * KB

    @pytest.mark.parametrize("text", ["lfs", "gfs", "lfs:shards=2"])
    @pytest.mark.parametrize("kwargs", BAD)
    def test_overwrite_refuses_bad_arguments(self, text, kwargs):
        store = self.make(text)
        store.put("a", size=64 * KB)
        clocks = self.clocks(store)
        with pytest.raises(ConfigError):
            store.overwrite("a", **kwargs)
        assert self.clocks(store) == clocks
        assert store.meta("a").size == 64 * KB
        assert store.meta("a").version == 1

    def test_sharded_put_checks_before_placement(self):
        store = self.make("lfs:shards=2,placement=round_robin")
        with pytest.raises(ConfigError):
            store.put("a", size=0)
        store.put("b", size=64 * KB)
        assert store.shard_for("b") == 0
