"""Tests for the throughput probe, experiment driver, and results."""

import math

import pytest

from repro.backends import StoreSpec, build_store
from repro.core.experiment import (
    BACKENDS,
    ExperimentConfig,
    run_experiment,
)
from repro.core.results import AgeSample, RunResult
from repro.core.throughput import measure, measure_read_throughput
from repro.core.workload import ConstantSize, WorkloadSpec, bulk_load
from repro.errors import ConfigError
from repro.rng import substream
from repro.units import KB, MB


class TestMeasure:
    def test_phase_result_throughput(self, file_store):
        with measure(file_store, "load") as phase:
            file_store.put("a", size=1 * MB)
            phase.add_bytes(1 * MB)
        assert phase.logical_bytes == 1 * MB
        assert phase.elapsed_s > 0
        assert phase.mbps == pytest.approx(1 * MB / phase.elapsed_s)

    def test_windows_cover_all_devices(self, file_store):
        # Metadata I/O happens on the meta-db devices; the window must
        # still see its time.
        with measure(file_store, "load") as phase:
            file_store.put("a", size=64 * KB)
            phase.add_bytes(64 * KB)
        meta_io = phase.window.total_time_s
        data_only = file_store.device.stats.busy_time_s
        assert meta_io > 0
        assert meta_io >= data_only * 0.99  # includes the object device

    def test_read_throughput_helper(self, file_store):
        spec = WorkloadSpec(sizes=ConstantSize(256 * KB),
                            target_occupancy=0.3)
        state = bulk_load(file_store, spec, substream(1, "w"))
        result = measure_read_throughput(file_store, state, 8,
                                         substream(1, "r"))
        assert result.logical_bytes == 8 * 256 * KB
        assert result.mbps > 0
        assert result.seeks > 0


class TestExperimentConfig:
    def test_backend_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(store=StoreSpec("oracle"),
                             sizes=ConstantSize(1 * MB))

    def test_ages_must_ascend(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(store=StoreSpec("filesystem"),
                             sizes=ConstantSize(1 * MB),
                             ages=(2.0, 1.0))

    @pytest.mark.parametrize("field, value", [
        ("ages", (float("nan"),)),
        ("ages", (-1.0, 0.0)),
        ("ages", (0.0, float("inf"))),
        ("occupancy", 0.0),
        ("occupancy", 1.5),
        ("occupancy", float("nan")),
        ("reads_per_sample", 0),
    ])
    def test_out_of_range_values_fail_at_construction(self, field, value):
        """Before any store is built or loaded, not mid-run."""
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(store=StoreSpec("filesystem"),
                             sizes=ConstantSize(1 * MB), **{field: value})

    def test_display_label(self):
        cfg = ExperimentConfig(
            store=StoreSpec("filesystem", volume_bytes=2 * 1024 * MB),
            sizes=ConstantSize(10 * MB), occupancy=0.5)
        assert "filesystem" in cfg.display_label()
        assert "10M" in cfg.display_label()

    def test_make_store_all_backends(self):
        # A config's spec builds every registered backend (including
        # the sharded composite).
        for backend in BACKENDS:
            cfg = ExperimentConfig(
                store=StoreSpec(backend, volume_bytes=96 * MB),
                sizes=ConstantSize(1 * MB))
            assert build_store(cfg.store).name


class TestRunExperiment:
    @pytest.fixture(scope="class")
    def small_run(self):
        cfg = ExperimentConfig(
            store=StoreSpec("filesystem", volume_bytes=64 * MB),
            sizes=ConstantSize(512 * KB),
            occupancy=0.5,
            ages=(0.0, 1.0, 2.0),
            reads_per_sample=8,
            seed=3,
        )
        return run_experiment(cfg)

    def test_samples_at_every_age(self, small_run):
        assert [round(s.age) for s in small_run.samples] == [0, 1, 2]

    def test_age_zero_is_clean(self, small_run):
        first = small_run.samples[0]
        assert first.fragments_per_object == pytest.approx(1.0)
        assert first.write_mbps == small_run.bulk_load_write_mbps

    def test_throughputs_positive(self, small_run):
        for sample in small_run.samples:
            assert sample.read_mbps > 0
            assert sample.write_mbps > 0
            assert not math.isnan(sample.occupancy)

    def test_overwrite_counts_monotone(self, small_run):
        counts = [s.overwrites for s in small_run.samples]
        assert counts == sorted(counts)
        assert counts[0] == 0

    def test_deterministic(self):
        cfg = ExperimentConfig(
            store=StoreSpec("database", volume_bytes=32 * MB),
            sizes=ConstantSize(512 * KB),
            ages=(0.0, 1.0),
            reads_per_sample=4,
            seed=11,
        )
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert [s.fragments_per_object for s in a.samples] == \
            [s.fragments_per_object for s in b.samples]
        assert [s.read_mbps for s in a.samples] == \
            [s.read_mbps for s in b.samples]

    def test_progress_callback(self):
        events = []
        cfg = ExperimentConfig(
            store=StoreSpec("filesystem", volume_bytes=32 * MB),
            sizes=ConstantSize(1 * MB),
            ages=(0.0,),
            reads_per_sample=2,
            seed=1,
        )
        run_experiment(cfg, progress=lambda phase, v: events.append(phase))
        assert "bulk-load" in events
        assert "sample" in events


class TestResults:
    def make_result(self):
        return RunResult(
            backend="filesystem",
            label="test",
            config={"seed": 1},
            samples=[
                AgeSample(age=0.0, fragments_per_object=1.0,
                          fragments_median=1.0, fragments_max=1,
                          read_mbps=10 * MB, write_mbps=12 * MB,
                          occupancy=0.5, overwrites=0),
                AgeSample(age=2.0, fragments_per_object=3.0,
                          fragments_median=2.0, fragments_max=9,
                          read_mbps=6 * MB, write_mbps=7 * MB,
                          occupancy=0.5, overwrites=200),
            ],
            bulk_load_write_mbps=12 * MB,
            objects_loaded=100,
            live_bytes=100 * MB,
        )

    def test_sample_at(self):
        result = self.make_result()
        assert result.sample_at(2.0).fragments_per_object == 3.0
        assert result.sample_at(1.9).age == 2.0
        with pytest.raises(KeyError):
            result.sample_at(5.0)

    def test_series(self):
        result = self.make_result()
        assert result.series("fragments_per_object") == \
            [(0.0, 1.0), (2.0, 3.0)]

    def test_round_trip_dict(self):
        result = self.make_result()
        clone = RunResult.from_dict(result.to_dict())
        assert clone.label == result.label
        assert clone.samples == result.samples
        assert clone.bulk_load_write_mbps == result.bulk_load_write_mbps

    def test_save_load(self, tmp_path):
        result = self.make_result()
        path = tmp_path / "run.json"
        result.save(path)
        clone = RunResult.load(path)
        assert clone.samples == result.samples


class TestIndexKindAblation:
    """The free-space engine is no longer a choice: the class keeps its
    name (and test ids) and holds what is left — the spec and
    ``FsConfig`` refuse an engine, and the run record still echoes the
    one a filesystem runs."""

    @staticmethod
    def config(backend="filesystem", **options):
        return ExperimentConfig(
            store=StoreSpec(backend, volume_bytes=64 * MB, options=options),
            sizes=ConstantSize(64 * KB))

    def test_index_kind_validated(self):
        from repro.fs.filesystem import FsConfig

        with pytest.raises(ConfigError, match="does not accept option "
                           ".index_kind.; accepted: .'size_hints', "
                           "'fs_config'."):
            self.config(index_kind="naive")
        with pytest.raises(TypeError):
            FsConfig(index_kind="naive")

    def test_index_kind_in_run_config(self):
        from repro.fs.filesystem import FsConfig

        assert self.config().to_dict()["index_kind"] == "tiered"
        assert self.config(
            fs_config=FsConfig(commit_interval_ops=1),
        ).to_dict()["index_kind"] == "tiered"
        # Backends that never touch the index record None rather than a
        # misleading default.
        assert self.config("database").to_dict()["index_kind"] is None
